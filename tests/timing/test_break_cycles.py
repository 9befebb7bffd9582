"""The iterative cycle breaker against the recursive search it replaced.

``_break_cycles`` walks the timing graph with an explicit stack.  The
recursive depth-first search it replaced is kept here as the oracle:
on random graphs both must keep the same arcs in the same order and
write the same note, and a path far deeper than the interpreter's
recursion limit must break without touching that limit.
"""

import sys

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.timing.graph import DelayArc, TimingGraph, _break_cycles


def recursive_break_cycles(graph: TimingGraph) -> tuple[list, int]:
    """The recursive search: (kept arcs in order, dropped count)."""
    color: dict[str, int] = {}
    kept: list[DelayArc] = []
    dropped = 0
    adjacency: dict[str, list[DelayArc]] = {}
    for arc in graph.arcs:
        adjacency.setdefault(arc.src, []).append(arc)
    on_stack: set[str] = set()

    def dfs(net: str) -> None:
        nonlocal dropped
        color[net] = 1
        on_stack.add(net)
        for arc in adjacency.get(net, []):
            if color.get(arc.dst, 0) == 0:
                kept.append(arc)
                dfs(arc.dst)
            elif arc.dst in on_stack:
                dropped += 1
            else:
                kept.append(arc)
        on_stack.discard(net)
        color[net] = 2

    for net in sorted(graph.nets()):
        if color.get(net, 0) == 0:
            dfs(net)
    return kept, dropped


def _graph(edges) -> TimingGraph:
    graph = TimingGraph()
    for i, (src, dst) in enumerate(edges):
        graph.add(DelayArc(src=f"n{src}", dst=f"n{dst}", d_min=float(i),
                           d_max=float(i + 1), kind="gate"))
    return graph


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=160))
def test_matches_recursive_search(edges):
    graph = _graph(edges)
    kept, dropped = recursive_break_cycles(graph)
    before = list(graph.arcs)
    _break_cycles(graph)
    assert graph.arcs == (kept if dropped else before)
    expected = ([f"broke {dropped} feedback arc(s) for acyclic analysis"]
                if dropped else [])
    assert graph.notes == expected
    for arc in graph.arcs:
        assert arc in graph.fanout[arc.src] and arc in graph.fanin[arc.dst]
    assert sum(len(v) for v in graph.fanout.values()) == len(graph.arcs)


def test_deep_chain_needs_no_recursion_limit(monkeypatch):
    depth = 60_001
    edges = [(i, i + 1) for i in range(depth)] + [(depth, 0)]
    graph = _graph(edges)

    def forbidden(limit):
        raise AssertionError("cycle breaking must not touch the recursion limit")

    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
    _break_cycles(graph)
    assert sys.getrecursionlimit() == limit
    assert len(graph.arcs) == depth
    assert graph.notes == ["broke 1 feedback arc(s) for acyclic analysis"]
    assert graph.topo_order()[0] == "n0"
