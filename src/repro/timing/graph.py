"""Timing-arc extraction from recognition results.

Every arc is deduced, never declared (section 2.3): static gates give
input->output arcs through their conduction paths; dynamic nodes give
clock->node precharge arcs and data->node evaluate arcs; pass networks
give bidirectional source->sink arcs gated by their enables.  Keeper
feedback arcs are *excluded* -- a keeper holds, it does not propagate
events -- which is also what keeps the graph acyclic at domino nodes.

The graph is the unit of incrementality for the timing engine: the
levelized topological order is computed once and cached until the arc
*structure* changes, while pure delay re-pricing (:meth:`TimingGraph.reprice`)
keeps the levels and merely records the destinations whose fan-out cone
must re-propagate (consumed by ``TimingAnalyzer``).  Pricing can run
through an :class:`~repro.timing.arccache.ArcPriceCache` so identical
bit-slices price each arc once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.recognition.conduction import conduction_paths
from repro.recognition.families import CircuitFamily
from repro.recognition.recognizer import RecognizedDesign
from repro.recognition.signature import topology_signature
from repro.timing.delay import ArcDelayCalculator


@dataclass
class DelayArc:
    """One timing arc.

    ``kind`` is one of ``gate`` / ``precharge`` / ``evaluate`` /
    ``pass`` -- the constraint generator treats them differently.
    ``paths`` retains the conduction paths the arc was priced from, so
    re-pricing after an in-place device resize needs no re-enumeration;
    it is bookkeeping, not identity (excluded from equality).
    """

    src: str
    dst: str
    d_min: float
    d_max: float
    kind: str
    paths: tuple = field(default=(), repr=False, compare=False)


@dataclass
class TimingGraph:
    """Arcs plus the derived adjacency and the levelization cache."""

    arcs: list[DelayArc] = field(default_factory=list)
    fanout: dict[str, list[DelayArc]] = field(default_factory=dict)
    fanin: dict[str, list[DelayArc]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Bumped on any structural change (arc added/removed); level and
    #: order caches, and everything keyed on them, invalidate with it.
    structure_version: int = 0
    _topo_order: list[str] | None = field(default=None, repr=False)
    _levels: dict[str, int] | None = field(default=None, repr=False)
    #: Destinations of arcs re-priced since the last propagation
    #: consumed them (dirty-cone seeds).
    _dirty_dsts: set[str] = field(default_factory=set, repr=False)
    _counters: dict[str, int] = field(default_factory=dict, repr=False)

    def add(self, arc: DelayArc) -> None:
        self.arcs.append(arc)
        self.fanout.setdefault(arc.src, []).append(arc)
        self.fanin.setdefault(arc.dst, []).append(arc)
        self._invalidate_structure()

    def nets(self) -> set[str]:
        out: set[str] = set()
        for arc in self.arcs:
            out.add(arc.src)
            out.add(arc.dst)
        return out

    # -- levelization (cached) -------------------------------------------------

    def _invalidate_structure(self) -> None:
        self.structure_version += 1
        self._topo_order = None
        self._levels = None

    def _levelize(self) -> None:
        """Kahn's algorithm with a sorted stack frontier.

        The order matches what arrival propagation historically used
        (deterministic; any valid topological order yields identical
        windows).  Levels satisfy ``level(src) < level(dst)`` for every
        arc, which is what lets dirty-cone propagation process nets in
        dependency order straight off a (level, name) heap.
        """
        indegree: dict[str, int] = {n: 0 for n in self.nets()}
        level: dict[str, int] = {n: 0 for n in indegree}
        for arc in self.arcs:
            indegree[arc.dst] += 1
        frontier = sorted(n for n, d in indegree.items() if d == 0)
        order: list[str] = []
        while frontier:
            net = frontier.pop()
            order.append(net)
            for arc in self.fanout.get(net, []):
                if level[arc.dst] <= level[net]:
                    level[arc.dst] = level[net] + 1
                indegree[arc.dst] -= 1
                if indegree[arc.dst] == 0:
                    frontier.append(arc.dst)
        self._topo_order = order
        self._levels = level
        self._counters["level_builds"] = self._counters.get("level_builds", 0) + 1

    def topo_order(self) -> list[str]:
        """Cached topological order of every net in the graph."""
        if self._topo_order is None:
            self._levelize()
        return self._topo_order  # type: ignore[return-value]

    def levels(self) -> dict[str, int]:
        """Cached topological level per net (0 for pure sources)."""
        if self._levels is None:
            self._levelize()
        return self._levels  # type: ignore[return-value]

    # -- delay mutation --------------------------------------------------------

    def reprice(self, arc: DelayArc, d_min: float, d_max: float) -> bool:
        """Update one arc's delay bounds in place.

        Topology is untouched, so the level cache survives; the arc's
        destination is recorded as a dirty-cone seed for incremental
        propagation.  Returns True when the bounds actually changed.
        """
        self._counters["arcs_repriced"] = self._counters.get("arcs_repriced", 0) + 1
        if (d_min, d_max) == (arc.d_min, arc.d_max):
            return False
        arc.d_min = d_min
        arc.d_max = d_max
        self._dirty_dsts.add(arc.dst)
        self._counters["arcs_changed"] = self._counters.get("arcs_changed", 0) + 1
        return True

    def take_dirty_dsts(self) -> set[str]:
        """Consume the dirty-cone seeds accumulated by :meth:`reprice`."""
        dirty = self._dirty_dsts
        self._dirty_dsts = set()
        return dirty

    def counters(self) -> dict[str, int]:
        return dict(self._counters)


def build_timing_graph(
    design: RecognizedDesign,
    calculator: ArcDelayCalculator,
    arc_cache=None,
) -> TimingGraph:
    """Extract all delay arcs from a recognized design.

    For every CCC output, conduction paths are traced to each *source*
    the node can be driven from: the rails, and any port channel net
    (externally driven data entering through pass devices).  Every gate
    net on such a path contributes an arc; a non-rail source contributes
    a ``pass`` arc.  Dynamic nodes are special-cased so precharge /
    evaluate arcs carry their kinds and keeper devices stay excluded.

    ``arc_cache`` (an :class:`~repro.timing.arccache.ArcPriceCache`)
    memoizes pricing across topologically identical, identically sized,
    identically loaded arcs -- the N stamped bit-slices of a datapath
    price once.  Hits are bit-identical to fresh pricing because the
    key captures every input the pricing formula reads.
    """
    graph = TimingGraph()
    flat_nets = design.flat.nets
    env_key = calculator.environment_key() if arc_cache is not None else None

    for classification in design.classifications:
        ccc = classification.ccc

        sig = None
        geometry = None
        if arc_cache is not None:
            sig = topology_signature(ccc)
            by_name = {t.name: t for t in ccc.transistors}
            geometry = tuple(
                (by_name[n].w_um, by_name[n].l_um, by_name[n].l_add_um)
                for n in sig.devices
            )

        def price(src: str, dst: str, kind: str, paths: list) -> DelayArc:
            if arc_cache is not None and src in sig.labels and dst in sig.labels:
                key = (sig.key, geometry, sig.labels[src], sig.labels[dst],
                       kind, env_key)
                r_min, r_max = arc_cache.drive_bounds(
                    key, lambda: calculator.drive_bounds(paths))
                delay = calculator.delay_from_drive(r_min, r_max, dst)
            else:
                delay = calculator.arc_delay(paths, dst)
            return DelayArc(src=src, dst=dst, d_min=delay.d_min,
                            d_max=delay.d_max, kind=kind, paths=tuple(paths))

        sources: list[str] = []
        if ccc.touches_rail("vdd"):
            sources.append("vdd")
        if ccc.touches_rail("gnd"):
            sources.append("gnd")
        port_sources = sorted(
            n for n in ccc.channel_nets
            if n in flat_nets and flat_nets[n].is_port
        )

        outputs = sorted(ccc.output_nets or ccc.channel_nets)
        for out in outputs:
            if out in classification.dynamic_nodes:
                _dynamic_arcs(graph, ccc, classification.dynamic_nodes[out],
                              out, price)
                continue
            arc_paths: dict[str, list] = {}
            for src in sources + [p for p in port_sources if p != out]:
                paths = conduction_paths(ccc, out, src)
                if not paths:
                    continue
                for path in paths:
                    for gate_net in path.gates():
                        arc_paths.setdefault(gate_net, []).append(path)
                if src not in ("vdd", "gnd"):
                    graph.add(price(src, out, "pass", paths))
            for gate_net, paths in sorted(arc_paths.items()):
                if gate_net == out:
                    continue  # self-feedback (keeper-like): not an event arc
                kind = "pass" if classification.family in (
                    CircuitFamily.PASS_NETWORK, CircuitFamily.TRANSMISSION_GATE
                ) else "gate"
                graph.add(price(gate_net, out, kind, paths))

    _break_cycles(graph)
    return graph


def _dynamic_arcs(graph, ccc, dyn, net, price) -> None:
    """Precharge/evaluate arcs for one dynamic node; keepers excluded."""
    down = conduction_paths(ccc, net, "gnd")
    up = conduction_paths(ccc, net, "vdd")
    pre_paths = [p for p in up if set(p.devices) <= set(dyn.precharge_devices)]
    if pre_paths and dyn.clock:
        graph.add(price(dyn.clock, net, "precharge", pre_paths))
    for inp in sorted(dyn.eval_inputs):
        through = [p for p in down if inp in p.gates()]
        if not through:
            continue
        graph.add(price(inp, net, "evaluate", through))
    # Clock-through-foot evaluate arc (clock arrival can also trigger
    # the discharge when data is already stable).
    foot_paths = [p for p in down if dyn.clock in p.gates()]
    if foot_paths and dyn.clock:
        graph.add(price(dyn.clock, net, "evaluate", foot_paths))


def reprice_arcs(
    graph: TimingGraph,
    calculator: ArcDelayCalculator,
    dsts,
) -> int:
    """Re-price every arc into the given destination nets from its
    retained conduction paths (after in-place device resizes and
    :func:`repro.extraction.annotate.update_net_loads`).

    Returns the number of arcs whose bounds actually moved; the graph
    records their destinations as dirty-cone seeds either way.
    """
    changed = 0
    for dst in dsts:
        for arc in graph.fanin.get(dst, []):
            if not arc.paths:
                continue  # nothing retained: arc predates path bookkeeping
            delay = calculator.arc_delay(list(arc.paths), arc.dst)
            if graph.reprice(arc, delay.d_min, delay.d_max):
                changed += 1
    return changed


def _break_cycles(graph: TimingGraph) -> None:
    """Drop back-edges so arrival propagation terminates.

    Storage feedback (cross-coupled loops, staticizer paths) and
    bidirectional pass arcs create cycles; STA breaks them and notes the
    breaks, mirroring the paper's observation that loop/false-path
    handling needs designer visibility.

    A depth-first search from every net in name order; an arc into a
    net still on the search path is a back-edge and is dropped.  The
    search keeps an explicit stack of ``(net, remaining fan-out arcs)``
    rather than recursing, so path depth is bounded by memory, not by
    the interpreter's recursion limit.
    """
    color: dict[str, int] = {}  # absent: unvisited, 1: on path, 2: done
    kept: list[DelayArc] = []
    dropped = 0

    adjacency: dict[str, list[DelayArc]] = {}
    for arc in graph.arcs:
        adjacency.setdefault(arc.src, []).append(arc)

    for root in sorted(graph.nets()):
        if root in color:
            continue
        color[root] = 1
        stack = [(root, iter(adjacency.get(root, ())))]
        while stack:
            net, arcs = stack[-1]
            for arc in arcs:
                state = color.get(arc.dst)
                if state is None:
                    kept.append(arc)
                    color[arc.dst] = 1
                    stack.append((arc.dst, iter(adjacency.get(arc.dst, ()))))
                    break
                if state == 1:
                    dropped += 1  # back-edge: break the loop here
                else:
                    kept.append(arc)
            else:
                stack.pop()
                color[net] = 2

    if dropped:
        graph.notes.append(f"broke {dropped} feedback arc(s) for acyclic analysis")
        graph.arcs = kept
        graph.fanout.clear()
        graph.fanin.clear()
        for arc in kept:
            graph.fanout.setdefault(arc.src, []).append(arc)
            graph.fanin.setdefault(arc.dst, []).append(arc)
        graph._invalidate_structure()
