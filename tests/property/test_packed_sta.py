"""Property tests: packed-row STA pricing == the object-path oracle.

:func:`repro.timing.graph.build_timing_graph` prices every arc from the
packed rows of :func:`repro.recognition.conduction.path_rows` -- one
gather, sort and sum per design -- instead of walking
:class:`ConductionPath` lists.  The contract is equality with the
object-path build it replaced, kept in ``tests/oracles/sta_paths.py``:
the same arcs in the same order with float-identical bounds, the same
``graph.notes`` and the same ``ArcPriceCache`` counters, with and
without the cache, on the zoo designs, random transistor soups and
``chip_scale(1000)``, at the default sweep split and with the
vectorized BFS forced on every CCC (``_BFS_MIN_DEVICES = 0``).

Path sums are added left to right in ascending value order on both
sides, so they do not depend on the Python version (``sum()`` over
floats compensates from 3.12 on); a pinned value list shows where the
summations disagree.  Re-pricing after an in-place resize must equal a
fresh build bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_memoized_recognition import zoo_design
from test_packed_recognition import _soup_flat, bfs_split, bfs_splits
from test_setup_sweeps import network

from repro.designs import chip_scale
from repro.extraction.annotate import annotate, update_net_loads
from repro.extraction.wireload import WireloadModel
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.process.corners import Corner
from repro.process.technology import strongarm_technology
from repro.recognition import conduction
from repro.recognition.recognizer import recognize
from repro.timing.arccache import ArcPriceCache
from repro.timing.delay import ArcDelayCalculator, series_sum
from repro.timing.graph import build_timing_graph, reprice_arcs
from tests.oracles import sta_paths as oracle

TECH = strongarm_technology()


def arc_rows(graph):
    """Every arc as (src, dst, kind, d_min, d_max), floats as hex."""
    return [(a.src, a.dst, a.kind, a.d_min.hex(), a.d_max.hex())
            for a in graph.arcs]


def _annotated(flat):
    parasitics = WireloadModel().extract(flat, TECH.wires)
    return (annotate(flat, parasitics, TECH, Corner.FAST),
            annotate(flat, parasitics, TECH, Corner.SLOW))


def _outcome(build, design, calculator, cache):
    try:
        graph = build(design, calculator, arc_cache=cache)
    except (RuntimeError, ValueError) as err:
        return None, str(err)
    return (arc_rows(graph), list(graph.notes),
            cache.counters() if cache is not None else None), None


def assert_sta_matches(flat):
    """Packed and oracle builds agree on ``flat``, cached and uncached.

    The oracle runs first on the fresh design, so its port pairs come
    from its own source-rooted sweeps rather than from the port sweeps
    the packed build starts.
    """
    design = recognize(flat)
    fast, slow = _annotated(flat)
    for cached in (False, True):
        want = _outcome(oracle.build_timing_graph, design,
                        oracle.ObjectPathCalculator(fast, slow),
                        ArcPriceCache() if cached else None)
        got = _outcome(build_timing_graph, design,
                       ArcDelayCalculator(fast, slow),
                       ArcPriceCache() if cached else None)
        assert got == want


def domino_or(wa=4.0, wb=1.0):
    """Footed domino OR of ``a`` and ``b`` with unequal input widths,
    a keeper and an output inverter: precharge, evaluate and foot arcs
    whose evaluate bounds differ by input."""
    b = CellBuilder("dom", ports=["clk", "a", "b", "y"])
    b.pmos("clk", "dyn", "vdd", w=4.0, name="mpre")
    b.nmos("a", "dyn", "foot", w=wa, name="ma")
    b.nmos("b", "dyn", "foot", w=wb, name="mb")
    b.nmos("clk", "foot", "gnd", w=4.0, name="mfoot")
    b.nmos("dyn", "y", "gnd", w=3.0, name="mon")
    b.pmos("dyn", "y", "vdd", w=6.0, name="mop")
    b.pmos("y", "dyn", "vdd", w=0.4, name="mkeep")
    return flatten(b.build())


@bfs_splits
@given(zoo_design())
@settings(max_examples=20, deadline=None)
def test_zoo_arcs_match_oracle(bfs_min, top):
    with bfs_split(bfs_min):
        assert_sta_matches(flatten(top))


@bfs_splits
@given(network)
@example(devices=[  # pseudo-NMOS: an always-on pull-up, no gated device
    ("pmos", "gnd", "p0", "vdd", 1.0), ("nmos", "p1", "p0", "gnd", 4.0)])
@example(devices=[  # a gated pass device between two ports
    ("nmos", "x0", "p0", "p1", 2.0), ("pmos", "x1", "p1", "vdd", 1.0),
    ("nmos", "p2", "p1", "x2", 4.0), ("nmos", "p2", "x2", "gnd", 1.0)])
@settings(max_examples=80, deadline=None)
def test_soup_arcs_match_oracle(bfs_min, devices):
    """Random soups add what the zoo lacks: rail-gated devices (in a
    path, but no arc), pass paths between ports, cycles broken by
    ``_break_cycles`` and rows of uneven depth."""
    flat = _soup_flat(devices)
    if flat is not None:
        with bfs_split(bfs_min):
            assert_sta_matches(flat)


@bfs_splits
def test_domino_arcs_match_oracle(bfs_min):
    """Precharge, per-input evaluate and clock-through-foot arcs."""
    flat = domino_or()
    with bfs_split(bfs_min):
        design = recognize(flat)
        assert any("dyn" in c.dynamic_nodes for c in design.classifications)
        fast, slow = _annotated(flat)
        graph = build_timing_graph(design, ArcDelayCalculator(fast, slow))
        into_dyn = {(a.src, a.kind): (a.d_min, a.d_max)
                    for a in graph.arcs if a.dst == "dyn"}
        assert set(into_dyn) == {("clk", "precharge"), ("a", "evaluate"),
                                 ("b", "evaluate"), ("clk", "evaluate")}
        assert into_dyn[("a", "evaluate")] != into_dyn[("b", "evaluate")]
        assert_sta_matches(flat)


@bfs_splits
def test_chip_scale_arcs_match_oracle(bfs_min):
    with bfs_split(bfs_min):
        assert_sta_matches(flatten(chip_scale(1000).cell))


def test_build_makes_no_conduction_paths(monkeypatch):
    flat = flatten(chip_scale(1000).cell)
    design = recognize(flat)
    made = []
    init = conduction.ConductionPath.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(conduction.ConductionPath, "__init__", counted)
    fast, slow = _annotated(flat)
    graph = build_timing_graph(design, ArcDelayCalculator(fast, slow),
                               arc_cache=ArcPriceCache())
    assert len(graph.arcs) > 1000
    assert made == []
    assert all(not ccc.path_cache for ccc in design.cccs)


# -- summation -------------------------------------------------------------


def test_path_sums_add_left_to_right():
    """``[0.1, 0.2, 0.3]`` adds to 0.6000000000000001 left to right but
    to 0.6 under compensated summation (``math.fsum``, and ``sum()``
    from Python 3.12 on); ten 0.1s add to 0.9999999999999999 left to
    right but to 1.0 under numpy's pairwise ``np.sum``.  Pricing and the
    oracle both take the left-to-right value on every Python version."""
    short, long = [0.3, 0.1, 0.2], [0.1] * 10
    assert math.fsum(short) == 0.6 != 0.6000000000000001
    assert np.sum(np.array([long]), axis=1)[0] == 1.0
    got = series_sum(np.array([short + [0.0] * 7, long]))
    assert got.tolist() == [0.6000000000000001, 0.9999999999999999]
    assert oracle.left_to_right(sorted(short)) == 0.6000000000000001
    assert oracle.left_to_right(long) == 0.9999999999999999


# -- re-pricing after an in-place resize -----------------------------------


@pytest.mark.parametrize("resize", ["ma", "mfoot", "mpre"])
def test_reprice_after_resize_equals_fresh_build(resize):
    flat = domino_or()
    design = recognize(flat)
    parasitics = WireloadModel().extract(flat, TECH.wires)
    fast = annotate(flat, parasitics, TECH, Corner.FAST)
    slow = annotate(flat, parasitics, TECH, Corner.SLOW)
    calculator = ArcDelayCalculator(fast, slow)
    graph = build_timing_graph(design, calculator)
    before = arc_rows(graph)

    device = next(t for t in flat.transistors if t.name == resize)
    device.w_um *= 3.0
    flat.rebuild_connectivity()
    touched = sorted((device.gate, device.drain, device.source))
    update_net_loads(fast, touched)
    update_net_loads(slow, touched)
    changed = reprice_arcs(graph, calculator, sorted(graph.fanin))
    assert changed > 0

    fast2 = annotate(flat, parasitics, TECH, Corner.FAST)
    slow2 = annotate(flat, parasitics, TECH, Corner.SLOW)
    fresh = build_timing_graph(design, ArcDelayCalculator(fast2, slow2))
    assert arc_rows(graph) == arc_rows(fresh) != before
    want = oracle.build_timing_graph(
        design, oracle.ObjectPathCalculator(fast2, slow2))
    assert arc_rows(graph) == arc_rows(want)
