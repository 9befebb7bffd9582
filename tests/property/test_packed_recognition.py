"""Property tests: packed-row recognition == the object-path oracles.

Gate extraction, clock seeds, classification and restoring facts read
:class:`repro.recognition.conduction.SweepForest` rows and per-node
flags instead of :class:`ConductionPath` lists.  The contract is
equality with the object-path bodies they replaced, kept in
``tests/oracles/recognition_paths.py``: same gates (truth table over the
same input order), same seeds, same classification field for field and
in the same insertion order, same facts -- with the sweep strategy at
its default split and with the vectorized BFS forced on every CCC
(``_BFS_MIN_DEVICES = 0``), since the two strategies record forests in
different orders.

``path_rows`` is held to :func:`conduction_paths` (content, order and
overflow error), and ``recognize()`` must leave every CCC's
``path_cache`` empty: it builds no path objects at all.
"""

from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from test_memoized_recognition import zoo_design
from test_setup_sweeps import PORTS, _cccs, _endpoints, network

from repro.designs import chip_scale
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.perf.cache import DesignCache
from repro.recognition import conduction
from repro.recognition.ccc import extract_cccs
from repro.recognition.clocks import ccc_clock_seeds
from repro.recognition.conduction import (
    _enumerate_pair,
    conduction_paths,
    path_rows,
    sweep_forest,
)
from repro.recognition.families import classify_ccc
from repro.recognition.gates import drive_pull_paths, recognize_static_gate
from repro.recognition.latches import restoring_facts
from repro.recognition.recognizer import recognize
from tests.oracles import recognition_paths as oracle

#: ``_BFS_MIN_DEVICES`` at its default, and pinned to 0 (every CCC
#: swept by the vectorized BFS, so every forest scanned by numpy).
bfs_splits = pytest.mark.parametrize(
    "bfs_min", [None, 0], ids=["default-split", "bfs-everywhere"])


@contextmanager
def bfs_split(bfs_min):
    threshold = conduction._BFS_MIN_DEVICES
    if bfs_min is not None:
        conduction._BFS_MIN_DEVICES = bfs_min
    try:
        yield
    finally:
        conduction._BFS_MIN_DEVICES = threshold


def _soup_flat(devices):
    """The flat netlist of a ``network`` draw (None when no device has
    a channel), built like ``test_setup_sweeps._cccs``."""
    b = CellBuilder("soup", ports=PORTS)
    for i, (pol, gate, drain, source, w) in enumerate(devices):
        if drain != source:
            add = b.nmos if pol == "nmos" else b.pmos
            add(gate, drain, source, w=w, name=f"m{i}")
    cell = b.build()
    return flatten(cell) if cell.transistors else None


def _gate(g):
    return None if g is None else (g.output, tuple(g.inputs), g.table,
                                   g.complementary)


def _classification(c):
    return (
        c.family,
        tuple(c.notes),
        tuple((out, _gate(g)) for out, g in c.gates.items()),
        tuple((out, tuple(d.precharge_devices), tuple(d.foot_devices),
               tuple(sorted(d.eval_inputs)), d.clock,
               tuple(d.keeper_devices))
              for out, d in c.dynamic_nodes.items()),
        tuple(c.pass_pairs),
        tuple(sorted(c.cross_coupled_with)),
    )


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (RuntimeError, ValueError) as err:
        return None, str(err)


def assert_recognition_matches(flat):
    """Every packed consumer equals its oracle on every CCC of ``flat``."""
    clock_set = frozenset(recognize(flat, memo=False).clocks)
    for ccc in extract_cccs(flat):
        for net in sorted(ccc.channel_nets):
            got, err = _outcome(recognize_static_gate, ccc, net)
            want, want_err = _outcome(oracle.recognize_static_gate, ccc, net)
            assert (err, _gate(got)) == (want_err, _gate(want)), net
        assert ccc_clock_seeds(ccc) == oracle.ccc_clock_seeds(ccc)
        for clocks in (frozenset(), clock_set):
            assert (_classification(classify_ccc(ccc, clocks))
                    == _classification(oracle.classify_ccc(ccc, clocks)))
        got = restoring_facts(ccc)
        want = oracle.restoring_facts(ccc)
        assert list(got.items()) == list(want.items())


@bfs_splits
@given(zoo_design())
@settings(max_examples=30, deadline=None)
def test_zoo_recognition_matches_oracles(bfs_min, top):
    with bfs_split(bfs_min):
        assert_recognition_matches(flatten(top))


@bfs_splits
@given(network)
@example(devices=[  # pseudo-NMOS: an always-on pull-up, no gated device
    ("pmos", "gnd", "p0", "vdd", 1.0), ("nmos", "p1", "p0", "gnd", 4.0)])
@example(devices=[  # clocked precharge in series with an always-on device
    ("pmos", "p1", "x0", "vdd", 1.0), ("pmos", "gnd", "p0", "x0", 1.0),
    ("nmos", "p2", "p0", "gnd", 2.0), ("nmos", "p1", "p2", "gnd", 2.0)])
@example(devices=[  # a CCC with no live channel net: an empty forest
    ("nmos", "p0", "p0", "p0", 1.0), ("nmos", "p0", "p0", "p0", 1.0),
    ("nmos", "p0", "p0", "p0", 1.0), ("nmos", "gnd", "p0", "p1", 1.0)])
@settings(max_examples=80, deadline=None)
def test_soup_recognition_matches_oracles(bfs_min, devices):
    """Random soups add what the zoo lacks: rail-gated (always-on)
    loads, so pull-up chains with no gated device at all, cycles and
    self-gated channels."""
    flat = _soup_flat(devices)
    if flat is not None:
        with bfs_split(bfs_min):
            assert_recognition_matches(flat)


@bfs_splits
def test_chip_scale_recognition_matches_oracles(bfs_min):
    """chip_scale(1000) carries 42- and 48-device CCCs: both sides of
    the default split, and BFS forests deep enough for level scans."""
    with bfs_split(bfs_min):
        flat = flatten(chip_scale(1000).cell)
        assert {42, 48} <= {len(c.transistors) for c in extract_cccs(flat)}
        assert_recognition_matches(flat)


@bfs_splits
@given(network)
@settings(max_examples=60, deadline=None)
def test_driving_flag_selects_drive_pull_paths(bfs_min, devices):
    """The per-node ``driving`` flag keeps exactly the paths
    ``drive_pull_paths`` keeps, for every source of the CCC."""
    with bfs_split(bfs_min):
        for ccc in _cccs(devices):
            for net in sorted(ccc.channel_nets):
                down, up = drive_pull_paths(ccc, net)
                for rail, paths in (("gnd", down), ("vdd", up)):
                    forest = sweep_forest(ccc, rail, net)
                    rows = forest.rows(forest.where(forest.nodes(net),
                                                    forest.driving))
                    names = forest.dev_names
                    assert (sorted(tuple(names[d] for d in row) for row in rows)
                            == sorted(p.devices for p in paths)), (net, rail)


@bfs_splits
@given(network)
@settings(max_examples=60, deadline=None)
def test_path_rows_match_conduction_paths(bfs_min, devices):
    """Row content and row order equal ``conduction_paths``'s list."""
    with bfs_split(bfs_min):
        for ccc in _cccs(devices):
            names = [t.name for t in ccc.transistors]
            nets = _endpoints(ccc)
            for tgt in nets:
                for src in nets:
                    if src == tgt:
                        continue
                    rows = path_rows(ccc, src, tgt)
                    assert rows.shape[0] == 0 or (rows[:, 0] >= 0).all()
                    got = [tuple(names[d] for d in row if d >= 0)
                           for row in rows.tolist()]
                    assert got == [p.devices
                                   for p in conduction_paths(ccc, src, tgt)]


@bfs_splits
@given(network, st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_path_rows_overflow_parity(bfs_min, devices, max_paths):
    """At a tiny ``max_paths`` ``path_rows`` raises exactly when, and
    exactly what, the per-pair enumerator raises."""
    with bfs_split(bfs_min):
        for ccc in _cccs(devices):
            names = [t.name for t in ccc.transistors]
            for src in _endpoints(ccc):
                for tgt in _endpoints(ccc):
                    if src == tgt:
                        continue
                    rows, err = _outcome(path_rows, ccc, src, tgt, max_paths)
                    want, want_err = _outcome(_enumerate_pair, ccc, src, tgt,
                                              max_paths)
                    assert err == want_err, (src, tgt)
                    if want is not None:
                        assert ([tuple(names[d] for d in row if d >= 0)
                                 for row in rows.tolist()]
                                == [p.devices for p in want])


@bfs_splits
def test_rows_restore_per_pair_order(bfs_min):
    """A bridged diamond whose target-rooted record order differs from
    the per-pair order: ``path_rows`` and the materialized paths must
    still come out in per-pair order."""
    with bfs_split(bfs_min):
        b = CellBuilder("diamond", ports=["u", "e1", "e2", "e3", "e4", "e5"])
        for gate, drain, source, name in (
                ("e1", "u", "a", "d1"), ("e2", "u", "b", "d2"),
                ("e3", "a", "gnd", "d3"), ("e4", "b", "gnd", "d4"),
                ("e5", "a", "b", "d5")):
            b.nmos(gate, drain, source, w=1.0, name=name)
        ccc = extract_cccs(flatten(b.build()))[0]
        want = [p.devices for p in _enumerate_pair(ccc, "u", "gnd", 10000)]
        forest = sweep_forest(ccc, "gnd", "u")
        names = forest.dev_names

        def named(rows):
            return [tuple(names[d] for d in row if d >= 0) for row in rows]

        assert named(forest.rows(forest.nodes("u"))) != want
        assert named(path_rows(ccc, "u", "gnd").tolist()) == want
        assert [p.devices for p in conduction_paths(ccc, "u", "gnd")] == want


def test_path_rows_cached_read_only(monkeypatch):
    """A pair is unrolled once: a second call -- and the paths
    ``conduction_paths`` builds -- read the cached, unwritable matrix."""
    b = CellBuilder("stack", ports=["y", "a", "b"])
    b.nmos("a", "y", "m", w=1.0, name="d1")
    b.nmos("b", "m", "gnd", w=1.0, name="d2")
    b.nmos("b", "y", "gnd", w=1.0, name="d3")
    ccc = extract_cccs(flatten(b.build()))[0]
    unrolls = []
    unroll = conduction._unroll
    monkeypatch.setattr(conduction, "_unroll",
                        lambda *args, **kw: unrolls.append(1) or unroll(*args, **kw))
    rows = path_rows(ccc, "y", "gnd")
    assert rows.shape[0] == 2 and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    assert path_rows(ccc, "y", "gnd") is rows
    assert [p.devices for p in conduction_paths(ccc, "y", "gnd")] == [
        tuple(ccc.transistors[d].name for d in row if d >= 0)
        for row in rows.tolist()]
    assert len(unrolls) == 1


def test_path_rows_rejects_loop_pairs():
    ccc = extract_cccs(flatten(chip_scale(1000).cell))[0]
    net = sorted(ccc.channel_nets)[0]
    with pytest.raises(ValueError):
        path_rows(ccc, net, net)


def test_recognize_builds_no_conduction_paths():
    flat = flatten(chip_scale(1000).cell)
    cache = DesignCache()
    design = cache.recognized(flat)
    assert design.cccs
    assert all(not ccc.path_cache for ccc in design.cccs)
