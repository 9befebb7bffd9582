"""Unit tests for repro.recognition.families."""

from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.recognition.ccc import extract_cccs
from repro.recognition.families import (
    CircuitFamily,
    classify_ccc,
    find_cross_coupled_pairs,
)


def classify_all(cell, clocks=frozenset()):
    cccs = extract_cccs(flatten(cell))
    return [classify_ccc(c, clocks) for c in cccs]


def test_static_gate_family():
    b = CellBuilder("nand", ports=["a", "b", "y"])
    b.nand(["a", "b"], "y")
    (c,) = classify_all(b.build())
    assert c.family is CircuitFamily.STATIC
    assert "y" in c.gates and c.gates["y"].complementary


def test_domino_dynamic_family():
    b = CellBuilder("dom", ports=["clk", "a", "b", "y"])
    dyn = b.domino_gate("clk", ["a", "b"], "y")
    results = classify_all(b.build(), clocks=frozenset({"clk"}))
    dyn_c = next(c for c in results if dyn in c.ccc.channel_nets)
    assert dyn_c.family is CircuitFamily.DYNAMIC
    node = dyn_c.dynamic_nodes[dyn]
    assert node.clock == "clk"
    assert node.eval_inputs == {"a", "b"}
    assert len(node.precharge_devices) == 1
    assert len(node.foot_devices) == 1
    assert len(node.keeper_devices) == 1


def test_domino_without_clock_knowledge_is_not_dynamic():
    """Without the clock set, the keeper-fed pull-up looks cross-coupled;
    the classifier must not claim DYNAMIC."""
    b = CellBuilder("dom", ports=["clk", "a", "y"])
    dyn = b.domino_gate("clk", ["a"], "y")
    results = classify_all(b.build(), clocks=frozenset())
    dyn_c = next(c for c in results if dyn in c.ccc.channel_nets)
    assert dyn_c.family is not CircuitFamily.DYNAMIC


def test_footless_domino_dynamic():
    b = CellBuilder("dom", ports=["clk", "a", "y"])
    # Hand-built footless domino: precharge + direct eval device.
    b.pmos("clk", "dyn", "vdd", w=4.0)
    b.nmos("a", "dyn", "gnd", w=4.0)
    b.inverter("dyn", "y")
    results = classify_all(b.build(), clocks=frozenset({"clk"}))
    dyn_c = next(c for c in results if "dyn" in c.ccc.channel_nets)
    assert dyn_c.family is CircuitFamily.DYNAMIC
    assert dyn_c.dynamic_nodes["dyn"].foot_devices == []


def test_pass_network_family():
    b = CellBuilder("mux", ports=["a", "b", "s", "s_b", "y"])
    b.nmos_pass("a", "y", "s")
    b.nmos_pass("b", "y", "s_b")
    (c,) = classify_all(b.build())
    assert c.family is CircuitFamily.PASS_NETWORK
    assert ("a", "y") in c.pass_pairs
    assert ("b", "y") in c.pass_pairs


def test_transmission_gate_family():
    b = CellBuilder("tg", ports=["x", "y", "en", "en_b"])
    b.transmission_gate("x", "y", "en", "en_b")
    (c,) = classify_all(b.build())
    assert c.family is CircuitFamily.TRANSMISSION_GATE


def test_isolated_decap():
    b = CellBuilder("decap", ports=[])
    b.nmos("vdd", "gnd", "gnd", w=20.0)
    (c,) = classify_all(b.build())
    assert c.family is CircuitFamily.ISOLATED


def test_pull_only_family():
    b = CellBuilder("pullup", ports=["en", "y"])
    b.pmos("en", "y", "vdd", w=2.0)
    (c,) = classify_all(b.build())
    assert c.family is CircuitFamily.PULL_ONLY


def test_ratioed_family():
    b = CellBuilder("pseudo", ports=["a", "y"])
    b.pmos("gnd", "y", "vdd", w=1.0)
    b.nmos("a", "y", "gnd", w=4.0)
    (c,) = classify_all(b.build())
    assert c.family is CircuitFamily.RATIOED


def test_dcvsl_halves_and_pairing():
    b = CellBuilder("dcvsl", ports=["a", "b", "a_b", "b_b", "t", "f"])
    b.dcvsl(["a", "b"], ["a_b", "b_b"], "t", "f")
    results = classify_all(b.build())
    halves = [c for c in results if c.family is CircuitFamily.CROSS_COUPLED_HALF]
    assert len(halves) == 2
    assert find_cross_coupled_pairs(results) == [("t", "f")]
    # A couple the latch finder already claimed as storage is no pair.
    assert find_cross_coupled_pairs(results, storage_nets={"t"}) == []


def test_mixed_dynamic_and_static_notes():
    """A CCC containing both a dynamic node and a static output stays
    classified DYNAMIC with a note (conservative for the checks)."""
    b = CellBuilder("mix", ports=["clk", "a", "c", "y", "z"])
    # Dynamic node dyn shares a channel with a static-ish structure via a
    # pass device, merging the two into one CCC.
    b.pmos("clk", "dyn", "vdd", w=4.0)
    b.nmos("a", "dyn", "foot", w=4.0)
    b.nmos("clk", "foot", "gnd", w=4.0)
    b.inverter("dyn", "y")
    b.nmos_pass("dyn", "z", "c")
    results = classify_all(b.build(), clocks=frozenset({"clk"}))
    dyn_c = next(c for c in results if "dyn" in c.ccc.channel_nets)
    assert dyn_c.family is CircuitFamily.DYNAMIC
    assert "dyn" in dyn_c.dynamic_nodes
