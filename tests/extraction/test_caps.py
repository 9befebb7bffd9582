"""Unit tests for repro.extraction.caps."""

import math

import pytest

from repro.extraction.caps import Bound, Coupling, NetParasitics, Parasitics


def test_bound_construction_and_validation():
    b = Bound.from_tolerance(100.0, 0.2)
    assert b.lo == pytest.approx(80.0)
    assert b.hi == pytest.approx(120.0)
    with pytest.raises(ValueError):
        Bound(2.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        Bound.from_tolerance(-1.0, 0.1)


def test_bound_arithmetic():
    a = Bound(1.0, 2.0, 3.0)
    b = Bound(10.0, 20.0, 30.0)
    s = a + b
    assert (s.lo, s.nominal, s.hi) == (11.0, 22.0, 33.0)
    d = a.scaled(2.0)
    assert (d.lo, d.nominal, d.hi) == (2.0, 4.0, 6.0)
    with pytest.raises(ValueError):
        a.scaled(-1.0)


def test_coupling_miller_bounds():
    c = Coupling("aggr", Bound.from_tolerance(10e-15, 0.2))
    assert c.effective_max(2.0) == pytest.approx(24e-15)  # 1.2 * 2
    assert c.effective_min(0.0) == 0.0
    assert c.effective_min(1.0) == pytest.approx(8e-15)


def test_net_parasitics_cap_range():
    p = NetParasitics(net="v")
    p.cap_ground = Bound.from_tolerance(100e-15, 0.2)
    p.couplings.append(Coupling("a", Bound.from_tolerance(20e-15, 0.2)))
    # Max: 120 ground + 2 * 24 coupling; min: 80 ground + 0.
    assert p.cap_max() == pytest.approx(120e-15 + 48e-15)
    assert p.cap_min() == pytest.approx(80e-15)
    assert p.cap_nominal() == pytest.approx(120e-15)
    assert p.cap_max() > p.cap_nominal() > p.cap_min()


def test_parasitics_symmetric_coupling():
    par = Parasitics()
    par.add_coupling("x", "y", Bound.from_tolerance(5e-15, 0.2))
    assert par.of("x").coupling_to("y") is not None
    assert par.of("y").coupling_to("x") is not None
    assert par.of("x").coupling_to("z") is None


def test_coupling_ratio():
    par = Parasitics()
    p = par.of("v")
    p.cap_ground = Bound.from_tolerance(75e-15, 0.0)
    par.add_coupling("v", "a", Bound.from_tolerance(25e-15, 0.0))
    assert par.coupling_ratio("v") == pytest.approx(0.25)
    assert par.coupling_ratio("unknown") == 0.0


def test_coupling_caps_add_left_to_right():
    """Coupling caps of 0.1, 0.2 and 0.3 add to 0.6000000000000001 left
    to right but to 0.6 under compensated summation (``math.fsum``, and
    ``sum()`` from Python 3.12 on); the wire cap takes the left-to-right
    value on every Python version, so loads and timing arcs do too."""
    p = NetParasitics(net="n", couplings=[
        Coupling(other_net=f"a{i}", cap=Bound(v, v, v))
        for i, v in enumerate((0.1, 0.2, 0.3))])
    assert math.fsum((0.1, 0.2, 0.3)) == 0.6
    assert p.cap_nominal() == 0.6000000000000001
    assert p.cap_min(1.0) == p.cap_max(1.0) == 0.6000000000000001
