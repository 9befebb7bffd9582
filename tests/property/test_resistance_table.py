"""Property tests: the per-corner on-resistance table is exact.

``AnnotatedDesign.on_resistance`` memoizes the I-V model per device
geometry.  It must return, bit for bit, what evaluating the model per
call returned -- for any polarity, corner, width and length -- follow
in-place resizes, and leave every priced timing arc and every check
path resistance float-identical to the per-call pricing it replaced,
which is kept here as the oracle: a subclass of the object-path STA
oracle (``tests/oracles/sta_paths.py``) that evaluates the model once
per device per path.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.checks.helpers import device_map, path_resistance
from repro.designs import chip_scale
from repro.extraction.annotate import AnnotatedDesign, annotate
from repro.extraction.wireload import WireloadModel
from repro.netlist.devices import Transistor
from repro.netlist.flatten import FlatNetlist, flatten
from repro.process.corners import Corner
from repro.process.mosfet import MosfetModel
from repro.process.technology import strongarm_technology
from repro.recognition.conduction import conduction_paths
from repro.recognition.recognizer import recognize
from repro.timing.arccache import ArcPriceCache
from repro.timing.delay import ArcDelayCalculator
from repro.timing.graph import build_timing_graph
from tests.oracles import sta_paths as oracle

TECH = strongarm_technology()


def scalar_on_resistance(device, tech, corner) -> float:
    """The per-call model evaluation the table replaced."""
    model = tech.mosfet(device.polarity, corner)
    return model.on_resistance(tech.vdd_at(corner), device.w_um,
                               device.effective_length(tech.l_min_um))


class ScalarCalculator(oracle.ObjectPathCalculator):
    """Arc pricing with one model evaluation per device per path."""

    def _path_resistance(self, path, design):
        values = [scalar_on_resistance(self._device_fast[name],
                                       design.technology, design.corner)
                  for name in path.devices]
        return oracle.left_to_right(sorted(values))


def scalar_path_resistance(path, annotated, devices) -> float:
    total = 0.0
    for name in path.devices:
        total += scalar_on_resistance(devices[name], annotated.technology,
                                      annotated.corner)
    return total


def _empty_design(corner):
    return AnnotatedDesign(flat=FlatNetlist(name="empty"), technology=TECH,
                           corner=corner)


lengths = st.one_of(
    st.just(0.0),
    st.floats(TECH.l_min_um, 4 * TECH.l_min_um, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(polarity=st.sampled_from(["nmos", "pmos"]),
       corner=st.sampled_from([Corner.FAST, Corner.SLOW, Corner.TYPICAL]),
       w_um=st.floats(0.05, 200.0, allow_nan=False),
       l_um=lengths,
       l_add_um=st.sampled_from([0.0, 0.045, 0.09]) | st.floats(0.0, 0.5))
def test_table_matches_model_bitwise(polarity, corner, w_um, l_um, l_add_um):
    design = _empty_design(corner)
    t = Transistor(name="m", polarity=polarity, gate="g", drain="d",
                   source="s", w_um=w_um, l_um=l_um, l_add_um=l_add_um)
    expected = scalar_on_resistance(t, TECH, corner)
    assert design.on_resistance(t) == expected
    # Second read is the memoized value, still bit-identical.
    assert design.on_resistance(t) == expected
    # A namesake with other geometry never shares the entry.
    twin = Transistor(name="m", polarity=polarity, gate="g", drain="d",
                      source="s", w_um=w_um * 2, l_um=l_um, l_add_um=l_add_um)
    assert design.on_resistance(twin) == scalar_on_resistance(twin, TECH, corner)


@pytest.fixture
def model_calls(monkeypatch):
    """Counts every ``MosfetModel.on_resistance`` evaluation."""
    calls = []
    scalar = MosfetModel.on_resistance

    def counted(self, *args):
        calls.append((self.params.polarity, self.corner.name, *args))
        return scalar(self, *args)

    monkeypatch.setattr(MosfetModel, "on_resistance", counted)
    return calls


@pytest.mark.parametrize("corner", [Corner.FAST, Corner.SLOW, Corner.TYPICAL])
def test_resize_in_place_reads_new_value(corner, model_calls):
    design = _empty_design(corner)
    t = Transistor(name="m", polarity="nmos", gate="g", drain="d",
                   source="s", w_um=2.0)
    before = design.on_resistance(t)
    t.w_um *= 4.0
    widened = design.on_resistance(t)
    t.l_add_um = 0.09
    lengthened = design.on_resistance(t)
    assert design.on_resistance(t) == lengthened
    assert len(model_calls) == 3  # one table fill per geometry
    assert widened < before
    assert lengthened == scalar_on_resistance(t, TECH, corner)
    t.l_add_um = 0.0
    assert widened == scalar_on_resistance(t, TECH, corner)


@pytest.fixture(scope="module")
def chip():
    flat = flatten(chip_scale(200).cell)
    parasitics = WireloadModel().extract(flat, TECH.wires)
    design = recognize(flat)
    return flat, parasitics, design


def _annotated(chip):
    flat, parasitics, _ = chip
    return (annotate(flat, parasitics, TECH, Corner.FAST),
            annotate(flat, parasitics, TECH, Corner.SLOW))


def _arc_rows(graph):
    return [(a.src, a.dst, a.kind, a.d_min, a.d_max) for a in graph.arcs]


@pytest.mark.parametrize("cached", [False, True])
def test_chip_scale_arcs_identical_to_scalar_pricing(chip, cached,
                                                     model_calls):
    _, _, design = chip
    fast, slow = _annotated(chip)
    table = build_timing_graph(
        design, ArcDelayCalculator(fast, slow),
        arc_cache=ArcPriceCache() if cached else None)
    # One model evaluation per distinct geometry per corner.
    geometries = {(t.polarity, t.w_um, t.l_um, t.l_add_um)
                  for t in chip[0].transistors}
    assert 0 < len(model_calls) <= 2 * len(geometries)
    assert len(set(model_calls)) == len(model_calls)
    fast2, slow2 = _annotated(chip)
    scalar = oracle.build_timing_graph(
        design, ScalarCalculator(fast2, slow2),
        arc_cache=ArcPriceCache() if cached else None)
    assert len(table.arcs) > 100
    assert _arc_rows(table) == _arc_rows(scalar)
    assert table.notes == scalar.notes


def test_chip_scale_check_paths_identical_to_scalar(chip):
    flat, parasitics, design = chip
    typical = annotate(flat, parasitics, TECH, Corner.TYPICAL)
    devices = device_map(typical)
    compared = 0
    for classification in design.classifications:
        ccc = classification.ccc
        for out in sorted(ccc.output_nets or ccc.channel_nets):
            for rail in ("gnd", "vdd"):
                for path in conduction_paths(ccc, out, rail):
                    assert path_resistance(path, typical, devices) \
                        == scalar_path_resistance(path, typical, devices)
                    compared += 1
    assert compared > 100
