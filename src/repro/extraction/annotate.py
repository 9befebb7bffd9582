"""Merging wire parasitics with device loading.

Section 4.3's delay-accuracy list starts with "Accuracy of minimum and
maximum capacitance calculation (fixed, coupling, and transistor
input)".  :func:`annotate` produces, per net, the *total* capacitance
bounds: extracted wire (ground + coupling) plus every gate and junction
the net touches, evaluated from the technology at a corner.

The result, :class:`AnnotatedDesign`, is the one object the timing
verifier and the electrical check battery both consume -- the paper's
"extracted interconnect parasitic capacitance and resistance data".
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.extraction.caps import NetParasitics, Parasitics
from repro.netlist.devices import Transistor
from repro.netlist.flatten import FlatNetlist
from repro.process.corners import Corner
from repro.process.technology import Technology


@dataclass
class NetLoad:
    """Total electrical load of one net at a corner."""

    net: str
    wire: NetParasitics
    gate_cap_f: float = 0.0
    junction_cap_f: float = 0.0
    extra_cap_f: float = 0.0  # explicit capacitors in the netlist

    def device_cap(self) -> float:
        return self.gate_cap_f + self.junction_cap_f + self.extra_cap_f

    def total_min(self, miller_min: float = 0.0) -> float:
        return self.wire.cap_min(miller_min) + self.device_cap()

    def total_max(self, miller_max: float = 2.0) -> float:
        return self.wire.cap_max(miller_max) + self.device_cap()

    def total_nominal(self) -> float:
        return self.wire.cap_nominal() + self.device_cap()

    def coupling_fraction(self) -> float:
        total = self.total_nominal()
        if total <= 0:
            return 0.0
        return self.wire.total_coupling().nominal / total


@dataclass
class AnnotatedDesign:
    """A flat netlist plus per-net loads at one corner.

    It also owns the corner's device on-resistance table
    (:meth:`on_resistance`), the one source of drive strength for the
    timing verifier and the check battery.
    """

    flat: FlatNetlist
    technology: Technology
    corner: Corner
    loads: dict[str, NetLoad] = field(default_factory=dict)
    #: Switching resistance per device geometry at this corner, filled on
    #: first use.  Keyed by ``(polarity, w_um, l_um, l_add_um)`` -- never
    #: by device name -- so a device resized in place simply looks up its
    #: new geometry and can never read a stale value.
    _r_on: dict[tuple, float] = field(default_factory=dict, repr=False,
                                      compare=False)

    def load(self, net: str) -> NetLoad:
        if net not in self.loads:
            self.loads[net] = NetLoad(net=net, wire=NetParasitics(net=net))
        return self.loads[net]

    def on_resistance(self, device: Transistor) -> float:
        """``device``'s switching resistance at this corner (ohms).

        Exactly ``MosfetModel.on_resistance`` at the corner's supply and
        the device's effective length, evaluated once per distinct
        geometry: identical devices share one bit-identical value.
        """
        key = (device.polarity, device.w_um, device.l_um, device.l_add_um)
        r = self._r_on.get(key)
        if r is None:
            tech = self.technology
            model = tech.mosfet(device.polarity, self.corner)
            r = model.on_resistance(tech.vdd_at(self.corner), device.w_um,
                                    device.effective_length(tech.l_min_um))
            self._r_on[key] = r
        return r


def annotate(
    flat: FlatNetlist,
    parasitics: Parasitics,
    technology: Technology,
    corner: Corner = Corner.TYPICAL,
) -> AnnotatedDesign:
    """Combine wire parasitics with device loading for every net."""
    design = AnnotatedDesign(flat=flat, technology=technology, corner=corner)
    by_name = {t.name: t for t in flat.transistors}
    caps_by_net: dict[str, list] = {}
    for cap in flat.capacitors:
        caps_by_net.setdefault(cap.a, []).append(cap)
        caps_by_net.setdefault(cap.b, []).append(cap)
    for name, net in flat.nets.items():
        load = NetLoad(net=name, wire=parasitics.of(name))
        for pin in net.pins:
            device = by_name.get(pin.device)
            if device is None:
                continue  # capacitor/resistor pins carry no device cap here
            model = technology.mosfet(device.polarity, corner)
            l_eff = device.effective_length(technology.l_min_um)
            if pin.terminal == "gate":
                load.gate_cap_f += model.gate_capacitance(device.w_um, l_eff)
            else:
                load.junction_cap_f += model.diffusion_capacitance(device.w_um)
        # Explicit netlist capacitors to a rail count as fixed load.
        for cap in caps_by_net.get(name, []):
            other = cap.b if cap.a == name else cap.a
            if other in ("vdd", "gnd"):
                load.extra_cap_f += cap.cap_f
        design.loads[name] = load
    return design


def update_net_loads(design: AnnotatedDesign, nets: Iterable[str]) -> int:
    """Recompute the device-load half of the given nets in place.

    After an in-place device resize (:func:`repro.timing.sizing.size_path`)
    only the nets on a resized device's terminals see their gate/junction
    caps move; this recomputes exactly those, keeping each net's wire
    parasitics (widths never enter the wireload model).  The per-net body
    is the same accumulation, in the same pin order, as :func:`annotate`,
    so the refreshed loads are bit-identical to a full re-annotation --
    which is what lets the incremental timing path reuse them.

    Returns the number of nets refreshed.
    """
    flat = design.flat
    technology = design.technology
    corner = design.corner
    by_name = {t.name: t for t in flat.transistors}
    caps_by_net: dict[str, list] = {}
    for cap in flat.capacitors:
        caps_by_net.setdefault(cap.a, []).append(cap)
        caps_by_net.setdefault(cap.b, []).append(cap)
    updated = 0
    for name in nets:
        net = flat.nets.get(name)
        if net is None:
            continue
        old = design.loads.get(name)
        wire = old.wire if old is not None else NetParasitics(net=name)
        load = NetLoad(net=name, wire=wire)
        for pin in net.pins:
            device = by_name.get(pin.device)
            if device is None:
                continue  # capacitor/resistor pins carry no device cap here
            model = technology.mosfet(device.polarity, corner)
            l_eff = device.effective_length(technology.l_min_um)
            if pin.terminal == "gate":
                load.gate_cap_f += model.gate_capacitance(device.w_um, l_eff)
            else:
                load.junction_cap_f += model.diffusion_capacitance(device.w_um)
        for cap in caps_by_net.get(name, []):
            other = cap.b if cap.a == name else cap.a
            if other in ("vdd", "gnd"):
                load.extra_cap_f += cap.cap_f
        design.loads[name] = load
        updated += 1
    return updated
