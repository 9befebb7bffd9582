"""Object-path reference implementation of STA arc pricing.

These are the bodies :mod:`repro.timing` ran before it priced arcs from
packed path rows (:func:`repro.timing.graph.build_timing_graph`): every
arc walks the :class:`~repro.recognition.conduction.ConductionPath`
lists of :func:`~repro.recognition.conduction.conduction_paths` and
prices each path once per gate on it, one resistance lookup per device.
They are slow at chip scale and kept only as the contract
``tests/property/test_packed_sta.py`` holds the production build to.

One deliberate difference from the historical code: a path's sorted
device resistances are added explicitly, left to right, instead of with
``sum()``, which compensates its float additions from Python 3.12 on
and would make the oracle's last bits depend on the interpreter.
"""

from __future__ import annotations

from repro.extraction.annotate import AnnotatedDesign
from repro.recognition.conduction import ConductionPath, conduction_paths
from repro.recognition.families import CircuitFamily
from repro.recognition.recognizer import RecognizedDesign
from repro.recognition.signature import topology_signature
from repro.timing.delay import ArcDelay, ArcDelayCalculator
from repro.timing.graph import DelayArc, TimingGraph, _break_cycles


def left_to_right(values) -> float:
    """``values`` added in the given order, one rounding per addition."""
    total = 0.0
    for value in values:
        total += value
    return total


class ObjectPathCalculator(ArcDelayCalculator):
    """:class:`ArcDelayCalculator` pricing ``ConductionPath`` lists."""

    def _path_resistance(self, path: ConductionPath,
                         design: AnnotatedDesign) -> float:
        devices = self._device_fast
        r_on = design.on_resistance
        values = [r_on(devices[name]) for name in path.devices]
        return left_to_right(sorted(values))

    def drive_bounds(self, paths: list[ConductionPath]) -> tuple[float, float]:
        """(min, max) driver resistance over ``paths``: min at the
        FAST corner, max at the SLOW corner."""
        if not paths:
            raise ValueError("arc needs at least one conduction path")
        r_min = min(self._path_resistance(path, self.fast) for path in paths)
        r_max = max(self._path_resistance(path, self.slow) for path in paths)
        return r_min, r_max

    def arc_delay(self, paths: list[ConductionPath],
                  output_net: str) -> ArcDelay:
        r_min, r_max = self.drive_bounds(paths)
        return self.delay_from_drive(r_min, r_max, output_net)


def build_timing_graph(
    design: RecognizedDesign,
    calculator: ObjectPathCalculator,
    arc_cache=None,
) -> TimingGraph:
    """The object-path arc extraction: for every CCC output, the
    conduction paths to each source (rails and port channel nets), one
    arc per gate net on them, ``pass`` arcs from port sources, and the
    dynamic-node arcs of :func:`_dynamic_arcs`."""
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
                            d_max=delay.d_max, kind=kind)

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
    foot_paths = [p for p in down if dyn.clock in p.gates()]
    if foot_paths and dyn.clock:
        graph.add(price(dyn.clock, net, "evaluate", foot_paths))
