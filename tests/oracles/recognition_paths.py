"""Object-path reference implementations of recognition's path readers.

These are the bodies :mod:`repro.recognition` ran before it read packed
sweep rows (:class:`repro.recognition.conduction.SweepForest`): each
one materializes :class:`~repro.recognition.conduction.ConductionPath`
lists through :func:`~repro.recognition.conduction.conduction_paths`
and works on name sets.  They are slow at chip scale and kept only as
the contract ``tests/property/test_packed_recognition.py`` holds the
production versions to.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.netlist.nets import is_rail_name
from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.conduction import (
    ConductionPath,
    conduction_function,
    conduction_paths,
)
from repro.recognition.families import (
    CCCClassification,
    CircuitFamily,
    DynamicNode,
    _is_single_transmission_gate,
    _pass_pairs,
)
from repro.recognition.gates import RecognizedGate, drive_pull_paths


def support(paths: Iterable[ConductionPath]) -> set[str]:
    """All gate nets appearing in any path."""
    out: set[str] = set()
    for p in paths:
        out |= p.gates()
    return out


def truth_table(
    paths: list[ConductionPath],
    inputs: list[str],
    max_inputs: int = 16,
) -> int:
    """Conduction truth table as a bitmask, one assignment at a time.

    Bit ``i`` of the result is the conduction value when the input
    assignment is the binary expansion of ``i`` over ``inputs`` (inputs[0]
    is the least-significant bit).  Reference for
    :func:`repro.recognition.conduction.cube_table`.
    """
    if len(inputs) > max_inputs:
        raise ValueError(
            f"truth-table extraction over {len(inputs)} inputs exceeds the "
            f"{max_inputs}-input cap; use BDD-based equivalence instead"
        )
    table = 0
    for i in range(1 << len(inputs)):
        assignment = {name: bool((i >> k) & 1) for k, name in enumerate(inputs)}
        if conduction_function(paths, assignment):
            table |= 1 << i
    return table


def recognize_static_gate(
    ccc: ChannelConnectedComponent,
    output: str,
    max_inputs: int = 12,
) -> RecognizedGate | None:
    """Reference for :func:`repro.recognition.gates.recognize_static_gate`."""
    nmos_names = {t.name for t in ccc.nmos()}
    pmos_names = {t.name for t in ccc.pmos()}
    raw_down, raw_up = drive_pull_paths(ccc, output)
    down_paths = [p for p in raw_down if not set(p.devices) - nmos_names]
    up_paths = [p for p in raw_up if not set(p.devices) - pmos_names]
    if not down_paths or not up_paths:
        return None

    down_support = support(down_paths)
    up_support = support(up_paths)
    inputs = sorted(down_support | up_support)
    if len(inputs) > max_inputs:
        return None
    if output in inputs:
        return None

    down_table = truth_table(down_paths, inputs)
    up_table = truth_table(up_paths, inputs)
    size = 1 << len(inputs)
    full = (1 << size) - 1
    complementary = (down_table ^ up_table) == full and down_support == up_support
    return RecognizedGate(
        output=output,
        inputs=inputs,
        table=full & ~down_table,
        complementary=complementary,
    )


def ccc_clock_seeds(ccc: ChannelConnectedComponent, gate_fn=None) -> set[str]:
    """Reference for :func:`repro.recognition.clocks.ccc_clock_seeds`."""
    if gate_fn is None:
        gate_fn = recognize_static_gate
    seeds: set[str] = set()
    nmos_names = {t.name for t in ccc.nmos()}
    checked: set[tuple[str, str]] = set()
    for p in ccc.pmos():
        terms = p.channel_terminals()
        if "vdd" not in terms:
            continue
        x = p.other_channel_terminal("vdd")
        g = p.gate
        if x in ("vdd", "gnd") or is_rail_name(g) or g in seeds:
            continue
        if (g, x) in checked:
            continue
        checked.add((g, x))
        gate = gate_fn(ccc, x)
        if gate is not None and gate.complementary:
            continue
        for path in conduction_paths(ccc, x, "gnd"):
            if set(path.devices) - nmos_names:
                continue
            conds = set(path.conditions)
            if (g, True) in conds and conds - {(g, True)}:
                seeds.add(g)
                break
    return seeds


def classify_ccc(
    ccc: ChannelConnectedComponent,
    clock_nets: frozenset[str] | set[str] = frozenset(),
    gate_fn=None,
) -> CCCClassification:
    """Reference for :func:`repro.recognition.families.classify_ccc`."""
    if gate_fn is None:
        gate_fn = recognize_static_gate
    result = CCCClassification(ccc=ccc, family=CircuitFamily.UNKNOWN)

    if not ccc.channel_nets:
        result.family = CircuitFamily.ISOLATED
        return result

    touches_vdd = ccc.touches_rail("vdd")
    touches_gnd = ccc.touches_rail("gnd")

    if not touches_vdd and not touches_gnd:
        result.family = CircuitFamily.PASS_NETWORK
        result.pass_pairs = _pass_pairs(ccc)
        if _is_single_transmission_gate(ccc):
            result.family = CircuitFamily.TRANSMISSION_GATE
        return result

    if not (touches_vdd and touches_gnd):
        result.family = CircuitFamily.PULL_ONLY
        result.notes.append(
            "touches only %s" % ("vdd" if touches_vdd else "gnd")
        )
        return result

    outputs = sorted(ccc.output_nets) or sorted(ccc.channel_nets)
    n_static = n_dynamic = n_cross = n_ratioed = 0
    for out in outputs:
        up_paths = conduction_paths(ccc, out, "vdd")
        down_paths = conduction_paths(ccc, out, "gnd")
        if not up_paths or not down_paths:
            continue
        up_support = support(up_paths)
        down_support = support(down_paths)

        gate = gate_fn(ccc, out)
        if gate is not None and gate.complementary:
            result.gates[out] = gate
            n_static += 1
            continue

        clocks = set(clock_nets)
        pure_clock_up = [p for p in up_paths if p.gates() and p.gates() <= clocks]
        if pure_clock_up:
            pre_devices = sorted({d for p in pure_clock_up for d in p.devices})
            keeper_devices = sorted(
                {d for p in up_paths for d in p.devices} - set(pre_devices)
            )
            data = down_support - clocks
            foot = [t.name for t in ccc.nmos() if t.gate in clocks]
            clock = sorted(support(pure_clock_up))[0]
            result.dynamic_nodes[out] = DynamicNode(
                net=out,
                precharge_devices=pre_devices,
                foot_devices=foot,
                eval_inputs=data,
                clock=clock,
                keeper_devices=keeper_devices,
            )
            n_dynamic += 1
            continue

        sibling_gated = up_support - set(clock_nets) - down_support
        if sibling_gated:
            result.cross_coupled_with |= sibling_gated
            n_cross += 1
            continue

        if gate is not None and not gate.complementary:
            result.gates[out] = gate
            n_ratioed += 1
            continue
        n_ratioed += 1

    if n_dynamic and not n_static and not n_cross:
        result.family = CircuitFamily.DYNAMIC
    elif n_dynamic:
        result.family = CircuitFamily.DYNAMIC
        result.notes.append("mixed dynamic/static CCC")
    elif n_cross:
        result.family = CircuitFamily.CROSS_COUPLED_HALF
    elif n_static and not n_ratioed:
        result.family = CircuitFamily.STATIC
    elif n_ratioed:
        result.family = CircuitFamily.RATIOED
    else:
        result.family = CircuitFamily.UNKNOWN
    return result


def restoring_facts(
    ccc: ChannelConnectedComponent,
) -> dict[str, tuple[set[str], set[str]]]:
    """Reference for :func:`repro.recognition.latches.restoring_facts`:
    per output, ``(up support, down support)``."""
    facts: dict[str, tuple[set[str], set[str]]] = {}
    if not (ccc.touches_rail("vdd") and ccc.touches_rail("gnd")):
        return facts
    for out in ccc.output_nets:
        down = conduction_paths(ccc, out, "gnd")
        up = conduction_paths(ccc, out, "vdd")
        if not down or not up:
            continue
        facts[out] = (support(up), support(down))
    return facts
