"""Complementary static gate recognition.

Given a CCC with one output, decide whether it is a complementary CMOS
gate (an N pull-down network to gnd and a P pull-up network to vdd whose
conduction functions are exact complements) and, if so, extract its
boolean function from topology alone -- the paper's replacement for a
cell library's pre-declared meanings.

The extracted function is stored as a truth-table bitmask over a sorted
input list, the common currency shared with :mod:`repro.equivalence`.

Recognition reads the packed sweep rows of
:class:`~repro.recognition.conduction.SweepForest` and builds no
:class:`~repro.recognition.conduction.ConductionPath`;
:func:`drive_pull_paths` keeps the object form for the electrical
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.conduction import (
    SweepForest,
    conduction_paths,
    cube_table,
    sweep_forest,
)


@dataclass
class RecognizedGate:
    """A recognized complementary static gate.

    Attributes
    ----------
    output:
        The output net.
    inputs:
        Sorted input net names (the truth table's variable order;
        ``inputs[0]`` is the least-significant bit).
    table:
        Output truth table as a bitmask over input mintERMS: bit i gives
        the *output* value (already inverted from pull-down conduction).
    complementary:
        True when pull-up conduction was verified to be the exact
        complement of pull-down conduction.  False marks ratioed or
        otherwise non-complementary structures that still have a defined
        pull-down function.
    """

    output: str
    inputs: list[str]
    table: int
    complementary: bool

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        """Output value under a complete input assignment."""
        idx = 0
        for k, name in enumerate(self.inputs):
            if name not in assignment:
                raise KeyError(f"gate input {name!r} missing from assignment")
            if assignment[name]:
                idx |= 1 << k
        return bool((self.table >> idx) & 1)

    def is_inverter(self) -> bool:
        return len(self.inputs) == 1 and self.table == 0b01

    def is_buffer(self) -> bool:
        return len(self.inputs) == 1 and self.table == 0b10

    def function_name(self) -> str:
        """A human-readable name for common functions, else 'complex'."""
        n = len(self.inputs)
        size = 1 << n
        full = (1 << size) - 1
        and_table = 1 << (size - 1)
        or_table = full & ~1
        if self.table == full & ~and_table:
            return "nand" if n > 1 else "inv"
        if self.table == 1:
            return "nor" if n > 1 else "inv"
        if self.table == and_table:
            return "and"
        if self.table == or_table:
            return "or"
        if n == 1 and self.table == 0b01:
            return "inv"
        if n == 1 and self.table == 0b10:
            return "buf"
        return "complex"


def drive_pull_paths(
    ccc: ChannelConnectedComponent,
    output: str,
) -> tuple[list, list]:
    """(pull-down, pull-up) paths that actually *drive* ``output``.

    Paths that detour through another output net of the CCC (a pass
    gate into a neighbouring storage node, a shared bus) are not part of
    this output's driving structure; they are excluded here and handled
    by the pass/latch analyses instead.  Recognition reads the same
    selection off the sweep forests' ``driving`` flag
    (:class:`~repro.recognition.conduction.SweepForest`).
    """
    others = {n for n in ccc.output_nets if n != output}
    devices = {t.name: t for t in ccc.transistors}

    def clean(paths):
        out = []
        for p in paths:
            touched = set()
            for name in p.devices:
                touched.update(devices[name].channel_terminals())
            if touched & others:
                continue
            out.append(p)
        return out

    down = clean(conduction_paths(ccc, output, "gnd"))
    up = clean(conduction_paths(ccc, output, "vdd"))
    return down, up


def _row_cubes(forest: SweepForest, rows) -> set[tuple[int, int]]:
    """Each chain's ``(must-be-1, must-be-0)`` gate masks, by gate id."""
    dev_gate, dev_level = forest.dev_gate, forest.dev_level
    cubes = set()
    for row in rows:
        ones = zeros = 0
        for d in row:
            gi = dev_gate[d]
            if gi >= 0:
                if dev_level[d]:
                    ones |= 1 << gi
                else:
                    zeros |= 1 << gi
        cubes.add((ones, zeros))
    return cubes


def _gate_ids(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def recognize_static_gate(
    ccc: ChannelConnectedComponent,
    output: str,
    max_inputs: int = 12,
) -> RecognizedGate | None:
    """Try to recognize ``output`` as a complementary static gate output.

    Returns None when the structure is not gate-like at all (no pull-down
    network, pass-transistor outputs, multi-output tangles where the
    pull-networks share devices with other outputs).  Returns a
    :class:`RecognizedGate` with ``complementary=False`` for ratioed
    structures (pull-up exists but is not the complement).

    Reads packed rows: the output's chains in the gnd and vdd sweep
    forests are filtered by the per-node flags (``nmos_only`` resp.
    ``pmos_only``, and ``driving``), only the survivors are walked, as
    device slots, and each becomes one ``(must-be-1, must-be-0)`` cube
    over the sorted inputs.  Support comes from the cubes' gate ids.
    """
    # A complementary gate pulls down through NMOS only and up through
    # PMOS only, and only through its own driving structure -- paths
    # detouring through pass gates or other outputs that merged into
    # this CCC are dropped (the "loosely equivalent" reading of 4.1).
    down_f = sweep_forest(ccc, "gnd", output)
    down_nodes = down_f.nodes(output)
    up_f = sweep_forest(ccc, "vdd", output)
    up_nodes = up_f.nodes(output)
    down = _row_cubes(down_f, down_f.rows(down_f.where(
        down_nodes, down_f.nmos_only, down_f.driving)))
    up = _row_cubes(up_f, up_f.rows(up_f.where(
        up_nodes, up_f.pmos_only, up_f.driving)))
    if not down or not up:
        return None

    down_ids = up_ids = 0
    for ones, zeros in down:
        down_ids |= ones | zeros
    for ones, zeros in up:
        up_ids |= ones | zeros
    gate_names = down_f.gate_names
    inputs = sorted(gate_names[i] for i in _gate_ids(down_ids | up_ids))
    if len(inputs) > max_inputs:
        return None
    if output in inputs:
        # Feedback onto own gate (keeper/latch) -- not a simple gate.
        return None

    # Re-index the cubes from gate-id bits to sorted-input positions.
    pos = {i: inputs.index(gate_names[i])
           for i in _gate_ids(down_ids | up_ids)}

    def table(cubes: set[tuple[int, int]]) -> int:
        return cube_table(
            ((sum(1 << pos[i] for i in _gate_ids(ones)),
              sum(1 << pos[i] for i in _gate_ids(zeros)))
             for ones, zeros in cubes),
            len(inputs))

    down_table = table(down)
    up_table = table(up)
    size = 1 << len(inputs)
    full = (1 << size) - 1

    complementary = (down_table ^ up_table) == full and down_ids == up_ids
    output_table = full & ~down_table  # output is high when not pulled down
    return RecognizedGate(
        output=output,
        inputs=inputs,
        table=output_table,
        complementary=complementary,
    )
