"""Top-level recognition driver.

Runs the full section-2.3 deduction pipeline over a flat netlist and
produces the :class:`RecognizedDesign` every downstream verification tool
consumes.  This is the "circuit recognition information" the paper's CAD
tools combine "along with other information (e.g., capacitance and
timing) to provide filtering of circuits that do not have a problem".
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.netlist.flatten import FlatNetlist
from repro.recognition.ccc import ChannelConnectedComponent, extract_cccs
from repro.recognition.clocks import ClockNet, infer_clocks
from repro.recognition.families import (
    CCCClassification,
    CircuitFamily,
    DynamicNode,
    classify_ccc,
    find_cross_coupled_pairs,
)
from repro.recognition.gates import RecognizedGate
from repro.recognition.latches import StorageNode, find_storage_nodes


class NetKind(enum.Enum):
    """The electrical role of a net, as deduced from topology."""

    RAIL = "rail"
    CLOCK = "clock"
    DYNAMIC = "dynamic"
    STORAGE = "storage"
    STATIC = "static"       # complementary gate output
    RATIOED = "ratioed"     # fighting-driver output
    PASS = "pass"           # pass-network internal / through net
    INPUT = "input"         # port with no internal driver
    UNKNOWN = "unknown"


@dataclass
class RecognizedDesign:
    """The complete recognition result for one flat netlist."""

    flat: FlatNetlist
    cccs: list[ChannelConnectedComponent]
    classifications: list[CCCClassification]
    clocks: dict[str, ClockNet]
    storage: list[StorageNode]
    dynamic_nodes: dict[str, DynamicNode] = field(default_factory=dict)
    gates: dict[str, RecognizedGate] = field(default_factory=dict)
    dcvsl_pairs: list[tuple[str, str]] = field(default_factory=list)
    net_kinds: dict[str, NetKind] = field(default_factory=dict)
    perf: dict[str, int] = field(default_factory=dict)
    _net_ccc_index: dict[str, list[int]] | None = field(
        default=None, repr=False, compare=False)

    def kind(self, net: str) -> NetKind:
        return self.net_kinds.get(net, NetKind.UNKNOWN)

    def cccs_of_net(self, net: str) -> list[ChannelConnectedComponent]:
        """All CCCs whose channel nets include ``net`` (indexed, O(1)).

        Replaces linear scans over ``cccs`` (see
        :func:`repro.recognition.ccc.ccc_of_net`); the index is built
        lazily on first use and covers every channel net of the design.
        """
        if self._net_ccc_index is None:
            index: dict[str, list[int]] = {}
            for ccc in self.cccs:
                for n in ccc.channel_nets:
                    index.setdefault(n, []).append(ccc.index)
            self._net_ccc_index = index
        return [self.cccs[i] for i in self._net_ccc_index.get(net, [])]

    def nets_of_kind(self, kind: NetKind) -> list[str]:
        return sorted(n for n, k in self.net_kinds.items() if k is kind)

    def classification_of(self, ccc: ChannelConnectedComponent) -> CCCClassification:
        return self.classifications[ccc.index]

    def storage_node(self, net: str) -> StorageNode | None:
        for node in self.storage:
            if node.net == net:
                return node
        return None

    def family_histogram(self) -> dict[CircuitFamily, int]:
        hist: dict[CircuitFamily, int] = {}
        for c in self.classifications:
            hist[c.family] = hist.get(c.family, 0) + 1
        return hist


_SHARED_MEMO = None


def _default_memo():
    """The process-wide classification memo (lazily constructed)."""
    global _SHARED_MEMO
    if _SHARED_MEMO is None:
        from repro.recognition.memo import ClassificationMemo
        _SHARED_MEMO = ClassificationMemo()
    return _SHARED_MEMO


def recognize(
    flat: FlatNetlist,
    clock_hints: Iterable[str] = (),
    memo=None,
    cccs: list[ChannelConnectedComponent] | None = None,
) -> RecognizedDesign:
    """Run the full recognition pipeline.

    Parameters
    ----------
    flat:
        The flattened design.
    clock_hints:
        Net names the designer declares to be clocks (needed for
        footless domino and pass-gate-only clocking; everything else is
        found structurally).
    memo:
        Classification cache.  ``None`` (default) uses the process-wide
        shared :class:`~repro.recognition.memo.ClassificationMemo`, so
        repeated bit-slices classify once per *process*, not per design
        (the memo stores only name-free templates; it cannot leak one
        design's nets into another, and it holds no reference to any
        netlist).  Pass your own memo for isolation, or ``False`` to
        disable memoization entirely.
    cccs:
        An existing CCC extraction of ``flat`` to reuse -- e.g. the
        shared list from :meth:`repro.perf.DesignCache.cccs`, whose
        warm path caches then serve table build and checks too.
        ``None`` extracts fresh; results are identical either way.
    """
    if memo is None:
        memo = _default_memo()
    elif memo is False:
        memo = None
    counters_before = memo.counters() if memo is not None else {}

    if cccs is None:
        cccs = extract_cccs(flat)
    gate_fn = memo.gate if memo is not None else None
    seeds_fn = memo.clock_seeds if memo is not None else None
    clocks = infer_clocks(flat, cccs, hints=clock_hints,
                          gate_fn=gate_fn, seeds_fn=seeds_fn)
    clock_set = frozenset(clocks)

    if memo is not None:
        classifications = [memo.classify(ccc, clock_set) for ccc in cccs]
    else:
        classifications = [classify_ccc(ccc, clock_set) for ccc in cccs]
    storage = find_storage_nodes(
        flat, cccs, classifications, clock_set,
        facts_fn=memo.restoring if memo is not None else None)
    storage_nets = {s.net for s in storage}

    perf = {}
    if memo is not None:
        perf = {k: v - counters_before.get(k, 0)
                for k, v in memo.counters().items()}
    design = RecognizedDesign(
        flat=flat,
        cccs=cccs,
        classifications=classifications,
        clocks=clocks,
        storage=storage,
        perf=perf,
    )

    for c in classifications:
        for out, gate in c.gates.items():
            design.gates[out] = gate
        for out, dyn in c.dynamic_nodes.items():
            design.dynamic_nodes[out] = dyn

    # DCVSL pairs: mutually cross-coupled halves that are NOT storage.
    design.dcvsl_pairs = find_cross_coupled_pairs(classifications,
                                                  storage_nets)

    design.net_kinds = _assign_net_kinds(design)
    return design


def _assign_net_kinds(design: RecognizedDesign) -> dict[str, NetKind]:
    kinds: dict[str, NetKind] = {}

    def put(net: str, kind: NetKind) -> None:
        # First (highest-priority) assignment wins.
        kinds.setdefault(net, kind)

    for net in design.flat.nets.values():
        if net.is_rail:
            put(net.name, NetKind.RAIL)
    for name in design.clocks:
        put(name, NetKind.CLOCK)
    for name in design.dynamic_nodes:
        put(name, NetKind.DYNAMIC)
    for node in design.storage:
        put(node.net, NetKind.STORAGE)
    for c in design.classifications:
        for out, gate in c.gates.items():
            put(out, NetKind.STATIC if gate.complementary else NetKind.RATIOED)
    for a, b in design.dcvsl_pairs:
        put(a, NetKind.RATIOED)
        put(b, NetKind.RATIOED)
    for c in design.classifications:
        if c.family in (CircuitFamily.PASS_NETWORK, CircuitFamily.TRANSMISSION_GATE):
            for net in c.ccc.channel_nets:
                put(net, NetKind.PASS)
    driven = set(kinds)
    for net in design.flat.nets.values():
        if net.is_port and net.name not in driven:
            put(net.name, NetKind.INPUT)
    for net in design.flat.nets:
        put(net, NetKind.UNKNOWN)
    return kinds
