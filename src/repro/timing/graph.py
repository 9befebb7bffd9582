"""Timing-arc extraction from recognition results.

Every arc is deduced, never declared (section 2.3): static gates give
input->output arcs through their conduction paths; dynamic nodes give
clock->node precharge arcs and data->node evaluate arcs; pass networks
give bidirectional source->sink arcs gated by their enables.  Keeper
feedback arcs are *excluded* -- a keeper holds, it does not propagate
events -- which is also what keeps the graph acyclic at domino nodes.

The graph is the unit of incrementality for the timing engine: the
levelized topological order is computed once and cached until the arc
*structure* changes, while pure delay re-pricing (:meth:`TimingGraph.reprice`)
keeps the levels and merely records the destinations whose fan-out cone
must re-propagate (consumed by ``TimingAnalyzer``).

Arcs are priced from packed path rows
(:func:`~repro.recognition.conduction.path_rows`), never from
:class:`~repro.recognition.conduction.ConductionPath` objects: the rows
of every (output, source) pair of the design are stacked into one
device-id matrix, every row is priced once per corner by one gather,
sort and column sum, and each arc's bounds are a min/max over its own
rows (its *price group*).  The graph keeps that matrix
(:class:`PackedPaths`) so :func:`reprice_arcs` re-prices arcs after an
in-place resize exactly as a fresh build would.  An
:class:`~repro.timing.arccache.ArcPriceCache` can stand in front of the
arcs; identical bit-slices then share one stored pair of bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.netlist.nets import is_rail_name
from repro.recognition.conduction import path_rows
from repro.recognition.families import CircuitFamily, DynamicNode
from repro.recognition.recognizer import RecognizedDesign
from repro.recognition.signature import topology_signature
from repro.timing.delay import ArcDelayCalculator


@dataclass
class DelayArc:
    """One timing arc.

    ``kind`` is one of ``gate`` / ``precharge`` / ``evaluate`` /
    ``pass`` -- the constraint generator treats them differently.
    ``rows`` locates the conduction paths the arc was priced from --
    ``graph.paths.members[arc.rows]`` are their row ids in
    ``graph.paths.rows`` -- so re-pricing after an in-place device
    resize needs no re-enumeration; it is bookkeeping, not identity
    (excluded from equality), and ``None`` on hand-built arcs.
    """

    src: str
    dst: str
    d_min: float
    d_max: float
    kind: str
    rows: slice | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class PackedPaths:
    """Every conduction path a timing graph was priced from.

    ``rows`` is an ``(n_paths, depth)`` matrix of indices into
    ``devices`` (device names), ``-1``-padded past each path's end;
    ``members`` lists row ids grouped by arc (see :attr:`DelayArc.rows`).
    """

    devices: list[str]
    rows: np.ndarray
    members: np.ndarray


@dataclass
class TimingGraph:
    """Arcs plus the derived adjacency and the levelization cache."""

    arcs: list[DelayArc] = field(default_factory=list)
    fanout: dict[str, list[DelayArc]] = field(default_factory=dict)
    fanin: dict[str, list[DelayArc]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Bumped on any structural change (arc added/removed); level and
    #: order caches, and everything keyed on them, invalidate with it.
    structure_version: int = 0
    _topo_order: list[str] | None = field(default=None, repr=False)
    _levels: dict[str, int] | None = field(default=None, repr=False)
    #: Destinations of arcs re-priced since the last propagation
    #: consumed them (dirty-cone seeds).
    _dirty_dsts: set[str] = field(default_factory=set, repr=False)
    _counters: dict[str, int] = field(default_factory=dict, repr=False)
    #: The packed paths behind every built arc (see :class:`PackedPaths`).
    paths: PackedPaths | None = field(default=None, repr=False,
                                      compare=False)

    def add(self, arc: DelayArc) -> None:
        self.arcs.append(arc)
        self.fanout.setdefault(arc.src, []).append(arc)
        self.fanin.setdefault(arc.dst, []).append(arc)
        self._invalidate_structure()

    def nets(self) -> set[str]:
        out: set[str] = set()
        for arc in self.arcs:
            out.add(arc.src)
            out.add(arc.dst)
        return out

    # -- levelization (cached) -------------------------------------------------

    def _invalidate_structure(self) -> None:
        self.structure_version += 1
        self._topo_order = None
        self._levels = None

    def _levelize(self) -> None:
        """Kahn's algorithm with a sorted stack frontier.

        The order matches what arrival propagation historically used
        (deterministic; any valid topological order yields identical
        windows).  Levels satisfy ``level(src) < level(dst)`` for every
        arc, which is what lets dirty-cone propagation process nets in
        dependency order straight off a (level, name) heap.
        """
        indegree: dict[str, int] = {n: 0 for n in self.nets()}
        level: dict[str, int] = {n: 0 for n in indegree}
        for arc in self.arcs:
            indegree[arc.dst] += 1
        frontier = sorted(n for n, d in indegree.items() if d == 0)
        order: list[str] = []
        while frontier:
            net = frontier.pop()
            order.append(net)
            for arc in self.fanout.get(net, []):
                if level[arc.dst] <= level[net]:
                    level[arc.dst] = level[net] + 1
                indegree[arc.dst] -= 1
                if indegree[arc.dst] == 0:
                    frontier.append(arc.dst)
        self._topo_order = order
        self._levels = level
        self._counters["level_builds"] = self._counters.get("level_builds", 0) + 1

    def topo_order(self) -> list[str]:
        """Cached topological order of every net in the graph."""
        if self._topo_order is None:
            self._levelize()
        return self._topo_order  # type: ignore[return-value]

    def levels(self) -> dict[str, int]:
        """Cached topological level per net (0 for pure sources)."""
        if self._levels is None:
            self._levelize()
        return self._levels  # type: ignore[return-value]

    # -- delay mutation --------------------------------------------------------

    def reprice(self, arc: DelayArc, d_min: float, d_max: float) -> bool:
        """Update one arc's delay bounds in place.

        Topology is untouched, so the level cache survives; the arc's
        destination is recorded as a dirty-cone seed for incremental
        propagation.  Returns True when the bounds actually changed.
        """
        self._counters["arcs_repriced"] = self._counters.get("arcs_repriced", 0) + 1
        if (d_min, d_max) == (arc.d_min, arc.d_max):
            return False
        arc.d_min = d_min
        arc.d_max = d_max
        self._dirty_dsts.add(arc.dst)
        self._counters["arcs_changed"] = self._counters.get("arcs_changed", 0) + 1
        return True

    def take_dirty_dsts(self) -> set[str]:
        """Consume the dirty-cone seeds accumulated by :meth:`reprice`."""
        dirty = self._dirty_dsts
        self._dirty_dsts = set()
        return dirty

    def counters(self) -> dict[str, int]:
        return dict(self._counters)


def build_timing_graph(
    design: RecognizedDesign,
    calculator: ArcDelayCalculator,
    arc_cache=None,
) -> TimingGraph:
    """Extract all delay arcs from a recognized design.

    For every CCC output, conduction paths are traced to each *source*
    the node can be driven from: the rails, and any port channel net
    (externally driven data entering through pass devices).  Every gate
    net on such a path contributes an arc; a non-rail source contributes
    a ``pass`` arc.  Dynamic nodes are special-cased so precharge /
    evaluate arcs carry their kinds and keeper devices stay excluded.

    Paths are the packed rows of
    :func:`~repro.recognition.conduction.path_rows`; no
    :class:`~repro.recognition.conduction.ConductionPath` is built.  The
    rows of every (output, source) pair of the design are gathered into
    one matrix and priced in one pass
    (:meth:`~repro.timing.delay.ArcDelayCalculator.path_resistances`),
    so a path is priced once however many arcs it drives.  An arc's
    drive bounds are the min (FAST) and max (SLOW) over its rows: the
    rows of the output that hold the arc's gate net, the rows of one
    port source for a ``pass`` arc, and for a dynamic node the pull-up
    rows made of precharge devices only.

    ``arc_cache`` (an :class:`~repro.timing.arccache.ArcPriceCache`)
    stands in front of every arc whose nets carry canonical labels:
    topologically identical, identically sized arcs -- the N stamped
    bit-slices of a datapath -- share the first copy's bounds.  Hits are
    bit-identical to fresh pricing because the key captures every input
    the pricing formula reads.
    """
    graph = TimingGraph()
    gathered = _gather_rows(design)
    matrix, starts = gathered.pack()
    groups = _price_groups(gathered, calculator, matrix, starts)
    graph.paths = PackedPaths(devices=gathered.devices, rows=matrix,
                              members=groups.members)
    bounds, member_starts = groups.bounds, groups.starts
    env_key = calculator.environment_key() if arc_cache is not None else None

    for classification, outputs in gathered.plans:
        ccc = classification.ccc
        sig = None
        geometry = None
        if arc_cache is not None:
            sig = ccc.signature_cache  # recognition's memo fills it
            if sig is None:
                sig = ccc.signature_cache = topology_signature(ccc)
            by_name = {t.name: t for t in ccc.transistors}
            geometry = tuple(
                (by_name[n].w_um, by_name[n].l_um, by_name[n].l_add_um)
                for n in sig.devices
            )
        gate_kind = "pass" if classification.family in (
            CircuitFamily.PASS_NETWORK, CircuitFamily.TRANSMISSION_GATE
        ) else "gate"

        def add(src: str, dst: str, kind: str, group: int) -> None:
            r_min, r_max = bounds[group]
            if arc_cache is not None and src in sig.labels and dst in sig.labels:
                key = (sig.key, geometry, sig.labels[src], sig.labels[dst],
                       kind, env_key)
                r_min, r_max = arc_cache.drive_bounds(
                    key, lambda: bounds[group])
            delay = calculator.delay_from_drive(r_min, r_max, dst)
            graph.add(DelayArc(
                src=src, dst=dst, d_min=delay.d_min, d_max=delay.d_max,
                kind=kind,
                rows=slice(member_starts[group], member_starts[group + 1])))

        for o in outputs:
            out, dyn = gathered.outputs[o].net, gathered.outputs[o].dyn
            by_gate = groups.by_gate[o]
            if dyn is not None:
                # Precharge / evaluate arcs; keepers excluded.
                if o in groups.precharge:  # only formed when dyn.clock is set
                    add(dyn.clock, out, "precharge", groups.precharge[o])
                for inp in sorted(dyn.eval_inputs):
                    if inp in by_gate:
                        add(inp, out, "evaluate", by_gate[inp])
                # Clock-through-foot evaluate arc (clock arrival can also
                # trigger the discharge when data is already stable).
                if dyn.clock and dyn.clock in by_gate:
                    add(dyn.clock, out, "evaluate", by_gate[dyn.clock])
                continue
            for src, group in groups.passes[o]:
                add(src, out, "pass", group)
            for gate_net, group in by_gate.items():
                if gate_net != out:  # self-feedback (keeper-like): no event arc
                    add(gate_net, out, gate_kind, group)

    _break_cycles(graph)
    return graph


class _Output(NamedTuple):
    """One CCC output being priced: its net, its dynamic node (``None``
    for a static output), ``(source, block)`` for each port source of a
    static output, and a dynamic node's pull-up block with the
    device-table ids of its precharge devices (``None`` if it has
    none)."""

    net: str
    dyn: DynamicNode | None
    ports: list[tuple[str, int]]
    pullup: tuple[int, list[int]] | None


@dataclass
class _Gathered:
    """Every path row a timing graph reads, before pricing.

    ``devices`` is the design's device table (CCC members in
    classification order) and ``gates`` each device's gate net (``None``
    when rail-gated: such a device adds no condition, so no arc).  Each
    non-empty (output, source) pair is one *block*: its
    :func:`~repro.recognition.conduction.path_rows` matrix (in CCC
    slots), the device-table offset of its CCC, its output index, and
    whether its paths give gate arcs (every source of a static output,
    the pull-down of a dynamic one).  ``plans`` lists each
    classification with the indices of its :class:`_Output` entries in
    ``outputs``, in arc order.
    """

    devices: list[str] = field(default_factory=list)
    gates: list[str | None] = field(default_factory=list)
    blocks: list[np.ndarray] = field(default_factory=list)
    block_offset: list[int] = field(default_factory=list)
    block_output: list[int] = field(default_factory=list)
    block_gated: list[bool] = field(default_factory=list)
    outputs: list[_Output] = field(default_factory=list)
    plans: list[tuple] = field(default_factory=list)

    def add_block(self, rows: np.ndarray, offset: int,
                  gated: bool) -> int | None:
        """Record one pair's rows for the output being gathered; the
        block's index, or ``None`` for a pair without paths."""
        if not rows.shape[0]:
            return None
        self.blocks.append(rows)
        self.block_offset.append(offset)
        self.block_output.append(len(self.outputs))
        self.block_gated.append(gated)
        return len(self.blocks) - 1

    def pack(self) -> tuple[np.ndarray, list[int]]:
        """All blocks stacked into one ``-1``-padded matrix of
        device-table ids, and each block's first row (plus the total)."""
        lengths = [rows.shape[0] for rows in self.blocks]
        starts = [0]
        for n in lengths:
            starts.append(starts[-1] + n)
        depth = max((rows.shape[1] for rows in self.blocks), default=0)
        matrix = np.full((starts[-1], depth), -1, np.int32)
        for rows, a in zip(self.blocks, starts):
            matrix[a:a + rows.shape[0], :rows.shape[1]] = rows
        # CCC slots -> device-table ids; the padding stays -1.
        offsets = np.repeat(np.array(self.block_offset, np.int32), lengths)
        matrix += (matrix >= 0) * offsets[:, None]
        return matrix, starts


def _gather_rows(design: RecognizedDesign) -> _Gathered:
    """The (output, source) pairs of every CCC, in arc order, read as
    cached :func:`~repro.recognition.conduction.path_rows`."""
    gathered = _Gathered()
    flat_nets = design.flat.nets
    for classification in design.classifications:
        ccc = classification.ccc
        offset = len(gathered.devices)
        for t in ccc.transistors:
            gathered.devices.append(t.name)
            gathered.gates.append(None if is_rail_name(t.gate) else t.gate)
        sources: list[str] = []
        if ccc.touches_rail("vdd"):
            sources.append("vdd")
        if ccc.touches_rail("gnd"):
            sources.append("gnd")
        port_sources = sorted(
            n for n in ccc.channel_nets
            if n in flat_nets and flat_nets[n].is_port
        )
        first = len(gathered.outputs)
        for out in sorted(ccc.output_nets or ccc.channel_nets):
            dyn = classification.dynamic_nodes.get(out)
            if dyn is not None:
                gathered.add_block(path_rows(ccc, out, "gnd"), offset, True)
                up = gathered.add_block(path_rows(ccc, out, "vdd"), offset,
                                        False)
                if up is not None:
                    pre = set(dyn.precharge_devices)
                    up = (up, [offset + i
                               for i, t in enumerate(ccc.transistors)
                               if t.name in pre])
                gathered.outputs.append(_Output(out, dyn, [], up))
                continue
            ports = []
            for src in sources + [p for p in port_sources if p != out]:
                b = gathered.add_block(path_rows(ccc, out, src), offset, True)
                if b is not None and src not in ("vdd", "gnd"):
                    ports.append((src, b))
            gathered.outputs.append(_Output(out, None, ports, None))
        gathered.plans.append(
            (classification, range(first, len(gathered.outputs))))
    return gathered


@dataclass
class _Groups:
    """The price groups of a design: one per arc-to-be, each a run of
    row ids in ``members`` from ``starts[g]`` to ``starts[g + 1]``,
    priced to ``bounds[g] = (r_min, r_max)``.  Per output,
    ``by_gate[o]`` maps gate net -> group in gate-name order,
    ``passes[o]`` lists ``(port source, group)``, and ``precharge`` maps
    a dynamic output to its precharge group."""

    bounds: list[tuple[float, float]]
    members: np.ndarray
    starts: list[int]
    by_gate: list[dict[str, int]]
    passes: list[list[tuple[str, int]]]
    precharge: dict[int, int]


def _price_groups(gathered: _Gathered, calculator: ArcDelayCalculator,
                  matrix: np.ndarray, starts: list[int]) -> _Groups:
    """Price every row of ``matrix`` once and reduce the rows to the
    drive bounds of each price group.

    Gate groups come from the (row, gate) pairs of the gated rows,
    keyed by (output, gate rank) and sorted, so each output's gate
    groups are contiguous and in gate-name order; ``pass`` groups are
    whole port blocks, and a precharge group is the pull-up rows made
    of precharge devices only.
    """
    n_out = len(gathered.outputs)
    names = sorted({g for g in gathered.gates if g is not None})
    rank = {name: i for i, name in enumerate(names)}
    gate_of = np.array([rank[g] if g is not None else -1
                        for g in gathered.gates] + [-1], np.int32)

    lengths = np.diff(starts)
    row_out = np.repeat(np.array(gathered.block_output, np.int64), lengths)
    gated = np.repeat(np.array(gathered.block_gated, bool), lengths)
    row_gates = gate_of[matrix]
    at = np.flatnonzero((row_gates >= 0) & gated[:, None])
    pair_row = (at // max(matrix.shape[1], 1)).astype(np.int32)
    keys = row_gates.ravel()[at].astype(np.int64)
    del row_gates, at
    keys += row_out[pair_row] * len(names)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    pair_row = pair_row[order]
    del order
    head = (np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            if keys.size else keys)
    by_gate: list[dict[str, int]] = [{} for _ in range(n_out)]
    for group, key in enumerate(keys[head].tolist()):
        o, g = divmod(key, len(names))
        by_gate[o][names[g]] = group

    # Pass and precharge groups follow the gate groups.
    extra: list[np.ndarray] = []
    passes: list[list[tuple[str, int]]] = [[] for _ in range(n_out)]
    precharge: dict[int, int] = {}
    # A pull-up row is a precharge path when every device on it is one
    # of the node's precharge devices; the last entry admits padding.
    allowed = np.zeros(len(gathered.devices) + 1, bool)
    allowed[-1] = True
    for o, (_, dyn, ports, up) in enumerate(gathered.outputs):
        for src, b in ports:
            passes[o].append((src, head.size + len(extra)))
            extra.append(np.arange(starts[b], starts[b + 1], dtype=np.int32))
        if up is not None and dyn.clock:
            b, precharge_ids = up
            allowed[precharge_ids] = True
            ok = allowed[matrix[starts[b]:starts[b + 1]]].all(axis=1)
            allowed[precharge_ids] = False
            if ok.any():
                precharge[o] = head.size + len(extra)
                extra.append((starts[b] + np.flatnonzero(ok)).astype(np.int32))

    members = np.concatenate([pair_row, *extra])
    group_start = np.concatenate(
        [head, keys.size + np.cumsum([0] + [rows.size for rows in extra])])
    r_fast, r_slow = calculator.path_resistances(gathered.devices, matrix)
    lo = np.minimum.reduceat(r_fast[members], group_start[:-1]).tolist()
    hi = np.maximum.reduceat(r_slow[members], group_start[:-1]).tolist()
    return _Groups(bounds=list(zip(lo, hi)), members=members,
                   starts=group_start.tolist(), by_gate=by_gate,
                   passes=passes, precharge=precharge)


def reprice_arcs(
    graph: TimingGraph,
    calculator: ArcDelayCalculator,
    dsts,
) -> int:
    """Re-price every arc into the given destination nets from its
    retained packed paths (after in-place device resizes and
    :func:`repro.extraction.annotate.update_net_loads`).

    The arcs' rows are priced in one pass, through the same
    :meth:`~repro.timing.delay.ArcDelayCalculator.path_resistances` and
    the same min/max as :func:`build_timing_graph`, so every re-priced
    arc is bit-identical to a fresh build's.  Returns the number of arcs
    whose bounds actually moved; the graph records their destinations
    as dirty-cone seeds either way.
    """
    arcs = [arc for dst in dsts for arc in graph.fanin.get(dst, [])
            if arc.rows is not None]  # hand-built arcs retain no paths
    if not arcs:
        return 0
    members = [graph.paths.members[arc.rows] for arc in arcs]
    r_fast, r_slow = calculator.path_resistances(
        graph.paths.devices, graph.paths.rows[np.concatenate(members)])
    changed = 0
    end = 0
    for arc, rows in zip(arcs, members):
        start, end = end, end + rows.size
        delay = calculator.delay_from_drive(
            r_fast[start:end].min().item(), r_slow[start:end].max().item(),
            arc.dst)
        if graph.reprice(arc, delay.d_min, delay.d_max):
            changed += 1
    return changed


def _break_cycles(graph: TimingGraph) -> None:
    """Drop back-edges so arrival propagation terminates.

    Storage feedback (cross-coupled loops, staticizer paths) and
    bidirectional pass arcs create cycles; STA breaks them and notes the
    breaks, mirroring the paper's observation that loop/false-path
    handling needs designer visibility.

    A depth-first search from every net in name order; an arc into a
    net still on the search path is a back-edge and is dropped.  The
    search keeps an explicit stack of ``(net, remaining fan-out arcs)``
    rather than recursing, so path depth is bounded by memory, not by
    the interpreter's recursion limit.
    """
    color: dict[str, int] = {}  # absent: unvisited, 1: on path, 2: done
    kept: list[DelayArc] = []
    dropped = 0

    adjacency: dict[str, list[DelayArc]] = {}
    for arc in graph.arcs:
        adjacency.setdefault(arc.src, []).append(arc)

    for root in sorted(graph.nets()):
        if root in color:
            continue
        color[root] = 1
        stack = [(root, iter(adjacency.get(root, ())))]
        while stack:
            net, arcs = stack[-1]
            for arc in arcs:
                state = color.get(arc.dst)
                if state is None:
                    kept.append(arc)
                    color[arc.dst] = 1
                    stack.append((arc.dst, iter(adjacency.get(arc.dst, ()))))
                    break
                if state == 1:
                    dropped += 1  # back-edge: break the loop here
                else:
                    kept.append(arc)
            else:
                stack.pop()
                color[net] = 2

    if dropped:
        graph.notes.append(f"broke {dropped} feedback arc(s) for acyclic analysis")
        graph.arcs = kept
        graph.fanout.clear()
        graph.fanin.clear()
        for arc in kept:
            graph.fanout.setdefault(arc.src, []).append(arc)
            graph.fanin.setdefault(arc.dst, []).append(arc)
        graph._invalidate_structure()
