"""Switch-network conduction analysis.

Everything recognition needs to know about a transistor network reduces
to one question: *under which gate-input assignments does a conducting
channel path exist between net A and net B?*  This module enumerates the
simple paths of a CCC's switch graph and evaluates the resulting boolean
conduction function.

A path is conservative in the paper's sense: it records, per device on
the path, the gate net and the polarity (an NMOS conducts when its gate
is 1, a PMOS when its gate is 0).  A path conducts when all its device
conditions hold; conduction between two nets is the OR over paths.

Enumeration strategy
--------------------
Every consumer (table build, the reference engine, recognition, the
electrical checks) asks for paths between some channel net and each of
``vdd``, ``gnd``, and the CCC's ports.  Enumerating each (source,
target) pair independently re-walks the same switch graph once per
target, which dominated setup cost at chip scale.  The default strategy
is therefore a **single-source, all-targets sweep**
(:func:`sweep_conduction_paths`): one depth-first traversal from the
source that records an arrival at *every* net it reaches, filling
``ccc.path_cache`` for all (source, target) pairs in one pass.

The sweep is bit-identical -- content *and* order -- to the historical
per-pair DFS (kept as the ``source == target`` /
``SWEEP_ENABLED = False`` fallback and as the benchmark baseline):

* The old enumerator popped a LIFO stack whose children were pushed in
  adjacency order, i.e. a preorder walk visiting children in *reversed*
  adjacency order.  The sweep recurses in ``reversed(adj[net])`` order,
  so its preorder matches.
* A per-pair DFS for target T never extends a path past an arrival at
  T, so T appears in no state's visited set; the extra subtrees the
  sweep explores beyond an arrival at T therefore contain no further
  T-arrivals, and restricting the sweep's preorder to arrivals at T
  reproduces the pair enumeration for T exactly.
* Contradictory prefixes (some gate required at both levels) can never
  become consistent again -- conditions only accumulate -- so the sweep
  prunes them at the first contradictory edge.  The old walk explored
  them and discarded every resulting path; pruning changes no output
  and no ``max_paths`` accounting (only consistent paths ever counted).

Target-rooted sweeps
--------------------
The dominant query shape is many sources against a *few shared
targets* (every channel net against vdd, gnd, and the CCC's ports), so
source-rooted sweeps still re-walk the graph once per net.
:func:`sweep_paths_to_target` flips the root: one traversal from the
shared target fills the ``(source, target)`` cache slot for **every**
source at once.  Two facts make it bit-identical to the per-pair DFS:

* **Reversal bijection.**  For ``source != target``, reversing a
  simple path maps the per-pair DFS's path set (source-rooted, rails
  terminal, no revisits) one-to-one onto the arrivals of a
  target-rooted traversal under the same rules, and a device's
  condition does not depend on traversal direction.  Walking an
  arrival's parent chain back toward the root therefore yields devices
  and conditions already in source-to-target order.
* **Order restoration.**  The pair DFS emits paths in preorder with
  children in reversed-adjacency order -- equivalently, sorted by the
  sequence of child ranks (position of each chosen edge in the
  reversed adjacency list of the net it leaves).  Equal rank prefixes
  force identical net prefixes, and no key is a strict prefix of
  another (that would put the target mid-path), so sorting the
  reversed arrivals by their forward rank sequences reproduces the
  pair enumeration order exactly.

Because that sort key is total, the *record* order of a target-rooted
sweep is immaterial, which frees the traversal strategy: small CCCs
run a per-node Python DFS, while CCCs of ``_BFS_MIN_DEVICES`` devices
or more run a level-synchronous vectorized BFS (:func:`_sweep_bfs`)
that expands whole frontier levels with numpy and tracks each partial
path's state as uint64 bitmasks.  Both produce the same buckets,
overflow set, and materialized paths.

Packed rows
-----------
A sweep forest already *is* the path set: each arrival node's parent
chain, read from the node up to the root, lists one path's devices in
source-to-target order.  :func:`path_rows` is the one primitive that
unrolls those chains: an ``(n_paths, depth)`` int32 matrix of device
slots (indices into ``ccc.transistors``), ``-1``-padded past each
path's end, lexsorted on the forward rank sequences so row ``i`` is
exactly the ``i``-th path :func:`conduction_paths` returns for the
pair.  A pair over ``max_paths`` raises the same ``RuntimeError``.
Each pair's matrix is unrolled once and cached read-only on the CCC's
sweep state.  STA (:func:`repro.timing.graph.build_timing_graph`)
prices its arcs from it -- one gather, sort and sum over every row of
the design -- and the packed switch tables read their segments from it
(without keeping the matrices they unroll).

:class:`SweepForest` reads the same chains by device slot.
:func:`conduction_paths` builds its :class:`ConductionPath` tuples --
the objects the electrical checks still consume -- from the
pair's :func:`path_rows`.  Recognition needs neither order nor
objects -- a support, a device set or a truth table is the same for
any order of the same paths -- so it takes a source's bucket, the
walked chains of a filtered subset, or the union of devices over them,
and builds no :class:`ConductionPath` at all.  Three per-node flags are
computed once per (CCC, rail) forest, on first use:

* ``nmos_only`` / ``pmos_only`` -- every device on the chain is NMOS
  (resp. PMOS);
* ``driving`` -- no intermediate net of the chain is one of the CCC's
  outputs.  This is exactly the path
  :func:`~repro.recognition.gates.drive_pull_paths` keeps: the nets a
  path's devices touch are the path's own nets, its source is the
  output under test and its end is a rail, which ``output_nets`` never
  holds, so "touches another output" means "passes through an
  output".  The flag is therefore the same for every source and
  belongs to the node, not the query.

Both sweep strategies record the same node columns -- parent, device,
rank, depth and arrival net, ending in a sentinel node -- so one numpy
code path reads either: the flags come from one pointer-jumping scan
over the parent pointers, and every chain walk (:func:`path_rows`, the
materialized paths, :meth:`SweepForest.rows`) is :func:`_unroll`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.netlist.devices import Transistor
from repro.netlist.nets import is_rail_name, is_supply_name
from repro.recognition.ccc import ChannelConnectedComponent

#: Benchmark escape hatch: ``benchmarks/setup_report.py`` flips this off
#: to time the historical per-(source, target) enumeration.  Leave on
#: everywhere else; results are bit-identical either way.
SWEEP_ENABLED = True

#: Monotonic module-level enumeration counters (see
#: :func:`enumeration_counters`).  ``path_sweeps`` counts source-rooted
#: all-targets traversals, ``target_sweeps`` target-rooted all-sources
#: traversals, ``pair_enumerations`` legacy per-pair walks, and
#: ``path_cache_hits`` requests served straight from ``ccc.path_cache``.
_COUNTERS = {
    "path_sweeps": 0,
    "target_sweeps": 0,
    "pair_enumerations": 0,
    "path_cache_hits": 0,
}


def enumeration_counters() -> dict[str, int]:
    """Snapshot of the process-wide path-enumeration counters.

    Counters are monotonic; callers wanting per-phase numbers take a
    snapshot before and after and subtract.
    """
    return dict(_COUNTERS)


@dataclass(frozen=True)
class ConductionPath:
    """One simple channel path between two nets.

    ``conditions`` is a tuple of ``(gate_net, required_level)`` pairs:
    the path conducts when every gate net is at its required level
    (1 for NMOS, 0 for PMOS).
    """

    devices: tuple[str, ...]
    conditions: tuple[tuple[str, bool], ...]

    def conducts(self, assignment: Mapping[str, bool]) -> bool:
        """True if every device on the path is on under ``assignment``.

        Gate nets missing from the assignment make the path
        non-conducting (conservative: unknown is off for conduction
        purposes; callers wanting pessimism for *disturbance* enumerate
        both polarities instead).
        """
        for gate, level in self.conditions:
            if gate not in assignment or assignment[gate] != level:
                return False
        return True

    def gates(self) -> set[str]:
        return {g for g, _ in self.conditions}

    def is_contradictory(self) -> bool:
        """True if the path requires some gate at both 0 and 1 (never on)."""
        seen: dict[str, bool] = {}
        for gate, level in self.conditions:
            if gate in seen and seen[gate] != level:
                return True
            seen[gate] = level
        return False


def conduction_paths(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int = 10000,
) -> list[ConductionPath]:
    """All simple channel paths from ``source`` to ``target``.

    ``source``/``target`` may be rails or channel nets.  Contradictory
    paths (requiring a gate at both levels) are dropped.  Raises if the
    enumeration exceeds ``max_paths`` -- a guard against pathological
    networks, not a silent truncation.

    Results are memoized on ``ccc.path_cache`` (sound: a CCC's topology
    is immutable after extraction, and :class:`ConductionPath` is
    frozen).  Clock inference, classification, latch finding, and the
    electrical checks all enumerate the same (net, rail) pairs.  A cache
    miss runs :func:`sweep_conduction_paths` from ``source``, filling
    the cache for every target in one traversal; ``source == target``
    (loop paths back to the source, which the sweep's visited-set
    discipline cannot express) falls back to the per-pair enumerator.
    """
    cache_key = (source, target, max_paths)
    cached = ccc.path_cache.get(cache_key)
    if cached is not None:
        _COUNTERS["path_cache_hits"] += 1
        return list(cached)
    if SWEEP_ENABLED and source != target:
        state = _sweep_state(ccc)
        # Prefer a target-rooted sweep: rails (and, via explicit
        # sweep_paths_to_target calls, ports) are shared by every
        # source in the CCC, so one traversal answers them all.
        ts = state.get(("tsweep", target, max_paths))
        if ts is None and is_rail_name(target):
            ts = sweep_paths_to_target(ccc, target, max_paths, want=source)
        if ts is not None:
            return list(
                _materialize_target(ccc, source, target, max_paths, ts))
        overflowed = state.get((source, max_paths))
        if overflowed is None:
            sweep_conduction_paths(ccc, source, max_paths, want=target)
            overflowed = state[(source, max_paths)]
        if target in overflowed:
            raise _overflow_error(source, target, max_paths)
        return list(_materialize(ccc, source, target, max_paths, state))
    return _enumerate_pair(ccc, source, target, max_paths)


def _enumerate_pair(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int,
) -> list[ConductionPath]:
    """The historical per-(source, target) DFS.

    Still the authority for ``source == target`` (where the visited-set
    exception below admits loop paths) and the uncached / legacy
    baseline for benchmarks.  The sweep is property-tested bit-identical
    against this for ``source != target``.
    """
    _COUNTERS["pair_enumerations"] += 1
    cache_key = (source, target, max_paths)
    # Adjacency: net -> [(device, other_net)]
    adj: dict[str, list[tuple[Transistor, str]]] = {}
    for t in ccc.transistors:
        d, s = t.channel_terminals()
        adj.setdefault(d, []).append((t, s))
        adj.setdefault(s, []).append((t, d))

    paths: list[ConductionPath] = []
    stack: list[tuple[str, tuple[str, ...], tuple[tuple[str, bool], ...], frozenset[str]]] = [
        (source, (), (), frozenset({source}))
    ]
    while stack:
        net, devs, conds, visited = stack.pop()
        if net == target and devs:
            path = ConductionPath(devices=devs, conditions=conds)
            if not path.is_contradictory():
                paths.append(path)
                if len(paths) > max_paths:
                    raise RuntimeError(
                        f"conduction path enumeration between {source!r} and "
                        f"{target!r} exceeded {max_paths} paths"
                    )
            continue
        if net != source and is_rail_name(net):
            # Rails terminate paths: conduction through the opposite rail
            # is a crowbar condition, not a logic path.
            continue
        for t, other in adj.get(net, []):
            if t.name in devs:
                continue
            if other in visited and other != target:
                continue
            level = t.polarity == "nmos"
            if is_rail_name(t.gate):
                # Rail-gated device: a constant switch.  An NMOS gated by
                # vdd (or PMOS by gnd) is always on and adds no condition;
                # the opposite polarity is permanently off and kills the
                # path.
                if is_supply_name(t.gate) != level:
                    continue
                new_conds = conds
            else:
                new_conds = conds + ((t.gate, level),)
            stack.append((
                other,
                devs + (t.name,),
                new_conds,
                visited | {other},
            ))
    ccc.path_cache[cache_key] = tuple(paths)
    return paths


def _sweep_state(ccc: ChannelConnectedComponent) -> dict:
    """Per-CCC sweep bookkeeping, attached lazily.

    Not a dataclass field: CCC objects round-trip through checkpoint
    pickles written before this attribute existed, and
    ``ChannelConnectedComponent.__getstate__`` strips it on serialize
    anyway.  Keys: ``"adj"`` -> the precomputed switch-graph adjacency;
    ``(source, max_paths)`` -> frozenset of targets whose enumeration
    overflowed ``max_paths`` (their cache slots stay empty and any
    request for them raises, exactly like the per-pair walk);
    ``("tsweep", target, max_paths)`` -> a target-rooted sweep;
    ``("rows", source, target, max_paths)`` -> the pair's read-only
    :func:`path_rows` matrix.
    """
    state = getattr(ccc, "_sweep_state", None)
    if state is None:
        state = {}
        ccc._sweep_state = state
    return state


def _adjacency(ccc: ChannelConnectedComponent) -> dict[str, list]:
    """Precomputed adjacency: net -> [(device, other, cond, other_is_rail)].

    ``cond`` is the ``(gate, level)`` the edge contributes, or ``None``
    for an always-on rail-gated device.  Permanently-off devices (NMOS
    gated by gnd, PMOS by vdd) are dropped entirely -- the per-pair walk
    skipped them at every expansion; eliding them preserves the relative
    order of the surviving entries, which the preorder depends on.
    """
    state = _sweep_state(ccc)
    adj = state.get("adj")
    if adj is not None:
        return adj
    adj = {}
    for t in ccc.transistors:
        level = t.polarity == "nmos"
        if is_rail_name(t.gate):
            if is_supply_name(t.gate) != level:
                continue  # permanently off: contributes no edge
            cond = None
        else:
            cond = (t.gate, level)
        d, s = t.channel_terminals()
        adj.setdefault(d, []).append((t.name, s, cond, is_rail_name(s)))
        adj.setdefault(s, []).append((t.name, d, cond, is_rail_name(d)))
    state["adj"] = adj
    return adj


def sweep_conduction_paths(
    ccc: ChannelConnectedComponent,
    source: str,
    max_paths: int = 10000,
    want: str | None = None,
) -> None:
    """One traversal from ``source`` collecting paths to *every* net.

    Records, per reached net, the arrival order of every simple path
    from ``source`` as compact parent-pointer nodes (O(1) per arrival;
    a node is ``(parent_node, device, condition)``).  Results land in
    the CCC's sweep state and are materialized into
    ``ccc.path_cache[(source, target, max_paths)]`` lazily, on the
    first request per target (:func:`_materialize`) -- chip-scale
    builds only ever consume the rail/port targets, so eagerly building
    :class:`ConductionPath` tuples for every internal-net pair would
    dominate the sweep.

    Targets whose path count exceeds ``max_paths`` are recorded as
    overflowed instead; a later request for them raises the same
    ``RuntimeError`` the per-pair walk would have.  ``want`` names the
    target the triggering caller asked for, so its overflow raises
    immediately (mid-sweep, nothing recorded) rather than deferred.

    The traversal is an explicit-stack preorder DFS over the switch
    graph, visiting children in ``reversed(adj[net])`` order to match
    the legacy LIFO walk -- see the module docstring for the
    bit-identity argument.
    """
    _COUNTERS["path_sweeps"] += 1
    adj = _adjacency(ccc)
    raw: dict[str, list] = {}
    overflowed: set[str] = set()
    dev_set: set[str] = set()
    # Per-gate required-level multiset: gate -> [count needing 0,
    # count needing 1].  A new condition whose opposite level is
    # already required makes the whole subtree contradictory.
    req: dict[str, list[int]] = {}
    visited = {source}
    # Frame: (net, via_device, via_cond, path_node, child_iterator);
    # the via-edge's state is undone when the iterator is exhausted.
    frames: list[tuple] = [
        (source, None, None, None, iter(reversed(adj.get(source, ()))))
    ]
    while frames:
        frame = frames[-1]
        parent_node = frame[3]
        descended = False
        for dev, other, cond, other_is_rail in frame[4]:
            if dev in dev_set or other in visited:
                continue
            if cond is not None:
                gate, level = cond
                ent = req.get(gate)
                if ent is None:
                    ent = req[gate] = [0, 0]
                if ent[0 if level else 1]:
                    continue  # contradictory from here down: prune
                ent[1 if level else 0] += 1
            # Preorder arrival at ``other``: record one path ending here.
            node = (parent_node, dev, cond)
            if other not in overflowed:
                bucket = raw.get(other)
                if bucket is None:
                    bucket = raw[other] = []
                bucket.append(node)
                if len(bucket) > max_paths:
                    if other == want:
                        raise RuntimeError(
                            f"conduction path enumeration between "
                            f"{source!r} and {other!r} exceeded "
                            f"{max_paths} paths"
                        )
                    overflowed.add(other)
                    del raw[other]
            if other_is_rail:
                # Rails terminate paths; undo the condition in place.
                if cond is not None:
                    req[gate][1 if level else 0] -= 1
                continue
            dev_set.add(dev)
            visited.add(other)
            frames.append(
                (other, dev, cond, node, iter(reversed(adj.get(other, ())))))
            descended = True
            break
        if not descended:
            frames.pop()
            via_dev = frame[1]
            if via_dev is not None:
                dev_set.remove(via_dev)
                visited.remove(frame[0])
            via_cond = frame[2]
            if via_cond is not None:
                req[via_cond[0]][1 if via_cond[1] else 0] -= 1

    state = _sweep_state(ccc)
    state[("raw", source, max_paths)] = raw
    state[(source, max_paths)] = frozenset(overflowed)


def _materialize(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int,
    state: dict,
) -> tuple[ConductionPath, ...]:
    """Turn one target's recorded sweep nodes into cached paths.

    Walks each parent-pointer chain back to the source and reverses,
    yielding devices and conditions in source-to-target order -- the
    exact tuples the per-pair walk would have built, in the same
    (preorder arrival) sequence.  The consumed bucket is dropped; the
    materialized tuple lives in ``ccc.path_cache`` from here on.  A
    missing bucket means the sweep proved there are no paths (target
    unreached or outside the CCC's switch graph): the empty answer is
    cached like any other.
    """
    cached = ccc.path_cache.get((source, target, max_paths))
    if cached is not None:
        return cached
    raw = state.get(("raw", source, max_paths))
    nodes = raw.pop(target, ()) if raw is not None else ()
    paths = []
    for node in nodes:
        devs: list[str] = []
        conds: list[tuple[str, bool]] = []
        while node is not None:
            node, dev, cond = node
            devs.append(dev)
            if cond is not None:
                conds.append(cond)
        devs.reverse()
        conds.reverse()
        paths.append(ConductionPath(devices=tuple(devs),
                                    conditions=tuple(conds)))
    result = tuple(paths)
    ccc.path_cache[(source, target, max_paths)] = result
    return result


def _graph(ccc: ChannelConnectedComponent) -> dict:
    """Int-indexed switch graph, cached on the CCC's sweep state.

    Shared by the target-rooted sweep and the packed-table template
    builder.  Net and gate names are interned to dense ids so the hot
    traversal loop touches no strings; per-entry tuples carry the
    *arrival rank* -- the entering device's position in the reversed
    adjacency list of the arrived-at net -- pre-resolved, which is all
    the order-restoration sort needs (see the module docstring).

    Layout: ``net_ids``/``nets`` name<->id maps (nets appearing as a
    live channel terminal, rails included), ``net_rail`` per-id rail
    flags, ``adj[i]`` entries ``(dev, other, gid, lvl, other_rail,
    arr_rank)`` in the same construction order as :func:`_adjacency`
    (permanently-off devices elided, order preserved), ``dev_names`` in
    ``ccc.transistors`` order, ``dev_gate``/``dev_level`` the device's
    condition as a gate id (-1 for none) and required level, and
    ``gate_names`` the gate id->name table.
    """
    state = _sweep_state(ccc)
    g = state.get("graph")
    if g is not None:
        return g
    net_ids: dict[str, int] = {}
    nets: list[str] = []
    net_rail: list[bool] = []
    gate_ids: dict[str, int] = {}
    gate_names: list[str] = []
    dev_names: list[str] = []
    dev_gate: list[int] = []
    dev_level: list[int] = []
    adj: list[list] = []

    def nid_of(nm: str) -> int:
        i = net_ids.get(nm)
        if i is None:
            i = net_ids[nm] = len(nets)
            nets.append(nm)
            net_rail.append(is_rail_name(nm))
            adj.append([])
        return i

    for di, t in enumerate(ccc.transistors):
        level = t.polarity == "nmos"
        dev_names.append(t.name)
        if is_rail_name(t.gate):
            alive = is_supply_name(t.gate) == level
            gid = -1
        else:
            alive = True
            gid = gate_ids.get(t.gate)
            if gid is None:
                gid = gate_ids[t.gate] = len(gate_names)
                gate_names.append(t.gate)
        dev_gate.append(gid)
        dev_level.append(1 if level else 0)
        if not alive:
            continue
        d, s = t.channel_terminals()
        d_id, s_id = nid_of(d), nid_of(s)
        lvl = 1 if level else 0
        adj[d_id].append((di, s_id, gid, lvl, net_rail[s_id]))
        adj[s_id].append((di, d_id, gid, lvl, net_rail[d_id]))
    # Fold each entry's arrival rank in: its device's position in the
    # *arrived-at* net's reversed adjacency list.
    ranks: list[dict[int, int]] = [
        {e[0]: pos for pos, e in enumerate(reversed(entries))}
        for entries in adj
    ]
    for i, entries in enumerate(adj):
        adj[i] = [e + (ranks[e[1]][e[0]],) for e in entries]
    # Visit order is reversed adjacency; pre-reverse once so the sweep's
    # descent step skips a ``reversed()`` wrapper per frame.
    radj = [tuple(reversed(entries)) for entries in adj]
    g = {
        "net_ids": net_ids, "nets": nets, "net_rail": net_rail,
        "adj": adj, "radj": radj, "dev_names": dev_names,
        "dev_gate": dev_gate, "dev_level": dev_level,
        "gate_names": gate_names,
    }
    state["graph"] = g
    return g


#: Device count above which :func:`sweep_paths_to_target` switches from
#: the per-node Python DFS to the level-synchronous vectorized BFS.
#: Both produce equivalent sweep records (consumers restore per-pair
#: order by sorting on the total forward-rank-sequence key, so the
#: record order is immaterial); the BFS amortizes Python overhead over
#: whole frontier levels but pays ~40 numpy dispatches per level, which
#: only wins once the path forest is large.  Tests pin this to 0 to
#: force BFS coverage on small netlists.
_BFS_MIN_DEVICES = 48


def _bfs_csr(g: dict) -> dict:
    """Column-array (CSR) switch graph for the vectorized sweep.

    Flattens ``g["radj"]`` -- reversed adjacency, though the BFS does
    not depend on edge order -- into per-edge numpy columns plus a
    ``start``/``deg`` index, cached on the graph dict.
    """
    csr = g.get("csr")
    if csr is not None:
        return csr
    radj = g["radj"]
    deg = np.array([len(e) for e in radj], np.int64)
    start = np.zeros(deg.size + 1, np.int64)
    np.cumsum(deg, out=start[1:])
    flat = [e for entries in radj for e in entries]
    if flat:
        cols = np.array(flat, np.int64)
    else:
        cols = np.empty((0, 6), np.int64)
    csr = g["csr"] = {
        "deg": deg, "start": start[:-1],
        "dev": cols[:, 0], "other": cols[:, 1], "gid": cols[:, 2],
        "lvl": cols[:, 3], "rail": cols[:, 4], "rank": cols[:, 5],
    }
    return csr


def _sweep_bfs(g: dict, tid: int, target: str, want_id: int,
               max_paths: int) -> dict:
    """Vectorized all-sources sweep: expand the simple-path forest one
    depth level at a time with numpy.

    Each partial path is a frontier row carrying its state as uint64
    bitmask words: nets on the path, devices used, and the gate levels
    its conditions require (one mask per level -- conditions only
    accumulate along a path, so a contradiction test is two bit
    probes and no undo is ever needed).  A level expands every
    frontier row across its net's full edge list with gather/repeat,
    filters admissible arrivals with mask probes, records them as
    sweep nodes, and copies+updates the masks of the non-rail
    survivors to form the next frontier.

    Nodes are recorded in level order rather than the DFS's preorder;
    that is invisible to consumers, which sort materialized paths by
    their forward rank sequences -- a total key (equal rank prefixes
    force equal net prefixes, and no sequence strictly prefixes
    another).  Buckets and overflow are grouped once at the end,
    yielding the same bucket sets, overflow set, and ``want`` raise as
    the DFS.
    """
    csr = _bfs_csr(g)
    c_deg, c_start = csr["deg"], csr["start"]
    e_dev, e_other, e_gid = csr["dev"], csr["other"], csr["gid"]
    e_lvl, e_rail, e_rank = csr["lvl"], csr["rail"], csr["rank"]
    w_net = max(1, -(-len(g["nets"]) // 64))
    w_dev = max(1, -(-len(g["dev_names"]) // 64))
    w_gate = max(1, -(-len(g["gate_names"]) // 64))
    one = np.uint64(1)

    f_net = np.array([tid], np.int64)
    f_node = np.array([-1], np.int64)
    f_vis = np.zeros((1, w_net), np.uint64)
    f_vis[0, tid >> 6] = one << np.uint64(tid & 63)
    f_dev = np.zeros((1, w_dev), np.uint64)
    f_hi = np.zeros((1, w_gate), np.uint64)
    f_lo = np.zeros((1, w_gate), np.uint64)

    par_parts: list[np.ndarray] = []
    dev_parts: list[np.ndarray] = []
    rnk_parts: list[np.ndarray] = []
    dpt_parts: list[np.ndarray] = []
    anet_parts: list[np.ndarray] = []
    n_nodes = 0
    depth = 1
    while f_net.size:
        d = c_deg[f_net]
        total = int(d.sum())
        if total == 0:
            break
        p_idx = np.repeat(np.arange(f_net.size, dtype=np.int64), d)
        ends = np.cumsum(d)
        offs = (np.repeat(c_start[f_net] - (ends - d), d)
                + np.arange(total, dtype=np.int64))
        c_dev = e_dev[offs]
        c_other = e_other[offs]
        c_gid = e_gid[offs]
        c_lvl = e_lvl[offs]
        # Admissibility: arrival net unvisited, device unused, gate
        # condition not contradicting the path's accumulated ones.
        vis_bit = (f_vis[p_idx, c_other >> 6]
                   >> (c_other & 63).astype(np.uint64)) & one
        dev_bit = (f_dev[p_idx, c_dev >> 6]
                   >> (c_dev & 63).astype(np.uint64)) & one
        gid0 = np.maximum(c_gid, 0)
        gw = gid0 >> 6
        gb = (gid0 & 63).astype(np.uint64)
        hi_bit = (f_hi[p_idx, gw] >> gb) & one
        lo_bit = (f_lo[p_idx, gw] >> gb) & one
        contra = (c_gid >= 0) & np.where(
            c_lvl == 1, lo_bit, hi_bit).astype(bool)
        keep = (vis_bit == 0) & (dev_bit == 0) & ~contra
        n_k = int(keep.sum())
        if n_k == 0:
            break
        k_rows = p_idx[keep]
        k_other = c_other[keep]
        k_dev = c_dev[keep]
        par_parts.append(f_node[k_rows])
        dev_parts.append(k_dev)
        rnk_parts.append(e_rank[offs[keep]])
        dpt_parts.append(np.full(n_k, depth, np.int64))
        anet_parts.append(k_other)
        node_ids = np.arange(n_nodes, n_nodes + n_k, dtype=np.int64)
        n_nodes += n_k
        # Next frontier: non-rail arrivals, each owning copies of its
        # parent's masks with the traversed edge's bits folded in.
        nxt = e_rail[offs[keep]] == 0
        rows = k_rows[nxt]
        if rows.size == 0:
            break
        o = k_other[nxt]
        dv = k_dev[nxt]
        gd = np.maximum(c_gid[keep][nxt], 0)
        has_g = c_gid[keep][nxt] >= 0
        lv = c_lvl[keep][nxt]
        f_vis = f_vis[rows]
        f_dev = f_dev[rows]
        f_hi = f_hi[rows]
        f_lo = f_lo[rows]
        r_idx = np.arange(rows.size)
        f_vis[r_idx, o >> 6] |= one << (o & 63).astype(np.uint64)
        f_dev[r_idx, dv >> 6] |= one << (dv & 63).astype(np.uint64)
        m1 = has_g & (lv == 1)
        m0 = has_g & (lv == 0)
        f_hi[r_idx[m1], gd[m1] >> 6] |= one << (gd[m1] & 63).astype(
            np.uint64)
        f_lo[r_idx[m0], gd[m0] >> 6] |= one << (gd[m0] & 63).astype(
            np.uint64)
        f_net = o
        f_node = node_ids[nxt]
        depth += 1

    def cat(parts: list[np.ndarray], end: int) -> np.ndarray:
        # Each column ends with the sentinel node's entry.
        return np.concatenate(parts + [np.array([end])]).astype(np.intc)

    anet = (np.concatenate(anet_parts) if anet_parts
            else np.empty(0, np.int64))
    buckets: dict[int, np.ndarray] = {}
    overflow: set[int] = set()
    if anet.size:
        order = np.argsort(anet, kind="stable")
        snet = anet[order]
        cuts = np.flatnonzero(snet[1:] != snet[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [snet.size]))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            net_id = int(snet[a])
            if b - a > max_paths:
                if net_id == want_id:
                    raise RuntimeError(
                        f"conduction path enumeration between "
                        f"{g['nets'][net_id]!r} and {target!r} "
                        f"exceeded {max_paths} paths"
                    )
                overflow.add(net_id)
            else:
                buckets[net_id] = order[a:b].astype(np.intc)
    return {
        "par": cat(par_parts, -1), "dev": cat(dev_parts, -1),
        "rank": cat(rnk_parts, 0), "depth": cat(dpt_parts, 0),
        "net": cat(anet_parts, -1),
        "buckets": buckets, "overflow": frozenset(overflow),
    }


def sweep_paths_to_target(
    ccc: ChannelConnectedComponent,
    target: str,
    max_paths: int = 10000,
    want: str | None = None,
) -> dict:
    """One traversal rooted at ``target`` collecting paths from *every*
    source.

    The complement of :func:`sweep_conduction_paths` for the dominant
    query shape -- all channel nets against one shared target (a rail
    or port): a single preorder DFS from ``target`` records every
    arrival as a compact node, bucketed by arrived-at net, so that
    pair ``(u, target)`` materializes from bucket ``u`` by walking
    parent chains (already in u-to-target order) and sorting by
    forward rank sequences.  See the module docstring for why this is
    bit-identical -- content and order -- to the per-pair DFS.

    Returns (and caches under ``("tsweep", target, max_paths)`` in the
    sweep state) a dict of numpy node columns
    ``par``/``dev``/``rank``/``depth``/``net`` (parent node or -1,
    device slot, arrival rank, chain length, arrival net id),
    ``buckets`` mapping net id to arrival node indices in record
    order -- preorder for the DFS strategy,
    level order for the vectorized BFS used on CCCs of
    ``_BFS_MIN_DEVICES`` devices or more; consumers sort materialized
    paths by their total forward-rank key, so the two are
    interchangeable -- and ``overflow``, the net ids whose pair with
    ``target`` exceeded ``max_paths`` (their buckets are dropped and
    any request for them raises, exactly like the per-pair walk).
    ``want`` names the source the triggering caller asked for so its
    overflow raises instead of being deferred.

    The columns end with one *sentinel* node (parent -1, device -1,
    rank 0, depth 0, net -1) that no bucket holds.  A parent pointer
    of -1 indexes it, so a chain walk that steps past its root keeps
    reading the sentinel: device -1 pads the row and rank 0 the sort
    key.
    """
    state = _sweep_state(ccc)
    skey = ("tsweep", target, max_paths)
    ts = state.get(skey)
    if ts is not None:
        return ts
    _COUNTERS["target_sweeps"] += 1
    g = _graph(ccc)
    tid_early = g["net_ids"].get(target)
    if (tid_early is not None
            and len(ccc.transistors) >= _BFS_MIN_DEVICES):
        want_id_ = g["net_ids"].get(want, -3) if want is not None else -3
        ts = _sweep_bfs(g, tid_early, target, want_id_, max_paths)
        state[skey] = ts
        return ts
    # Node columns live interleaved in one ``array.array`` while the
    # loop runs -- a single ``extend`` per node instead of four list
    # appends -- and the final numpy conversion is a zero-copy
    # ``frombuffer`` view sliced into strided columns instead of
    # re-boxing millions of ints (a measurable slice of chip-scale
    # builds).  Order per node: parent, device, rank, depth, net.
    cols = array("i")
    buckets: dict[int, array] = {}
    overflow: set[int] = set()
    tid = g["net_ids"].get(target)
    want_id = g["net_ids"].get(want, -3) if want is not None else -3
    if tid is not None:
        radj = g["radj"]
        req: list[list[int]] = [[0, 0] for _ in g["gate_names"]]
        visited = bytearray(len(g["nets"]))
        visited[tid] = 1
        dev_on = bytearray(len(g["dev_names"]))
        # Hot loop: every arrival in the simple-path forest runs this
        # body once, so appends are pre-bound, the node id / depth are
        # tracked incrementally (depth == len(frames) + 1 invariant),
        # and the *current* frame lives in locals -- the ``frames``
        # stack only holds suspended ancestors, so a node costs no
        # tuple indexing.  Frame: (net, via_dev, via_gid, via_lvl,
        # parent node, child iterator); the via-edge's state is undone
        # when the iterator is exhausted (the ``for/else`` branch).
        cols_extend = cols.extend
        buckets_get = buckets.get
        n_nodes = 0
        depth = 1
        frames: list[tuple] = []
        frames_append, frames_pop = frames.append, frames.pop
        cur, cur_dev, cur_gid, cur_lvl = tid, -1, -1, 0
        parent_node = -1
        children = iter(radj[tid])
        while True:
            for d_i, other, gid, lvl, other_rail, arr_rank in children:
                if dev_on[d_i] or visited[other]:
                    continue
                if gid >= 0:
                    ent = req[gid]
                    if ent[1 - lvl]:
                        continue  # contradictory from here down: prune
                    ent[lvl] += 1
                node = n_nodes
                n_nodes += 1
                cols_extend((parent_node, d_i, arr_rank, depth, other))
                # A missing bucket means first arrival *or* an
                # overflowed-and-dropped net; the overflow set is only
                # consulted on that cold path, not per node.
                b = buckets_get(other)
                if b is None and other not in overflow:
                    b = buckets[other] = array("i")
                if b is not None:
                    b.append(node)
                    if len(b) > max_paths:
                        if other == want_id:
                            raise RuntimeError(
                                f"conduction path enumeration between "
                                f"{g['nets'][other]!r} and {target!r} "
                                f"exceeded {max_paths} paths"
                            )
                        overflow.add(other)
                        del buckets[other]
                if other_rail:
                    # Rails terminate paths; undo the condition in place.
                    if gid >= 0:
                        req[gid][lvl] -= 1
                    continue
                dev_on[d_i] = 1
                visited[other] = 1
                frames_append(
                    (cur, cur_dev, cur_gid, cur_lvl, parent_node,
                     children))
                cur, cur_dev, cur_gid, cur_lvl = other, d_i, gid, lvl
                parent_node = node
                children = iter(radj[other])
                depth += 1
                break
            else:
                # Children exhausted: unwind the current frame.
                if cur_dev >= 0:
                    dev_on[cur_dev] = 0
                    visited[cur] = 0
                if cur_gid >= 0:
                    req[cur_gid][cur_lvl] -= 1
                if not frames:
                    break
                (cur, cur_dev, cur_gid, cur_lvl, parent_node,
                 children) = frames_pop()
                depth -= 1

    cols.extend((-1, -1, 0, 0, -1))  # the sentinel node
    node_cols = np.frombuffer(cols, np.intc).reshape(-1, 5)
    ts = {
        "par": node_cols[:, 0],
        "dev": node_cols[:, 1],
        "rank": node_cols[:, 2],
        "depth": node_cols[:, 3],
        "net": node_cols[:, 4],
        "buckets": {
            i: np.frombuffer(b, np.intc) for i, b in buckets.items()
        },
        "overflow": frozenset(overflow),
    }
    state[skey] = ts
    return ts


def _unroll(ts: dict, nodes: np.ndarray,
            ranks: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Unroll the parent chains of ``nodes`` (non-empty) into a
    device-slot matrix.

    Row ``i``, position ``k`` is the ``k``-th device of node ``i``'s
    chain in forward (source-to-target) order -- the arrival's own
    device first -- and ``-1`` past the chain's end.  With ``ranks``
    the matching arrival-rank matrix (zero padded) comes back too; it
    is the order-restoration key of :func:`path_rows`.

    Every step follows every chain's parent pointer; a finished chain
    sits on the sweep's sentinel node, which supplies the padding.
    """
    par, dev, rnk = ts["par"], ts["dev"], ts["rank"]
    m = int(ts["depth"][nodes].max())
    D = np.empty((m, nodes.size), np.int32)
    K = np.empty((m, nodes.size), np.int32) if ranks else None
    cur = nodes
    for k in range(m):
        D[k] = dev[cur]
        if ranks:
            K[k] = rnk[cur]
        cur = par[cur]
    return D.T, (K.T if ranks else None)


def _rank_order(K: np.ndarray) -> np.ndarray:
    """Row order sorting a rank matrix lexicographically (column 0 is
    the primary key, passed last).  No key strictly prefixes another,
    so the zero padding of short chains never decides a comparison."""
    return np.lexsort(K.T[::-1])


def _overflow_error(source: str, target: str, max_paths: int) -> RuntimeError:
    return RuntimeError(
        f"conduction path enumeration between {source!r} and {target!r} "
        f"exceeded {max_paths} paths"
    )


def path_rows(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int = 10000,
    keep: bool = True,
) -> np.ndarray:
    """All simple channel paths from ``source`` to ``target`` as packed
    device-slot rows.

    Returns an ``(n_paths, depth)`` int32 matrix: row ``i`` lists path
    ``i``'s devices as indices into ``ccc.transistors`` in
    source-to-target order, ``-1``-padded to the longest path, and the
    rows come in exactly the order :func:`conduction_paths` returns the
    same paths (see "Packed rows" in the module docstring).  An empty
    answer is a ``(0, 0)`` matrix.  Raises the same ``RuntimeError`` as
    :func:`conduction_paths` when the pair exceeds ``max_paths``.

    Rides the cached target-rooted sweep for ``target``;
    ``source == target`` (loop paths) is not expressible there and
    raises ``ValueError``.  The matrix is unrolled once per pair and
    cached, read-only, on the CCC's sweep state: later calls -- and the
    :class:`ConductionPath` tuples :func:`conduction_paths` builds --
    share it.  ``keep=False`` reads a cached matrix but leaves a fresh
    one uncached: the packed switch tables read every channel net's
    pairs once, and keeping those resident would cost a chip-scale
    logic run ~25 MB of peak memory for rows nothing reads again.
    """
    if source == target:
        raise ValueError(
            "path_rows needs source != target; loop paths back to the "
            "source come from conduction_paths")
    ts = sweep_paths_to_target(ccc, target, max_paths, want=source)
    return _bucket_rows(ccc, ts, source, target, max_paths, keep)


def _bucket_rows(ccc: ChannelConnectedComponent, ts: dict, source: str,
                 target: str, max_paths: int,
                 keep: bool = True) -> np.ndarray:
    """:func:`path_rows` read from ``target``'s sweep ``ts``, cached
    per pair under ``("rows", source, target, max_paths)``."""
    state = _sweep_state(ccc)
    key = ("rows", source, target, max_paths)
    rows = state.get(key)
    if rows is not None:
        return rows
    sid = _graph(ccc)["net_ids"].get(source)
    if sid is not None and sid in ts["overflow"]:
        raise _overflow_error(source, target, max_paths)
    bucket = ts["buckets"].get(sid) if sid is not None else None
    if bucket is None or not bucket.size:
        rows = np.empty((0, 0), np.int32)
    elif bucket.size == 1:
        rows = _unroll(ts, bucket)[0]
    else:
        D, K = _unroll(ts, bucket, ranks=True)
        rows = D[_rank_order(K)]
    rows.flags.writeable = False
    if keep:
        state[key] = rows
    return rows


def _materialize_target(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int,
    ts: dict,
) -> tuple[ConductionPath, ...]:
    """Turn one source's target-sweep bucket into cached pair paths.

    The paths are the pair's :func:`path_rows` with device slots
    resolved to names and conditions.  A missing bucket means the
    sweep proved there are no paths; the empty answer is cached like
    any other.
    """
    cached = ccc.path_cache.get((source, target, max_paths))
    if cached is not None:
        return cached
    g = _graph(ccc)
    dev_names = g["dev_names"]
    dev_cond = g.get("dev_cond")
    if dev_cond is None:
        gate_names = g["gate_names"]
        dev_cond = g["dev_cond"] = [
            (gate_names[gi], bool(lvl)) if gi >= 0 else None
            for gi, lvl in zip(g["dev_gate"], g["dev_level"])
        ]
    paths: list[ConductionPath] = []
    for row in _bucket_rows(ccc, ts, source, target, max_paths).tolist():
        row = [di for di in row if di >= 0]
        conds = [dev_cond[di] for di in row]
        paths.append(ConductionPath(
            devices=tuple(dev_names[di] for di in row),
            conditions=tuple(c for c in conds if c is not None)))
    result = tuple(paths)
    ccc.path_cache[(source, target, max_paths)] = result
    return result


#: Per-pair path cap of recognition's sweeps: the default of
#: :func:`conduction_paths`, so a pair that overflows there overflows
#: here with the same error.
_MAX_PATHS = 10000


class SweepForest:
    """Read-only view of one target-rooted sweep forest, by device slot.

    Every arrival node of :func:`sweep_paths_to_target` stands for one
    simple path -- its parent chain -- from the node's arrival net to
    the sweep's root.  The view answers questions straight from those
    chains, as integer device slots, without building a
    :class:`ConductionPath`:

    * :meth:`nodes` -- one source's chains (its bucket), with the same
      overflow ``RuntimeError`` as :func:`conduction_paths`;
    * the per-node flags ``nmos_only``, ``pmos_only`` and ``driving``,
      computed once per forest on first use (see "Packed rows" in the
      module docstring), and :meth:`chain_mask` for caller-defined ones;
    * :meth:`where` to filter chains by flags, :meth:`rows` to walk the
      survivors, and :meth:`devices` / :meth:`support` for the union of
      devices / gate nets over chains.

    Node sets and flags are numpy arrays, whichever sweep strategy
    built the forest: flags come from one pointer-jumping scan
    (:meth:`_scan`), chains are walked by :func:`_unroll`.
    """

    def __init__(self, ccc: ChannelConnectedComponent, ts: dict,
                 target: str) -> None:
        g = _graph(ccc)
        self.target = target
        self.net_ids = g["net_ids"]
        self.dev_names = g["dev_names"]
        self.dev_gate = g["dev_gate"]
        self.dev_level = g["dev_level"]
        self.gate_names = g["gate_names"]
        self._g = g
        self._ts = ts
        self._output_nets = ccc.output_nets
        self._par, self._dev = ts["par"], ts["dev"]
        self._rounds = None
        self._flags = None
        self._chain_devices: dict[str, frozenset[int]] = {}
        self._support: dict[str, frozenset[str]] = {}

    @property
    def nmos_only(self) -> np.ndarray:
        """Per node: every device on the chain is NMOS."""
        return self._node_flags()[0]

    @property
    def pmos_only(self) -> np.ndarray:
        """Per node: every device on the chain is PMOS."""
        return self._node_flags()[1]

    @property
    def driving(self) -> np.ndarray:
        """Per node: no intermediate net of the chain is a CCC output."""
        return self._node_flags()[2]

    def _node_flags(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._flags is not None:
            return self._flags
        g = self._g
        nmos = np.array(g["dev_level"], np.uint8)[self._dev]
        # One extra entry for the sentinel's net -1.
        not_out = np.array([nm not in self._output_nets for nm in g["nets"]]
                           + [True], np.uint8)
        # One scan for all three: bit 0 the device is NMOS, bit 1 it is
        # PMOS, bit 2 the node's arrival net is no output.  A chain is
        # driving when every net before its last -- the parent's chain
        # -- is clear; a root's parent is the sentinel, all bits set.
        bits = self._scan(nmos | ((nmos ^ 1) << 1)
                          | (not_out[self._ts["net"]] << 2))
        self._flags = ((bits & 1).astype(bool), (bits & 2).astype(bool),
                       (bits[self._par] & 4).astype(bool))
        return self._flags

    def _scan(self, own: np.ndarray) -> np.ndarray:
        """Per node: the AND of ``own`` over the node and every ancestor
        (bitwise, so one scan carries several flags).

        Pointer jumping: after round ``j`` each node has folded in its
        ``2**j - 1`` nearest ancestors, so ``ceil(log2(depth))`` rounds
        cover the deepest chain.  Jumps past a root land on the
        sentinel, whose entry is set to all ones.
        """
        if self._rounds is None:
            self._rounds = (int(self._ts["depth"].max()) - 1).bit_length()
        out = own.copy()
        out[-1] = ~out.dtype.type(0)
        up = self._par
        for _ in range(self._rounds):
            out &= out[up]
            up = up[up]
        return out

    def chain_mask(self, dev_ok, dev_need) -> np.ndarray:
        """Per-node flag: every device on the chain satisfies
        ``dev_ok`` and at least one satisfies ``dev_need`` (both
        indexed by device slot)."""
        dev = self._dev
        bits = self._scan(np.asarray(dev_ok, np.uint8)[dev]
                          | ((np.asarray(dev_need, np.uint8)[dev] ^ 1) << 1))
        return bits == 1

    def nodes(self, source: str) -> np.ndarray:
        """The chains of every ``source`` -> target path (its bucket).

        Raises the :func:`conduction_paths` overflow error when the
        pair exceeded the path cap.
        """
        sid = self.net_ids.get(source)
        if sid is None:
            return np.empty(0, np.intc)
        if sid in self._ts["overflow"]:
            raise _overflow_error(source, self.target, _MAX_PATHS)
        bucket = self._ts["buckets"].get(sid)
        return bucket if bucket is not None else np.empty(0, np.intc)

    @staticmethod
    def where(nodes: np.ndarray, *masks: np.ndarray) -> np.ndarray:
        """The subset of ``nodes`` every per-node mask holds at."""
        keep = masks[0][nodes]
        for m in masks[1:]:
            keep &= m[nodes]
        return nodes[keep]

    def rows(self, nodes: np.ndarray) -> list[list[int]]:
        """Device slots of each chain in ``nodes``, source to target,
        in the order of ``nodes`` (not the per-pair order; see
        :func:`path_rows` for that)."""
        if not nodes.size:
            return []
        return [[d for d in row if d >= 0]
                for row in _unroll(self._ts, nodes)[0].tolist()]

    def devices(self, nodes: np.ndarray) -> set[int]:
        """Device slots on any chain of ``nodes``."""
        if not nodes.size:
            return set()
        # Padding (-1) marks the extra last entry.
        on = np.zeros(len(self.dev_names) + 1, bool)
        on[_unroll(self._ts, nodes)[0]] = True
        return set(np.flatnonzero(on[:-1]).tolist())

    def gate_support(self, devices: Iterable[int]) -> set[str]:
        """Gate nets conditioning ``devices`` (rail-gated ones add none)."""
        dev_gate, names = self.dev_gate, self.gate_names
        return {names[dev_gate[d]] for d in devices if dev_gate[d] >= 0}

    def chain_devices(self, source: str) -> frozenset[int]:
        """Device slots on any ``source`` -> target path (cached)."""
        devs = self._chain_devices.get(source)
        if devs is None:
            devs = frozenset(self.devices(self.nodes(source)))
            self._chain_devices[source] = devs
        return devs

    def support(self, source: str) -> frozenset[str]:
        """Gate nets on any ``source`` -> target path: what
        ``support`` over the pair's :func:`conduction_paths` would be
        (cached per source)."""
        sup = self._support.get(source)
        if sup is None:
            sup = frozenset(self.gate_support(self.chain_devices(source)))
            self._support[source] = sup
        return sup


def sweep_forest(ccc: ChannelConnectedComponent, target: str,
                 source: str) -> SweepForest:
    """The :class:`SweepForest` of ``target``'s cached sweep.

    Runs :func:`sweep_paths_to_target` first when the sweep is not
    cached; ``source`` is passed on as its ``want``, so a first sweep
    raises for that source's overflow exactly as
    :func:`conduction_paths` would.
    """
    ts = sweep_paths_to_target(ccc, target, _MAX_PATHS, want=source)
    forest = ts.get("forest")
    if forest is None:
        forest = ts["forest"] = SweepForest(ccc, ts, target)
    return forest


def conduction_function(
    paths: Iterable[ConductionPath],
    assignment: Mapping[str, bool],
) -> bool:
    """Evaluate OR-over-paths conduction under one input assignment."""
    return any(p.conducts(assignment) for p in paths)


@lru_cache(maxsize=None)
def _input_masks(n_inputs: int) -> tuple[int, tuple[int, ...]]:
    """``(full, var)``: the all-minterms mask over ``n_inputs`` inputs and,
    per input ``k``, the minterms whose bit ``k`` is set.  One entry per
    input count, which :func:`cube_table` caps."""
    full = (1 << (1 << n_inputs)) - 1
    var = []
    for k in range(n_inputs):
        half = 1 << k
        period = (1 << (2 * half)) - 1
        var.append((((1 << half) - 1) << half) * (full // period))
    return full, tuple(var)


def cube_table(
    cubes: Iterable[tuple[int, int]],
    n_inputs: int,
    max_inputs: int = 16,
) -> int:
    """Truth table of an OR of cubes, as a bitmask.

    Bit ``i`` of the result is 1 when the input assignment given by the
    binary expansion of ``i`` (input 0 the least-significant bit)
    satisfies some cube.  A cube ``(ones, zeros)`` holds input masks: it
    covers assignment ``i`` when every input in ``ones`` is 1 and every
    input in ``zeros`` is 0.  A conduction path is exactly such a cube
    -- NMOS gates must be 1, PMOS gates 0 -- so this is the path set's
    conduction function, tabulated.
    """
    if n_inputs > max_inputs:
        raise ValueError(
            f"truth-table extraction over {n_inputs} inputs exceeds the "
            f"{max_inputs}-input cap; use BDD-based equivalence instead"
        )
    full, var = _input_masks(n_inputs)
    table = 0
    for ones, zeros in cubes:
        cube = full
        for k in range(n_inputs):
            if (ones >> k) & 1:
                cube &= var[k]
            elif (zeros >> k) & 1:
                cube &= ~var[k]
        table |= cube
    return table
