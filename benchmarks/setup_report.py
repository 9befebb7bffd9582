"""Setup-path scaling benchmark: table build, recognition, STA graph.

PR 6 made the *solves* scale; this report tracks whether the *setup*
path (everything that runs before the first solve) keeps up.  For each
chip-scale workload (:func:`repro.designs.chip_scale` at ~1k through
~50k transistors) the script measures

* **cold table build** through the shared :class:`DesignCache` -- the
  target-rooted path sweeps and the name-free CCC template cache;
* **legacy table build** (sweeps and templates disabled, fresh CCCs) at
  the scales where it is still affordable, asserting the two builders
  produce **byte-identical** packed arrays -- any divergence fails the
  build regardless of speed;
* **recognition** and **STA timing-graph construction** riding the same
  warm CCC path caches the build populated;
* **warm-cache re-build** (identity hit) and an **ArtifactStore
  round-trip** (persist by content fingerprint, reload into a fresh
  cache, byte-identity checked again);
* a short **vector-engine smoke** so the largest scale is exercised
  end-to-end: build + recognition + simulation.

Results land in ``benchmarks/BENCH_setup.json``, merged by scale: a
run over a subset of scales replaces those rows and keeps the others.
Every row records the ``git_sha`` and ``python`` it was measured with
(the top level records the latest run's), and ``carried_over`` lists
the rows the latest run did not re-measure.  The new builder must
clear ``FLOOR`` (10x over the legacy builder) at the 10k scale --
waived (with the reason recorded in the JSON) only on hosts with fewer
than 2 CPUs, matching the switchsim report's convention.

Usage::

    PYTHONPATH=src python benchmarks/setup_report.py                # full curve
    PYTHONPATH=src python benchmarks/setup_report.py --scales 1k,5k # CI quick
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

from repro.designs import chip_scale
from repro.extraction.annotate import annotate
from repro.netlist.flatten import flatten
from repro.perf.cache import DesignCache
from repro.process.corners import Corner
from repro.process.technology import strongarm_technology
from repro.recognition import conduction
from repro.store.artifact import ArtifactStore
from repro.switchsim import SwitchSimulator
from repro.switchsim import tables as tables_mod
from repro.switchsim.tables import PackedSwitchTables
from repro.timing.arccache import ArcPriceCache
from repro.timing.delay import ArcDelayCalculator
from repro.timing.graph import build_timing_graph

OUT_JSON = pathlib.Path(__file__).parent / "BENCH_setup.json"

SCALES = {"1k": 1000, "5k": 5000, "10k": 10000,
          "25k": 25000, "50k": 50000}
#: Scales where the legacy (per-pair DFS, no templates) builder still
#: finishes in minutes; beyond 10k only the new path is timed.
LEGACY_SCALES = frozenset({"1k", "5k", "10k"})
FLOOR = 10.0          # new-vs-legacy build speedup floor
FLOOR_SCALE = "10k"   # the floor only binds when this scale is included
FLOOR_MIN_CPUS = 2
SEED = 12345
SMOKE_STEPS = 4

#: Every numpy column of the packed tables, for byte-identity checks.
_TABLE_ARRAYS = (
    "row_net", "row_ccc", "row_wave", "path_ptr", "path_src",
    "path_src_rail", "path_g", "cond_ptr", "cond_gate", "cond_level",
    "cond_internal", "cond_path", "aff_later_ptr", "aff_later_rows",
)


def tables_identical(a: PackedSwitchTables, b: PackedSwitchTables) -> bool:
    """True when every packed array (and the name-keyed side tables)
    of ``a`` and ``b`` is byte-for-byte identical."""
    for name in _TABLE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if x.tobytes() != y.tobytes():
            return False
    if a.row_name != b.row_name:
        return False
    if len(a.affected_rows) != len(b.affected_rows):
        return False
    for da, db in zip(a.affected_rows, b.affected_rows):
        if set(da) != set(db):
            return False
        if any(da[k].tolist() != db[k].tolist() for k in da):
            return False
    return True


def legacy_build(target: int) -> PackedSwitchTables:
    """Build tables the PR 6 way: per-pair DFS, no template stamping.

    A fresh flatten gives fresh CCCs, so nothing leaks in from the
    sweep-warmed caches of the new build.
    """
    flat = flatten(chip_scale(target).cell)
    sweep, tmpl = conduction.SWEEP_ENABLED, tables_mod.TEMPLATES_ENABLED
    conduction.SWEEP_ENABLED = False
    tables_mod.TEMPLATES_ENABLED = False
    try:
        return PackedSwitchTables.build(flat)
    finally:
        conduction.SWEEP_ENABLED = sweep
        tables_mod.TEMPLATES_ENABLED = tmpl


def make_smoke_plan(cs, steps: int) -> list[list[tuple[str, int]]]:
    """Deterministic sparse stimulus (same LCG as the switchsim bench)."""
    state = SEED

    def lcg() -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return state

    plan = [[(p, 0) for p in cs.stimulus_ports]]
    for step in range(1, steps):
        drives = [(cs.clock_port, step % 2)]
        for port in cs.stimulus_ports:
            if port != cs.clock_port and lcg() % 3 == 0:
                drives.append((port, lcg() % 2))
        plan.append(drives)
    return plan


def git_sha() -> str:
    """HEAD's commit, suffixed ``-dirty`` when tracked files differ from
    it; ``"unknown"`` outside a git checkout."""
    root = pathlib.Path(__file__).resolve().parent.parent

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def bench_scale(label: str, target: int, store_dir: pathlib.Path,
                check_legacy: bool) -> dict:
    cs = chip_scale(target)
    flat = flatten(cs.cell)
    tech = strongarm_technology()
    store = ArtifactStore(str(store_dir / label))
    cache = DesignCache(store=store)
    print(f"[{label}] {len(flat.transistors)} transistors, "
          f"{len(flat.nets)} nets")

    enum_before = dict(conduction.enumeration_counters())
    t0 = time.perf_counter()
    tables = cache.switch_tables(flat)
    cold_total_s = time.perf_counter() - t0
    build_s = tables.build_wall_s  # pure build; cold_total adds
    enum_after = conduction.enumeration_counters()  # fp + store write
    print(f"[{label}] cold build {build_s:.2f}s "
          f"({cold_total_s:.2f}s with fingerprint + store write; "
          f"rows={tables.row_net.size}, "
          f"template hits={tables.template_hits})")

    # The legacy baseline runs back-to-back with the cold build -- the
    # two sides of the floor ratio should see the same host conditions,
    # not be separated by minutes of recognition and STA.
    legacy = None
    if check_legacy:
        old = legacy_build(target)
        legacy_s = old.build_wall_s  # pure build, same meter as new_s
        identical = tables_identical(tables, old)
        speedup = legacy_s / max(build_s, 1e-9)
        print(f"[{label}] legacy build {legacy_s:.2f}s -> {speedup:.1f}x, "
              f"{'byte-identical' if identical else 'DIVERGED'}")
        legacy = {"build_s": round(legacy_s, 4),
                  "speedup": round(speedup, 3),
                  "byte_identical": identical}
        # A second full table set: drop it before the phases below add
        # their own copies (at 10k the reload phase is the peak).
        del old

    t0 = time.perf_counter()
    design = cache.recognized(flat)
    recognition_s = time.perf_counter() - t0
    print(f"[{label}] recognition {recognition_s:.2f}s "
          f"({len(design.classifications)} CCCs)")

    parasitics = cache.parasitics(flat, tech)
    fast = annotate(flat, parasitics, tech, Corner.FAST)
    slow = annotate(flat, parasitics, tech, Corner.SLOW)
    t0 = time.perf_counter()
    # Arc-price cache on, as the production driver runs it: the N
    # stamped copies of a bit-slice price their arcs once.
    graph = build_timing_graph(design, ArcDelayCalculator(fast, slow),
                               arc_cache=ArcPriceCache())
    sta_graph_s = time.perf_counter() - t0
    sta_arcs = len(graph.arcs)
    del graph, fast, slow
    print(f"[{label}] STA graph {sta_graph_s:.2f}s ({sta_arcs} arcs)")

    # Warm paths: identity hit in the same cache, then a store reload
    # into a fresh cache (fresh flatten -> same fingerprint).
    t0 = time.perf_counter()
    again = cache.switch_tables(flat)
    warm_hit_s = time.perf_counter() - t0
    assert again is tables, "warm switch_tables must be an identity hit"

    flat2 = flatten(cs.cell)
    cache2 = DesignCache(store=store)
    t0 = time.perf_counter()
    loaded = cache2.switch_tables(flat2)
    store_load_s = time.perf_counter() - t0
    store_identical = (loaded.loaded_from_store
                       and tables_identical(tables, loaded))
    print(f"[{label}] store reload {store_load_s:.2f}s, "
          f"{'byte-identical' if store_identical else 'DIVERGED'}")

    sim = SwitchSimulator(flat, engine="vector", tables=tables)
    plan = make_smoke_plan(cs, SMOKE_STEPS)
    t0 = time.perf_counter()
    events = 0
    for drives in plan:
        for net, value in drives:
            sim.drive(net, value)
        events += sim.settle(max_events=5_000_000)
    smoke_s = time.perf_counter() - t0
    print(f"[{label}] vector smoke {smoke_s:.2f}s, {events} events")

    return {
        "transistors": len(flat.transistors),
        "nets": len(flat.nets),
        "cccs": len(design.classifications),
        "build": {
            "new_s": round(build_s, 4),
            "cold_total_s": round(cold_total_s, 4),
            "rows": int(tables.row_net.size),
            "paths": int(tables.path_src.size),
            "conditions": int(tables.cond_gate.size),
            "template_hits": int(tables.template_hits),
            "target_sweeps": int(enum_after["target_sweeps"]
                                 - enum_before.get("target_sweeps", 0)),
            "pair_enumerations": int(
                enum_after["pair_enumerations"]
                - enum_before.get("pair_enumerations", 0)),
        },
        "legacy": legacy,
        "recognition_s": round(recognition_s, 4),
        "sta_graph_s": round(sta_graph_s, 4),
        "sta_arcs": sta_arcs,
        "warm": {
            "cache_hit_s": round(warm_hit_s, 6),
            "store_load_s": round(store_load_s, 4),
            "store_byte_identical": store_identical,
        },
        "smoke": {"steps": SMOKE_STEPS, "events": events,
                  "wall_s": round(smoke_s, 4)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", default=",".join(SCALES),
        help="comma-separated subset of %s (default: all)" % list(SCALES))
    parser.add_argument(
        "--store-dir", default=None,
        help="ArtifactStore root for the persistence round-trip "
             "(default: a temp dir)")
    args = parser.parse_args(argv)
    labels = [s.strip() for s in args.scales.split(",") if s.strip()]
    unknown = [s for s in labels if s not in SCALES]
    if unknown:
        parser.error(f"unknown scale(s) {unknown}; choose from {list(SCALES)}")

    cpus = os.cpu_count() or 1
    print(f"setup bench: scales {labels}, {cpus} CPU(s)")

    import tempfile
    with tempfile.TemporaryDirectory() as td:
        store_dir = pathlib.Path(args.store_dir or td)
        results = {label: bench_scale(label, SCALES[label], store_dir,
                                      check_legacy=label in LEGACY_SCALES)
                   for label in labels}

    provenance = {"git_sha": git_sha(),
                  "python": platform.python_version()}
    scales = {}
    if OUT_JSON.exists():
        scales = json.loads(OUT_JSON.read_text(encoding="utf-8")).get(
            "scales", {})
    for label, row in results.items():
        scales[label] = {**row, **provenance}

    floor_binds = FLOOR_SCALE in labels
    floor_enforced = floor_binds and cpus >= FLOOR_MIN_CPUS
    floor_waived = floor_binds and not floor_enforced
    payload = {
        "cpu_count": cpus,
        **provenance,
        "seed": SEED,
        "scales": scales,
        "carried_over": sorted(set(scales) - set(results)),
        "build_speedup_floor": FLOOR,
        "floor_scale": FLOOR_SCALE,
        "floor_enforced": floor_enforced,
        "floor_waived": floor_waived,
    }
    if floor_waived:
        payload["floor_waived_reason"] = (
            f"host has {cpus} CPU(s); the build-speedup floor is only "
            f"meaningful with >= {FLOOR_MIN_CPUS}")
    OUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {OUT_JSON.name}")

    diverged = [label for label, r in results.items()
                if (r["legacy"] is not None
                    and not r["legacy"]["byte_identical"])
                or not r["warm"]["store_byte_identical"]]
    if diverged:
        print(f"\nFAIL: packed tables diverged at {diverged}",
              file=sys.stderr)
        return 1
    if floor_enforced:
        speedup = results[FLOOR_SCALE]["legacy"]["speedup"]
        if speedup < FLOOR:
            print(f"\nFAIL: build speedup {speedup:.2f}x at {FLOOR_SCALE} "
                  f"is below the {FLOOR}x floor", file=sys.stderr)
            return 1
        print(f"floor cleared: {speedup:.2f}x >= {FLOOR}x at {FLOOR_SCALE}")
    elif floor_waived:
        print(f"floor waived: {payload['floor_waived_reason']}")
    else:
        print(f"floor not asserted: {FLOOR_SCALE!r} not in scales run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
