"""The benchmark's three workloads, untraced and traced.

Every workload is a closed loop with one request in flight, driven from
this one process (``service_mix`` adds one client connection at a time
and at most two fleet worker processes).  A request is timed from the
call that submits it to the canonical report text in hand, and is
counted as failed when that text's SHA-256 differs from the golden
digest recorded from a serial in-process ``CbvCampaign.run`` of the
same inputs (:mod:`perfbench.golden`), when a stage ended in ERROR, or
when the service answered ``campaign_failed`` or ``backpressure``.

Untraced runs give the end-to-end metrics.  A traced run gives the
per-layer metrics: it runs a workload request as a sequence of calls
into each layer's public API (:func:`layer_flow`), each call inside a
span recorded here, never inside the program, and runs the same request
untraced as well; the difference is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.checks.driver import make_context
from repro.checks.registry import ALL_CHECKS, run_battery
from repro.checks.timing_sta import SetupRaceCheck
from repro.core.campaign import CbvCampaign, DesignBundle
from repro.core.report import report_to_json
from repro.core.stages import FlowStage
from repro.designs import chip_scale
from repro.fleet.jobs import FleetConfig
from repro.netlist.erc import run_erc
from repro.netlist.flatten import flatten
from repro.perf.cache import DesignCache
from repro.process.technology import strongarm_technology
from repro.recognition.conduction import enumeration_counters
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    variant_bundle,
    variant_ref,
)
from repro.store.artifact import ArtifactStore
from repro.store.checkpoint import stage_keys
from repro.switchsim import SwitchSimulator
from repro.timing.analyzer import TimingAnalyzer
from repro.timing.arccache import ArcPriceCache
from repro.timing.clocking import TwoPhaseClock
from repro.timing.constraints import generate_constraints
from repro.timing.delay import ArcDelayCalculator
from repro.timing.graph import build_timing_graph

from perfbench.spans import Tracer

WORKLOADS = ("verify_1k", "logic_5k", "service_mix")

#: The battery as the campaign runs it, minus the STA member, which the
#: traced flow times as its own row (it builds a second STA graph).
BATTERY_WITHOUT_STA = tuple(c for c in ALL_CHECKS if c is not SetupRaceCheck)

#: At most ``nproc`` fleet workers, and never more than two.
FLEET_WORKERS = max(1, min(2, os.cpu_count() or 1))
TENANT = "perfbench"


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark mode."""

    label: str
    verify_target: int
    verify_vectors: int
    logic_target: int
    logic_vectors: int
    #: service_mix submits variant_0 .. variant_{variants-1}.
    variants: int
    #: Seeded functional-vector sets per chip workload; the workload
    #: seed picks among them, and each has its own golden digest.
    pool: int
    #: Set-up repetitions per run (input generation for the chip
    #: workloads, a service start and stop for service_mix, whose
    #: rounds add one start each); setup_s is their median.
    chip_setup_reps: int
    service_setup_reps: int
    #: service_mix rounds per run, each on a fresh service and store.
    min_rounds: int


FULL = Scale("full", verify_target=1000, verify_vectors=8,
             logic_target=5000, logic_vectors=64, variants=64, pool=8,
             chip_setup_reps=25, service_setup_reps=5, min_rounds=2)
#: Tiny inputs for the benchmark's own tests; never writes results.
SMOKE = Scale("smoke", verify_target=200, verify_vectors=2,
              logic_target=300, logic_vectors=4, variants=8, pool=2,
              chip_setup_reps=2, service_setup_reps=1, min_rounds=1)


@dataclass
class Outcome:
    """One request: latency, flattened transistors, and why it failed
    (``""`` when it did not)."""

    latency_s: float
    transistors: int = 0
    error: str = ""
    cached: bool = False
    campaign: str = ""


@dataclass
class RunResult:
    outcomes: list[Outcome]
    setup_samples: list[float]
    #: Wall seconds of the measured loop.
    wall_s: float
    metrics: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None


# -- inputs -------------------------------------------------------------------

def functional_vectors(cs, count: int, rng: random.Random) -> tuple:
    """Step 0 grounds every stimulus port; later steps toggle the clock
    and drive a random ~30% of the other ports to random levels."""
    steps = [{port: 0 for port in cs.stimulus_ports}]
    for step in range(1, count):
        drive = {cs.clock_port: step % 2}
        for port in cs.stimulus_ports:
            if port != cs.clock_port and rng.random() < 0.3:
                drive[port] = rng.randrange(2)
        steps.append(drive)
    return tuple(steps)


def chip_inputs(workload: str, scale: Scale):
    """The chip_scale design and the workload's pool of vector sets."""
    if workload == "verify_1k":
        target, count = scale.verify_target, scale.verify_vectors
    else:
        target, count = scale.logic_target, scale.logic_vectors
    cs = chip_scale(target)
    sets = [functional_vectors(cs, count, random.Random(f"{workload}:{i}"))
            for i in range(scale.pool)]
    return cs, sets


def chip_bundle(workload: str, cs, index: int, vectors) -> DesignBundle:
    return DesignBundle(
        name=f"{workload}_v{index}", cell=cs.cell,
        technology=strongarm_technology(),
        clock=TwoPhaseClock(period_s=6.25e-9),
        functional_vectors=vectors, use_layout=False)


def service_order(rng: random.Random, variants: int) -> list[int]:
    """Every variant once in seeded order, with one earlier variant
    repeated after every second new one (a third of all submissions)."""
    order = list(range(variants))
    rng.shuffle(order)
    submissions: list[int] = []
    for k, index in enumerate(order):
        submissions.append(index)
        if k % 2 == 1:
            submissions.append(rng.choice(order[:k + 1]))
    return submissions


def golden_key(workload: str, scale: Scale, index: int) -> str:
    return f"{workload}/{scale.label}/{index}"


# -- judging a report -----------------------------------------------------------

def judge(text: str, latency_s: float, golden: dict, key: str) -> Outcome:
    """Check one canonical report against its golden digest."""
    report = json.loads(text)
    transistors = 0
    for stage in report["stages"]:
        if stage["stage"] == FlowStage.SCHEMATIC.value:
            transistors = int(stage["metrics"].get("transistors", 0))
    expected = golden.get(key)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    errored = [s["stage"] for s in report["stages"] if s["status"] == "error"]
    if expected is None:
        error = f"no golden digest for {key}"
    elif digest != expected:
        error = f"canonical report digest mismatch for {key}"
    elif errored:
        error = f"stage ERROR in {', '.join(errored)}"
    else:
        error = ""
    return Outcome(latency_s, transistors, error)


def direct_request(bundle: DesignBundle, until: FlowStage | None,
                   store_dir: Path | None) -> tuple[str, float, object]:
    """One serial in-process campaign with a fresh DesignCache (and a
    fresh ArtifactStore when ``store_dir`` is given): (canonical text,
    seconds, report)."""
    t0 = time.perf_counter()
    store = ArtifactStore(str(store_dir)) if store_dir is not None else None
    report = CbvCampaign(bundle).run(cache=DesignCache(), store=store,
                                     until=until)
    text = report_to_json(report, canonical=True)
    return text, time.perf_counter() - t0, report


# -- the store proxy --------------------------------------------------------------

class TimedStore:
    """Times the public ``put`` / ``get`` calls of an ArtifactStore and
    forwards everything else.  Thread-safe (the service seals verdicts
    from executor threads); records a span per call only when given a
    tracer, which must then be driven from one thread."""

    def __init__(self, store, tracer: Tracer | None = None,
                 request: str = "") -> None:
        self._store = store
        self._tracer = tracer
        self._request = request
        self._lock = threading.Lock()
        self.put_s = self.get_s = 0.0
        self.puts = 0

    def _record(self, op: str, seconds: float) -> None:
        with self._lock:
            if op == "put":
                self.put_s += seconds
                self.puts += 1
            else:
                self.get_s += seconds
        if self._tracer is not None:
            self._tracer.add(f"store.{op}", seconds, self._request)

    def put(self, key, payload, meta=None):
        t0 = time.perf_counter()
        try:
            return self._store.put(key, payload, meta=meta)
        finally:
            self._record("put", time.perf_counter() - t0)

    def get(self, key):
        t0 = time.perf_counter()
        try:
            return self._store.get(key)
        finally:
            self._record("get", time.perf_counter() - t0)

    def __getattr__(self, name):
        return getattr(self._store, name)


# -- the layer-by-layer flow ------------------------------------------------------

#: The spans of :func:`layer_flow` reported as ``<span>_s`` metrics.
LAYER_SPANS = (
    "netlist.flatten", "recognition.recognize", "extraction.parasitics",
    "extraction.annotate", "switchsim.table_build", "switchsim.settle",
    "checks.battery", "checks.timing_setup_race", "timing.graph",
    "timing.constraints", "timing.verify",
)


def peak_rss_mb(with_children: bool = False) -> float:
    """This process's peak RSS, plus that of its largest reaped child
    when ``with_children``."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def layer_flow(bundle: DesignBundle, tracer: Tracer, request: str, *,
               until: FlowStage | None = None,
               store: TimedStore | None = None) -> dict[str, float]:
    """The campaign's stages as direct calls into each layer, one span
    per call; returns the layer counters of this request.

    Mirrors ``CbvCampaign.run`` call for call (wireload extraction, the
    battery, then STA), except that the battery's STA member runs as a
    battery of its own, and checkpoints are plain ``put`` calls of each
    stage's artifacts under the campaign's own stage keys.
    """
    span = tracer.span
    out: dict[str, float] = {}
    keys = stage_keys(bundle, checks=ALL_CHECKS) if store is not None else {}

    def checkpoint(stage: FlowStage, artifacts: dict) -> None:
        if store is not None:
            store.put(keys[stage], artifacts)

    with span("inprocess", request):
        with span("netlist.flatten", request):
            flat = flatten(bundle.cell)
        with span("netlist.erc", request):
            run_erc(flat)
        checkpoint(FlowStage.SCHEMATIC, {"flat": flat})

        cache = DesignCache(store=store)
        enum_before = enumeration_counters()
        with span("recognition.recognize", request):
            design = cache.recognized(flat, clock_hints=bundle.clock_hints)
        out["recognition.peak_rss_mb"] = peak_rss_mb()
        out["recognition.paths_materialized"] = float(sum(
            enumeration_counters()[k] - enum_before[k]
            for k in ("path_sweeps", "target_sweeps", "pair_enumerations")))
        memo = design.perf
        lookups = sum(memo.values())
        out["recognition.memo_hit_ratio"] = (
            (memo["classify_hits"] + memo["gate_hits"]) / lookups
            if lookups else 0.0)
        out["recognition.cccs"] = float(len(design.cccs))
        checkpoint(FlowStage.RECOGNITION, {"design": design})

        with span("extraction.parasitics", request):
            parasitics = cache.parasitics(flat, bundle.technology)
        checkpoint(FlowStage.EXTRACTION, {"parasitics": parasitics})

        if bundle.functional_vectors:
            out.update(switch_level(bundle, flat, cache, tracer, request))
        if until is FlowStage.LOGIC_VERIFICATION:
            return out

        with span("extraction.annotate", request):
            ctx = make_context(
                flat, bundle.technology, clock=bundle.clock,
                clock_hints=bundle.clock_hints, parasitics=parasitics,
                settings=bundle.check_settings, design=design, cache=cache)
        with span("checks.battery", request):
            battery = run_battery(ctx, checks=BATTERY_WITHOUT_STA)
        with span("checks.timing_setup_race", request):
            race = run_battery(ctx, checks=(SetupRaceCheck,))
        out["checks.findings"] = float(len(battery.findings)
                                       + len(race.findings))
        out["checks.crashes"] = float(len(battery.crashes)
                                      + len(race.crashes))
        checkpoint(FlowStage.CIRCUIT_VERIFICATION, {
            "battery": battery.to_dict(), "timing_battery": race.to_dict()})

        calculator = ArcDelayCalculator(ctx.fast, ctx.slow, bundle.pessimism)
        arc_cache = ArcPriceCache()
        with span("timing.graph", request):
            graph = build_timing_graph(design, calculator,
                                       arc_cache=arc_cache)
        with span("timing.constraints", request):
            constraints = generate_constraints(design, bundle.pessimism)
        with span("timing.verify", request):
            analyzer = TimingAnalyzer(design, graph, bundle.clock,
                                      constraints)
            analyzer.declare_false_through(*bundle.false_through)
            timing = analyzer.verify()
        priced = arc_cache.hits + arc_cache.misses
        out["timing.arcs"] = float(len(graph.arcs))
        out["timing.arcs_priced"] = float(priced)
        out["timing.arc_cache_hit_ratio"] = (
            arc_cache.hits / priced if priced else 0.0)
        out["timing.min_cycle_s"] = timing.min_cycle_time_s
        checkpoint(FlowStage.TIMING_VERIFICATION, {"timing": timing})
    return out


def switch_level(bundle: DesignBundle, flat, cache: DesignCache,
                 tracer: Tracer, request: str) -> dict[str, float]:
    """The logic stage's switch-level leg: table build, then the
    vectors applied net by net in sorted order and settled."""
    with tracer.span("switchsim.table_build", request):
        sim = SwitchSimulator(flat, engine=bundle.sim_engine,
                              record_history=False, cache=cache)
    events = 0
    with tracer.span("switchsim.settle", request):
        for stimuli in bundle.functional_vectors:
            for net in sorted(stimuli):
                sim.drive(net, stimuli[net])
            events += sim.settle()
    counters = sim.counters
    solves = counters["solve_count"] + counters["skip_count"]
    evaluations = counters["ccc_evaluations"]
    return {
        "switchsim.events": float(events),
        "switchsim.skip_ratio": (counters["skip_count"] / solves
                                 if solves else 0.0),
        "switchsim.wasted_eval_ratio": (
            counters["vector_wasted_evals"] / evaluations
            if evaluations else 0.0),
    }


def flow_mismatches(flow: dict[str, float], report) -> list[str]:
    """Where the layer-by-layer results disagree with the campaign's
    stage metrics (sim events, CCCs, findings, arcs priced, min cycle)."""
    pairs = [("switchsim.events", FlowStage.LOGIC_VERIFICATION, "sim_events"),
             ("recognition.cccs", FlowStage.RECOGNITION, "cccs")]
    if "checks.findings" in flow:
        pairs += [("checks.findings", FlowStage.CIRCUIT_VERIFICATION,
                   "findings"),
                  ("timing.min_cycle_s", FlowStage.TIMING_VERIFICATION,
                   "min_cycle_s")]
    problems = []
    for name, stage, metric in pairs:
        want = report.stage(stage).metrics.get(metric)
        if flow[name] != want:
            problems.append(f"{name}={flow[name]!r} but campaign "
                            f"{stage.value}.{metric}={want!r}")
    if "timing.arcs_priced" in flow:
        metrics = report.stage(FlowStage.TIMING_VERIFICATION).metrics
        want = metrics["arc_cache_hits"] + metrics["arc_cache_misses"]
        if flow["timing.arcs_priced"] != want:
            problems.append(f"timing.arcs_priced={flow['timing.arcs_priced']}"
                            f" but campaign priced {want}")
    return problems


# -- helpers ------------------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_setup(reps: int, fn):
    """Run ``fn`` ``reps`` times; (seconds of each, last result)."""
    samples, result = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return samples, result


# -- chip workloads ------------------------------------------------------------------

def run_chip(workload: str, scale: Scale, seed: int, seconds: float,
             trace: bool, golden: dict, workdir: Path) -> RunResult:
    until = (FlowStage.LOGIC_VERIFICATION if workload == "logic_5k"
             else None)
    with_store = workload == "verify_1k"
    setup_samples, (cs, sets) = timed_setup(
        scale.chip_setup_reps, lambda: chip_inputs(workload, scale))
    rng = random.Random(seed)
    outcomes: list[Outcome] = []

    def request(index: int):
        bundle = chip_bundle(workload, cs, index, sets[index])
        store_dir = workdir / f"store{len(outcomes)}" if with_store else None
        text, latency, report = direct_request(bundle, until, store_dir)
        outcomes.append(judge(text, latency, golden,
                              golden_key(workload, scale, index)))
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
        return report

    start = time.perf_counter()
    if not trace:
        while not outcomes or time.perf_counter() - start < seconds:
            request(rng.randrange(scale.pool))
        return RunResult(outcomes, setup_samples,
                         time.perf_counter() - start)

    # Traced: the layer-by-layer request runs first, in a fresh process,
    # so recognition.peak_rss_mb is not masked by an earlier request.
    index = rng.randrange(scale.pool)
    tracer = Tracer()
    bundle = chip_bundle(workload, cs, index, sets[index])
    store = None
    if with_store:
        store = TimedStore(ArtifactStore(str(workdir / "traced")),
                           tracer, "traced")
    flow = layer_flow(bundle, tracer, "traced", until=until, store=store)
    traced_s = tracer.total("inprocess")
    report = request(index)
    untraced = outcomes[-1]
    problems = flow_mismatches(flow, report)
    outcomes.append(Outcome(traced_s, 0 if problems else untraced.transistors,
                            "; ".join(problems)))
    metrics = flow_metrics(tracer, [flow])
    if store is not None:
        metrics.update(store_metrics(store, store.stats()))
        shutil.rmtree(workdir / "traced", ignore_errors=True)
    metrics["trace.overhead_s"] = traced_s - untraced.latency_s
    return RunResult(outcomes, setup_samples, time.perf_counter() - start,
                     metrics, tracer)


def flow_metrics(tracer: Tracer, flows: list[dict]) -> dict[str, float]:
    """Per-request means of the layer spans and counters of ``flows``."""
    n = max(1, len(flows))
    out = {f"{name}_s": tracer.total(name) / n for name in LAYER_SPANS}
    names = {name for flow in flows for name in flow}
    for name in sorted(names):
        out[name] = sum(flow.get(name, 0.0) for flow in flows) / n
    out["recognition.peak_rss_mb"] = max(
        (flow["recognition.peak_rss_mb"] for flow in flows), default=0.0)
    settle = out["switchsim.settle_s"]
    out["switchsim.events_per_s"] = (
        out.get("switchsim.events", 0.0) / settle if settle else 0.0)
    return out


def store_metrics(store: TimedStore, stats: dict) -> dict[str, float]:
    """Proxy timings, and bytes held per ``ArtifactStore.stats()``."""
    return {"store.put_s": store.put_s, "store.puts": float(store.puts),
            "store.get_s": store.get_s,
            "store.bytes": float(stats["total_bytes"])}


# -- service_mix ------------------------------------------------------------------------

def start_service(store_dir: Path) -> tuple[ServiceThread, ServiceClient]:
    """An in-process service on an empty store, with its fleet workers,
    answering status."""
    shutil.rmtree(store_dir, ignore_errors=True)
    handle = ServiceThread(ServiceConfig(
        workers=FLEET_WORKERS, fleet=FleetConfig(store_dir=str(store_dir))))
    host, port = handle.start()
    client = ServiceClient(host, port, timeout_s=120.0)
    client.status()
    return handle, client


def stop_service(handle: ServiceThread) -> None:
    """Stop the service, wait for every fleet worker to end and delete
    the service's store."""
    handle.stop()
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10.0)
    shutil.rmtree(handle.config.fleet.store_dir, ignore_errors=True)


def service_request(client: ServiceClient, index: int, golden: dict,
                    key: str, tracer: Tracer | None = None,
                    request: str = "") -> Outcome:
    def spanned(name):
        return (tracer.span(name, request) if tracer is not None
                else nullcontext())

    t0 = time.perf_counter()
    try:
        with spanned("request"):
            with spanned("service.submit"):
                sub = client.submit(variant_ref(index), tenant=TENANT)
            with spanned("service.report"):
                text = client.report(sub["campaign"], canonical=True)
    except ServiceError as exc:
        return Outcome(time.perf_counter() - t0, 0, f"service {exc.code}")
    outcome = judge(text, time.perf_counter() - t0, golden, key)
    outcome.cached = bool(sub["cached"] or sub["coalesced"])
    outcome.campaign = sub["campaign"]
    return outcome


def fleet_intervals(events: list[dict]) -> dict[str, float] | None:
    """Admission wait and prepare / battery / finalize phases of one
    launched campaign, from its service event stream."""
    t: dict[str, float] = {}
    battery_end = None
    for event in events:
        kind, status = event["event"], event.get("status")
        if kind == "service.admitted":
            t.setdefault("admitted", event["t_s"])
        elif kind == "service.progress" and status == "launched":
            t.setdefault("launched", event["t_s"])
        elif kind == "service.progress" and status == "prepare":
            t.setdefault("prepared", event["t_s"])
        elif kind == "service.progress" and status == "battery":
            battery_end = event["t_s"]
        elif kind == "service.sealed":
            t.setdefault("sealed", event["t_s"])
    if len(t) < 4 or battery_end is None:
        return None
    return {"fleet.admission_wait_s": t["launched"] - t["admitted"],
            "fleet.prepare_s": t["prepared"] - t["launched"],
            "fleet.battery_s": battery_end - t["prepared"],
            "fleet.finalize_s": t["sealed"] - battery_end}


def run_service(scale: Scale, seed: int, seconds: float, trace: bool,
                golden: dict, workdir: Path) -> RunResult:
    rng = random.Random(seed)
    store_dir = workdir / "service"

    def start_stop():
        handle, _ = start_service(store_dir)
        stop_service(handle)

    setup_samples, _ = timed_setup(scale.service_setup_reps, start_stop)
    outcomes: list[Outcome] = []

    def one_round(tracer: Tracer | None = None):
        """One service lifetime on a fresh store: start (a set-up
        sample), the mix, stop.  Traced rounds also time the verdict
        index's store calls -- cache probes read it, sealed reports
        write it -- and fetch each launched campaign's event stream."""
        t0 = time.perf_counter()
        handle, client = start_service(store_dir)
        setup_samples.append(time.perf_counter() - t0)
        store = None
        if tracer is not None:
            store = TimedStore(handle.service.verdicts.store)
            handle.service.verdicts.store = store
        mine: list[tuple[int, Outcome]] = []
        streams: dict[str, list[dict]] = {}
        try:
            for index in service_order(rng, scale.variants):
                mine.append((index, service_request(
                    client, index, golden,
                    golden_key("service_mix", scale, index), tracer,
                    f"r{len(mine)}")))
            status = client.status()
            if tracer is not None:
                for _, outcome in mine:
                    if outcome.campaign and not outcome.cached:
                        streams[outcome.campaign] = list(client.events(
                            outcome.campaign, follow=False))
        finally:
            stop_service(handle)
        outcomes.extend(outcome for _, outcome in mine)
        return mine, status, streams, store

    start = time.perf_counter()
    if not trace:
        rounds = 0
        while rounds < scale.min_rounds or time.perf_counter() - start < seconds:
            one_round()
            rounds += 1
        return RunResult(outcomes, setup_samples, time.perf_counter() - start)

    baseline, _, _, _ = one_round()
    tracer = Tracer()
    traced, status, streams, store = one_round(tracer)
    # The in-process reference: the same variants, layer by layer.
    flows, inproc = [], []
    for index in sorted({i for i, o in traced if not o.cached}):
        request = f"inprocess{index}"
        flows.append(layer_flow(variant_bundle(index), tracer, request))
        inproc.append(tracer.total("inprocess", request))

    def latencies(pairs, cached: bool) -> list[float]:
        return [o.latency_s for _, o in pairs
                if o.cached is cached and not o.error]

    metrics = flow_metrics(tracer, flows)
    phases: dict[str, list[float]] = {}
    for events in streams.values():
        for name, value in (fleet_intervals(events) or {}).items():
            phases.setdefault(name, []).append(value)
    metrics.update({name: median(values) for name, values in phases.items()})
    counts = status["metrics"]
    repeats = len(traced) - len({i for i, _ in traced})
    metrics.update(store_metrics(store, status["store"]))
    metrics.update({
        "fleet.overhead_s": median(latencies(traced, False)) - median(inproc),
        "service.cache_hit_s": median(latencies(traced, True)),
        "service.reuse_ratio": ((counts["cache_hits"] + counts["coalesced"])
                                / repeats if repeats else 0.0),
        "service.failed": float(counts["failed"]),
        "trace.overhead_s": (median(o.latency_s for _, o in traced)
                             - median(o.latency_s for _, o in baseline)),
    })
    return RunResult(outcomes, setup_samples, time.perf_counter() - start,
                     metrics, tracer)
