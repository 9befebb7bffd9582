"""Which end-to-end metric each per-layer metric should move, and where.

``BENCHMARK.json`` fixes every metric's name, unit and direction.  This
table adds the prediction the benchmark exists to test: a change that
improves a layer metric should move the listed end-to-end metrics on
the ``on`` workloads, and leave the ``flat_on`` workloads unchanged
because they bypass that layer.
"""

from __future__ import annotations

_ALL = ["verify_1k", "logic_5k", "service_mix"]


def _effect(moves, on, flat_on=()):
    return {"moves": list(moves), "on": list(on), "flat_on": list(flat_on)}


# STA: its graph build is the bulk of a verify_1k request; logic_5k
# stops before STA.
_TIMING = _effect(["verdict_s_p50", "devices_per_s"], ["verify_1k"],
                  ["logic_5k"])
# The battery's own STA graph (timing_setup_race) is the other half.
_CHECKS = _effect(["verdict_s_p50", "devices_per_s"], ["verify_1k"],
                  ["logic_5k"])
# Recognition dominates logic_5k in time and memory; the service
# variants are too small for it to show.
_RECOGNITION = _effect(["verdict_s_p50", "peak_rss_mb"], ["logic_5k"],
                       ["service_mix"])
# Only the chip workloads carry functional vectors.
_SWITCHSIM = _effect(["verdict_s_p50", "devices_per_s"], ["logic_5k"],
                     ["service_mix"])
_FRONT = _effect(["verdict_s_p50"], _ALL)
_STORE = _effect(["verdict_s_p50"], ["verify_1k", "service_mix"],
                 ["logic_5k"])
_FLEET = _effect(["verdict_s_p50", "devices_per_s"], ["service_mix"],
                 ["verify_1k", "logic_5k"])

EFFECTS: dict[str, dict] = {
    "timing.graph_s": _TIMING,
    "timing.verify_s": _TIMING,
    "timing.constraints_s": _TIMING,
    "timing.arcs": _TIMING,
    "timing.arc_cache_hit_ratio": _TIMING,
    "checks.battery_s": _CHECKS,
    "checks.timing_setup_race_s": _CHECKS,
    "checks.findings": _CHECKS,
    "checks.crashes": _CHECKS,
    "recognition.recognize_s": _RECOGNITION,
    "recognition.peak_rss_mb": _RECOGNITION,
    "recognition.paths_materialized": _RECOGNITION,
    "recognition.memo_hit_ratio": _RECOGNITION,
    "switchsim.table_build_s": _SWITCHSIM,
    "switchsim.settle_s": _SWITCHSIM,
    "switchsim.events": _SWITCHSIM,
    "switchsim.events_per_s": _SWITCHSIM,
    "switchsim.skip_ratio": _SWITCHSIM,
    "switchsim.wasted_eval_ratio": _SWITCHSIM,
    "netlist.flatten_s": _FRONT,
    "extraction.parasitics_s": _FRONT,
    "extraction.annotate_s": _effect(["verdict_s_p50"],
                                     ["verify_1k", "service_mix"],
                                     ["logic_5k"]),
    "store.put_s": _STORE,
    "store.puts": _STORE,
    "store.get_s": _STORE,
    "store.bytes": _STORE,
    "fleet.admission_wait_s": _FLEET,
    "fleet.prepare_s": _FLEET,
    "fleet.battery_s": _FLEET,
    "fleet.finalize_s": _FLEET,
    "fleet.overhead_s": _FLEET,
    "service.cache_hit_s": _FLEET,
    "service.reuse_ratio": _FLEET,
    "service.failed": _effect(["success_rate"], ["service_mix"]),
    # The benchmark's own cost: traced minus untraced latency.  Untraced
    # runs never record spans, so no end-to-end metric depends on it.
    "trace.overhead_s": _effect([], []),
}
