"""From a workload run to the result line, the table and the results file.

Metric names and units come from ``BENCHMARK.json`` at the root of the
checkout.  An untraced run whose end-to-end metrics differ from the
declared ones is a bug and raises.  A traced run reports every declared
per-layer metric; one whose layer the workload never calls reads 0, and
values that are not declared (the cross-check counters) go to the
results file only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spans import layer_table, render_table
from perfbench.workloads import (
    RunResult,
    Scale,
    median,
    peak_rss_mb,
    percentile,
    run_chip,
    run_service,
)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def end_to_end(run: RunResult) -> dict[str, float]:
    latencies = [o.latency_s for o in run.outcomes]
    failed = sum(1 for o in run.outcomes if o.error)
    return {
        "setup_s": median(run.setup_samples),
        "verdict_s_p50": median(latencies),
        "verdict_s_p90": percentile(latencies, 0.9),
        "devices_per_s": sum(o.transistors for o in run.outcomes) / run.wall_s,
        "peak_rss_mb": peak_rss_mb(with_children=True),
        "success_rate": 1.0 - failed / len(run.outcomes),
    }


@dataclass
class Result:
    line: dict
    table: str = ""
    rows: list = field(default_factory=list)
    run: RunResult | None = None
    extra: dict = field(default_factory=dict)

    def write(self, directory: Path, provenance: dict) -> Path:
        """``<workload>-seed<n>-trace<t>.json`` (and ``-spans.jsonl``)."""
        directory.mkdir(parents=True, exist_ok=True)
        stem = (f"{provenance['workload']}-seed{provenance['seed']}"
                f"-trace{provenance['trace']}")
        run = self.run
        payload = {
            "provenance": provenance,
            "result": self.line,
            "latencies_s": [o.latency_s for o in run.outcomes],
            "errors": [o.error for o in run.outcomes if o.error],
            "setup_samples_s": run.setup_samples,
            "wall_s": run.wall_s,
            "layer_table": self.rows,
            "extra": self.extra,
        }
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        if run.tracer is not None:
            run.tracer.write_jsonl(directory / f"{stem}-spans.jsonl")
        return path


def run(workload: str, *, scale: Scale, seed: int, seconds: float,
        trace: bool, golden: dict, workdir: Path) -> Result:
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "service_mix":
        result = run_service(scale, seed, seconds, trace, golden, workdir)
    else:
        result = run_chip(workload, scale, seed, seconds, trace, golden,
                          workdir)
    spec = declared()
    failed = sum(1 for o in result.outcomes if o.error)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # logic_5k stops before the battery and STA; only service_mix
        # has a fleet.
        values = {name: float(result.metrics.get(name, 0.0))
                  for name in names}
        extra = {k: v for k, v in result.metrics.items() if k not in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(result)
        extra = {}
        if set(values) != set(units):
            raise RuntimeError(f"end-to-end metrics {sorted(values)} do not "
                               f"match BENCHMARK.json {sorted(units)}")
    line = {
        "correct": failed == 0,
        "attempted": len(result.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    out = Result(line, run=result, extra=extra)
    if result.tracer is not None:
        out.rows = layer_table(result.tracer, values)
        out.table = render_table(out.rows)
    return out

