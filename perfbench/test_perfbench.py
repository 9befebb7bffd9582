"""The benchmark's own tests, on the tiny smoke inputs.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import golden, report
from perfbench.effects import EFFECTS
from perfbench.workloads import SMOKE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = report.declared()


def smoke(workload: str, trace: bool, tmp_path: Path, digests=None):
    return report.run(workload, scale=SMOKE, seed=3, seconds=0.01,
                      trace=trace, golden=digests or golden.load(),
                      workdir=tmp_path / "work")


def test_names_match_the_allowed_pattern_and_are_unique():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_metric_has_a_unit_and_a_direction():
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    assert {"setup_s", "verdict_s_p50", "verdict_s_p90", "devices_per_s",
            "peak_rss_mb", "success_rate"} == {
        e["name"] for e in SPEC["end_to_end"]}


def test_workloads_say_why_and_layer_metrics_say_what_they_move():
    workloads = set(WORKLOADS)
    end_to_end = {e["name"] for e in SPEC["end_to_end"]}
    for entry in SPEC["workloads"]:
        assert entry["why"].strip() and "\n" not in entry["why"]
    assert set(EFFECTS) == {e["name"] for e in SPEC["per_layer"]}
    for name, effect in EFFECTS.items():
        assert set(effect["moves"]) <= end_to_end, name
        assert set(effect["on"]) | set(effect["flat_on"]) <= workloads, name
        if not name.startswith("trace."):
            assert effect["moves"] and effect["on"], name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct_and_reports_every_declared_metric(
        workload, trace, tmp_path):
    result = smoke(workload, trace, tmp_path)
    line = result.line
    assert line["correct"] and line["failed"] == 0, result.run.outcomes
    assert line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {e["name"] for e in SPEC[kind]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == next(e["unit"] for e in SPEC[kind]
                                      if e["name"] == name)
    if trace:
        assert result.rows and result.table
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", ["verify_1k", "service_mix"])
def test_a_corrupted_golden_digest_counts_as_a_failure(workload, tmp_path):
    digests = golden.load()
    corrupted = {k: ("0" * 64 if k.startswith(f"{workload}/smoke/") else v)
                 for k, v in digests.items()}
    line = smoke(workload, False, tmp_path, corrupted).line
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1
    assert line["metrics"]["success_rate"]["value"] == 0.0


def test_cli_prints_one_result_line_and_writes_nothing_in_smoke_mode():
    out = ROOT / "perfbench" / "out" / "results"
    before = sorted(out.glob("*")) if out.exists() else []
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "logic_5k",
         "--seed", "5", "--seconds", "0.01", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert json.loads(lines[-2])["provenance"]["scale"] == "smoke"
    assert (sorted(out.glob("*")) if out.exists() else []) == before


def test_cli_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
