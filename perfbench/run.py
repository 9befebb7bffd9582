"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_1k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload logic_5k --seed 1 --trace 1 --smoke
    python3 perfbench/run.py --record-golden

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see ``BENCHMARK.json`` and :mod:`perfbench.effects`).
The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is the provenance of the
result.  Full runs also write the result, its provenance, the request
latencies and, when traced, the per-layer table and the spans under
``perfbench/out/``; ``--smoke`` runs tiny inputs and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def git_sha(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, scale) -> dict:
    import numpy

    return {"git_sha": git_sha(ROOT), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "scale": scale.label, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own tests; "
                             "writes no results")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record perfbench/golden.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import golden, report
        from perfbench.workloads import FULL, SMOKE, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT}: {exc}",
              file=sys.stderr)
        return 2

    if args.record_golden:
        golden.record(log=lambda line: print(line, file=sys.stderr))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    scale = SMOKE if args.smoke else FULL
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = report.run(args.workload, scale=scale, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace),
                            golden=golden.load(), workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = provenance(args, scale)
    if result.table:
        print(result.table, file=sys.stderr)
    if not args.smoke:
        result.write(OUT / "results", prov)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result.line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
