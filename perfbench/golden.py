"""Golden canonical-report digests, one per benchmark input.

Each digest is the SHA-256 of ``report_to_json(report, canonical=True)``
from a serial in-process ``CbvCampaign.run`` of one input -- a chip
workload's vector set or a service_mix variant -- with no cache and no
store.  Any request whose report text differs (a cached, resumed,
store-backed, fleet or service run included) fails.

The digests are committed in ``golden.json`` beside this module.
Re-record them only when the canonical report is meant to change::

    python3 perfbench/run.py --record-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.core.stages import FlowStage
from repro.service import variant_bundle

from perfbench.workloads import (
    FULL,
    SMOKE,
    chip_bundle,
    chip_inputs,
    golden_key,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def digest(report) -> str:
    text = report_to_json(report, canonical=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(log=print) -> dict[str, str]:
    """Run every input of both scales serially and write golden.json."""
    digests: dict[str, str] = {}
    for scale in (SMOKE, FULL):
        for workload, until in (("verify_1k", None),
                                ("logic_5k", FlowStage.LOGIC_VERIFICATION)):
            cs, sets = chip_inputs(workload, scale)
            for index, vectors in enumerate(sets):
                bundle = chip_bundle(workload, cs, index, vectors)
                key = golden_key(workload, scale, index)
                digests[key] = digest(CbvCampaign(bundle).run(until=until))
                log(f"{key} {digests[key]}")
        for index in range(scale.variants):
            key = golden_key("service_mix", scale, index)
            digests[key] = digest(CbvCampaign(variant_bundle(index)).run())
            log(f"{key} {digests[key]}")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    return digests
