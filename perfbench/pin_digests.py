"""Record the reference front digests into ``digests.json``.

Usage: ``python3 perfbench/pin_digests.py [WORKLOAD...]``

Runs every workload's fronts for the default and the held-out seed with
the scalar reference simulator (``REPRO_REFERENCE_SIM=1``), serially, in
this process, and writes their digests (only the named workloads'
when some are given). Re-run it only when a change is
meant to alter exploration results (a model change, or new workload
scales), and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

os.environ["REPRO_REFERENCE_SIM"] = "1"

import checks  # noqa: E402
import child  # noqa: E402
import service  # noqa: E402
from common import use_src  # noqa: E402


def service_fronts(seed: int) -> dict:
    from repro.apex.explorer import ApexConfig
    from repro.conex.explorer import ConExConfig
    from repro.core.design_point import summarize
    from repro.core.memorex import MemorExConfig, run_memorex
    from repro.workloads import get_workload

    fronts = {}
    for spec in service.reference_specs(seed):
        result = run_memorex(
            get_workload(spec["workload"], scale=spec["scale"], seed=spec["seed"]),
            config=MemorExConfig(
                apex=ApexConfig(select_count=spec["select"]),
                conex=ConExConfig(phase1_keep=spec["keep"]),
            ),
            workers=1,
        )
        fronts[service.spec_key(spec)] = [
            checks.summary_row(summarize(p)) for p in result.selected_points
        ]
    return fronts


def main(argv: list[str]) -> int:
    use_src()
    pipelines = {**child.PIPELINES, "service-warm": None}
    workloads = argv or list(pipelines)
    pinned = json.loads(checks.PINNED_PATH.read_text())
    for seed in (checks.DEFAULT_SEED, checks.HELD_OUT_SEED):
        for workload in workloads:
            pipeline = pipelines[workload]
            fronts = service_fronts(seed) if pipeline is None else pipeline(seed)()
            pinned.setdefault(workload, {})[str(seed)] = checks.front_digest(fronts)
            print(workload, seed, pinned[workload][str(seed)], flush=True)
    checks.PINNED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
