"""One cold pipeline run in a fresh process, as a CLI user gets it.

Usage: ``python3 perfbench/child.py WORKLOAD SEED TRACED SPAWN_TIME SPANS``

``SPAWN_TIME`` is the parent's ``time.time()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports, and
registry/library construction up to the pipeline call. The last stdout
line is a JSON object with the timings, the front digest and any check
failures; with ``TRACED`` = 1 the layer spans go to the file ``SPANS``.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import spans
from checks import summary_row
from common import (
    COVERAGE_SCALE,
    EXPLORE_KEEP,
    EXPLORE_SELECT,
    EXPLORE_SCALE,
    maxrss_mb,
    use_src,
)


def _explore(seed: int):
    import repro.core.memorex as memorex
    import repro.core.report as report
    from repro import registry
    from repro.apex.explorer import ApexConfig
    from repro.conex.explorer import ConExConfig
    from repro.core.design_point import summarize
    from repro.exec.runtime import ExecutionRuntime
    from repro.workloads import get_workload

    registry.memory_library()
    registry.connectivity_library()
    workload = get_workload("compress", scale=EXPLORE_SCALE, seed=seed)
    config = memorex.MemorExConfig(
        apex=ApexConfig(select_count=EXPLORE_SELECT),
        conex=ConExConfig(phase1_keep=EXPLORE_KEEP),
    )

    def pipeline() -> dict:
        # The ``repro explore`` path: pipeline, then the full report.
        with ExecutionRuntime(workers=1) as runtime:
            result = memorex.run_memorex(
                workload, config=config, workers=1, runtime=runtime
            )
        if not report.render_full_report(result):
            raise RuntimeError("empty exploration report")
        return {
            "compress": [
                summary_row(summarize(p)) for p in result.selected_points
            ]
        }

    return pipeline


def _coverage(seed: int):
    from repro import registry
    from repro.apex.explorer import ApexConfig
    from repro.conex.explorer import ConExConfig
    from repro.core.design_point import summarize
    from repro.exec.runtime import ExecutionRuntime
    from repro.workloads import get_workload

    workload = get_workload("li", scale=COVERAGE_SCALE, seed=seed)
    # The reduced space of ``repro coverage`` (Table 2).
    apex_config = ApexConfig(
        cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
        stream_buffer_options=(None, "stream_buffer_4"),
        dma_options=(None, "si_dma_32"),
        map_indexed_to_sram=(False,),
        select_count=5,
    )
    conex_config = ConExConfig(
        max_logical_connections=3,
        max_assignments_per_level=48,
        phase1_keep=12,
    )
    memory = registry.memory_library()
    connectivity = registry.connectivity_library()

    def pipeline() -> dict:
        import repro.core.strategies as strategies

        trace = workload.trace()
        common = (trace, memory, connectivity, apex_config, conex_config)
        hints = dict(workload.pattern_hints)
        fronts = {}
        with ExecutionRuntime(workers=1) as runtime:
            for name, run in (
                ("pruned", strategies.run_pruned),
                ("neighborhood", strategies.run_neighborhood),
                ("full", strategies.run_full),
            ):
                outcome = run(*common, hints=hints, workers=1, runtime=runtime)
                fronts[name] = [
                    summary_row(summarize(p)) for p in outcome.pareto
                ]
        return fronts

    return pipeline


PIPELINES = {"explore-compress": _explore, "coverage-li": _coverage}


def main(argv: list[str]) -> int:
    workload, seed, traced, spawn_time, spans_path = argv
    use_src()
    pipeline = PIPELINES[workload](int(seed))
    setup_s = time.time() - float(spawn_time)

    tracer = installation = None
    if traced == "1":
        tracer = spans.Tracer()
        installation = spans.install(tracer)
        root = tracer.begin(spans.RUN_ROOT, trace_id="run")
    start = time.perf_counter()
    fronts = pipeline()
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.finish(root)
        spans.uninstall(installation)
        with open(spans_path, "w") as handle:
            json.dump(
                {"spans": tracer.dump(), "missing": installation.missing},
                handle,
            )

    problems = []
    for name, rows in fronts.items():
        problems += checks.front_problems(name, rows)
    digest = checks.front_digest(fronts)
    problems += checks.digest_problems(workload, int(seed), digest)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": maxrss_mb(),
        "digest": digest,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
