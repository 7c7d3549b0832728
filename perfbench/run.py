"""The repository benchmark: one command for every workload and metric.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``explore-compress`` — cold ``repro explore compress`` runs, one fresh
  process each;
* ``coverage-li`` — cold ``repro coverage li`` runs (Pruned,
  Neighborhood, Full), one fresh process each;
* ``service-warm`` — one ``repro serve`` daemon driven by two
  closed-loop tenants after an untimed cache warm-up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run and
the tracing overhead against an untraced run in the same window. The
line before it is the environment stamp; both are also written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

import analysis
import checks
import service
import spans
from common import (
    BENCH_DIR,
    COVERAGE_SCALE,
    EXPLORE_SCALE,
    OUT,
    ROOT,
    SERVICE_SCALE,
    SRC,
    child_env,
    use_src,
)

WORKLOADS = ("explore-compress", "coverage-li", "service-warm")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Setup rounds per service-warm run (daemon start plus warm-up each);
#: setup_s is their median.
SERVICE_SETUP_ROUNDS = 2
CHILD_TIMEOUT = 150


class Outcome:
    """What one run attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        """Count one operation (a run, a job, or a check) and its failures."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# -- cold workloads -------------------------------------------------------------


def _cold_iteration(workload: str, seed: int, traced: bool, n: int) -> dict:
    spans_path = OUT / f"spans-{workload}-{seed}-{n}.json"
    start = time.perf_counter()
    spawn = time.time()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed),
         "1" if traced else "0", repr(spawn), str(spans_path)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT,
    )
    latency = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"{workload} run failed: {tail[0]}"]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["latency"] = latency
    if traced:
        result["trace"] = json.loads(spans_path.read_text())
        spans_path.unlink()
    return result


def run_cold(
    workload: str, seed: int, seconds: float, trace: bool, outcome: Outcome
) -> tuple[dict, dict]:
    """Fresh-process pipeline runs that fit in the window (at least one).

    Returns the metrics and what the stamp records about them.

    Another run starts only if it is expected to end within the window,
    so a run's length stays near ``seconds``. Untraced, every run is
    timed. Traced, runs alternate untraced/traced in pairs, so the
    overhead compares like with like.
    """
    runs = []
    start = time.perf_counter()
    step = 2 if trace else 1
    while True:
        traced = trace and len(runs) % 2 == 1
        result = _cold_iteration(workload, seed, traced, len(runs))
        result["traced"] = traced
        outcome.record(result["problems"])
        runs.append(result)
        if "wall_s" not in result:
            raise SystemExit(f"error: {result['problems'][0]}")
        if len(runs) % step:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + step * elapsed / len(runs) > seconds:
            break
    if not trace:
        latencies = [r["latency"] for r in runs]
        return {
            "setup_s": analysis.median([r["setup_s"] for r in runs]),
            "wall_s": analysis.median([r["wall_s"] for r in runs]),
            "job_p50_s": analysis.median(latencies),
            "job_p90_s": analysis.percentile(latencies, 90),
            "jobs_per_s": len(runs) / elapsed,
            "peak_rss_mb": analysis.median([r["peak_rss_mb"] for r in runs]),
        }, {"runs": len(runs), "front_digest": runs[0]["digest"]}
    traced_runs = [r for r in runs if r["traced"]]
    plain_runs = [r for r in runs if not r["traced"]]
    span_list = [
        spans.Span.from_list(row)
        for r in traced_runs
        for row in r["trace"]["spans"]
    ]
    metrics = analysis.layer_metrics(span_list, len(traced_runs))
    # Service layers do not run in a cold workload.
    metrics.update(dict.fromkeys(analysis.SERVICE_METRICS, 0.0))
    metrics["bench.tracing_overhead"] = (
        analysis.median([r["wall_s"] for r in traced_runs])
        / analysis.median([r["wall_s"] for r in plain_runs]) - 1.0
    )
    return metrics, {
        "runs": len(traced_runs),
        "missing_wrap_targets": traced_runs[0]["trace"]["missing"],
    }


# -- service workload -----------------------------------------------------------


def _check_jobs(records, expected: dict, outcome: Outcome) -> None:
    """Each job finished with a valid front (explore) or a non-empty
    selection (apex), equal to every other result of the same spec and,
    for a reference spec, to the CLI's rows."""
    for record in records:
        problems = []
        if record.error is not None:
            problems.append(f"{record.tenant} job {record.index}: {record.error}")
        else:
            key = service.spec_key(record.spec)
            if record.spec["kind"] == "explore":
                got = record.result["design_points"]
                problems += checks.front_problems(
                    key, [checks.json_row(row) for row in got]
                )
            else:
                got = record.result["architectures"]
                if not got:
                    problems.append(f"{key}: no architectures selected")
            if expected.setdefault(key, got) != got:
                problems.append(
                    f"{record.tenant} job {record.index}: {key} result "
                    f"differs from an earlier or CLI result"
                )
        outcome.record(problems)


def _start_warm(seed: int, traced: bool, tag: str, expected: dict, outcome: Outcome):
    """Spawn a daemon and warm it; returns (daemon, setup seconds, records)."""
    from repro.service.client import ServiceClient

    start = time.perf_counter()
    daemon = service.Daemon(traced, tag)
    try:
        daemon.wait_healthy(ServiceClient(daemon.url, timeout=5))
        records = service.warm_up(daemon.url, seed)
    except BaseException:
        daemon.stop()
        raise
    setup = time.perf_counter() - start
    _check_jobs(records, expected, outcome)
    return daemon, setup, records


def _service_digest(seed: int, records) -> tuple[str, list[str]]:
    """Digest of the reference jobs' fronts, and any that did not run."""
    results = {
        service.spec_key(r.spec): r.result["design_points"]
        for r in records if r.error is None and r.spec["kind"] == "explore"
    }
    fronts, problems = {}, []
    for spec in service.reference_specs(seed):
        key = service.spec_key(spec)
        if key not in results:
            problems.append(f"reference job {key} did not run in the window")
        fronts[key] = [checks.json_row(row) for row in results.get(key, [])]
    return checks.front_digest(fronts), problems


def run_service(
    seed: int, seconds: float, trace: bool, outcome: Outcome
) -> tuple[dict, dict]:
    """The service-warm workload; returns metrics and stamp entries."""
    expected = {
        key: exported["design_points"]
        for key, exported in service.cli_reference_rows(seed).items()
    }
    if not trace:
        setups = []
        for round_ in range(SERVICE_SETUP_ROUNDS):
            daemon, setup, _ = _start_warm(
                seed, False, f"setup{round_}", expected, outcome
            )
            setups.append(setup)
            if round_ < SERVICE_SETUP_ROUNDS - 1:
                daemon.stop()
        try:
            records, elapsed = service.closed_loop(daemon.url, seed, seconds)
        finally:
            final = daemon.stop()
        _check_jobs(records, expected, outcome)
        digest, problems = _service_digest(seed, records)
        outcome.record(
            problems + checks.digest_problems("service-warm", seed, digest)
        )
        done = [r for r in records if r.error is None]
        latencies = [r.latency for r in done]
        return {
            "setup_s": analysis.median(setups),
            "wall_s": analysis.median([r.run_s for r in done]),
            "job_p50_s": analysis.median(latencies),
            "job_p90_s": analysis.percentile(latencies, 90),
            "jobs_per_s": len(done) / elapsed,
            "peak_rss_mb": final["peak_rss_mb"],
        }, {"service_jobs": len(done), "front_digest": digest}

    # Traced: an untraced daemon, then a traced one, each for half the
    # window on the same job sequences; the overhead pairs their jobs.
    halves = {}
    for traced in (False, True):
        daemon, _, _ = _start_warm(
            seed, traced, f"trace{int(traced)}", expected, outcome
        )
        try:
            records, _ = service.closed_loop(daemon.url, seed, seconds / 2)
        finally:
            final = daemon.stop()
        _check_jobs(records, expected, outcome)
        halves[traced] = (records, final)
    records, final = halves[True]
    done = [r for r in records if r.error is None]
    metrics = analysis.layer_metrics(
        [spans.Span.from_list(row) for row in final.get("spans", [])],
        len(done),
        trace_ids={r.job_id for r in done},
    )
    count = max(len(done), 1)
    metrics["service.queue_wait_s"] = sum(r.started - r.created for r in done) / count
    metrics["service.run_s"] = sum(r.run_s for r in done) / count
    metrics["service.client_overhead_s"] = sum(
        r.latency - (r.finished - r.created) for r in done
    ) / count
    metrics["service.rejected"] = float(sum(
        r.rejected for records, _ in halves.values() for r in records
    ))
    plain = {
        (r.tenant, r.index): r.run_s for r in halves[False][0] if r.error is None
    }
    pairs = [(plain[(r.tenant, r.index)], r.run_s) for r in done
             if (r.tenant, r.index) in plain]
    metrics["bench.tracing_overhead"] = (
        sum(t for _, t in pairs) / sum(p for p, _ in pairs) - 1.0 if pairs else 0.0
    )
    return metrics, {
        "service_jobs": len(done),
        "missing_wrap_targets": final.get("missing", []),
    }


# -- result line ------------------------------------------------------------------


def _source_id() -> dict:
    """The git commit, or outside a git checkout a digest of ``src/``."""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                cwd=ROOT, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
        if commit:
            return {"git_commit": commit}

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": None, "source_sha256": digest.hexdigest()}


def stamp(args) -> dict:
    """What makes two result files comparable."""
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_source_id(),
        "scales": {
            "explore-compress": EXPLORE_SCALE,
            "coverage-li": COVERAGE_SCALE,
            "service-warm": SERVICE_SCALE,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    use_src()
    OUT.mkdir(exist_ok=True)

    outcome = Outcome()
    trace = bool(args.trace)
    if args.workload == "service-warm":
        measured, counts = run_service(args.seed, args.seconds, trace, outcome)
    else:
        measured, counts = run_cold(
            args.workload, args.seed, args.seconds, trace, outcome
        )

    units = analysis.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in units.items()
    }
    info = {**stamp(args), **counts, "problems": outcome.problems}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": info, "result": result}, indent=2)
    )
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
