"""Arithmetic over measurements: percentiles, self times, layer metrics."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

from spans import ROOTS, Span


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating between ranks.

    Same definition as NumPy's default ("linear"): rank ``q/100 * (n-1)``
    of the sorted values.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


#: Per-layer self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "workloads.trace_s": "workloads.trace",
    "trace.profile_s": "trace.profile",
    "apex.enumerate_s": "apex.enumerate",
    "apex.self_s": "apex.explore",
    "sim.trace_plan_s": "sim.trace_plan",
    "sim.group_plan_s": "sim.group_plan",
    "sim.member_s": "sim.evaluate_group",
    "exec.dispatch_s": "exec.simulate_batch",
    "conex.brg_s": "conex.brg",
    "conex.clustering_s": "conex.clustering",
    "conex.plan_s": "conex.plan",
    "conex.estimate_s": "conex.estimate",
    "conex.phase1_self_s": "conex.connectivity_exploration",
    "conex.self_s": "conex.explore",
    "pareto.s": "pareto.front",
    "core.report_s": "core.report",
    "core.pruned_s": "core.pruned",
    "core.neighborhood_s": "core.neighborhood",
    "core.full_s": "core.full",
}

#: Per-layer count metrics: metric name -> (span name, count key);
#: the key ``calls`` counts the spans themselves.
COUNT_METRICS = {
    "workloads.accesses": ("workloads.trace", "accesses"),
    "apex.candidates": ("apex.enumerate", "candidates"),
    "sim.group_plan_calls": ("sim.group_plan", "calls"),
    "sim.group_plan_builds": ("sim.group_plan", "builds"),
    "sim.members": ("sim.evaluate_group", "members"),
    "exec.jobs": ("exec.simulate_batch", "jobs"),
    "exec.cache_hits": ("exec.simulate_batch", "cache_hits"),
    "exec.cache_misses": ("exec.simulate_batch", "cache_misses"),
    "exec.deduplicated": ("exec.simulate_batch", "deduplicated"),
    "exec.retries": ("exec.simulate_batch", "retries"),
    "exec.pool_rebuilds": ("exec.simulate_batch", "pool_rebuilds"),
    "conex.estimated": ("conex.connectivity_exploration", "estimated"),
    "conex.carried": ("conex.explore", "carried"),
    "conex.selected": ("conex.explore", "selected"),
    "pareto.calls": ("pareto.front", "calls"),
    "pareto.points_in": ("pareto.front", "points_in"),
}

#: Ratio metrics: metric name -> (numerator, denominator), each either
#: a (span, count key) pair or a metric name above (totals, not means).
RATIO_METRICS = {
    "sim.delta_ratio": (("sim.evaluate_group", "delta"),
                        ("sim.evaluate_group", "members")),
    "sim.accesses_per_s": (("sim.evaluate_group", "member_accesses"),
                           "sim.member_s"),
    "exec.cache_hit_ratio": (("exec.simulate_batch", "cache_hits"),
                             ("exec.simulate_batch", "jobs")),
    "conex.carry_ratio": (("conex.explore", "carried"),
                          ("conex.connectivity_exploration", "estimated")),
    "conex.survivor_ratio": (("conex.explore", "selected"),
                             ("conex.explore", "carried")),
}


#: Metrics measured outside the spans: the service's job accounting
#: and the traced run's own bookkeeping.
SERVICE_METRICS = {
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.client_overhead_s": "s",
    "service.rejected": "count",
}
BENCH_METRICS = {
    "bench.unattributed_ratio": "ratio",
    "bench.tracing_overhead": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "pareto.s":
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{name: _unit(name) for name in SELF_TIME_METRICS},
    **{name: _unit(name) for name in COUNT_METRICS},
    **{name: _unit(name) for name in RATIO_METRICS},
    **SERVICE_METRICS,
    **BENCH_METRICS,
}


def layer_metrics(
    spans: Sequence[Span], units: int, trace_ids: set | None = None
) -> dict[str, float]:
    """Per-layer metrics of the spans of ``units`` roots.

    Only spans whose trace id is in ``trace_ids`` (default: all) count.
    Times and counts are means per unit (a pipeline run or a service
    job); ratios are taken over the totals. ``bench.unattributed_ratio``
    is the share of root time that no layer span covers.
    """
    selfs = self_times(spans)
    self_total: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    root_time = root_self = 0.0
    for span, own in zip(spans, selfs):
        if trace_ids is not None and span.trace_id not in trace_ids:
            continue
        self_total[span.name] += own
        counts[(span.name, "calls")] += 1
        for key, value in span.counts.items():
            counts[(span.name, key)] += value
        if span.name in ROOTS:
            root_time += span.end - span.start
            root_self += own
    per = max(units, 1)
    metrics = {
        name: self_total[span] / per for name, span in SELF_TIME_METRICS.items()
    }
    for name, key in COUNT_METRICS.items():
        metrics[name] = counts[key] / per

    def total(ref) -> float:
        if isinstance(ref, tuple):
            return counts[ref]
        return self_total[SELF_TIME_METRICS[ref]]

    for name, (numerator, denominator) in RATIO_METRICS.items():
        below = total(denominator)
        metrics[name] = total(numerator) / below if below else 0.0
    metrics["bench.unattributed_ratio"] = (
        root_self / root_time if root_time else 0.0
    )
    return metrics
