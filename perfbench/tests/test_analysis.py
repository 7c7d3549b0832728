"""Percentile, self-time and per-layer arithmetic."""

import statistics

import pytest

from analysis import (
    PER_LAYER_UNITS,
    layer_metrics,
    median,
    percentile,
    self_times,
)
from spans import Span


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    # rank 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
    assert percentile(values, 90) == pytest.approx(3.7)


def test_percentile_agrees_with_statistics_inclusive_quartiles():
    values = [0.3, 1.7, 0.9, 2.2, 5.0, 0.1, 3.3]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, 25) == pytest.approx(q1)
    assert median(values) == pytest.approx(q2) == statistics.median(values)
    assert percentile(values, 75) == pytest.approx(q3)


def test_percentile_of_one_value_and_of_none():
    assert percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_children_once_even_when_they_overlap():
    spans = [
        Span("root", "t", 0.0, 10.0),
        Span("a", "t", 1.0, 4.0, parent=0),
        Span("b", "t", 3.0, 6.0, parent=0),  # overlaps a: union is 1..6
        Span("c", "t", 1.5, 2.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def _unit(trace_id, t, base):
    """One measured unit starting at list index ``base``: a root with an
    APEX batch (holding a group evaluation) and a Phase I estimate."""
    return [
        Span("bench.run", trace_id, t, t + 10.0),
        Span("exec.simulate_batch", trace_id, t + 1.0, t + 5.0, parent=base,
             counts={"jobs": 4, "cache_hits": 1, "cache_misses": 3}),
        Span("sim.evaluate_group", trace_id, t + 2.0, t + 4.0, parent=base + 1,
             counts={"members": 3, "delta": 3, "member_accesses": 300}),
        Span("conex.estimate", trace_id, t + 6.0, t + 9.0, parent=base),
    ]


def test_layer_metrics_are_means_per_unit_and_ratios_of_totals():
    spans = _unit("r1", 0.0, 0) + _unit("r2", 100.0, 4)
    metrics = layer_metrics(spans, units=2)
    assert metrics["exec.dispatch_s"] == pytest.approx(2.0)  # 4 s - 2 s child
    assert metrics["sim.member_s"] == pytest.approx(2.0)
    assert metrics["conex.estimate_s"] == pytest.approx(3.0)
    assert metrics["exec.jobs"] == 4
    assert metrics["exec.cache_hit_ratio"] == pytest.approx(0.25)
    assert metrics["sim.delta_ratio"] == 1.0
    assert metrics["sim.accesses_per_s"] == pytest.approx(600 / 4.0)
    # root 10 s, children cover 1..5 and 6..9: 3 s unattributed of 10.
    assert metrics["bench.unattributed_ratio"] == pytest.approx(0.3)
    assert metrics["pareto.s"] == 0.0  # no such span: a zero, not a gap


def test_layer_metrics_filter_by_trace_id_keeps_parent_links():
    spans = _unit("drop", 0.0, 0) + _unit("keep", 100.0, 4)
    metrics = layer_metrics(spans, units=1, trace_ids={"keep"})
    assert metrics["exec.jobs"] == 4
    assert metrics["bench.unattributed_ratio"] == pytest.approx(0.3)


def test_every_layer_metric_has_a_unit():
    metrics = layer_metrics([], units=1)
    assert set(metrics) <= set(PER_LAYER_UNITS)
    assert set(PER_LAYER_UNITS.values()) <= {"s", "count", "ratio", "1/s"}
