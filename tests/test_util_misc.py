"""Unit tests for RunningStats, format_table, and make_rng."""

import math

import pytest

from repro.util.rng import make_rng
from repro.util.stats import RunningStats, kendall_tau_b
from repro.util.tables import format_table


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.total == 0.0

    def test_single_value(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.count == 1
        assert stats.mean == 5.0
        assert stats.minimum == 5.0
        assert stats.maximum == 5.0
        assert stats.variance == 0.0

    def test_mean_and_variance(self):
        stats = RunningStats()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stats.extend(values)
        assert stats.mean == pytest.approx(5.0)
        assert stats.variance == pytest.approx(4.0)
        assert stats.stddev == pytest.approx(2.0)
        assert stats.total == pytest.approx(sum(values))

    def test_min_max_tracking(self):
        stats = RunningStats()
        stats.extend([3.0, -1.0, 10.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 10.0

    def test_merge_matches_combined(self):
        a, b, c = RunningStats(), RunningStats(), RunningStats()
        first = [1.0, 2.0, 3.0]
        second = [10.0, 20.0]
        a.extend(first)
        b.extend(second)
        c.extend(first + second)
        merged = a.merge(b)
        assert merged.count == c.count
        assert merged.mean == pytest.approx(c.mean)
        assert merged.variance == pytest.approx(c.variance)
        assert merged.minimum == c.minimum
        assert merged.maximum == c.maximum

    def test_merge_with_empty(self):
        a = RunningStats()
        a.extend([1.0, 2.0])
        empty = RunningStats()
        assert a.merge(empty).mean == pytest.approx(1.5)
        assert empty.merge(a).count == 2

    def test_variance_never_negative(self):
        stats = RunningStats()
        stats.extend([1e9, 1e9 + 1e-6, 1e9])
        assert stats.variance >= 0.0
        assert not math.isnan(stats.stddev)


class TestKendallTauB:
    def test_hand_computed_with_ties(self):
        # Pairs of (x, y) = (1,1) (2,3) (2,2) (3,2): 3 concordant, 1
        # discordant, one pair tied in x, one tied in y, n0 = 6, so
        # tau-b = (3 - 1) / sqrt((6 - 1) * (6 - 1)) = 0.4.
        assert kendall_tau_b([1, 2, 2, 3], [1, 3, 2, 2]) == 0.4

    def test_pair_tied_in_both_counts_in_both(self):
        # (0,1) tied in x and y; the other two pairs concordant:
        # 2 / sqrt((3 - 1) * (3 - 1)) = 1.
        assert kendall_tau_b([1, 1, 2], [5, 5, 6]) == 1.0

    def test_reversed_order(self):
        assert kendall_tau_b([1, 2, 3, 4], [8, 6, 4, 2]) == -1.0

    def test_undefined_cases(self):
        assert kendall_tau_b([], []) is None
        assert kendall_tau_b([1.0], [2.0]) is None
        assert kendall_tau_b([3, 3, 3], [1, 2, 3]) is None

    def test_unpaired_samples_raise(self):
        with pytest.raises(ValueError):
            kendall_tau_b([1, 2], [1])


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "v"], [("a", 1), ("long_name", 22)])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "long_name" in lines[3]
        # Header separator spans the header width.
        assert set(lines[1]) == {"-"}

    def test_title(self):
        out = format_table(["x"], [("1",)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_extra_columns_in_rows(self):
        out = format_table(["a"], [("1", "2", "3")])
        assert "3" in out


class TestMakeRng:
    def test_deterministic_int_seed(self):
        assert make_rng(7).integers(0, 1000) == make_rng(7).integers(0, 1000)

    def test_deterministic_string_seed(self):
        a = make_rng("compress-1").random()
        b = make_rng("compress-1").random()
        assert a == b

    def test_distinct_string_seeds_differ(self):
        a = make_rng("alpha").random()
        b = make_rng("beta").random()
        assert a != b

    def test_none_seed_is_zero(self):
        assert make_rng(None).integers(0, 10**9) == make_rng(0).integers(0, 10**9)
