"""Unit tests for pareto-front mathematics.

``pareto_indices`` is a sort-and-sweep filter; the differential suite
below checks it against the all-pairs definition (``_oracle_indices``),
which is kept here only as the test oracle.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.errors import ExplorationError
from repro.util.pareto import (
    average_axis_distance,
    dominates,
    is_pareto_point,
    pareto_coverage,
    pareto_front,
    pareto_indices,
)


class TestDominates:
    def test_strictly_better_on_all_axes(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))

    def test_better_on_one_equal_on_other(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_trade_off_points_do_not_dominate(self):
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 3.0))

    def test_three_dimensional(self):
        assert dominates((1, 1, 1), (1, 1, 2))
        assert not dominates((1, 1, 2), (2, 2, 1))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ExplorationError):
            dominates((1.0,), (1.0, 2.0))


class TestParetoIndices:
    def test_single_point_is_pareto(self):
        assert pareto_indices([(3.0, 4.0)]) == [0]

    def test_dominated_point_excluded(self):
        assert pareto_indices([(1, 1), (2, 2)]) == [0]

    def test_trade_off_chain_all_kept(self):
        points = [(1, 4), (2, 3), (3, 2), (4, 1)]
        assert pareto_indices(points) == [0, 1, 2, 3]

    def test_duplicates_all_kept(self):
        assert pareto_indices([(1, 1), (1, 1)]) == [0, 1]

    def test_mixed(self):
        points = [(1, 5), (2, 2), (3, 3), (5, 1), (2, 6)]
        assert pareto_indices(points) == [0, 1, 3]

    def test_preserves_input_order(self):
        points = [(4, 1), (1, 4), (2, 2)]
        assert pareto_indices(points) == [0, 1, 2]


class TestParetoFront:
    def test_key_extraction(self):
        items = [{"c": 1, "p": 5}, {"c": 2, "p": 2}, {"c": 3, "p": 4}]
        front = pareto_front(items, key=lambda d: (d["c"], d["p"]))
        assert front == [items[0], items[1]]

    def test_empty_input_gives_empty_front(self):
        assert pareto_front([], key=lambda x: x) == []

    def test_three_objectives(self):
        items = [(1, 1, 9), (1, 9, 1), (9, 1, 1), (5, 5, 5), (9, 9, 9)]
        front = pareto_front(items, key=lambda v: v)
        assert (9, 9, 9) not in front
        assert len(front) == 4


class TestIsParetoPoint:
    def test_non_dominated(self):
        assert is_pareto_point((1, 5), [(2, 2), (3, 3)])

    def test_dominated(self):
        assert not is_pareto_point((4, 4), [(2, 2)])


class TestCoverage:
    def test_full_coverage(self):
        reference = [(1.0, 4.0), (2.0, 2.0)]
        result = pareto_coverage(reference, reference)
        assert result.coverage == 1.0
        assert result.coverage_percent == 100.0
        assert result.axis_distances == (0.0, 0.0)
        assert result.missed == ()

    def test_partial_coverage(self):
        reference = [(1.0, 4.0), (2.0, 2.0)]
        explored = [(1.0, 4.0), (2.1, 2.1)]
        result = pareto_coverage(reference, explored)
        assert result.coverage == 0.5
        assert len(result.missed) == 1
        # Closest to (2, 2) is (2.1, 2.1): 5% on each axis.
        assert result.axis_distances[0] == pytest.approx(5.0)
        assert result.axis_distances[1] == pytest.approx(5.0)

    def test_tolerance_counts_near_matches(self):
        reference = [(100.0, 10.0)]
        explored = [(100.5, 10.05)]
        loose = pareto_coverage(reference, explored, rel_tol=0.01)
        assert loose.coverage == 1.0
        strict = pareto_coverage(reference, explored, rel_tol=1e-9)
        assert strict.coverage == 0.0

    def test_empty_reference_raises(self):
        with pytest.raises(ExplorationError):
            pareto_coverage([], [(1.0, 1.0)])

    def test_three_axis_distances(self):
        reference = [(10.0, 10.0, 10.0)]
        explored = [(11.0, 12.0, 13.0)]
        result = pareto_coverage(reference, explored)
        assert result.axis_distances == pytest.approx((10.0, 20.0, 30.0))


class TestAverageAxisDistance:
    def test_empty_missed_gives_empty(self):
        assert average_axis_distance([], [(1.0, 1.0)]) == ()

    def test_empty_explored_raises(self):
        with pytest.raises(ExplorationError):
            average_axis_distance([(1.0, 1.0)], [])

    def test_picks_closest_candidate(self):
        missed = [(10.0, 10.0)]
        explored = [(100.0, 100.0), (10.5, 10.5)]
        distances = average_axis_distance(missed, explored)
        assert distances == pytest.approx((5.0, 5.0))

    def test_zero_reference_axis_uses_absolute(self):
        distances = average_axis_distance([(0.0, 10.0)], [(0.5, 10.0)])
        assert distances[0] == pytest.approx(50.0)
        assert distances[1] == 0.0


def _oracle_indices(points):
    """The O(n^2) definition: no other point of ``points`` dominates."""
    return [
        i
        for i, p in enumerate(points)
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i)
    ]


#: A small alphabet so ties and duplicates are common: ints and floats
#: that compare equal (1 and 1.0), a pair that only exact comparison
#: tells apart (2**53 + 1 > float(2**53)), both infinities and NaN.
VALUES = st.sampled_from([
    0, 1, 2, 3, 1.0, 1.5, 2.0, -0.0, 2**53 + 1, float(2**53),
    math.inf, -math.inf, math.nan,
])


@st.composite
def point_sets(draw):
    dims = draw(st.integers(min_value=1, max_value=4))
    vector = st.tuples(*[VALUES] * dims)
    return draw(st.lists(vector, max_size=40))


class TestSortAndSweepMatchesOracle:
    @given(point_sets())
    def test_indices_equal_oracle(self, points):
        assert pareto_indices(points) == _oracle_indices(points)

    @given(point_sets())
    def test_duplicated_inputs_keep_every_copy(self, points):
        doubled = points + points
        assert pareto_indices(doubled) == _oracle_indices(doubled)

    @given(
        st.lists(
            st.lists(VALUES, min_size=1, max_size=4).map(tuple),
            min_size=2, max_size=12,
        ).filter(lambda pts: len({len(p) for p in pts}) > 1)
    )
    def test_mismatched_lengths_raise(self, points):
        with pytest.raises(ExplorationError):
            _oracle_indices(points)
        with pytest.raises(ExplorationError):
            pareto_indices(points)

    def test_empty_and_single_point(self):
        assert pareto_indices([]) == []
        assert pareto_indices([(math.nan, 1)]) == [0]
        assert pareto_indices([()]) == [0]

    def test_nan_never_dominates_nor_is_dominated(self):
        points = [(math.nan, 9.0), (1.0, 1.0), (0.0, math.nan), (2.0, 2.0)]
        assert pareto_indices(points) == [0, 1, 2]

    def test_nan_cannot_disorder_the_sort(self):
        # NaN compares false both ways; left in the sort it would keep
        # (2, 2) ahead of its dominator (1, 1).
        points = [(2, 2), (math.nan, 0), (1, 1)]
        assert pareto_indices(points) == [1, 2]

    def test_infinities(self):
        points = [(math.inf, 0), (-math.inf, math.inf), (1, 1), (math.inf, 1)]
        assert pareto_indices(points) == _oracle_indices(points) == [0, 1, 2]

    def test_int_float_mix_is_exact(self):
        # NumPy would round 2**53 + 1 to 2.0**53 and call the two equal.
        points = [(2**53 + 1, 0), (float(2**53), 0)]
        assert pareto_indices(points) == [1]

    def test_accepts_lists_and_generators_of_sequences(self):
        points = [[1, 5], [2, 2], [3, 3]]
        assert pareto_indices(points) == [0, 1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_400_points_3d(self, seed):
        # Points scattered about the plane x + y + z = 40, like the
        # cost/latency/energy trade-off of a Phase-I candidate set, so
        # the front is large; small integer ranges make ties common.
        rng = random.Random(seed)
        points = []
        for _ in range(400):
            x, y = rng.randint(0, 20), rng.randint(0, 20)
            z = max(0, 40 - x - y + rng.randint(-3, 3))
            points.append((x, y / 2, z))
        front = pareto_indices(points)
        assert front == _oracle_indices(points)
        assert len(front) > 100


class TestParetoFrontObservability:
    @pytest.fixture
    def obs_on(self):
        was_enabled = obs.enabled()
        obs.reset()
        obs.enable()
        try:
            yield
        finally:
            if not was_enabled:
                obs.disable()
            obs.reset()

    def test_span_and_counters(self, obs_on):
        pareto_front([(1, 1), (2, 2), (0, 3)], key=lambda v: v)
        pareto_front([], key=lambda v: v)
        snap = obs.snapshot()
        assert snap.spans["util.pareto"][0] == 2
        assert snap.counters["pareto.points_in"] == 3
        assert snap.counters["pareto.front_size"] == 2
