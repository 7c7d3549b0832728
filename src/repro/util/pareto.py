"""Pareto-front mathematics used throughout the exploration layers.

The paper evaluates designs in two- and three-dimensional objective
spaces (cost/performance, performance/power, cost/power, and the full
cost/performance/power space). Throughout this module every objective is
*minimized*: cost in gates, average memory latency in cycles, and energy
per access in nJ all improve downward, matching the paper's axes.

Besides front extraction, this module implements the two quality metrics
of the paper's Table 2:

* **coverage** — the percentage of reference pareto points that the
  exploration actually found, and
* **average axis distance** — for each missed pareto point, the
  per-axis percentile deviation to the closest point the exploration did
  produce ("there are no significant gaps in the coverage of the pareto
  curve" when this is small).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import le, ne
from typing import Callable, Iterable, Sequence, TypeVar

from repro import obs
from repro.errors import ExplorationError

T = TypeVar("T")

Vector = Sequence[float]


def dominates(a: Vector, b: Vector) -> bool:
    """Return True if point ``a`` pareto-dominates point ``b``.

    ``a`` dominates ``b`` when it is no worse on every axis and strictly
    better on at least one (all axes minimized). Matches the paper's
    definition: "a design is on the pareto curve if there is no other
    design which is better in both cost and performance".
    """
    if len(a) != len(b):
        raise ExplorationError(
            f"dimension mismatch in dominance test: {len(a)} vs {len(b)}"
        )
    no_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return no_worse and strictly_better


def pareto_indices(points: Sequence[Vector]) -> list[int]:
    """Indices of the non-dominated points of ``points``, in input order.

    Duplicate coordinates are all retained (none of two equal points
    dominates the other), mirroring the paper's plots where distinct
    architectures may share a cost/latency pair. A vector holding NaN
    is never dominated and never dominates. Values are compared with
    Python's own operators, so int/float mixes stay exact.

    Sort-and-sweep (Kung, Luccio and Preparata, JACM 1975): in
    lexicographic order only an earlier point can dominate a later one,
    so each point is tested against the running front of the points
    before it. The front member that last dominated a point is moved to
    the head of the front; on exploration fronts it usually dominates
    the next point too.
    """
    vectors = [tuple(point) for point in points]
    if len(vectors) < 2:
        return list(range(len(vectors)))
    dims = {len(vector) for vector in vectors}
    if len(dims) > 1:
        raise ExplorationError(
            f"dimension mismatch in pareto query: lengths {sorted(dims)}"
        )
    kept: list[int] = []
    ordered: list[int] = []
    for index, vector in enumerate(vectors):
        # x != x only for NaN: such a vector never takes part in dominance.
        if any(map(ne, vector, vector)):
            kept.append(index)
        else:
            ordered.append(index)
    ordered.sort(key=vectors.__getitem__)
    front: list[tuple] = []
    for index in ordered:
        point = vectors[index]
        for position, member in enumerate(front):
            if member != point and all(map(le, member, point)):
                if position:
                    front.insert(0, front.pop(position))
                break
        else:
            front.append(point)
            kept.append(index)
    kept.sort()
    return kept


def pareto_front(
    items: Iterable[T], key: Callable[[T], Vector]
) -> list[T]:
    """Return the pareto-optimal subset of ``items`` under ``key``.

    ``key`` maps an item to its objective vector (all axes minimized).
    The result preserves input order, so deterministic exploration runs
    yield deterministic fronts.
    """
    with obs.span("util.pareto"):
        materialized = list(items)
        vectors = [tuple(key(item)) for item in materialized]
        front = [materialized[i] for i in pareto_indices(vectors)]
    if obs.enabled():
        obs.incr("pareto.points_in", len(vectors))
        obs.incr("pareto.front_size", len(front))
    return front


def is_pareto_point(point: Vector, points: Sequence[Vector]) -> bool:
    """True when no point of ``points`` dominates ``point``."""
    return not any(dominates(q, point) for q in points)


@dataclass(frozen=True)
class ParetoCoverage:
    """Coverage of a reference pareto front by an exploration result.

    Attributes mirror the rows of the paper's Table 2:

    * ``coverage`` — fraction in [0, 1] of reference pareto points that
      the exploration found (within ``rel_tol`` on every axis).
    * ``axis_distances`` — per-axis average percentile deviation between
      each *missed* pareto point and the closest explored point; empty
      axes deviation is 0.0 when nothing was missed.
    * ``found`` / ``missed`` — the partitioned reference points.
    """

    coverage: float
    axis_distances: tuple[float, ...]
    found: tuple[tuple[float, ...], ...]
    missed: tuple[tuple[float, ...], ...]

    @property
    def coverage_percent(self) -> float:
        """Coverage as a percentage, as printed in Table 2."""
        return 100.0 * self.coverage


def _matches(a: Vector, b: Vector, rel_tol: float) -> bool:
    return all(
        math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-12)
        for x, y in zip(a, b)
    )


def _closest(point: Vector, candidates: Sequence[Vector]) -> Vector:
    """Candidate minimizing the summed relative deviation to ``point``."""

    def rel_dev(c: Vector) -> float:
        return sum(
            abs(x - y) / abs(y) if y else abs(x - y)
            for x, y in zip(c, point)
        )

    return min(candidates, key=rel_dev)


def average_axis_distance(
    missed: Sequence[Vector], explored: Sequence[Vector]
) -> tuple[float, ...]:
    """Average per-axis percentile deviation of missed pareto points.

    For every missed reference point, finds the closest explored point
    (by summed relative deviation) and accumulates ``|x - ref| / ref``
    per axis; returns per-axis averages in percent. This is the paper's
    "average percentile deviation in terms of cost, performance and
    energy consumption, between the pareto points which have not been
    covered, and the closest exploration point which approximates them".
    """
    if not missed:
        return ()
    if not explored:
        raise ExplorationError("cannot measure distance to an empty exploration")
    dims = len(missed[0])
    totals = [0.0] * dims
    for ref in missed:
        near = _closest(ref, explored)
        for axis in range(dims):
            denom = abs(ref[axis]) or 1.0
            totals[axis] += 100.0 * abs(near[axis] - ref[axis]) / denom
    return tuple(total / len(missed) for total in totals)


def pareto_coverage(
    reference: Sequence[Vector],
    explored: Sequence[Vector],
    rel_tol: float = 1e-9,
) -> ParetoCoverage:
    """Measure how well ``explored`` covers the ``reference`` pareto front.

    ``reference`` should already be a pareto front (typically produced by
    full simulation of the design space); ``explored`` is whatever the
    heuristic produced. A reference point counts as *found* when some
    explored point matches it within ``rel_tol`` on every axis.
    """
    if not reference:
        raise ExplorationError("reference pareto front is empty")
    found: list[tuple[float, ...]] = []
    missed: list[tuple[float, ...]] = []
    for ref in reference:
        ref_t = tuple(ref)
        if any(_matches(ref_t, tuple(e), rel_tol) for e in explored):
            found.append(ref_t)
        else:
            missed.append(ref_t)
    dims = len(reference[0])
    if missed:
        distances = average_axis_distance(missed, [tuple(e) for e in explored])
    else:
        distances = tuple(0.0 for _ in range(dims))
    return ParetoCoverage(
        coverage=len(found) / len(reference),
        axis_distances=distances,
        found=tuple(found),
        missed=tuple(missed),
    )
