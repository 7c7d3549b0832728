"""Streaming statistics accumulator and rank agreement.

The simulator accumulates per-access latency and energy over traces that
can be millions of events long; :class:`RunningStats` keeps count, mean,
and variance in O(1) memory using Welford's algorithm.
:func:`kendall_tau_b` measures how well one ranking (ConEx's Phase-I
estimates) agrees with another (its Phase-II simulations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class RunningStats:
    """Single-pass mean/variance/min/max accumulator."""

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: list[float]) -> None:
        """Fold a batch of observations."""
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Population variance (0.0 until two observations exist)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        """Sum of all observations (mean * count)."""
        return self.mean * self.count

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equal to folding both inputs.

        Used to combine per-sample-window statistics from time-sampled
        simulation into a whole-run estimate.
        """
        if other.count == 0:
            return RunningStats(
                self.count, self.mean, self._m2, self.minimum, self.maximum
            )
        if self.count == 0:
            return RunningStats(
                other.count, other.mean, other._m2, other.minimum, other.maximum
            )
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / count
        return RunningStats(
            count,
            mean,
            m2,
            min(self.minimum, other.minimum),
            max(self.maximum, other.maximum),
        )


def kendall_tau_b(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Kendall's tau-b rank correlation of the paired samples ``xs``, ``ys``.

    ``(concordant - discordant) / sqrt((n0 - n1) * (n0 - n2))``, where
    ``n0`` counts all pairs and ``n1``/``n2`` the pairs tied in ``xs``
    and in ``ys`` (a pair tied in both counts in both). Returns None
    when the coefficient is undefined: fewer than two samples, or
    either sample constant. Pure Python over all pairs, sized for the
    tens of designs ConEx carries into Phase II.
    """
    if len(xs) != len(ys):
        raise ValueError(
            f"kendall_tau_b needs paired samples: {len(xs)} vs {len(ys)}"
        )
    n = len(xs)
    score = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            score += dx * dy
            tied_x += not dx
            tied_y += not dy
    pairs = n * (n - 1) // 2
    denominator = (pairs - tied_x) * (pairs - tied_y)
    if not denominator:
        return None
    return score / math.sqrt(denominator)
