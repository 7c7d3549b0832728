"""Output checks: pareto-front sanity and pinned front digests.

A front is a list of rows ``[label, cost_gates, avg_latency, avg_energy_nj]``
(the first four columns of ``repro explore --json``). Every run checks
that each front is non-empty and mutually non-dominated, and digests
its fronts; for the seeds in ``digests.json`` the digest must equal the
value recorded there from a run of the scalar reference simulator
(``pin_digests.py``), so the fast paths are checked bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Mapping, Sequence

PINNED_PATH = pathlib.Path(__file__).with_name("digests.json")

#: The workload seed a bare run uses, and one seed kept out of tuning.
DEFAULT_SEED = 0
HELD_OUT_SEED = 97


def summary_row(summary) -> list:
    """A front row from a :class:`repro.core.design_point.DesignPointSummary`."""
    return [summary.label, summary.cost_gates, summary.avg_latency,
            summary.avg_energy_nj]


def json_row(row: Mapping) -> list:
    """A front row from one ``design_points`` entry of a JSON result."""
    return [row["label"], row["cost_gates"], row["avg_latency_cycles"],
            row["avg_energy_nj"]]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """``a`` is no worse than ``b`` on every axis and better on one."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def front_problems(name: str, rows: Sequence[Sequence]) -> list[str]:
    """Why ``rows`` is not a valid pareto front (empty list: it is)."""
    if not rows:
        return [f"{name}: empty front"]
    problems = []
    vectors = [tuple(row[1:4]) for row in rows]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j and dominates(a, b):
                problems.append(
                    f"{name}: {rows[i][0]} dominates {rows[j][0]}"
                )
    return problems


def front_digest(fronts: Mapping[str, Sequence[Sequence]]) -> str:
    """SHA-256 over the labels and objectives of named fronts.

    Floats are written with ``repr`` (via JSON), which round-trips
    exactly, so equal digests mean bit-identical objectives.
    """
    canonical = json.dumps(
        {name: [list(row) for row in rows] for name, rows in fronts.items()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def pinned_digest(workload: str, seed: int) -> str | None:
    """The recorded reference digest for (workload, seed), if any."""
    pinned = json.loads(PINNED_PATH.read_text())
    return pinned.get(workload, {}).get(str(seed))


def digest_problems(workload: str, seed: int, digest: str) -> list[str]:
    """A mismatch with the pinned digest; seeds without a pin pass."""
    expected = pinned_digest(workload, seed)
    if expected is None and seed in (DEFAULT_SEED, HELD_OUT_SEED):
        return [f"{workload} seed {seed}: no pinned reference digest"]
    if expected is None or expected == digest:
        return []
    return [
        f"{workload} seed {seed}: front digest {digest[:16]}... differs "
        f"from the reference {expected[:16]}..."
    ]
