"""The one recovery loop, driven by scripted rounds (no processes).

:func:`repro.exec.runtime.run_with_recovery` holds the retry/degrade
policy the process pool and the socket shards share. Each case scripts
what every round finishes and checks the results by index, which
indices each round was handed, and the :class:`DispatchStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.exec.runtime import DispatchStats, run_with_recovery

_ITEMS = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class RecoveryCase:
    """One scripted dispatch.

    ``rounds[k]`` is how many of its pending items round ``k + 1``
    finishes (the first ones, in order), or ``None`` when nothing can
    run (no live shard). A ``pool`` round counts a pool rebuild
    whenever it leaves items unfinished, as the runtime's round does.
    """

    name: str
    rounds: tuple
    max_retries: int
    handed: tuple
    results: tuple
    retries: int
    degraded: bool
    pool: bool = False
    pool_rebuilds: int = 0


_ALL = (0, 1, 2, 3, 4)

CASES = (
    RecoveryCase(
        "undisturbed",
        rounds=(5,),
        max_retries=2,
        handed=(_ALL,),
        results=("r1:a", "r1:b", "r1:c", "r1:d", "r1:e"),
        retries=0,
        degraded=False,
    ),
    RecoveryCase(
        "fault in round 1, partial progress",
        rounds=(2, 3),
        max_retries=2,
        handed=(_ALL, (2, 3, 4)),
        results=("r1:a", "r1:b", "r2:c", "r2:d", "r2:e"),
        retries=1,
        degraded=False,
        pool=True,
        pool_rebuilds=1,
    ),
    RecoveryCase(
        "fault in round 2, partial progress",
        rounds=(2, 1, 2),
        max_retries=2,
        handed=(_ALL, (2, 3, 4), (3, 4)),
        results=("r1:a", "r1:b", "r2:c", "r3:d", "r3:e"),
        retries=2,
        degraded=False,
        pool=True,
        pool_rebuilds=2,
    ),
    RecoveryCase(
        "pool faults past max_retries=1 degrade",
        rounds=(1, 1),
        max_retries=1,
        handed=(_ALL, (1, 2, 3, 4)),
        results=("r1:a", "r2:b", "serial:c", "serial:d", "serial:e"),
        retries=1,
        degraded=True,
        pool=True,
        pool_rebuilds=2,
    ),
    RecoveryCase(
        "one dead shard",
        rounds=(3, 2),
        max_retries=2,
        handed=(_ALL, (3, 4)),
        results=("r1:a", "r1:b", "r1:c", "r2:d", "r2:e"),
        retries=1,
        degraded=False,
    ),
    RecoveryCase(
        "every shard dead",
        rounds=(0, None),
        max_retries=2,
        handed=(_ALL, _ALL),
        results=tuple(f"serial:{item}" for item in _ITEMS),
        retries=1,
        degraded=True,
    ),
    RecoveryCase(
        "no shard to start with",
        rounds=(None,),
        max_retries=2,
        handed=(_ALL,),
        results=tuple(f"serial:{item}" for item in _ITEMS),
        retries=0,
        degraded=True,
    ),
    RecoveryCase(
        "budget of 0",
        rounds=(2,),
        max_retries=0,
        handed=(_ALL,),
        results=("r1:a", "r1:b", "serial:c", "serial:d", "serial:e"),
        retries=0,
        degraded=True,
        pool=True,
        pool_rebuilds=1,
    ),
)


def _scripted(case: RecoveryCase, handed: list):
    def run_round(pending, stats):
        number = len(handed) + 1
        handed.append(tuple(pending))
        count = case.rounds[number - 1]
        if count is None:
            return None
        if case.pool and count < len(pending):
            stats.pool_rebuilds += 1
        return [(i, f"r{number}:{_ITEMS[i]}") for i in pending[:count]]

    return run_round


def _serial(items):
    return [f"serial:{item}" for item in items]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_scripted_rounds(case):
    handed: list = []
    results, stats = run_with_recovery(
        _ITEMS, _scripted(case, handed), _serial, case.max_retries, jobs=7
    )
    assert tuple(results) == case.results
    assert tuple(handed) == case.handed
    assert stats == DispatchStats(
        jobs=7,
        retries=case.retries,
        pool_rebuilds=case.pool_rebuilds,
        degraded=case.degraded,
    )


class JobFailure(Exception):
    """Stands in for an error raised by the simulated job itself."""


def test_job_error_in_a_round_propagates_unchanged():
    error = JobFailure("bad design")

    def run_round(pending, stats):
        raise error

    with pytest.raises(JobFailure) as caught:
        run_with_recovery(_ITEMS, run_round, _serial, 2, jobs=5)
    assert caught.value is error


def test_job_error_on_the_degraded_path_propagates_unchanged():
    error = JobFailure("bad design")

    def failing_serial(items):
        raise error

    with pytest.raises(JobFailure) as caught:
        run_with_recovery(
            _ITEMS, lambda pending, stats: None, failing_serial, 2, jobs=5
        )
    assert caught.value is error


def test_empty_work_list_runs_no_round():
    def run_round(pending, stats):  # pragma: no cover - must not run
        raise AssertionError("round ran for an empty work list")

    results, stats = run_with_recovery((), run_round, _serial, 2, jobs=0)
    assert results == []
    assert stats == DispatchStats()
