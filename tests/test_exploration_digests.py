"""Exploration-level equality across every dispatch path.

Per-simulation bit-identity is asserted elsewhere; this suite checks
whole explorations. Each case runs ``run_memorex`` end to end and
digests the selected pareto front (label plus the three objectives of
every summary row, floats written with ``repr`` so equal digests mean
bit-identical objectives) together with the Phase-I estimated and
Phase-II carried counts. The digest must equal the pinned serial value
whichever way the batches were dispatched: serially, through a
two-worker pool, through a loopback socket worker
(``REPRO_BACKEND=remote``), or on the scalar reference simulator
(``REPRO_REFERENCE_SIM=1``). A refactor that moves any front point,
even in the last bit, fails here.

Every run uses ``NULL_CACHE`` so each dispatch path really simulates
instead of reading an earlier path's results back from the cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import pytest

from repro.apex.explorer import ApexConfig
from repro.conex.explorer import ConExConfig
from repro.config import BACKEND_ENV, REFERENCE_SIM_ENV, WORKER_ADDRS_ENV
from repro.core.design_point import summarize
from repro.core.memorex import MemorExConfig, run_memorex
from repro.exec.cache import NULL_CACHE
from repro.exec.runtime import ExecutionRuntime
from repro.exec.worker import WorkerServer
from repro.workloads import get_workload

CONFIG = MemorExConfig(
    apex=ApexConfig(select_count=3),
    conex=ConExConfig(phase1_keep=4),
)


@dataclass(frozen=True)
class ExplorationCase:
    """One small exploration and its pinned serial outcome."""

    workload: str
    scale: float
    seed: int
    #: SHA-256 of the selected front's summary rows.
    digest: str
    #: Phase-I estimates and Phase-II carried (simulated) designs.
    estimated: int
    carried: int


#: li is not pinned: its reference-simulator run alone takes ~27 s.
CASES = (
    ExplorationCase(
        workload="vocoder",
        scale=0.05,
        seed=1,
        digest="03c1623305adea4c640d99f89ca7c2bd"
        "25c2f750774d2375896863d62607e084",
        estimated=812,
        carried=10,
    ),
    ExplorationCase(
        workload="spmv",
        scale=0.05,
        seed=1,
        digest="1c6cad3cec16af0c22799aa7e887ec67"
        "0cec1cda827eaa76684728256896200d",
        estimated=1794,
        carried=10,
    ),
    ExplorationCase(
        workload="compress",
        scale=0.05,
        seed=1,
        digest="868bcaf3f7c369f4da74bd2496793d25"
        "e6911b2b56def773d013be85b2a29d1b",
        estimated=1214,
        carried=10,
    ),
    ExplorationCase(
        workload="dct",
        scale=0.05,
        seed=1,
        digest="9616885c22aef0ac8b63c2fc41f82113"
        "e39843a6a6593de3923ce4416199c627",
        estimated=1392,
        carried=10,
    ),
    ExplorationCase(
        workload="matmul",
        scale=0.05,
        seed=1,
        digest="46960bdf507d8637e9cddc5d0f392ade"
        "1ccf375ad49403f6bea17f62c266f9d7",
        estimated=416,
        carried=10,
    ),
    ExplorationCase(
        workload="synthetic",
        scale=0.05,
        seed=1,
        digest="ee19053e0577fc001628c3e3721ff9a1"
        "cf0834eb9f447f5d47a3db0a2e604beb",
        estimated=1334,
        carried=10,
    ),
)

DISPATCHES = ("serial", "pool", "remote", "reference")


@dataclass(frozen=True)
class Outcome:
    digest: str
    estimated: int
    carried: int


def _outcome(result) -> Outcome:
    rows = [
        [s.label, s.cost_gates, s.avg_latency, s.avg_energy_nj]
        for s in map(summarize, result.selected_points)
    ]
    canonical = json.dumps(rows, separators=(",", ":"))
    return Outcome(
        digest=hashlib.sha256(canonical.encode()).hexdigest(),
        estimated=len(result.conex.estimated),
        carried=len(result.conex.simulated),
    )


@pytest.fixture(scope="module")
def loopback_worker():
    server = WorkerServer()
    server.start()
    yield server
    server.stop(drain_timeout=5.0)


def _explore(case: ExplorationCase, dispatch: str, monkeypatch, worker):
    workload = get_workload(case.workload, scale=case.scale, seed=case.seed)
    if dispatch == "pool":
        with ExecutionRuntime(workers=2) as runtime:
            result = run_memorex(
                workload, config=CONFIG, workers=2, cache=NULL_CACHE,
                runtime=runtime,
            )
            assert runtime.stats.batches > 0, "the pool never dispatched"
        return result
    if dispatch == "remote":
        monkeypatch.setenv(BACKEND_ENV, "remote")
        monkeypatch.setenv(WORKER_ADDRS_ENV, worker.address)
        served = worker.requests_served
        result = run_memorex(workload, config=CONFIG, cache=NULL_CACHE)
        assert worker.requests_served > served, "the worker served nothing"
        return result
    if dispatch == "reference":
        monkeypatch.setenv(REFERENCE_SIM_ENV, "1")
    return run_memorex(workload, config=CONFIG, workers=1, cache=NULL_CACHE)


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.workload)
def test_front_is_dispatch_invariant(
    case, dispatch, monkeypatch, loopback_worker
):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.delenv(REFERENCE_SIM_ENV, raising=False)
    outcome = _outcome(_explore(case, dispatch, monkeypatch, loopback_worker))
    assert outcome == Outcome(case.digest, case.estimated, case.carried)
