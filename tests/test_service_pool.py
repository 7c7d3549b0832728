"""Service jobs on the ``"pool"`` backend run on the runner's runtime.

Each service runner thread owns one :class:`ExecutionRuntime` and hands
it to :func:`repro.service.runner.execute_job`. A job that asks for
``backend: "pool"`` must dispatch through that runtime, so concurrent
jobs with different ``workers`` never share (or close) a pool, and a
job never closes a runtime it did not build.
"""

from __future__ import annotations

import threading

import pytest

from repro.exec.runtime import ExecutionRuntime, set_default_runtime
from repro.service import Job, JobStore, parse_job_spec
from repro.service import jobs as jobstates
from repro.service import runner
from repro.service.runner import TenantCaches, execute_job

_SPEC = {"kind": "apex", "workload": "dct", "scale": 0.05, "seed": 3}


@pytest.fixture
def idle_default():
    """An installed default runtime that no job may use or replace."""
    sentinel = ExecutionRuntime(workers=2)
    previous = set_default_runtime(sentinel)
    yield sentinel
    assert set_default_runtime(previous) is sentinel
    sentinel.close()


def _pool_job(workers: int) -> Job:
    return Job(spec=parse_job_spec({**_SPEC, "backend": "pool", "workers": workers}))


def test_pool_job_runs_on_the_runner_runtime_and_leaves_it_open(idle_default):
    store = JobStore()
    job = _pool_job(2)
    store.add(job)
    with ExecutionRuntime(workers=2) as runtime:
        execute_job(job, store, TenantCaches(), runtime=runtime)
        assert job.state == jobstates.DONE, job.error
        assert runtime.stats.batches > 0
        assert not runtime.closed
    assert idle_default.stats.batches == 0


def test_concurrent_pool_jobs_with_different_workers_finish(
    monkeypatch, idle_default
):
    """Two runner threads resolve ``"pool"`` for 2 and 3 workers, the
    2-worker job first, and both then run their batches at once."""
    resolve = runner.resolve_backend
    small_resolved = threading.Event()
    both_resolved = threading.Barrier(2)

    def resolve_in_order(spec, workers=None, *rest, **options):
        if workers == 3:
            assert small_resolved.wait(timeout=60)
        backend = resolve(spec, workers, *rest, **options)
        if workers == 2:
            small_resolved.set()
        both_resolved.wait(timeout=60)
        return backend

    monkeypatch.setattr(runner, "resolve_backend", resolve_in_order)
    store = JobStore()
    caches = TenantCaches()
    jobs = [_pool_job(2), _pool_job(3)]

    def run(job: Job) -> None:
        with ExecutionRuntime(workers=job.spec.workers) as runtime:
            execute_job(job, store, caches, runtime=runtime)

    threads = []
    for job in jobs:
        store.add(job)
        threads.append(threading.Thread(target=run, args=(job,)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    assert [job.state for job in jobs] == [jobstates.DONE] * 2, [
        job.error for job in jobs
    ]
    assert idle_default.stats.batches == 0
