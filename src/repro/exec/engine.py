"""Batch evaluation engine: simulate/estimate many design points.

The exploration algorithms spend essentially all their wall time
simulating candidate designs over one fixed trace, every candidate
independent of every other. This module turns those loops into batch
jobs:

* :func:`simulate_batch` — run a list of :class:`SimulationJob` specs
  over one trace, against the content-addressed result cache. The
  misses are deduplicated, partitioned into same-memory-signature
  groups, and each group is evaluated by
  :func:`repro.sim.batch.evaluate_group`, which shares the trace plan
  and module columns across the group's candidates.
* :func:`estimate_many` — the Phase-I analogue for
  :func:`repro.conex.estimator.estimate_design`.

Determinism contract: results are returned **keyed by job index**,
never by completion order — ``simulate_batch(trace, jobs).results[i]``
always corresponds to ``jobs[i]``, and the simulator is deterministic,
so a parallel run is bit-identical to a serial run of the same job
list.

Every batch dispatches through exactly one
:class:`~repro.exec.runtime.ExecutionBackend`, chosen in this order:

1. an explicit ``backend=`` argument (instance or name);
2. ``REPRO_BACKEND``;
3. :class:`~repro.exec.backend.SerialBackend` when ``workers <= 1`` or
   the batch is too small to use a pool (one group; an estimate batch
   below ``_MIN_PARALLEL_ESTIMATES``, which also overrides 1 and 2);
4. otherwise the pool: the ``runtime=`` argument when given, else
   :func:`repro.exec.runtime.default_runtime`. The name ``"pool"`` in
   1 or 2 means the same runtime.

The pool's worker processes are built once per runtime and the trace
is exported once per (runtime, trace-fingerprint) to shared memory, so
a batch moves only the (small) architecture descriptions. Pool and
socket shards share one retry/degrade policy
(:func:`repro.exec.runtime.run_with_recovery`).

Each evaluation runs the columnar fast path by default, in workers and
in-process alike. It is bit-identical to the scalar reference loop, so
engine selection needs no cache-key component: cached results mix
freely across engines and across ``REPRO_REFERENCE_SIM`` settings
(the opt-out env var propagates to pool workers like any other).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.connectivity.architecture import ConnectivityArchitecture
from repro.errors import ExecutionError
from repro.exec.backend import SerialBackend, resolve_backend
from repro.exec.cache import SimulationCache, default_cache, simulation_key
from repro.exec.runtime import (
    DispatchStats,
    ExecutionBackend,
    ExecutionRuntime,
    resolve_workers,
)
from repro.sim.metrics import SimulationResult
from repro.sim.sampling import SamplingConfig
from repro.stats import BatchStats, StatsReport
from repro.trace.events import Trace

#: Below this many pending estimate jobs a pool costs more than it
#: saves (estimates are microseconds each; pickling is not).
_MIN_PARALLEL_ESTIMATES = 64


@dataclass(frozen=True)
class SimulationJob:
    """One picklable simulation work item (the trace travels separately)."""

    memory: MemoryArchitecture
    connectivity: ConnectivityArchitecture | None = None
    sampling: SamplingConfig | None = None
    posted_writes: bool = False


@dataclass(frozen=True)
class EstimateJob:
    """One picklable Phase-I estimation work item."""

    memory: MemoryArchitecture
    connectivity: ConnectivityArchitecture
    profile: SimulationResult


@dataclass(frozen=True)
class EngineReport(StatsReport):
    """What one batch produced and what it cost.

    ``results[i]`` always corresponds to ``jobs[i]`` of the submitted
    list. ``cache_hits + cache_misses + deduplicated + uncached ==
    len(results)``: simulation batches split into hits (served from
    the cache), misses (actually simulated), and in-batch duplicates
    (relabelled copies of a miss simulated once — *not* extra
    simulations); estimates never consult the cache (they are cheaper
    than a lookup is interesting) and count as ``uncached``, so
    summing reports across simulate and estimate batches keeps the
    aggregate hit rate honest.

    ``retries`` / ``pool_rebuilds`` / ``degraded`` surface the fault
    tolerance of the dispatch (see :class:`repro.exec.runtime.DispatchStats`):
    how many recovery rounds re-dispatched unfinished jobs, how many
    worker pools were rebuilt, and whether the batch finished on the
    serial degraded path after the rebuild budget ran out. All zero /
    ``False`` on an undisturbed batch.

    ``batch_groups`` / ``delta_pass_candidates`` are filled only by
    :func:`simulate_batch`: how many same-memory-signature groups the
    simulated misses were partitioned into, and how many of those
    candidates ran the shared-column delta pass (as opposed to falling
    back to independent full runs).

    ``backend`` is the :attr:`~repro.exec.runtime.ExecutionBackend.name`
    of the backend that dispatched the batch (``"serial"``, ``"pool"``,
    ``"remote"``, ``"sharded"``) and ``bytes_sent`` / ``bytes_received``
    count its wire traffic (zero for local backends).
    ``cache_memory_hits`` / ``cache_disk_hits`` / ``cache_net_hits``
    split ``cache_hits`` by the :class:`~repro.exec.cache.SimulationCache`
    layer that served each hit.
    """

    results: tuple
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0
    uncached: int = 0
    seconds: float = 0.0
    retries: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    batch_groups: int = 0
    delta_pass_candidates: int = 0
    backend: str = "serial"
    bytes_sent: int = 0
    bytes_received: int = 0
    cache_memory_hits: int = 0
    cache_disk_hits: int = 0
    cache_net_hits: int = 0

    #: ``as_dict()`` exports the accounting, not the payload.
    _STATS_EXCLUDE = ("results",)

    @property
    def stats(self) -> BatchStats:
        """The batch accounting as the unified :class:`BatchStats` shape."""
        return BatchStats(
            workers=self.workers,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            deduplicated=self.deduplicated,
            uncached=self.uncached,
            seconds=self.seconds,
            retries=self.retries,
            pool_rebuilds=self.pool_rebuilds,
            degraded=self.degraded,
        )


def _relabel(result: SimulationResult, job: SimulationJob) -> SimulationResult:
    """Stamp a shared result with the requesting job's design names.

    Cache keys are content-addressed (names excluded), so a hit may
    come from an identically-configured architecture under another
    name. Downstream consumers (e.g. the BRG builder) check result
    ownership by name, so shared results are relabelled on retrieval.
    """
    memory_name = job.memory.name
    connectivity_name = (
        job.connectivity.name
        if job.connectivity is not None
        else result.connectivity_name
    )
    if (
        result.memory_name == memory_name
        and result.connectivity_name == connectivity_name
    ):
        return result
    return replace(
        result,
        memory_name=memory_name,
        connectivity_name=connectivity_name,
    )


# -- dispatch ---------------------------------------------------------------

def _record_batch(report: EngineReport) -> None:
    """Fold one batch's accounting into the obs counters.

    Every key is registered even when its value is zero, so a metrics
    export from an undisturbed serial run still shows the full
    ``exec.*`` / ``runtime.*`` counter surface.
    """
    obs.incr("exec.jobs", len(report.results))
    obs.incr("exec.cache_hits", report.cache_hits)
    obs.incr("exec.cache_misses", report.cache_misses)
    obs.incr("exec.deduplicated", report.deduplicated)
    obs.incr("exec.uncached", report.uncached)
    obs.incr("exec.batch_groups", report.batch_groups)
    obs.incr("exec.delta_pass_candidates", report.delta_pass_candidates)
    obs.incr("exec.cache_memory_hits", report.cache_memory_hits)
    obs.incr("exec.cache_disk_hits", report.cache_disk_hits)
    obs.incr("exec.cache_net_hits", report.cache_net_hits)
    obs.incr("backend.bytes_sent", report.bytes_sent)
    obs.incr("backend.bytes_received", report.bytes_received)
    obs.incr("runtime.retries", report.retries)
    obs.incr("runtime.pool_rebuilds", report.pool_rebuilds)
    obs.incr("runtime.degraded_batches", int(report.degraded))


def _cache_layers(cache: SimulationCache) -> tuple[int, int, int]:
    return (cache.memory_hits, cache.disk_hits, cache.net_hits)


def _batch_workers(
    workers: int | None, runtime: ExecutionRuntime | None, entry: str
) -> int:
    """The batch's worker count; a closed runtime fails it up front.

    Failing before any cache lookup or dispatch means a batch is never
    half-served by a dead runtime.
    """
    if runtime is not None:
        if runtime.closed:
            raise ExecutionError(
                f"cannot dispatch {entry} through a closed runtime"
            )
        if workers is None:
            workers = runtime.workers
    return resolve_workers(workers)


def _choose_backend(
    backend: "ExecutionBackend | str | None",
    workers: int,
    runtime: ExecutionRuntime | None,
    poolable: bool = True,
) -> ExecutionBackend:
    """The one backend a batch dispatches through (see the module docstring).

    ``poolable`` is ``False`` when the batch has too little work to
    split across a pool (a single group is never split).
    """
    configured = resolve_backend(backend, workers, runtime)
    if configured is not None:
        return configured
    if workers <= 1 or not poolable:
        return SerialBackend()
    return resolve_backend("pool", workers, runtime)


def _dispatch(active: ExecutionBackend, run: Callable[[], list]) -> tuple:
    """Run one backend call; return its values and its report fields."""
    sent, received = active.bytes_sent, active.bytes_received
    values = run()
    dispatch = active.last_dispatch or DispatchStats()
    return values, {
        "backend": active.name,
        "retries": dispatch.retries,
        "pool_rebuilds": dispatch.pool_rebuilds,
        "degraded": dispatch.degraded,
        "bytes_sent": active.bytes_sent - sent,
        "bytes_received": active.bytes_received - received,
    }


# -- public entry points ----------------------------------------------------

def simulate_batch(
    trace: Trace,
    jobs: Sequence[SimulationJob],
    workers: int | None = None,
    cache: SimulationCache | None = None,
    runtime: ExecutionRuntime | None = None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    """Simulate every job over ``trace``; results ordered like ``jobs``.

    Results are bit-identical to independent
    :func:`~repro.sim.simulator.simulate` calls. Cache misses are
    deduplicated (a key repeated inside the batch runs once and later
    copies are relabelled), then partitioned into same-memory-signature
    groups, each evaluated through :func:`repro.sim.batch.evaluate_group`
    so every candidate pays only its connectivity/sampling delta pass.
    Groups are the unit of dispatch and are never split — splitting
    would forfeit the sharing — which also makes the memory-signature
    group the unit of distribution for
    :class:`~repro.exec.backend.ShardedBackend`.

    Args:
        trace: the shared access trace (exported to pool workers once
            per runtime).
        jobs: picklable job specs.
        workers: process count; ``None`` consults the ``runtime`` (when
            given), else ``REPRO_WORKERS``, and falls back to 1
            (serial, in-process).
        cache: result cache; ``None`` selects the process-wide default
            (:func:`repro.exec.cache.default_cache`). Pass
            :data:`repro.exec.cache.NULL_CACHE` to force fresh runs.
        runtime: persistent execution runtime a pool dispatch goes
            through (also for ``backend="pool"``); ``None`` uses the
            process-wide default
            (:func:`repro.exec.runtime.default_runtime`).
        backend: an :class:`~repro.exec.runtime.ExecutionBackend`
            instance or name (``"serial"``/``"pool"``/``"remote"``);
            ``None`` consults ``REPRO_BACKEND``, then picks serial or
            pool from ``workers``.
    """
    with obs.span("exec.simulate_batch"):
        report = _simulate_batch(trace, jobs, workers, cache, runtime, backend)
    if obs.enabled():
        _record_batch(report)
    return report


def _simulate_batch(
    trace: Trace,
    jobs: Sequence[SimulationJob],
    workers: int | None,
    cache: SimulationCache | None,
    runtime: ExecutionRuntime | None,
    backend: "ExecutionBackend | str | None",
) -> EngineReport:
    start = time.perf_counter()
    workers = _batch_workers(workers, runtime, "simulate_batch")
    cache = cache if cache is not None else default_cache()
    layers_before = _cache_layers(cache)
    results: list[SimulationResult | None] = [None] * len(jobs)
    pending: list[int] = []
    keys: list[tuple] = []
    for index, job in enumerate(jobs):
        key = simulation_key(
            trace, job.memory, job.connectivity, job.sampling,
            job.posted_writes,
        )
        keys.append(key)
        cached = cache.get(key)
        if cached is None:
            pending.append(index)
        else:
            results[index] = _relabel(cached, job)
    memory_hits, disk_hits, net_hits = (
        after - before
        for after, before in zip(_cache_layers(cache), layers_before)
    )

    # Duplicate keys inside one batch run once; later copies reuse.
    first_of: dict[tuple, int] = {}
    for index in pending:
        first_of.setdefault(keys[index], index)
    unique = list(first_of.values())
    # Partition the misses by memory-architecture signature — the
    # grouping under which module columns are shareable — keeping
    # first-appearance order for deterministic dispatch.
    grouped: dict = {}
    for index in unique:
        grouped.setdefault(keys[index][1], []).append(index)
    groups = list(grouped.values())

    active = _choose_backend(backend, workers, runtime, len(groups) > 1)
    dispatched: dict = {"backend": active.name}
    delta_candidates = 0
    if groups:
        group_jobs = [[jobs[i] for i in group] for group in groups]
        outcomes, dispatched = _dispatch(
            active, lambda: active.run_groups(trace, group_jobs)
        )
        for group, (group_results, delta) in zip(groups, outcomes):
            delta_candidates += delta
            for index, result in zip(group, group_results):
                results[index] = result
        for index in unique:
            cache.put(keys[index], results[index])
        for index in pending:
            if results[index] is None:
                results[index] = _relabel(
                    results[first_of[keys[index]]], jobs[index]
                )

    return EngineReport(
        results=tuple(results),
        workers=workers,
        cache_hits=len(jobs) - len(pending),
        cache_misses=len(unique),
        deduplicated=len(pending) - len(unique),
        seconds=time.perf_counter() - start,
        batch_groups=len(groups),
        delta_pass_candidates=delta_candidates,
        cache_memory_hits=memory_hits,
        cache_disk_hits=disk_hits,
        cache_net_hits=net_hits,
        **dispatched,
    )


def estimate_many(
    jobs: Sequence[EstimateJob],
    workers: int | None = None,
    runtime: ExecutionRuntime | None = None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    """Run Phase-I estimates for every job; results ordered like ``jobs``.

    Estimates are analytic (microseconds each), so batches smaller than
    ``_MIN_PARALLEL_ESTIMATES`` run on the serial backend whatever
    backend was asked for: shipping microsecond jobs to a pool or over
    a socket is never a win. Estimates never touch the result cache:
    the report counts them as ``uncached``, not as hits or misses.
    """
    with obs.span("exec.estimate_many"):
        report = _estimate_many(jobs, workers, runtime, backend)
    if obs.enabled():
        _record_batch(report)
    return report


def _estimate_many(
    jobs: Sequence[EstimateJob],
    workers: int | None,
    runtime: ExecutionRuntime | None,
    backend: "ExecutionBackend | str | None",
) -> EngineReport:
    start = time.perf_counter()
    workers = _batch_workers(workers, runtime, "estimate_many")
    if len(jobs) < _MIN_PARALLEL_ESTIMATES:
        active: ExecutionBackend = SerialBackend()
    else:
        active = _choose_backend(backend, workers, runtime)
    results, dispatched = _dispatch(active, lambda: active.run_estimates(jobs))
    return EngineReport(
        results=tuple(results),
        workers=workers,
        uncached=len(jobs),
        seconds=time.perf_counter() - start,
        **dispatched,
    )
