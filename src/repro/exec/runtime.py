"""The dispatch core: the :class:`ExecutionBackend` interface, the two
work units every backend runs (:func:`evaluate_groups`,
:func:`estimate_jobs`), the one recovery loop the pool and the socket
shards share (:func:`run_with_recovery`), and the persistent runtime.

A fresh ``ProcessPoolExecutor`` per batch, with the trace shipped to
every worker through the pool initializer, pays megabytes of pickling
(under spawn) and full process start-up on *every* batch. An
exploration session issues many batches (APEX evaluation, ConEx
Phase II per memory architecture, neighborhood expansion, sweeps), so
per-batch setup would dominate once the simulations themselves are
fast.

:class:`ExecutionRuntime` amortizes all of it. It is the only place a
process pool is built, and it is itself the ``"pool"`` backend:

* the worker pool is created once (lazily, on first parallel dispatch)
  and reused by every subsequent ``simulate_batch`` / ``estimate_many``
  call routed through the runtime;
* each distinct trace is exported once per (runtime, fingerprint) to
  shared memory (:meth:`repro.trace.events.Trace.export_shared`);
  workers attach to the columns zero-copy on first use and keep the
  attached trace in a per-process registry, so a batch dispatch moves
  only job specs and a tiny :class:`~repro.trace.events.SharedTraceHandle`;
* ``close()`` (or the context manager) shuts the pool down and unlinks
  the shared blocks; a process-wide default runtime
  (:func:`default_runtime`) is closed automatically at exit.

**Fault tolerance.** A worker death (OOM kill, segfault, SIGKILL)
breaks a ``ProcessPoolExecutor`` permanently: every in-flight and
future submission raises ``BrokenProcessPool``. The runtime survives
this instead of failing the batch. Each recovery round chunks the
pending items through ``pool.submit``; when the pool breaks (or a
chunk exceeds the per-job timeout from ``REPRO_JOB_TIMEOUT``) the round
keeps every chunk that already finished and rebuilds the pool, and
:func:`run_with_recovery` re-dispatches only the unfinished indices —
results stay keyed by index, so a recovered batch is bit-identical to
an undisturbed one. After ``REPRO_MAX_RETRIES`` retry rounds (default
2) the batch degrades to the serial work unit rather than erroring.
Per-dispatch accounting lands in :attr:`ExecutionRuntime.last_dispatch`
(a :class:`DispatchStats`) and accumulates in
:attr:`ExecutionRuntime.stats`; the engine surfaces it as
``EngineReport.retries`` / ``pool_rebuilds`` / ``degraded``.

Shared-memory hygiene is crash-safe too: exported blocks carry
PID-tagged names and a sidecar manifest (:mod:`repro.trace.shm`),
SIGTERM/SIGINT unlink whatever is still registered, and runtime
construction sweeps blocks leaked by dead processes.

``workers=1`` keeps the serial in-process path: no pool, no export,
bit-identical results — the determinism contract of
:mod:`repro.exec.engine` is unchanged because results stay keyed by
job index and the simulator is deterministic.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro import obs
from repro.conex.estimator import ConnectivityEstimate, estimate_design
from repro.config import (
    FAULT_INJECT_ENV,
    JOB_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
    WORKERS_ENV,
    current_settings,
)
from repro.errors import ExecutionError, ExplorationError
from repro.obs.registry import ObsSnapshot
from repro.sim import batch
from repro.sim.metrics import SimulationResult
from repro.stats import StatsReport
from repro.trace import shm as shm_registry
from repro.trace.events import SharedTraceExport, SharedTraceHandle, Trace

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.exec.engine import EstimateJob, SimulationJob

__all__ = [
    "FAULT_INJECT_ENV",
    "JOB_TIMEOUT_ENV",
    "MAX_RETRIES_ENV",
    "WORKERS_ENV",
    "DEFAULT_MAX_RETRIES",
    "DispatchStats",
    "ExecutionBackend",
    "ExecutionRuntime",
    "RuntimeStats",
    "default_runtime",
    "dispatch_chunksize",
    "effective_pool_workers",
    "estimate_jobs",
    "evaluate_groups",
    "resolve_job_timeout",
    "resolve_max_retries",
    "resolve_workers",
    "run_with_recovery",
    "set_default_runtime",
]

#: Default pool rebuilds per batch when ``REPRO_MAX_RETRIES`` is unset.
DEFAULT_MAX_RETRIES = 2

#: Processes that already warned about an over-provisioned pool.
_CAP_WARNED: set[int] = set()


def effective_pool_workers(workers: int) -> int:
    """Pool size for a requested worker count, capped at the CPU count.

    ``BENCH_parallel.json`` records speedup 0.98 at ``workers=4`` on a
    one-CPU host: processes beyond the core count only add scheduling
    and pickling overhead. The cap applies to the *pool size only* —
    dispatch accounting, chunk sizing, and the ``workers<=1`` serial
    short-circuit all keep the requested count, so capped and uncapped
    runs stay bit-identical (results are keyed by job index either
    way). Warns once per process.
    """
    if workers <= 1:
        return workers
    cap = os.cpu_count() or 1
    if workers <= cap:
        return workers
    pid = os.getpid()
    if pid not in _CAP_WARNED:
        _CAP_WARNED.add(pid)
        import warnings

        warnings.warn(
            f"requested {workers} pool workers on a {cap}-CPU host; "
            f"capping the pool at {cap} processes",
            RuntimeWarning,
            stacklevel=3,
        )
        obs.incr("runtime.workers_capped")
    return cap


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: explicit arg, else ``Settings.workers``.

    The settings default (``REPRO_WORKERS`` unset) is 1 — serial — so
    library behaviour (and golden outputs) stays identical to the
    pre-engine code unless a caller or the environment opts into
    parallelism.
    """
    if workers is None:
        return current_settings().workers
    if workers < 1:
        raise ExplorationError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_job_timeout(timeout: float | None = None) -> float | None:
    """Effective per-job timeout: explicit arg, else ``Settings.job_timeout``."""
    if timeout is None:
        return current_settings().job_timeout
    if timeout <= 0:
        raise ExecutionError(f"job timeout must be positive, got {timeout}")
    return float(timeout)


def resolve_max_retries(retries: int | None = None) -> int:
    """Effective rebuild budget: explicit arg, else ``Settings.max_retries``."""
    if retries is None:
        return current_settings().max_retries
    if retries < 0:
        raise ExecutionError(f"max retries must be >= 0, got {retries}")
    return retries


def dispatch_chunksize(pending: int, workers: int) -> int:
    """Dispatch granularity: ~4 chunks per worker amortizes the IPC."""
    return max(1, -(-pending // (workers * 4)))


@dataclass
class DispatchStats(StatsReport):
    """Fault accounting for one ``run_groups``/``run_estimates`` call.

    Attributes:
        jobs: jobs the call was asked to run.
        retries: recovery rounds that re-dispatched unfinished jobs
            (to a rebuilt pool, or to the surviving shards).
        pool_rebuilds: worker pools torn down and rebuilt after a fault
            (a broken pool or a chunk timeout).
        timeouts: chunks abandoned because they exceeded the per-job
            timeout budget.
        degraded: the retry budget ran out (or no shard survived) and
            the remaining jobs finished on the serial in-process path.
    """

    jobs: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    degraded: bool = False


@dataclass
class RuntimeStats(StatsReport):
    """Cumulative fault accounting across a runtime's lifetime."""

    batches: int = 0
    jobs: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    degraded_batches: int = 0

    def absorb(self, dispatch: DispatchStats) -> None:
        self.batches += 1
        self.jobs += dispatch.jobs
        self.retries += dispatch.retries
        self.pool_rebuilds += dispatch.pool_rebuilds
        self.timeouts += dispatch.timeouts
        self.degraded_batches += int(dispatch.degraded)

    def fault_summary(self) -> str | None:
        """One-line fault recap, or ``None`` when the run was clean.

        The CLI prints this to stderr after each command instead of
        formatting runtime fields itself.
        """
        if not self.pool_rebuilds and not self.degraded_batches:
            return None
        degraded = (
            f", {self.degraded_batches} batch(es) degraded to serial"
            if self.degraded_batches
            else ""
        )
        return (
            f"recovered from worker faults: "
            f"{self.pool_rebuilds} pool rebuild(s), "
            f"{self.retries} retry round(s), "
            f"{self.timeouts} timeout(s){degraded}"
        )


class ExecutionBackend:
    """Interface: run ordered work lists, return results in order.

    Subclasses implement the two ``run_*`` methods and keep
    :attr:`last_dispatch` current. :class:`ExecutionRuntime` is the
    ``"pool"`` backend; the others live in :mod:`repro.exec.backend`.
    """

    #: Short name surfaced as ``EngineReport.backend``.
    name = "base"

    #: Fault accounting for the most recent ``run_*`` call.
    last_dispatch: DispatchStats | None = None

    #: Wire traffic so far (overridden by socket backends).
    bytes_sent = 0
    bytes_received = 0

    def run_groups(
        self, trace: Trace, groups: "Sequence[Sequence[SimulationJob]]"
    ) -> list:
        """Evaluate whole same-signature groups, ordered like ``groups``.

        Returns one ``(results, delta_candidates)`` pair per group —
        the :func:`repro.sim.batch.evaluate_group` contract. Groups
        are never split: splitting would forfeit the shared trace
        plan and module columns.
        """
        raise NotImplementedError

    def run_estimates(
        self, jobs: "Sequence[EstimateJob]"
    ) -> list[ConnectivityEstimate]:
        """Run every Phase-I estimate, ordered like ``jobs``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/sockets. Idempotent; safe on unused backends."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


# -- the work units ---------------------------------------------------------

def evaluate_groups(
    trace: Trace, groups: "Sequence[Sequence[SimulationJob]]"
) -> "list[tuple[list[SimulationResult], int]]":
    """Evaluate each same-signature group over ``trace``, in order.

    The one simulation work unit: serial backends, pool chunks, the
    degraded path and socket workers all run groups through here.
    """
    plan = batch.trace_plan(trace)
    return [batch.evaluate_group(trace, group, plan) for group in groups]


def estimate_jobs(jobs: "Sequence[EstimateJob]") -> list[ConnectivityEstimate]:
    """Run each Phase-I estimate, in order (the one estimate work unit)."""
    return [
        estimate_design(job.memory, job.connectivity, job.profile)
        for job in jobs
    ]


# -- the one recovery loop --------------------------------------------------

def run_with_recovery(
    items: Sequence,
    run_round: Callable[[list, DispatchStats], "Iterable | None"],
    run_serial: Callable[[list], list],
    max_retries: int,
    jobs: int,
) -> tuple[list, DispatchStats]:
    """The one retry/degrade policy; returns results by index and stats.

    ``run_round(pending, stats)`` runs the pending item indices and
    returns ``(index, value)`` pairs for those that finished, or
    ``None`` when nothing can run (no live shard). Unfinished items
    were lost to a fault (a broken pool, a chunk timeout, a dead
    shard) and go to the next round; after ``max_retries`` retry
    rounds, or on ``None``, the rest run through ``run_serial`` and the
    dispatch is degraded. Errors raised by a round or by ``run_serial``
    are job errors, not faults: they propagate unchanged.
    """
    stats = DispatchStats(jobs=jobs)
    results: list = [None] * len(items)
    pending = list(range(len(items)))
    while pending:
        finished = None if stats.degraded else run_round(pending, stats)
        if finished is None:
            stats.degraded = True
            finished = zip(pending, run_serial([items[i] for i in pending]))
        done = set()
        for index, value in finished:
            results[index] = value
            done.add(index)
        pending = [index for index in pending if index not in done]
        if pending:
            if stats.retries < max_retries:
                stats.retries += 1
            else:
                stats.degraded = True
    return results, stats


# -- worker-process side ----------------------------------------------------

#: Traces this worker has attached, keyed by fingerprint. Entries live
#: for the worker's lifetime: the exporting runtime unlinks the blocks
#: only after the pool has shut down, and an attached mapping survives
#: the unlink anyway (POSIX semantics).
_ATTACHED_TRACES: dict[str, Trace] = {}


def _evaluate_shared(
    handle: SharedTraceHandle, groups: "Sequence[Sequence[SimulationJob]]"
) -> "list[tuple[list[SimulationResult], int]]":
    """:func:`evaluate_groups` over the shared trace, attached on first use."""
    trace = _ATTACHED_TRACES.get(handle.fingerprint)
    if trace is None:
        trace = Trace.attach_shared(handle)
        _ATTACHED_TRACES[handle.fingerprint] = trace
    return evaluate_groups(trace, groups)


def _maybe_inject_fault(spec: str) -> None:
    """Honour the ``REPRO_FAULT_INJECT`` chaos hook (tests/CI only).

    ``spec`` is ``Settings.fault_inject``, checked once at the start of
    each chunk, which is where every mode takes its fault.
    """
    mode, _, path = spec.partition(":")
    if mode == "always":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode not in ("once", "hang") or not path:
        return
    try:
        descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # someone already took the fault
    os.close(descriptor)
    if mode == "once":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(600.0)  # "hang": park until the timeout reaper kills us


def _chunk_observation(collect: bool) -> ObsSnapshot | None:
    """Worker-side setup for one chunk's obs collection.

    When the dispatching process records metrics (``collect``), the
    worker turns its own recording on (it may have been spawned before
    the parent enabled obs, so the import-time ``REPRO_OBS`` check is
    not enough) and returns the baseline snapshot the post-chunk delta
    (:func:`_chunk_delta`) is computed against.
    """
    if not collect:
        return None
    if not obs.enabled():
        obs.enable()
    obs.reset_span_stack()
    return obs.snapshot()


def _chunk_delta(baseline: ObsSnapshot | None) -> ObsSnapshot | None:
    """What this worker recorded since :func:`_chunk_observation`."""
    return obs.snapshot().subtract(baseline) if baseline is not None else None


def _run_chunk(
    unit: Callable[[list], list], items: list, collect: bool
) -> "tuple[list, ObsSnapshot | None]":
    """One pool chunk: the work unit over ``items``, plus its obs delta."""
    fault_spec = current_settings().fault_inject
    if fault_spec:
        _maybe_inject_fault(fault_spec)
    baseline = _chunk_observation(collect)
    return unit(items), _chunk_delta(baseline)  # the unit runs first


# -- the runtime ------------------------------------------------------------

#: Processes that already swept stale shm blocks (once per process).
_SWEPT_PIDS: set[int] = set()


def _startup_sweep() -> None:
    pid = os.getpid()
    if pid in _SWEPT_PIDS:
        return
    _SWEPT_PIDS.add(pid)
    try:
        shm_registry.sweep_stale()
    except Exception:  # pragma: no cover - sweep must never fail a run
        pass


class ExecutionRuntime(ExecutionBackend):
    """A long-lived worker pool plus its shared trace exports: the
    ``"pool"`` backend.

    Construct one per exploration session (the CLI does this per
    command) or rely on :func:`default_runtime`. Thread it through
    ``simulate_batch(..., runtime=...)`` / driver ``runtime=``
    parameters (or pass it as ``backend=``); every batch then reuses
    the same pool and the same shared trace blocks. The runtime is
    owned by whoever built it: nothing that merely dispatches through
    it closes it.

    Dispatch is fault tolerant: worker deaths and job timeouts rebuild
    the pool and re-dispatch only the unfinished jobs (see the module
    docstring); :attr:`stats` and :attr:`last_dispatch` expose the
    accounting.

    Args:
        workers: process count; ``None`` consults ``REPRO_WORKERS``
            and falls back to 1 (serial: the runtime stays inert — no
            pool, no exports).
        mp_context: optional :mod:`multiprocessing` start-method name
            (``"fork"``, ``"spawn"``, ``"forkserver"``) or context
            object; ``None`` uses the platform default.
        job_timeout: per-job seconds before a chunk counts as stuck;
            ``None`` consults ``REPRO_JOB_TIMEOUT`` (unset: no timeout).
        max_retries: retry rounds per batch before degrading to the
            serial path; ``None`` consults ``REPRO_MAX_RETRIES``
            (default :data:`DEFAULT_MAX_RETRIES`).
    """

    name = "pool"

    def __init__(
        self,
        workers: int | None = None,
        mp_context: str | multiprocessing.context.BaseContext | None = None,
        job_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.job_timeout = resolve_job_timeout(job_timeout)
        self.max_retries = resolve_max_retries(max_retries)
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._exports: dict[str, SharedTraceExport] = {}
        self._closed = False
        self.stats = RuntimeStats()
        self.last_dispatch: DispatchStats | None = None
        _startup_sweep()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def healthy(self) -> bool:
        """Can this runtime still dispatch work?

        ``False`` once closed, or when the pool was broken *outside*
        the runtime's own dispatch (which self-heals). Used by
        :func:`default_runtime` to avoid handing out a dead runtime.
        """
        if self._closed:
            return False
        pool = self._pool
        return pool is None or not getattr(pool, "_broken", False)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExecutionError("execution runtime is closed")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        self._ensure_open()
        if self._pool is not None and getattr(self._pool, "_broken", False):
            # Poisoned between batches (e.g. a worker OOM-killed while
            # idle, or external dispatch broke it): rebuild silently.
            self._discard_pool(kill=True)
            self.stats.pool_rebuilds += 1
            obs.incr("runtime.pool_rebuilds")
        if self._pool is None:
            context = self._mp_context
            if isinstance(context, str):
                context = multiprocessing.get_context(context)
            self._pool = ProcessPoolExecutor(
                max_workers=effective_pool_workers(self.workers),
                mp_context=context,
            )
        return self._pool

    def _discard_pool(self, kill: bool = False) -> None:
        """Tear the current pool down without touching the exports."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        process_map = getattr(pool, "_processes", None)
        processes = (
            list(process_map.values()) if isinstance(process_map, dict) else []
        )
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown must not raise
            pass
        if kill:
            # A stuck or half-dead pool may never drain: terminate the
            # workers outright so the rebuilt pool has the CPUs.
            for process in processes:
                try:
                    if process.is_alive():
                        process.terminate()
                except Exception:  # pragma: no cover - best-effort kill
                    pass

    def share_trace(self, trace: Trace) -> SharedTraceHandle:
        """The trace's shared handle, exported once per fingerprint."""
        self._ensure_open()
        fingerprint = trace.fingerprint()
        export = self._exports.get(fingerprint)
        if export is None:
            export = trace.export_shared()
            self._exports[fingerprint] = export
            obs.incr("runtime.shm_exports")
        return export.handle

    # -- the pool backend ----------------------------------------------

    def run_groups(self, trace, groups):
        groups = [tuple(group) for group in groups]
        jobs = sum(len(group) for group in groups)
        local = functools.partial(evaluate_groups, trace)
        if self._runs_inline(groups, jobs):
            return local(groups)
        shared = functools.partial(_evaluate_shared, self.share_trace(trace))
        return self._dispatch(shared, local, groups, jobs)

    def run_estimates(self, jobs):
        jobs = list(jobs)
        if self._runs_inline(jobs, len(jobs)):
            return estimate_jobs(jobs)
        return self._dispatch(estimate_jobs, estimate_jobs, jobs, len(jobs))

    def _runs_inline(self, items: list, jobs: int) -> bool:
        """Does this batch skip the pool (empty, or one worker)?"""
        self._ensure_open()
        if items and self.workers > 1:
            return False
        self.last_dispatch = DispatchStats(jobs=jobs)
        return True

    def _dispatch(
        self,
        unit: Callable[[list], list],
        local: Callable[[list], list],
        items: list,
        jobs: int,
    ) -> list:
        """Run ``unit`` over ``items`` in the pool (``local`` is the
        degraded path), timed under the ``exec.dispatch`` span."""
        collect = obs.enabled()
        with obs.span("exec.dispatch"):
            results, stats = run_with_recovery(
                items,
                lambda pending, stats: self._pool_round(
                    unit, items, pending, stats, collect
                ),
                local,
                self.max_retries,
                jobs,
            )
        self.last_dispatch = stats
        self.stats.absorb(stats)
        if collect:
            # retries / pool_rebuilds / degraded travel on the engine
            # report and are counted there (for every backend); only
            # dispatch-local facts the report does not carry are
            # recorded here.
            obs.incr("runtime.dispatches")
            obs.incr("runtime.jobs", stats.jobs)
            obs.incr("runtime.timeouts", stats.timeouts)
        return results

    def _pool_round(
        self,
        unit: Callable[[list], list],
        items: list,
        pending: list,
        stats: DispatchStats,
        collect: bool,
    ) -> list:
        """Chunk, submit, wait ``job_timeout`` per item, keep what
        finished; on a fault (a broken pool, a chunk timeout) keep the
        chunks already done and rebuild the pool."""
        size = dispatch_chunksize(len(pending), self.workers)
        chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
        submitted = []
        fault = False
        try:
            pool = self._ensure_pool()
            for chunk in chunks:
                future = pool.submit(
                    _run_chunk, unit, [items[i] for i in chunk], collect
                )
                submitted.append((chunk, future))
        except BrokenProcessPool:
            fault = True
        finished = []
        for chunk, future in submitted:
            if fault and not (
                future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                continue
            timeout = self.job_timeout and self.job_timeout * len(chunk)
            try:
                values, delta = future.result(timeout=timeout)
            except BrokenProcessPool:
                fault = True
                continue
            except FuturesTimeoutError:
                stats.timeouts += 1
                fault = True
                continue
            obs.merge_snapshot(delta)  # worker-side spans and counters
            finished.extend(zip(chunk, values))
        if fault:
            self._discard_pool(kill=True)
            stats.pool_rebuilds += 1
        return finished

    def close(self) -> None:
        """Shut the pool down and unlink the shared exports. Idempotent."""
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:  # pragma: no cover - broken-pool shutdown
                pass
        exports, self._exports = self._exports, {}
        for export in exports.values():
            export.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "pooled" if self._pool is not None else "idle"
        )
        return f"<ExecutionRuntime workers={self.workers} ({state})>"


# -- the process-wide default ----------------------------------------------

_DEFAULT_RUNTIME: ExecutionRuntime | None = None


def default_runtime(workers: int | None = None) -> ExecutionRuntime:
    """The process-wide runtime, sized for at least ``workers``.

    Created on first use; reused by every subsequent call. Asking for
    more workers than the current default has closes it and builds a
    bigger one (a pool cannot grow in place); asking for fewer reuses
    the existing, larger pool. A default whose pool died outside the
    runtime's own (self-healing) dispatch — :attr:`ExecutionRuntime.healthy`
    ``False`` — is closed and replaced, so explorers, strategies,
    sweeps, and the CLI never receive a dead runtime.
    """
    global _DEFAULT_RUNTIME
    workers = resolve_workers(workers)
    runtime = _DEFAULT_RUNTIME
    if runtime is not None and runtime.healthy and runtime.workers >= workers:
        return runtime
    if runtime is not None and not runtime.closed:
        runtime.close()
    runtime = ExecutionRuntime(workers=workers)
    _DEFAULT_RUNTIME = runtime
    return runtime


def set_default_runtime(
    runtime: ExecutionRuntime | None,
) -> ExecutionRuntime | None:
    """Install ``runtime`` as the process-wide default.

    Returns the previous default (not closed — the caller decides its
    fate). Pass ``None`` to clear.
    """
    global _DEFAULT_RUNTIME
    previous, _DEFAULT_RUNTIME = _DEFAULT_RUNTIME, runtime
    return previous


@atexit.register
def _close_default_runtime() -> None:  # pragma: no cover - exit hook
    if _DEFAULT_RUNTIME is not None:
        _DEFAULT_RUNTIME.close()
