"""Execution backends: where a batch's misses actually run.

The engine (:mod:`repro.exec.engine`) owns *what* to run — cache
lookups, dedup, memory-signature grouping, job-index-keyed merge. A
backend owns *where*, and every engine batch goes through exactly one
:class:`~repro.exec.runtime.ExecutionBackend`: its two ``run_*``
methods (whole same-signature groups, Phase-I estimates) each take an
ordered work list and return results in the same order, so a run is
bit-identical whichever backend dispatches it.

Implementations:

* :class:`SerialBackend` — the work units in-process; the reference
  semantics and the engine's choice for ``workers=1``.
* :class:`~repro.exec.runtime.ExecutionRuntime` — the ``"pool"``
  backend (one persistent process pool); the engine's choice for
  ``workers > 1``.
* :class:`RemoteBackend` — one socket worker
  (:mod:`repro.exec.worker`) over the :mod:`repro.exec.net` frame
  protocol. The trace ships at most once per (worker, fingerprint);
  job batches then reference the fingerprint alone.
* :class:`ShardedBackend` — composes N backends, sharding the work
  list round-robin by index. It recovers through the runtime's loop
  (:func:`~repro.exec.runtime.run_with_recovery`): a
  :class:`~repro.exec.net.BackendUnavailable` marks the shard dead and
  only its unfinished items go to the survivors; after ``max_retries``
  retry rounds (or when no shard survives) the remainder degrades to a
  local :class:`SerialBackend`. Job-raised errors are *not* faults and
  propagate unchanged.

Selection: pass ``backend=`` to an engine entry point (an instance or
one of the names ``"serial"``/``"pool"``/``"remote"``), or set
``REPRO_BACKEND`` — ``"pool"`` is the caller's ``runtime=`` (else the
process-wide default runtime), ``"remote"`` builds a
:class:`ShardedBackend` of one :class:`RemoteBackend` per
``REPRO_WORKER_ADDRS`` address. With neither, the engine picks
:class:`SerialBackend` or the runtime from the worker count.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro import obs
from repro.config import WORKER_ADDRS_ENV, current_settings
from repro.errors import ExecutionError
from repro.exec import net
from repro.exec.runtime import (
    DispatchStats,
    ExecutionBackend,
    ExecutionRuntime,
    default_runtime,
    estimate_jobs,
    evaluate_groups,
    resolve_max_retries,
    run_with_recovery,
)
from repro.trace.events import Trace

__all__ = [
    "ExecutionBackend",
    "RemoteBackend",
    "SerialBackend",
    "ShardedBackend",
    "resolve_backend",
]

class SerialBackend(ExecutionBackend):
    """In-process work units: the reference every backend must match."""

    name = "serial"

    def run_groups(self, trace, groups):
        self.last_dispatch = DispatchStats(
            jobs=sum(len(group) for group in groups)
        )
        return evaluate_groups(trace, groups)

    def run_estimates(self, jobs):
        self.last_dispatch = DispatchStats(jobs=len(jobs))
        return estimate_jobs(jobs)


class RemoteBackend(ExecutionBackend):
    """One socket worker, addressed as ``host:port``.

    The :class:`~repro.exec.net.Link` connects lazily and re-connects
    after a fault; the pushed-trace set is dropped with the connection,
    since a replacement worker process starts blank. Connection-level
    failures surface as :class:`~repro.exec.net.BackendUnavailable` for
    the sharding layer to recover from.
    """

    name = "remote"

    def __init__(self, address: str, timeout: float | None = None) -> None:
        self.address = address
        self.timeout = (
            timeout
            if timeout is not None
            else current_settings().job_timeout
        )
        self._link = net.Link(address)
        self._pushed: set[str] = set()

    @property
    def bytes_sent(self) -> int:
        return self._link.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._link.bytes_received

    def _request(self, kind: int, value, payload: bytes | None = None):
        """Send ``value`` pickled (or raw ``payload``); drop on a fault."""
        try:
            connection = self._link.connection(self.timeout)
            if payload is None:
                return connection.request_pickled(kind, value)
            return connection.request(kind, payload)
        except net.BackendUnavailable:
            # A replacement worker process starts blank: forget traces.
            self._link.drop()
            self._pushed = set()
            raise

    def ping(self) -> bool:
        """Is the worker reachable right now?"""
        try:
            return self._request(net.MSG_PING, None).kind == net.MSG_PONG
        except net.BackendUnavailable:
            return False

    def ensure_trace(self, trace: Trace) -> None:
        """Ship the trace unless this worker already holds it."""
        fingerprint = trace.fingerprint()
        if fingerprint in self._pushed:
            return
        reply = self._request(net.MSG_TRACE_QUERY, fingerprint)
        if not reply.unpickle().get("have"):
            with obs.span("backend.trace_push"):
                self._request(
                    net.MSG_TRACE_PUSH, None, net.encode_trace(trace)
                )
            obs.incr("backend.trace_pushes")
        self._pushed.add(fingerprint)

    def _run_remote(self, kind: int, request: dict, jobs: int) -> list:
        request["collect"] = obs.enabled()
        with obs.span("backend.remote_dispatch"):
            reply = self._request(kind, request)
        data = reply.unpickle()
        obs.merge_snapshot(data.get("obs"))
        self.last_dispatch = DispatchStats(jobs=jobs)
        return data["values"]

    def _run_traced(
        self, trace: Trace, kind: int, request: dict, jobs: int
    ) -> list:
        """Dispatch a trace-referencing batch, re-pushing on eviction.

        A long-lived worker's trace store is a byte-capped LRU, so the
        trace this connection pushed earlier may have been evicted by
        other tenants' traffic. The worker reports that as a job error
        carrying a recognizable marker; one re-push plus retry makes
        eviction invisible to callers instead of failing the batch.
        """
        self.ensure_trace(trace)
        try:
            return self._run_remote(kind, request, jobs)
        except ExecutionError as error:
            if "was never pushed" not in str(error):
                raise
            self._pushed.discard(trace.fingerprint())
            obs.incr("backend.trace_repushes")
            self.ensure_trace(trace)
            return self._run_remote(kind, request, jobs)

    def run_groups(self, trace, groups):
        return self._run_traced(
            trace,
            net.MSG_SIM_GROUPS,
            {
                "fingerprint": trace.fingerprint(),
                "groups": [tuple(group) for group in groups],
            },
            sum(len(group) for group in groups),
        )

    def run_estimates(self, jobs):
        return self._run_remote(
            net.MSG_ESTIMATES, {"jobs": list(jobs)}, len(jobs)
        )

    def close(self) -> None:
        self._link.drop()
        self._pushed = set()

    def __repr__(self) -> str:
        state = "connected" if self._link.connected else "idle"
        return f"<RemoteBackend {self.address} ({state})>"


class ShardedBackend(ExecutionBackend):
    """Shard ordered work across N backends; merge by original index.

    Sharding is deterministic — item ``i`` of a round goes to healthy
    shard ``i % len(healthy)`` — but determinism of *results* never
    depends on placement: every backend returns results keyed to the
    indices it was handed, so the merged list is bit-identical to a
    serial run regardless of which shard (or which recovery round)
    produced each entry.
    """

    name = "sharded"

    def __init__(
        self,
        backends: Sequence[ExecutionBackend],
        fallback: ExecutionBackend | None = None,
        max_retries: int | None = None,
    ) -> None:
        if not backends:
            raise ExecutionError("ShardedBackend needs at least one backend")
        self.backends = list(backends)
        self.fallback = fallback if fallback is not None else SerialBackend()
        self.max_retries = resolve_max_retries(max_retries)
        self._alive = [True] * len(self.backends)

    @property
    def bytes_sent(self) -> int:
        return sum(backend.bytes_sent for backend in self.backends)

    @property
    def bytes_received(self) -> int:
        return sum(backend.bytes_received for backend in self.backends)

    # -- fault-tolerant sharded dispatch -------------------------------

    def _run(
        self,
        items: list,
        run: Callable[[ExecutionBackend, list], list],
        run_fallback: Callable[[list], list],
        jobs: int,
    ) -> list:
        """Shard ``items`` with :func:`~repro.exec.runtime.run_with_recovery`.

        ``run(backend, subset)`` executes a shard's item subset;
        ``run_fallback(subset)`` is the local degraded path.
        """

        def shard_round(pending: list, _stats: DispatchStats):
            shards = [i for i, alive in enumerate(self._alive) if alive]
            if not shards:
                return None
            # Deterministic round-robin by position in the pending list.
            count = len(shards)
            assignments = {
                shard: pending[k::count] for k, shard in enumerate(shards)
            }
            finished: list = []
            errors: list[BaseException] = []

            def dispatch(shard: int, indices: list[int]) -> None:
                try:
                    values = run(
                        self.backends[shard], [items[i] for i in indices]
                    )
                except net.BackendUnavailable:
                    # Dead socket: mark the shard down; its indices
                    # stay pending for the next recovery round.
                    self._alive[shard] = False
                    obs.incr("backend.shard_deaths")
                except BaseException as error:  # job error: propagate
                    errors.append(error)
                else:
                    finished.extend(zip(indices, values))

            threads = [
                threading.Thread(target=dispatch, args=(shard, indices))
                for shard, indices in assignments.items()
                if indices
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
            if len(finished) < len(pending):
                obs.incr("backend.redispatches")
            return finished

        results, self.last_dispatch = run_with_recovery(
            items, shard_round, run_fallback, self.max_retries, jobs
        )
        return results

    def run_groups(self, trace, groups):
        return self._run(
            [tuple(group) for group in groups],
            lambda backend, subset: backend.run_groups(trace, subset),
            lambda subset: self.fallback.run_groups(trace, subset),
            sum(len(group) for group in groups),
        )

    def run_estimates(self, jobs):
        return self._run(
            list(jobs),
            lambda backend, subset: backend.run_estimates(subset),
            lambda subset: self.fallback.run_estimates(subset),
            len(jobs),
        )

    def close(self) -> None:
        for backend in self.backends:
            backend.close()
        self.fallback.close()

    def __repr__(self) -> str:
        alive = sum(self._alive)
        return (
            f"<ShardedBackend {alive}/{len(self.backends)} shards alive>"
        )


def resolve_backend(
    backend: "ExecutionBackend | str | None" = None,
    workers: int | None = None,
    runtime: ExecutionRuntime | None = None,
) -> ExecutionBackend | None:
    """Turn a backend spec into an instance, or ``None`` when none is set.

    ``None`` consults ``Settings.backend`` (``REPRO_BACKEND``); when
    that is empty too, the result is ``None`` and the engine picks
    serial or pool from the worker count. ``"pool"`` is ``runtime``
    itself, or the process-wide :func:`~repro.exec.runtime.default_runtime`
    sized for ``workers`` when no runtime is given; either way the
    caller does not own it and must not close it. ``"remote"`` shards
    across one :class:`RemoteBackend` per ``REPRO_WORKER_ADDRS``
    address, with the runtime's retry budget and a serial local
    fallback.
    """
    if backend is None:
        spec = current_settings().backend
        if not spec:
            return None
        backend = spec
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "pool":
        return runtime if runtime is not None else default_runtime(workers)
    if backend == "remote":
        addresses = current_settings().worker_addrs
        if not addresses:
            raise ExecutionError(
                f"backend 'remote' needs worker addresses: set "
                f"{WORKER_ADDRS_ENV} to a comma-separated host:port list"
            )
        return ShardedBackend(
            [RemoteBackend(address) for address in addresses]
        )
    raise ExecutionError(
        f"unknown backend {backend!r}: expected 'serial', 'pool', 'remote', "
        f"or an ExecutionBackend instance"
    )
