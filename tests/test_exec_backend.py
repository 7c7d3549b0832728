"""Unit tests for the pluggable execution-backend layer.

Covers the :class:`~repro.exec.backend.ExecutionBackend` contract
(ordered results, bit-identity across implementations), the sharded
fault-tolerant dispatch, backend resolution from arguments and
``REPRO_BACKEND``, and the CPU-count pool cap.
"""

import os

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.config import BACKEND_ENV, WORKER_ADDRS_ENV
from repro.errors import ExecutionError
from repro.exec import (
    EstimateJob,
    ExecutionRuntime,
    NullCache,
    SerialBackend,
    ShardedBackend,
    SimulationJob,
    resolve_backend,
    simulate_batch,
)
from repro.exec.net import BackendUnavailable
from repro.exec.runtime import _CAP_WARNED, effective_pool_workers

from .conftest import simple_connectivity

_PRESETS = (
    "cache_4k_16b_1w",
    "cache_8k_32b_1w",
    "cache_8k_32b_2w",
    "cache_16k_32b_2w",
)


def _arch(mem_library, preset: str, name: str) -> MemoryArchitecture:
    cache = mem_library.get(preset).instantiate("cache")
    dram = mem_library.get("dram").instantiate()
    return MemoryArchitecture(name, [cache], dram, {}, "cache")


def _jobs(mem_library) -> list[SimulationJob]:
    return [
        SimulationJob(memory=_arch(mem_library, preset, f"m{i}"))
        for i, preset in enumerate(_PRESETS)
    ]


def _estimate_jobs(tiny_trace, mem_library, conn_library) -> list[EstimateJob]:
    jobs = []
    for i, preset in enumerate(_PRESETS):
        memory = _arch(mem_library, preset, f"e{i}")
        connectivity = simple_connectivity(memory, tiny_trace, conn_library)
        profile = simulate_batch(
            tiny_trace, [SimulationJob(memory=memory)], cache=NullCache()
        ).results[0]
        jobs.append(
            EstimateJob(
                memory=memory, connectivity=connectivity, profile=profile
            )
        )
    return jobs


class FlakyBackend(SerialBackend):
    """Dies with BackendUnavailable on its first N dispatches."""

    name = "flaky"

    def __init__(self, failures: int = 1) -> None:
        self.failures = failures
        self.calls = 0

    def _maybe_fail(self) -> None:
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendUnavailable("injected shard death")

    def run_groups(self, trace, groups):
        self._maybe_fail()
        return super().run_groups(trace, groups)

    def run_estimates(self, jobs):
        self._maybe_fail()
        return super().run_estimates(jobs)


class TestBackendEquivalence:
    def test_serial_backend_matches_engine(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=SerialBackend()
        )
        assert report.results == reference.results
        assert report.backend == "serial"
        assert report.bytes_sent == 0 and report.bytes_received == 0

    def test_serial_backend_groups_match(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=SerialBackend()
        )
        assert report.results == reference.results
        assert report.batch_groups == reference.batch_groups

    def test_pool_backend_matches_serial(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace,
                jobs,
                cache=NullCache(),
                backend=runtime,
            )
        assert report.results == reference.results
        assert report.backend == "pool"

    def test_sharded_merge_is_bit_identical(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        sharded = ShardedBackend([SerialBackend(), SerialBackend()])
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=sharded
        )
        assert report.results == reference.results
        assert report.backend == "sharded"
        assert report.retries == 0 and not report.degraded

    def test_sharded_estimates(
        self, tiny_trace, mem_library, conn_library
    ):
        jobs = _estimate_jobs(tiny_trace, mem_library, conn_library)
        serial = SerialBackend().run_estimates(jobs)
        sharded = ShardedBackend([SerialBackend(), SerialBackend()])
        assert sharded.run_estimates(jobs) == serial


class TestShardedFaults:
    def test_dead_shard_redispatches_to_survivor(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        sharded = ShardedBackend([SerialBackend(), FlakyBackend(failures=9)])
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=sharded
        )
        assert report.results == reference.results
        assert report.retries == 1
        assert not report.degraded
        assert sharded._alive == [True, False]

    def test_all_shards_dead_degrades_to_fallback(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        sharded = ShardedBackend(
            [FlakyBackend(failures=9), FlakyBackend(failures=9)]
        )
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=sharded
        )
        assert report.results == reference.results
        assert report.degraded

    def test_retry_budget_degrades(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        flaky = FlakyBackend(failures=9)
        sharded = ShardedBackend([flaky], max_retries=0)
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=sharded
        )
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        assert report.results == reference.results
        assert report.degraded

    def test_job_errors_are_not_faults(self, tiny_trace, mem_library):
        class BrokenJobBackend(SerialBackend):
            def run_groups(self, trace, groups):
                raise ValueError("job blew up")

        sharded = ShardedBackend([BrokenJobBackend(), SerialBackend()])
        with pytest.raises(ValueError, match="job blew up"):
            sharded.run_groups(tiny_trace, [_jobs(mem_library)])

    def test_needs_at_least_one_backend(self):
        with pytest.raises(ExecutionError):
            ShardedBackend([])


class TestResolveBackend:
    def test_unset_returns_none(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) is None

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("pool", workers=1), ExecutionRuntime)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutionError, match="unknown backend"):
            resolve_backend("quantum")

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_remote_requires_addresses(self, monkeypatch):
        monkeypatch.delenv(WORKER_ADDRS_ENV, raising=False)
        with pytest.raises(ExecutionError, match=WORKER_ADDRS_ENV):
            resolve_backend("remote")

    def test_remote_builds_sharded(self, monkeypatch):
        monkeypatch.setenv(
            WORKER_ADDRS_ENV, "127.0.0.1:1, 127.0.0.1:2"
        )
        backend = resolve_backend("remote")
        assert isinstance(backend, ShardedBackend)
        assert [b.address for b in backend.backends] == [
            "127.0.0.1:1",
            "127.0.0.1:2",
        ]

    def test_bad_env_name_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bogus")
        with pytest.raises(ExecutionError):
            resolve_backend(None)


class TestWorkerCap:
    def test_cap_applies_above_cpu_count(self):
        cap = os.cpu_count() or 1
        _CAP_WARNED.discard(os.getpid())
        with pytest.warns(RuntimeWarning, match="capping the pool"):
            assert effective_pool_workers(cap + 3) == cap

    def test_warning_fires_once_per_process(self):
        cap = os.cpu_count() or 1
        _CAP_WARNED.discard(os.getpid())
        with pytest.warns(RuntimeWarning):
            effective_pool_workers(cap + 3)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert effective_pool_workers(cap + 3) == cap  # silent now

    def test_within_cap_untouched(self):
        assert effective_pool_workers(1) == 1

    def test_dispatch_semantics_keep_requested_workers(
        self, tiny_trace, mem_library
    ):
        """The cap sizes the pool, not the report's worker accounting."""
        report = simulate_batch(
            tiny_trace, _jobs(mem_library), workers=4, cache=NullCache()
        )
        assert report.workers == 4
