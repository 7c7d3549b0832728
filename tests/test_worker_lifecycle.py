"""Worker lifecycle: leak bounds, graceful drain, and frame limits.

These pin the long-lived-worker fixes: connection threads are reaped
(not accumulated forever), the in-memory trace/blob stores are
byte-capped LRUs, ``stop(drain_timeout=...)`` joins connection
threads, an oversized length header is rejected before allocation,
and bracketed IPv6 addresses parse. The soak test drives hundreds of
sequential connections and asserts every bound holds.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro import obs
from repro.errors import ExecutionError
from repro.exec import RemoteBackend, SimulationJob
from repro.exec import net
from repro.exec.cache import CacheClient
from repro.exec.worker import ByteLRU, WorkerServer


class TestByteLRU:
    def test_put_get_roundtrip(self):
        lru = ByteLRU(100)
        lru.put("a", "alpha", 10)
        assert lru.get("a") == "alpha"
        assert lru.get("missing") is None
        assert lru.total_bytes == 10
        assert len(lru) == 1

    def test_evicts_least_recently_used_first(self):
        lru = ByteLRU(30)
        lru.put("a", "A", 10)
        lru.put("b", "B", 10)
        lru.put("c", "C", 10)
        lru.get("a")  # refresh: "b" is now the LRU entry
        lru.put("d", "D", 10)
        assert "b" not in lru
        assert all(key in lru for key in ("a", "c", "d"))
        assert lru.evictions == 1
        assert lru.total_bytes == 30

    def test_replacing_a_key_adjusts_accounting(self):
        lru = ByteLRU(100)
        lru.put("a", "v1", 40)
        lru.put("a", "v2", 10)
        assert lru.total_bytes == 10
        assert lru.get("a") == "v2"

    def test_oversized_entry_survives_its_own_put(self):
        lru = ByteLRU(10)
        lru.put("big", "payload", 50)
        assert lru.get("big") == "payload"  # served at least once
        lru.put("next", "x", 5)
        assert "big" not in lru  # displaced by the next insert
        assert lru.total_bytes == 5

    def test_cap_holds_under_churn(self):
        lru = ByteLRU(1000)
        for i in range(500):
            lru.put(i, i, 100)
            assert lru.total_bytes <= 1000
        assert len(lru) == 10
        assert lru.evictions == 490

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            ByteLRU(0)


class TestParseAddress:
    def test_bracketed_ipv6(self):
        assert net.parse_address("[::1]:9000") == ("::1", 9000)
        assert net.parse_address("[fe80::2%eth0]:80") == ("fe80::2%eth0", 80)

    def test_plain_ipv4_still_works(self):
        assert net.parse_address("10.0.0.1:7000") == ("10.0.0.1", 7000)
        assert net.parse_address("worker-3.local:9000") == (
            "worker-3.local",
            9000,
        )

    def test_unbracketed_ipv6_is_rejected(self):
        with pytest.raises(ExecutionError, match="brackets"):
            net.parse_address("::1:9000")

    def test_empty_bracket_host_is_rejected(self):
        with pytest.raises(ExecutionError, match="empty IPv6 host"):
            net.parse_address("[]:9000")

    def test_missing_port_is_rejected(self):
        with pytest.raises(ExecutionError):
            net.parse_address("[::1]")


class TestFrameLimit:
    def test_oversized_header_is_rejected_before_allocation(self):
        ours, theirs = socket.socketpair()
        try:
            connection = net.Connection(ours, max_frame=1024)
            # A hostile/garbage header declaring a ~3 GiB frame. recv()
            # must fail on the header alone — the payload is never sent.
            theirs.sendall(struct.pack("!BI", net.MSG_PING, 3 << 30))
            with pytest.raises(net.BackendUnavailable, match="max 1024"):
                connection.recv()
        finally:
            ours.close()
            theirs.close()

    def test_frames_within_the_cap_pass(self):
        ours, theirs = socket.socketpair()
        try:
            connection = net.Connection(ours, max_frame=1024)
            theirs.sendall(struct.pack("!BI", net.MSG_PING, 3) + b"abc")
            frame = connection.recv()
            assert frame.kind == net.MSG_PING
            assert frame.payload == b"abc"
        finally:
            ours.close()
            theirs.close()

    def test_default_cap_comes_from_settings(self):
        ours, theirs = socket.socketpair()
        try:
            assert net.Connection(ours).max_frame == net.max_frame_bytes()
        finally:
            ours.close()
            theirs.close()


class TestWorkerDrain:
    def test_stop_without_drain_keeps_legacy_behaviour(self):
        server = WorkerServer()
        server.start()
        assert server.stop() in (True, False)  # non-blocking, no join

    def test_drain_joins_idle_connections(self):
        server = WorkerServer()
        server.start()
        client = CacheClient(server.address)
        client.put("digest", b"blob")  # open a live, then-idle connection
        assert server.live_threads >= 1
        # The connection stays parked in recv(); drain must close it
        # out from under the thread and come back clean.
        assert server.stop(drain_timeout=5.0)
        assert server.live_threads == 0
        client.close()

    def test_drain_lets_inflight_request_finish(self, tiny_trace, mem_library):
        server = WorkerServer()
        server.start()
        cache = mem_library.get("cache_8k_32b_2w").instantiate("cache")
        dram = mem_library.get("dram").instantiate()
        from repro.apex.architectures import MemoryArchitecture

        arch = MemoryArchitecture("m", [cache], dram, {}, "cache")
        jobs = [SimulationJob(memory=arch)] * 4
        backend = RemoteBackend(server.address)
        results: list = []

        def run() -> None:
            results.append(backend.run_groups(tiny_trace, [jobs]))

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.05)  # let the batch reach the worker
        assert server.stop(drain_timeout=10.0)
        thread.join(timeout=10.0)
        backend.close()
        # The in-flight batch completed its reply during the drain.
        assert len(results) == 1 and len(results[0][0][0]) == 4

    def test_threads_are_reaped_not_accumulated(self):
        server = WorkerServer()
        server.start()
        try:
            for _ in range(80):
                client = CacheClient(server.address)
                client.get("digest")
                client.close()
            deadline = time.monotonic() + 5.0
            while server.live_threads > 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            # Dead Thread objects must not pile up connection after
            # connection (the pre-fix behaviour kept all 80 forever).
            assert server.live_threads <= 2
            assert server.connections_served == 80
        finally:
            server.stop(drain_timeout=2.0)

    def test_blob_store_honours_byte_cap(self):
        server = WorkerServer()
        server._blobs = ByteLRU(64 * 1024)  # 64 KiB cap for the test
        server.start()
        try:
            client = CacheClient(server.address)
            blob = b"x" * 8192
            for i in range(64):  # 512 KiB pushed through a 64 KiB cap
                client.put(f"digest{i}", blob)
            client.close()
            assert server._blobs.total_bytes <= 64 * 1024
            assert server._blobs.evictions > 0
            assert len(server._blobs) <= 8
        finally:
            server.stop(drain_timeout=2.0)

    def test_evicted_trace_is_repushed_transparently(
        self, tiny_trace, mem_library
    ):
        server = WorkerServer()
        server.start()
        from repro.apex.architectures import MemoryArchitecture

        cache = mem_library.get("cache_4k_16b_1w").instantiate("cache")
        dram = mem_library.get("dram").instantiate()
        jobs = [
            SimulationJob(
                memory=MemoryArchitecture("m", [cache], dram, {}, "cache")
            )
        ]
        try:
            with RemoteBackend(server.address) as backend:
                first = backend.run_groups(tiny_trace, [jobs])
                # Simulate store pressure: the worker forgets the trace.
                server._traces = ByteLRU(server._traces.max_bytes)
                counters = obs.snapshot().counters
                before = counters.get("backend.trace_repushes", 0)
                second = backend.run_groups(tiny_trace, [jobs])
                assert second == first
                if obs.enabled():
                    after = obs.snapshot().counters["backend.trace_repushes"]
                    assert after == before + 1
        finally:
            server.stop(drain_timeout=2.0)


class TestSoak:
    def test_hundreds_of_connections_stay_bounded(self):
        """The leak reproducer: sequential clients against one worker.

        Before the fixes, every connection left a Thread object in
        ``_threads`` and every blob grew ``_blobs`` without bound.
        """
        server = WorkerServer()
        server._blobs = ByteLRU(256 * 1024)
        server.start()
        try:
            blob = b"y" * 4096
            for i in range(300):
                client = CacheClient(server.address)
                client.put(f"soak{i}", blob)
                assert client.get(f"soak{i}") == blob
                client.close()
            assert server.connections_served == 300
            assert server.requests_served >= 600
            deadline = time.monotonic() + 5.0
            while server.live_threads > 4 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server.live_threads <= 4
            assert len(server._threads) <= 64  # reap threshold + slack
            assert server._blobs.total_bytes <= 256 * 1024
        finally:
            assert server.stop(drain_timeout=5.0)
