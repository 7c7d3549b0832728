"""The service-warm workload: one daemon, two closed-loop tenants.

Each tenant is one client thread that submits its next ``explore`` job
only after it has fetched the previous result (a closed loop: service
callers submit and wait). Jobs come from a seeded sequence over
compress, spmv and vocoder with select in {3, 5, 7} and keep in
{4, 8, 12}. Each tenant explores two traces of its own, so the mix
spans twelve distinct traces, more than the four the trace-plan
registry keeps. Before the timed window each tenant warms its cache
with an ``apex`` job per trace and workload, so a timed job's APEX
stage is served from the cache and Phase I is what it pays for.
"""

from __future__ import annotations

import hashlib
import json
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from common import BENCH_DIR, OUT, ROOT, SERVICE_SCALE, child_env

WORKLOADS = ("compress", "spmv", "vocoder")
SELECTS = (3, 5, 7)
KEEPS = (4, 8, 12)
#: The spec ``repro explore`` runs by default; its results are checked
#: against the CLI's own ``--json`` rows.
REFERENCE_SELECT, REFERENCE_KEEP = 5, 8
TENANTS = ("tenant-a", "tenant-b")
#: One block of jobs: every (workload, select) pair once, ordered so
#: that consecutive jobs differ in both.
BLOCK = tuple(
    (WORKLOADS[w], SELECTS[s])
    for w, s in ((0, 0), (1, 1), (2, 2), (1, 0), (2, 1), (0, 2),
                 (2, 0), (0, 1), (1, 2))
)
#: Seconds one job may take from submit to result before it counts as
#: timed out (failed).
JOB_TIMEOUT = 120.0
STARTUP_TIMEOUT = 60.0


def tenant_seeds(seed: int, index: int) -> tuple[int, int]:
    """The two trace seeds of tenant ``index`` under workload ``seed``.

    Each tenant explores traces of its own. Two traces per tenant keep
    a run's cost near the average: Phase I's cost depends on the trace
    (spmv jumps from ~1800 to ~3000 estimates on about a third of its
    seeds).
    """
    first = (seed * len(TENANTS) + index) * 2
    return first, first + 1


def spec_key(spec: dict) -> str:
    """A job spec's identity: equal keys must give equal results."""
    return (
        f"{spec['kind']}:{spec['workload']}@{spec['scale']}#{spec['seed']}"
        f"/s{spec['select']}k{spec['keep']}"
    )


def job_spec(
    workload: str, trace_seed: int, select: int, keep: int,
    kind: str = "explore",
) -> dict:
    return {
        "kind": kind,
        "workload": workload,
        "scale": SERVICE_SCALE,
        "seed": trace_seed,
        "select": select,
        "keep": keep,
    }


def job_sequence(seed: int, index: int, length: int) -> list[dict]:
    """Tenant ``index``'s first ``length`` jobs under ``seed``.

    The sequence opens with the reference job of every workload on the
    tenant's first trace, so every run checks results against the
    CLI's, then repeats :data:`BLOCK`, which holds every (workload,
    select) pair once. The seed picks the traces (through their seeds),
    which trace each job explores, and keep, assigned per block as a
    Latin square so each keep appears three times. The order of job
    kinds is fixed: a job's cost depends mostly on workload and select,
    so with a fixed order a timed window holds the same mix under every
    seed. The second tenant runs the same order from another offset, so
    the two tenants' jobs differ at any moment.
    """
    rng = random.Random(seed * 1_000_003 + index)
    traces = tenant_seeds(seed, index)
    offset = index * len(BLOCK) // len(TENANTS)
    order = BLOCK[offset:] + BLOCK[:offset]
    jobs = [
        job_spec(workload, traces[0], REFERENCE_SELECT, REFERENCE_KEEP)
        for workload in WORKLOADS[index:] + WORKLOADS[:index]
    ]
    while len(jobs) < length:
        keep_shift = rng.randrange(len(KEEPS))
        trace_shift = rng.randrange(len(traces))
        for position, (workload, select) in enumerate(order):
            keep = KEEPS[(WORKLOADS.index(workload) + SELECTS.index(select)
                          + keep_shift) % len(KEEPS)]
            trace = traces[(position + trace_shift) % len(traces)]
            jobs.append(job_spec(workload, trace, select, keep))
    return jobs[:length]


def warmup_jobs(seed: int) -> list[tuple[str, dict]]:
    """(tenant, spec) pairs run untimed before the window.

    An ``apex`` job per tenant, trace and workload fills each tenant's
    cache. The second tenant also repeats one of the first tenant's
    jobs, so results are compared across tenant cache namespaces.
    """
    jobs = [
        (tenant, job_spec(workload, trace_seed, REFERENCE_SELECT,
                          REFERENCE_KEEP, kind="apex"))
        for index, tenant in enumerate(TENANTS)
        for trace_seed in tenant_seeds(seed, index)
        for workload in WORKLOADS
    ]
    # The cheapest job to repeat: APEX on vocoder evaluates 48 candidates.
    cross = next(spec for _, spec in jobs if spec["workload"] == "vocoder")
    jobs.append((TENANTS[1], cross))
    return jobs


def reference_specs(seed: int) -> list[dict]:
    """The explore jobs every run checks against ``repro explore --json``:
    the reference spec of each workload on each tenant's first trace."""
    return [
        job_spec(workload, tenant_seeds(seed, index)[0],
                 REFERENCE_SELECT, REFERENCE_KEEP)
        for index in range(len(TENANTS))
        for workload in WORKLOADS
    ]


def cli_reference_rows(seed: int) -> dict[str, list]:
    """``repro explore --json`` rows of every reference spec.

    Computed in a separate process and kept under the benchmark's output
    directory, keyed by the specs, since the same code gives the same rows.
    """
    specs = [json.dumps(spec, sort_keys=True) for spec in reference_specs(seed)]
    name = hashlib.sha256("\n".join(specs).encode()).hexdigest()[:16]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"cli-rows-{name}.json"
    if not path.exists():
        partial = path.with_suffix(".partial")
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "cli_reference.py"), str(partial)]
            + specs,
            check=True, env=child_env(), cwd=ROOT, timeout=150,
            stdout=subprocess.DEVNULL,
        )
        partial.replace(path)
    return json.loads(path.read_text())


class Daemon:
    """A ``repro serve`` daemon started through ``launcher.py``."""

    def __init__(self, traced: bool, tag: str) -> None:
        OUT.mkdir(exist_ok=True)
        self.out = OUT / f"daemon-{tag}.json"
        self.out.unlink(missing_ok=True)
        self._log = open(OUT / f"daemon-{tag}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py"),
             "1" if traced else "0", str(self.out)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=child_env(), cwd=ROOT,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.url = self._await_address()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_address(self) -> str:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("daemon did not report its address")
            if line.startswith("serving on "):
                return "http://" + line.split("serving on ", 1)[1].strip()

    def wait_healthy(self, client) -> None:
        from repro.errors import ServiceError

        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            try:
                client.health()
                return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> dict:
        """Drain (SIGTERM), wait for exit, return what the launcher wrote."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()
        if not self.out.exists():
            return {}
        return json.loads(self.out.read_text())


@dataclass
class JobRecord:
    tenant: str
    index: int
    spec: dict
    latency: float = 0.0
    job_id: str = ""
    created: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    result: dict | None = None
    error: str | None = None
    rejected: bool = False

    @property
    def run_s(self) -> float:
        return self.finished - self.started


def run_job(client, tenant: str, index: int, spec: dict) -> JobRecord:
    """Submit one job, wait for it, fetch its result.

    Never raises: a refused, failed or timed-out job, or a client error,
    is recorded in the returned record's ``error``.
    """
    from repro.errors import ServiceError

    record = JobRecord(tenant, index, spec)
    start = time.perf_counter()
    try:
        job = client.submit(spec)
        record.job_id = job["id"]
        final = client.wait(job["id"], timeout=JOB_TIMEOUT)
        if final["state"] != "done":
            record.error = f"job {final['state']}: {final.get('error')}"
            return record
        record.result = client.result(job["id"])["result"]
        record.latency = time.perf_counter() - start
        record.created = final["created"]
        record.started = final["started"]
        record.finished = final["finished"]
    except ServiceError as error:
        record.error = str(error)
        record.rejected = error.status in (429, 503)
    except Exception as error:  # a client thread must count, not lose, it
        record.error = f"{type(error).__name__}: {error}"
    return record


def warm_up(url: str, seed: int) -> list[JobRecord]:
    """Run the warm-up jobs, one tenant after the other."""
    from repro.service.client import ServiceClient

    clients = {t: ServiceClient(url, tenant=t, timeout=30) for t in TENANTS}
    return [
        run_job(clients[tenant], tenant, -1 - n, spec)
        for n, (tenant, spec) in enumerate(warmup_jobs(seed))
    ]


def closed_loop(url: str, seed: int, seconds: float) -> tuple[list[JobRecord], float]:
    """Both tenants submit back to back until ``seconds`` have passed.

    Returns every job started in the window and the seconds from the
    window's start to the last job's result.
    """
    from repro.service.client import ServiceClient

    records: list[JobRecord] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    last = start

    def tenant_loop(index: int) -> None:
        nonlocal last
        tenant = TENANTS[index]
        client = ServiceClient(url, tenant=tenant, timeout=30)
        # More jobs than any window can hold at the cheapest job cost.
        for n, spec in enumerate(job_sequence(seed, index, 4 * int(seconds) + 16)):
            if time.perf_counter() >= deadline:
                break
            record = run_job(client, tenant, n, spec)
            with lock:
                records.append(record)
                last = max(last, time.perf_counter())

    threads = [
        threading.Thread(target=tenant_loop, args=(i,), daemon=True)
        for i in range(len(TENANTS))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + JOB_TIMEOUT + 30)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a tenant client did not finish")
    return records, last - start
