"""Shared fixtures: small traces, libraries, and simple architectures."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.apex.architectures import MemoryArchitecture
from repro.channels import Channel
from repro.connectivity.architecture import (
    ConnectivityArchitecture,
    build_cluster,
)
from repro.connectivity.library import default_connectivity_library
from repro.memory.library import default_memory_library
from repro.trace.events import TraceBuilder
from repro.workloads import get_workload

# ``--hypothesis-profile=deep``: the long differential runs (e.g. the
# pareto filter against its all-pairs oracle in CI).
settings.register_profile("deep", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def mem_library():
    return default_memory_library()


@pytest.fixture(scope="session")
def conn_library():
    return default_connectivity_library()


@pytest.fixture(scope="session")
def compress_workload():
    return get_workload("compress", scale=0.12, seed=7)


@pytest.fixture(scope="session")
def compress_trace(compress_workload):
    return compress_workload.trace()


@pytest.fixture(scope="session")
def vocoder_workload():
    return get_workload("vocoder", scale=0.5, seed=7)


@pytest.fixture(scope="session")
def vocoder_trace(vocoder_workload):
    return vocoder_workload.trace()


@pytest.fixture
def tiny_trace():
    """A deterministic hand-built trace over two structures."""
    builder = TraceBuilder("tiny")
    base_a, base_b = 0x1000, 0x8000
    for i in range(64):
        builder.read(base_a + 4 * i, 4, "stream")
        builder.compute(2)
        builder.write(base_b + 8 * (i % 8), 8, "table")
    return builder.build()


@pytest.fixture
def cache_architecture(mem_library):
    """A traditional cache-only memory architecture."""
    cache = mem_library.get("cache_8k_32b_2w").instantiate("cache")
    dram = mem_library.get("dram").instantiate()
    return MemoryArchitecture(
        "cache_only", [cache], dram, {}, default_module="cache"
    )


def simple_connectivity(memory, trace, conn_library, cpu_preset="ahb"):
    """One on-chip component for all CPU channels + one off-chip bus."""
    channels = memory.channels(trace)
    on_chip = [c for c in channels if not c.crosses_chip]
    crossing = [c for c in channels if c.crosses_chip]
    clusters = []
    if on_chip:
        preset = conn_library.get(cpu_preset)
        clusters.append(build_cluster(on_chip, cpu_preset, preset.instantiate()))
    if crossing:
        preset = conn_library.get("offchip_16")
        clusters.append(
            build_cluster(crossing, "offchip_16", preset.instantiate())
        )
    return ConnectivityArchitecture("simple", clusters)


@pytest.fixture
def cache_connectivity(cache_architecture, tiny_trace, conn_library):
    return simple_connectivity(cache_architecture, tiny_trace, conn_library)


@pytest.fixture
def cpu_dram_channel():
    return Channel("cpu", "dram")
