"""Equivalence and integration tests for the new component families.

PR 10 adds multi-channel DRAM, multi-port SRAM, the 2D mesh, and the
SpMV workload. The same exactness contract that protects the original
families applies here: the columnar kernel, the DMA replay pass, and
the cross-candidate batch evaluator must all be bit-identical to the
scalar reference on architectures using the new modules, and ConEx
must enumerate the mesh (with port-aware feasibility) like any other
library preset.
"""

from __future__ import annotations

import functools
import itertools

import pytest

from repro.channels import CPU, DRAM, Channel
from repro.conex.allocation import compatible_presets
from repro.conex.clustering import LogicalConnection
from repro.connectivity.architecture import (
    ConnectivityArchitecture,
    build_cluster,
    cluster_ports,
)
from repro.connectivity.library import default_connectivity_library
from repro.connectivity.mesh import MeshConnection
from repro.exec import NullCache, SimulationJob, simulate_batch
from repro.memory.library import default_memory_library, mixed_architecture
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import simulate
from repro.workloads import get_workload

MEM_LIBRARY = default_memory_library()
CONN_LIBRARY = default_connectivity_library()

SAMPLING = SamplingConfig(on_window=256, off_ratio=9, warmup=32)

#: Every multi-channel flavour plus the banked baseline it generalizes.
DRAM_PRESETS = ("dram_4bank", "mcdram_2ch", "mcdram_4ch", "mcdram_2ch_block")


@functools.lru_cache(maxsize=None)
def _trace(workload: str):
    scale = 0.4 if workload == "spmv" else 0.12
    return get_workload(workload, scale=scale, seed=7).trace()


@functools.lru_cache(maxsize=None)
def _architecture(workload: str, dram_preset: str):
    return mixed_architecture(
        _trace(workload),
        MEM_LIBRARY,
        sram_preset="mp_sram_8k_2p",
        dram_preset=dram_preset,
    )


def _connectivity(memory, trace, mode: str):
    if mode == "ideal":
        return None
    channels = memory.channels(trace)
    on_chip = [c for c in channels if not c.crosses_chip]
    crossing = [c for c in channels if c.crosses_chip]
    clusters = []
    if on_chip:
        # mesh_4x4 has 16 router ports, enough for the multi-port SRAM.
        preset = CONN_LIBRARY.get("mesh_4x4")
        clusters.append(build_cluster(on_chip, "mesh_4x4", preset.instantiate()))
    if crossing:
        preset = CONN_LIBRARY.get("offchip_16")
        clusters.append(
            build_cluster(crossing, "offchip_16", preset.instantiate())
        )
    return ConnectivityArchitecture(mode, clusters)


GRID = list(
    itertools.product(
        DRAM_PRESETS, ("unsampled", "sampled"), ("ideal", "mesh")
    )
)


@pytest.mark.parametrize("dram_preset,sampling_mode,conn_mode", GRID)
def test_kernel_matches_reference_on_new_families(
    dram_preset, sampling_mode, conn_mode
):
    trace = _trace("spmv")
    memory = _architecture("spmv", dram_preset)
    connectivity = _connectivity(memory, trace, conn_mode)
    sampling = SAMPLING if sampling_mode == "sampled" else None
    posted = sampling_mode == "sampled"  # cross posted writes in too
    reference = simulate(
        trace, memory, connectivity, sampling, posted, reference=True
    )
    kernel = simulate(
        trace, memory, connectivity, sampling, posted, reference=False
    )
    assert kernel == reference


@pytest.mark.parametrize("workload", ["spmv", "compress"])
def test_simulate_batch_matches_independent_runs(workload):
    trace = _trace(workload)
    jobs = [
        SimulationJob(
            memory=_architecture(workload, dram_preset),
            connectivity=_connectivity(
                _architecture(workload, dram_preset), trace, mode
            ),
            sampling=SAMPLING if mode == "mesh" else None,
        )
        for dram_preset in DRAM_PRESETS
        for mode in ("ideal", "mesh")
    ]
    report = simulate_batch(trace, jobs, workers=1, cache=NullCache())
    assert len(report.results) == len(jobs)
    for job, result in zip(jobs, report.results):
        independent = simulate(
            trace, job.memory, job.connectivity, job.sampling, False
        )
        assert result == independent
        reference = simulate(
            trace,
            job.memory,
            job.connectivity,
            job.sampling,
            False,
            reference=True,
        )
        assert result == reference


def test_spmv_latency_improves_with_channels():
    """More DRAM channels must not slow SpMV down (and 4ch must win)."""
    trace = _trace("spmv")
    cycles = [
        simulate(
            trace, _architecture("spmv", preset), None, None, True
        ).total_cycles
        for preset in ("dram", "mcdram_2ch", "mcdram_4ch")
    ]
    assert cycles[0] >= cycles[1] >= cycles[2]
    assert cycles[2] < cycles[0]


def test_mesh_presets_enumerated_by_conex():
    channels = (
        Channel(CPU, "a"),
        Channel(CPU, "b"),
        Channel("a", "b"),
    )
    cluster = LogicalConnection(
        channels=channels, bandwidth=1.0, crosses_chip=False
    )
    names = {p.name for p in compatible_presets(cluster, CONN_LIBRARY)}
    assert {"mesh_2x2", "mesh_4x4"} <= names


def test_port_accounting_weights_multiport_modules():
    """A 4-port SRAM consumes four component ports, not one."""
    trace = _trace("spmv")
    memory = mixed_architecture(
        trace, MEM_LIBRARY, sram_preset="mp_sram_8k_4p"
    )
    # cpu + sram: one CPU port plus the SRAM's four access ports.
    assert cluster_ports((CPU, "sram"), memory) == 5
    assert cluster_ports((CPU, "sram"), None) == 2

    cluster = LogicalConnection(
        channels=(Channel(CPU, "sram"),), bandwidth=1.0, crosses_chip=False
    )
    unaware = {p.name for p in compatible_presets(cluster, CONN_LIBRARY)}
    aware = {
        p.name for p in compatible_presets(cluster, CONN_LIBRARY, memory)
    }
    assert aware < unaware  # port demand strictly shrinks the pool
    assert "dedicated" in unaware and "dedicated" not in aware
    assert "mesh_2x2" in unaware and "mesh_2x2" not in aware  # 4 < 5 ports
    assert "mesh_4x4" in aware  # 16 router ports still fit


def test_mesh_hop_model():
    mesh = MeshConnection("m", rows=2, cols=2)
    timing = mesh.timing(64)
    assert timing.latency >= 1
    assert mesh.max_ports == 4
    wider = MeshConnection("m", rows=4, cols=4)
    # Mean XY distance grows with the grid, so so does the latency.
    assert wider.timing(64).latency > timing.latency
