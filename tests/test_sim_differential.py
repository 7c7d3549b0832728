"""Differential test: the fast path against the reference loop.

Hypothesis draws small random architectures from every registered
memory-module family — cache, SRAM, multi-port SRAM, stream buffer,
self-indirect and linked-list DMA — over a banked or multi-channel
DRAM, under ideal, AHB, mux or mesh connectivity, with sampling and
posted writes on or off. For each drawn memory, three drawn candidates
are simulated three ways: the scalar reference loop
(``run(reference=True)``), :meth:`Simulator.run` (a private one-member
group), and one three-member :func:`repro.sim.batch.evaluate_group`.
All three must agree bit for bit.

``--hypothesis-profile=deep`` (tests/conftest.py) runs the long version.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apex.architectures import MemoryArchitecture
from repro.channels import DRAM
from repro.config import current_settings, use_settings
from repro.connectivity.architecture import (
    ConnectivityArchitecture,
    build_cluster,
    cluster_ports,
)
from repro.connectivity.library import default_connectivity_library
from repro.exec import SimulationJob
from repro.memory.library import default_memory_library, module_types
from repro.sim.batch import TracePlan, evaluate_group
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import Simulator
from repro.trace.events import TraceBuilder

MEM_LIBRARY = default_memory_library()
CONN_LIBRARY = default_connectivity_library()

#: Presets per registered module family; ``None`` keeps a structure
#: uncached (routed straight to DRAM).
MODULE_PRESETS = {
    "cache": (
        "cache_4k_16b_1w",
        "cache_8k_32b_2w",
        "cache_16k_32b_4w",
        "cache_8k_32b_2w_wt",
    ),
    "sram": ("sram_8k", "sram_16k"),
    "multiport_sram": ("mp_sram_8k_2p", "mp_sram_8k_4p"),
    "stream_buffer": ("stream_buffer_2", "stream_buffer_8"),
    "self_indirect_dma": ("si_dma_16", "si_dma_32"),
    "linked_list_dma": ("ll_dma_32", "ll_dma_64"),
    "uncached": (None,),
}

#: Banked and multi-channel DRAM parts (both registered DRAM families).
DRAM_PRESETS = ("dram", "dram_4bank", "mcdram_2ch", "mcdram_4ch",
                "mcdram_2ch_block")

CONNECTIVITY_MODES = ("ideal", "ahb", "mux", "mesh")

#: Short windows relative to the 64–400-access traces: the first
#: crosses many on/off boundaries, the second's off spans are long
#: enough for the walk to fold them into slice sums.
SAMPLINGS = (
    None,
    SamplingConfig(on_window=32, off_ratio=3, warmup=8),
    SamplingConfig(on_window=16, off_ratio=5, warmup=4),
)


def test_every_module_family_is_drawn():
    families = {entry.name for entry in module_types()}
    dram_families = {"dram", "multichannel_dram"}
    assert families - dram_families == set(MODULE_PRESETS) - {"uncached"}
    for preset in DRAM_PRESETS:
        assert MEM_LIBRARY.get(preset).kind == "dram"


@st.composite
def _traces(draw):
    seed = draw(st.integers(min_value=0, max_value=1 << 20))
    n = draw(st.integers(min_value=64, max_value=400))
    max_gap = draw(st.integers(min_value=0, max_value=3))
    rng = np.random.default_rng(seed)
    builder = TraceBuilder(f"diff_{seed}_{n}_{max_gap}")
    # A cyclic pointer chain, so the DMA engines' prefetch and stable
    # pointer recovery fire on re-traversals.
    chain = [int(c) * 16 for c in rng.permutation(24)]
    cursor = 0
    for _ in range(n):
        choice = int(rng.integers(0, 5))
        if choice == 0:
            builder.read(chain[cursor % len(chain)], 4, "chain")
            cursor += 1
        elif choice == 1:
            builder.read(int(rng.integers(0, 1 << 9)) * 4, 4, "stream")
        elif choice == 2:
            builder.write(int(rng.integers(0, 1 << 12)), 8, "table")
        elif choice == 3:
            builder.read(
                int(rng.integers(0, 1 << 12)),
                int(rng.choice([1, 2, 4, 8])),
                "table",
            )
        else:
            builder.read(int(rng.integers(0, 64)) * 4, 4, "coeffs")
        if max_gap:
            builder.compute(int(rng.integers(0, max_gap + 1)))
    return builder.build()


@st.composite
def _memories(draw, trace):
    modules = []
    mapping = {}
    preset_lists = list(MODULE_PRESETS.values())
    for index, struct in enumerate(trace.structs):
        preset = draw(st.sampled_from(draw(st.sampled_from(preset_lists))))
        if preset is None:
            continue
        name = f"m{index}"
        modules.append(MEM_LIBRARY.get(preset).instantiate(name))
        mapping[struct] = name
    dram = MEM_LIBRARY.get(draw(st.sampled_from(DRAM_PRESETS))).instantiate()
    return MemoryArchitecture("diff", modules, dram, mapping, DRAM)


def _on_chip_clusters(channels, preset, memory):
    """``channels`` on one ``preset`` component, split where ports run out.

    A multi-port SRAM takes one component port per access port, so a
    shared component (or a single mux) can be too small for it.
    """
    component = CONN_LIBRARY.get(preset).instantiate()
    cluster = build_cluster(channels, preset, component)
    if cluster_ports(cluster.endpoints, memory) <= component.max_ports:
        return [cluster]
    if len(channels) == 1:
        return _on_chip_clusters(channels, "ahb", memory)
    return [
        split
        for channel in channels
        for split in _on_chip_clusters([channel], preset, memory)
    ]


def _connectivity(memory, trace, mode, offchip):
    if mode == "ideal":
        return None
    channels = memory.channels(trace)
    on_chip = [c for c in channels if not c.crosses_chip]
    crossing = [c for c in channels if c.crosses_chip]
    clusters = []
    if mode == "mux":
        for channel in on_chip:
            clusters.extend(_on_chip_clusters([channel], "mux", memory))
    elif on_chip:
        preset = "ahb" if mode == "ahb" else "mesh_4x4"
        clusters.extend(_on_chip_clusters(on_chip, preset, memory))
    if crossing:
        component = CONN_LIBRARY.get(offchip).instantiate()
        clusters.append(build_cluster(crossing, offchip, component))
    return ConnectivityArchitecture(mode, clusters)


@st.composite
def _cases(draw):
    trace = draw(_traces())
    memory = draw(_memories(trace))
    jobs = [
        SimulationJob(
            memory=memory,
            connectivity=_connectivity(
                memory,
                trace,
                draw(st.sampled_from(CONNECTIVITY_MODES)),
                draw(st.sampled_from(("offchip_16", "offchip_32"))),
            ),
            sampling=draw(st.sampled_from(SAMPLINGS)),
            posted_writes=draw(st.booleans()),
        )
        for _ in range(3)
    ]
    return trace, jobs


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
def test_fast_paths_match_reference(case):
    trace, jobs = case
    simulators = [
        Simulator(
            trace,
            job.memory,
            job.connectivity,
            job.sampling,
            job.posted_writes,
        )
        for job in jobs
    ]
    references = [sim.run(reference=True) for sim in simulators]
    assert [sim.run(reference=False) for sim in simulators] == references
    # The fast path even where the environment asks for the reference.
    with use_settings(replace(current_settings(), reference_sim=False)):
        results, delta_candidates = evaluate_group(
            trace, jobs, plan=TracePlan(trace)
        )
    assert delta_candidates == len(jobs)
    assert results == references
