"""Column folds of the fast-path simulation.

:meth:`repro.sim.simulator.Simulator.run` and the batch evaluator
(:func:`repro.sim.batch.evaluate_group`) share one route: a
:class:`~repro.sim.batch.GroupPlan` advances every module over its whole
access subsequence once (one ``access_many`` call per batch-capable
module, one symbolic ``record_replay`` recording per tick-affine DMA
engine) and runs one merged
:meth:`~repro.memory.dram.Dram.open_row_latencies` pass over the run's
DRAM transactions; :func:`~repro.sim.batch._member_columns` adds the
candidate's connectivity-priced transfer columns
(:func:`repro.timing.batch.transfer_timing_columns`). ``run()`` is a
private one-member group. What happens next depends on the member:

* **Vector fold** (:func:`_evaluate_columns`) — ideal connectivity and
  no replay module. No access ever touches a shared timeline, so
  latency, ``lag``, per-struct statistics and the energy accounting all
  reduce to vector arithmetic, sampled or not.
* **The walk** (:func:`repro.sim.batch._replay_pass`) — a connectivity
  architecture or a replay module. Contention (arbitration waits,
  ``cluster_free``/``dram_free`` timelines, busy cycles) and DMA stalls
  are serial, so one lean integer loop replays the reference recurrence
  over the precomputed columns, summing long off-window spans free of
  replay rows as vector slices (:func:`_fold_span`).

Both end in :func:`_fold_measured`. A module that neither batches nor
replays (only user extensions) sends the run to the reference loop.

Because measured windows are a subset of on windows, off-window spans
never touch the energy or latency statistics; where energy *is*
accumulated columnar, the vector expressions replicate the reference
loop's float accumulation order term by term (``np.cumsum`` is a
sequential left fold, and adding an exact ``0.0`` is the identity), so
equality with the reference loop is exact rather than approximate. The
golden-equivalence suite (``tests/test_sim_kernel_equivalence.py``)
asserts it across workloads, sampling, write models, and connectivity
modes.

Setting the environment variable :data:`REFERENCE_ENV`
(``REPRO_REFERENCE_SIM=1``) forces the reference loop everywhere — the
debugging escape hatch when bisecting a suspected kernel divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import REFERENCE_SIM_ENV, current_settings
from repro.errors import SimulationError
from repro.memory.energy import (
    DRAM_ACTIVATE_NJ,
    DRAM_PAGE_ACCESS_NJ,
    DRAM_PER_BYTE_NJ,
)
from repro.trace.events import AccessKind

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.sim.batch import GroupPlan
    from repro.sim.simulator import Simulator, _ChannelState, _RunState

#: Environment variable forcing the scalar reference loop.
REFERENCE_ENV = REFERENCE_SIM_ENV

_WRITE_CODE = int(AccessKind.WRITE)


def reference_requested() -> bool:
    """Has the environment opted out of the kernel?"""
    return current_settings().reference_sim


# -- run plan ---------------------------------------------------------------


@dataclass
class _Group:
    """Batched evaluation context for one routing target."""

    target: str
    module: object  # MemoryModule | None for direct-DRAM routes
    cpu_state: "_ChannelState"
    backing_state: "_ChannelState | None"
    batchable: bool


class _Columns:
    """One member's connectivity-priced whole-run columns.

    The memory-determined columns live on the group plan; these follow
    the member's transfer timing.
    """

    __slots__ = ("serve", "occ", "dbeats", "docc", "bgocc", "u_partial")


def _build_groups(sim: "Simulator") -> tuple[list[_Group], np.ndarray]:
    """One :class:`_Group` per routing target, plus the struct → gid map.

    Returns ``(groups, struct_group)``, the array indexed by struct id.
    """
    channels = sim._channels
    groups: list[_Group] = []
    index_of: dict[str, int] = {}
    struct_group = np.empty(len(sim._routes), dtype=np.int64)
    for struct_id, route in enumerate(sim._routes):
        gid = index_of.get(route.target)
        if gid is None:
            gid = len(groups)
            index_of[route.target] = gid
            module = route.module
            batchable = module is None or bool(
                getattr(type(module), "supports_batch", False)
            )
            groups.append(
                _Group(
                    target=route.target,
                    module=module,
                    cpu_state=channels[route.cpu_channel],
                    backing_state=(
                        channels[route.backing_channel]
                        if route.backing_channel >= 0
                        else None
                    ),
                    batchable=batchable,
                )
            )
        struct_group[struct_id] = gid
    return groups, struct_group


def _offpath_bytes(outcome) -> np.ndarray | None:
    """A batch outcome's off-critical-path column: writeback + prefetch."""
    writeback = outcome.writeback_bytes
    prefetch = outcome.prefetch_bytes
    if writeback is None:
        return prefetch
    if prefetch is None:
        return writeback
    return writeback + prefetch


def _openrow_core(
    sim: "Simulator", dram_mask: np.ndarray
) -> tuple[np.ndarray, int]:
    """The merged open-row pass: per-access DRAM core latency column.

    Each access produces at most one DRAM transaction (an uncached
    access or a refill), and background bursts never touch row state,
    so the run's DRAM stream is exactly the masked rows in trace order.
    Returns ``(core, transaction_count)``. The column depends only on
    the address column and the (memory-determined) transaction mask, so
    one pass serves every member of a candidate group.
    """
    core = np.zeros(len(dram_mask), dtype=np.int64)
    dram_idx = np.flatnonzero(dram_mask)
    if len(dram_idx):
        core[dram_idx] = sim.memory.dram.open_row_latencies(
            sim.trace.addresses[dram_idx]
        )
    return core, int(len(dram_idx))


def _evaluate_columns(
    sim: "Simulator",
    state: "_RunState",
    groups: list[_Group],
    gplan: "GroupPlan",
    cols: _Columns,
    counted: np.ndarray | None,
    measured: int,
) -> None:
    """The vector fold: a member with ideal connectivity, no replay rows.

    No channel has a component, so the reference loop never touches
    ``cluster_free``/``dram_free`` or the wait/busy counters — on- and
    off-window accesses both complete in exactly their contention-free
    latency, and the run's ``lag`` is one sum.
    """
    n = len(sim.trace)
    latency = cols.u_partial + gplan.core
    if int(latency.min()) < 1:
        bad = int(np.argmax(latency < 1))
        raise SimulationError(
            f"access {bad} completed in {int(latency[bad])} cycles"
        )
    if sim.posted_writes:
        eff = np.where(gplan.write_mask, np.int64(1), latency)
    else:
        eff = latency
    state.lag += int(eff.sum()) - n
    _fold_measured(sim, state, groups, gplan, eff, counted, measured)


def _fold_measured(
    sim: "Simulator",
    state: "_RunState",
    groups: list[_Group],
    gplan: "GroupPlan",
    eff: np.ndarray,
    counted: np.ndarray | None,
    measured: int,
) -> None:
    """Fold the measured-window statistics of an effective-latency column.

    The latency/struct/energy accounting tail of both the vector fold
    and the walk: ``eff`` is the whole-run effective (post-posted-write)
    latency column, ``counted`` the measured mask (``None`` for
    unsampled runs) and ``measured`` its popcount.
    """
    trace = sim.trace
    state.measured += measured
    if not measured:
        return
    eff_counted = eff if counted is None else eff[counted]
    state.latency_sum += int(eff_counted.sum())
    struct_col = (
        trace.struct_ids if counted is None else trace.struct_ids[counted]
    )
    n_structs = len(sim._routes)
    counts = np.bincount(struct_col, minlength=n_structs)
    # float64 bincount weights stay exact below 2**53.
    totals = np.bincount(
        struct_col, weights=eff_counted, minlength=n_structs
    ).astype(np.int64)
    struct_counts = state.struct_counts
    struct_latency = state.struct_latency
    for struct_id, count in enumerate(counts.tolist()):
        if count:
            struct_counts[struct_id] += count
            struct_latency[struct_id] += int(totals[struct_id])
    _accumulate_energy(
        sim, state, groups, gplan, counted, trace.sizes.astype(np.int64)
    )


def _fold_span(
    u: np.ndarray,
    write_mask: np.ndarray,
    posted: bool,
    start: int,
    stop: int,
) -> int:
    """The ``lag`` an off-window span ``[start, stop)`` adds.

    Off-window accesses skip contention, so each completes in its
    contention-free latency ``u`` and the span reduces to one slice
    sum (posted writes count one issue slot). Raises on the span's
    first access completing in under one cycle, as the reference does.
    """
    segment = u[start:stop]
    if int(segment.min()) < 1:
        bad = int(np.argmax(segment < 1))
        raise SimulationError(
            f"access {start + bad} completed in {int(segment[bad])} cycles"
        )
    if posted:
        segment = np.where(write_mask[start:stop], np.int64(1), segment)
    return int(segment.sum()) - (stop - start)


def _accumulate_energy(
    sim: "Simulator",
    state: "_RunState",
    groups: list[_Group],
    gplan: "GroupPlan",
    counted: np.ndarray | None,
    sizes64: np.ndarray,
) -> None:
    """Vectorized energy accounting over the measured accesses.

    Replicates the reference loop's accumulation order exactly: each
    access's energy is the reference's nested pair sums (absent terms
    contribute an exact ``0.0``, the float identity), and the running
    totals are sequential left folds (``np.cumsum``) over the counted
    rows, with the per-transaction DRAM/wire terms interleaved in
    reference order via row-major ravels.

    Only the wire terms depend on the candidate (per-byte channel
    energies follow the connectivity assignment); the DRAM and module
    terms follow the memory architecture alone, so the group plan's
    ``energy_statics`` dict memoizes them — same expressions, same
    floats — across the group's members.
    """
    core = gplan.core
    uncached = gplan.cols_uncached
    offpath = gplan.cols_offpath
    statics = gplan.energy_statics
    n = len(core)
    cpu_epb = np.zeros(n, dtype=np.float64)
    back_epb = np.zeros(n, dtype=np.float64)
    for gid, positions in gplan.positions_of.items():
        group = groups[gid]
        cpu_epb[positions] = group.cpu_state.energy_per_byte
        if group.backing_state is not None:
            back_epb[positions] = group.backing_state.energy_per_byte
    if "e_dram1" not in statics:
        module_nj = np.zeros(n, dtype=np.float64)
        for gid, positions in gplan.positions_of.items():
            module = groups[gid].module
            if module is not None:
                module_nj[positions] = module.access_energy_nj
        page_hit = core == sim.memory.dram.page_hit_latency
        dram_bytes = np.where(uncached, sizes64, gplan.cols_refill)
        e_dram1 = DRAM_PAGE_ACCESS_NJ + DRAM_PER_BYTE_NJ * dram_bytes
        e_dram1 = np.where(page_hit, e_dram1, e_dram1 + DRAM_ACTIVATE_NJ)
        statics["dram_bytes"] = dram_bytes
        statics["e_dram1"] = np.where(gplan.cols_dram_mask, e_dram1, 0.0)
        statics["e_dram2"] = np.where(
            offpath > 0,
            DRAM_PAGE_ACCESS_NJ + DRAM_PER_BYTE_NJ * offpath,
            0.0,
        )
        statics["e_module"] = np.where(uncached, 0.0, module_nj)
    dram_bytes = statics["dram_bytes"]
    e_dram1 = statics["e_dram1"]
    e_dram2 = statics["e_dram2"]
    e_module = statics["e_module"]

    e_wire1 = dram_bytes * np.where(uncached, cpu_epb, back_epb)
    e_wire2 = offpath * back_epb
    e_wire3 = np.where(uncached, 0.0, sizes64 * cpu_epb)
    # Reference per-access order: (refill-or-uncached DRAM + wire) then
    # (background DRAM + wire) then (module + CPU wire); zero terms are
    # exact identities, so one expression covers every path.
    energy = ((e_dram1 + e_wire1) + (e_dram2 + e_wire2)) + (
        e_module + e_wire3
    )

    wire_triples = np.column_stack((e_wire1, e_wire2, e_wire3))
    if counted is not None:
        energy = energy[counted]
        e_module = e_module[counted]
        dram_pairs = np.column_stack((e_dram1, e_dram2))[counted]
        wire_triples = wire_triples[counted]
        state.energy_sum += float(np.cumsum(energy)[-1])
        state.energy_modules += float(np.cumsum(e_module)[-1])
        state.energy_dram += float(np.cumsum(dram_pairs.ravel())[-1])
        state.energy_wires += float(np.cumsum(wire_triples.ravel())[-1])
        return
    state.energy_sum += float(np.cumsum(energy)[-1])
    if "module_sum" not in statics:
        statics["module_sum"] = float(np.cumsum(e_module)[-1])
        statics["dram_sum"] = float(
            np.cumsum(np.column_stack((e_dram1, e_dram2)).ravel())[-1]
        )
    state.energy_modules += statics["module_sum"]
    state.energy_dram += statics["dram_sum"]
    state.energy_wires += float(np.cumsum(wire_triples.ravel())[-1])
