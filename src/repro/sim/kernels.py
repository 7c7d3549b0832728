"""Columnar fast-path simulation kernel.

:meth:`repro.sim.simulator.Simulator.run` dispatches here by default.
The kernel produces **bit-identical** :class:`SimulationResult`\\ s to
the scalar reference loop (``run(reference=True)``) by exploiting the
structure of the per-access recurrence. Two fast paths share the work:

* **Columnar engine** (:func:`_run_columnar`) — when every routing
  target is batch-capable (direct-DRAM routes, SRAMs, stream buffers,
  caches — see :attr:`repro.memory.module.MemoryModule.supports_batch`)
  the whole run is evaluated as column passes: one ``access_many``
  call per module over its entire access subsequence, reservation-table
  transfer timing for whole size columns
  (:func:`repro.timing.batch.transfer_timing_columns`), and a single
  merged :meth:`~repro.memory.dram.Dram.open_row_latencies` pass over
  every DRAM transaction of the run in trace order. Under ideal
  connectivity no access ever touches shared timelines, so latency,
  ``lag``, per-struct statistics and the energy accounting all reduce
  to vector arithmetic — including unsampled million-access runs.
  With a connectivity architecture, contention (arbitration waits,
  ``cluster_free``/``dram_free`` timelines, busy cycles) is inherently
  serial for on-window accesses; those run a lean integer loop over
  the precomputed columns while everything around them stays batched.
* **Replay pass** — when a tick-dependent module is present (the DMA
  engines model prefetch timeliness against issue time) the run is
  evaluated as a one-member candidate group of the batch evaluator
  (:func:`repro.sim.batch.run_replayed`): the DMA's behaviour is
  recorded once symbolically, and one walk prices its stalls against
  the run's own arrivals while folding off-window spans free of DMA
  rows as vector sums. A module that neither batches nor replays
  (only user extensions) sends the run to the reference loop.

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

from repro import obs
from repro.channels import DRAM
from repro.config import REFERENCE_SIM_ENV, current_settings
from repro.errors import SimulationError
from repro.memory.energy import (
    DRAM_ACTIVATE_NJ,
    DRAM_PAGE_ACCESS_NJ,
    DRAM_PER_BYTE_NJ,
)
from repro.timing.batch import transfer_timing_columns
from repro.trace.events import AccessKind

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
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
    """Whole-run per-access columns over every routing group."""

    __slots__ = (
        "gid",
        "uncached",
        "mlat",
        "refill",
        "offpath",
        "conn",
        "occ",
        "dbeats",
        "docc",
        "bgocc",
        "dram_mask",
        "u_partial",
    )


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


# -- entry point ------------------------------------------------------------


def run_kernel(sim: "Simulator", state: "_RunState") -> bool:
    """Execute the whole trace into ``state`` on a fast path.

    Runs the columnar engine when every target batches, and otherwise
    the replay pass. Returns ``False``, with ``state`` untouched and the
    modules primed, when the replay pass declines — some module (or the
    DRAM) neither batches nor replays — and the caller runs the
    reference loop instead.
    """
    if not len(sim.trace):
        return True
    groups, struct_group = _build_groups(sim)
    if all(group.batchable for group in groups) and getattr(
        type(sim.memory.dram), "supports_batch", False
    ):
        _run_columnar(sim, state, groups, struct_group)
        return True
    # The batch evaluator imports this module, so resolve it lazily.
    from repro.sim.batch import run_replayed

    return run_replayed(sim, state)


# -- whole-run columns ------------------------------------------------------


def _offpath_bytes(outcome) -> np.ndarray | None:
    """A batch outcome's off-critical-path column: writeback + prefetch."""
    writeback = outcome.writeback_bytes
    prefetch = outcome.prefetch_bytes
    if writeback is None:
        return prefetch
    if prefetch is None:
        return writeback
    return writeback + prefetch


def _build_columns(
    sim: "Simulator",
    state: "_RunState",
    groups: list[_Group],
    struct_group: np.ndarray,
) -> tuple[_Columns, dict[int, np.ndarray]]:
    """Evaluate every (batch-capable) group over the whole run.

    Advances each module with one ``access_many`` call over its entire
    access subsequence (exact by the
    :attr:`~repro.memory.module.MemoryModule.supports_batch` contract:
    modules only observe their own accesses, and their outcomes are
    tick-independent), prices CPU-side and backing transfers with the
    columnar reservation-table timing, and folds the
    timing-independent accounting — module hit/miss counts, channel
    bytes/transaction counters — into ``state`` immediately. Returns
    the columns plus each group's row positions.
    """
    trace = sim.trace
    n = len(trace)
    gid_col = struct_group[trace.struct_ids]
    sizes64 = trace.sizes.astype(np.int64)
    addresses = trace.addresses
    kinds = trace.kinds

    cols = _Columns()
    cols.gid = gid_col
    cols.uncached = np.zeros(n, dtype=bool)
    mlat = np.zeros(n, dtype=np.int64)
    refill = np.zeros(n, dtype=np.int64)
    offpath = np.zeros(n, dtype=np.int64)
    conn = np.zeros(n, dtype=np.int64)
    occ = np.zeros(n, dtype=np.int64)
    dbase = np.zeros(n, dtype=np.int64)
    dbeats = np.zeros(n, dtype=np.int64)
    docc = np.zeros(n, dtype=np.int64)
    bgocc = np.zeros(n, dtype=np.int64)
    group_positions: dict[int, np.ndarray] = {}

    for gid, group in enumerate(groups):
        positions = np.flatnonzero(gid_col == gid)
        if not len(positions):
            continue
        group_positions[gid] = positions
        g_sizes = sizes64[positions]
        count = len(positions)
        cpu_state = group.cpu_state
        component = cpu_state.component

        if group.module is None:
            # Uncached: straight to DRAM over the off-chip connection.
            cols.uncached[positions] = True
            if component is not None:
                lat_col, occ_col = transfer_timing_columns(
                    component, g_sizes
                )
                dbase[positions] = component.base_latency
                dbeats[positions] = lat_col - component.base_latency
                occ[positions] = occ_col
            counts = state.module_counts[DRAM]
            counts[0] += count
            counts[2] += count
            state.misses += count
        else:
            outcome = group.module.access_many(
                addresses[positions], g_sizes, kinds[positions]
            )
            lat_col = outcome.latency
            hits = int(np.count_nonzero(outcome.hit))
            refill_col = outcome.refill_bytes
            off = _offpath_bytes(outcome)
            mlat[positions] = lat_col
            counts = state.module_counts[group.target]
            counts[0] += count
            counts[1] += hits
            counts[2] += count - hits
            state.misses += count - hits
            if component is not None:
                conn_col, occ_col = transfer_timing_columns(
                    component, g_sizes
                )
                conn[positions] = conn_col
                occ[positions] = occ_col

            back_state = group.backing_state
            if back_state is not None:
                if refill_col is not None and refill_col.any():
                    refill[positions] = refill_col
                    r_local = np.flatnonzero(refill_col)
                    r_pos = positions[r_local]
                    r_bytes = refill_col[r_local].astype(
                        np.int64, copy=False
                    )
                    back_component = back_state.component
                    if back_component is not None:
                        lat_col, occ_col = transfer_timing_columns(
                            back_component, r_bytes
                        )
                        dbase[r_pos] = back_component.base_latency
                        dbeats[r_pos] = (
                            lat_col - back_component.base_latency
                        )
                        docc[r_pos] = occ_col
                    back_state.bytes_moved += int(r_bytes.sum())
                    back_state.transactions += len(r_pos)
                if off is not None and off.any():
                    offpath[positions] = off
                    bg_local = np.flatnonzero(off)
                    back_component = back_state.component
                    if back_component is not None:
                        _, occ_col = transfer_timing_columns(
                            back_component,
                            off[bg_local].astype(np.int64, copy=False),
                        )
                        bgocc[positions[bg_local]] = occ_col
                    back_state.bytes_moved += int(off.sum())
                    back_state.background_transactions += len(bg_local)

        cpu_state.bytes_moved += int(g_sizes.sum())
        cpu_state.transactions += count

    cols.mlat = mlat
    cols.refill = refill
    cols.offpath = offpath
    cols.conn = conn
    cols.occ = occ
    cols.dbeats = dbeats
    cols.docc = docc
    cols.bgocc = bgocc
    cols.dram_mask = cols.uncached | (refill > 0)
    # Contention-free latency: connection transfer + module latency +
    # backing command/data cycles. Adding the per-transaction DRAM core
    # latency (the merged open-row pass) completes it.
    cols.u_partial = conn + mlat + dbase + dbeats
    return cols, group_positions


# -- columnar engine --------------------------------------------------------


def _openrow_core(
    sim: "Simulator", dram_mask: np.ndarray
) -> tuple[np.ndarray, int]:
    """The merged open-row pass: per-access DRAM core latency column.

    Each access produces at most one DRAM transaction (an uncached
    access or a refill), and background bursts never touch row state,
    so the run's DRAM stream is exactly the masked rows in trace order.
    Returns ``(core, transaction_count)``. The column depends only on
    the address column and the (memory-determined) transaction mask, so
    the batch evaluator shares one pass per candidate group.
    """
    core = np.zeros(len(dram_mask), dtype=np.int64)
    dram_idx = np.flatnonzero(dram_mask)
    if len(dram_idx):
        core[dram_idx] = sim.memory.dram.open_row_latencies(
            sim.trace.addresses[dram_idx]
        )
    return core, int(len(dram_idx))


def _run_columnar(
    sim: "Simulator",
    state: "_RunState",
    groups: list[_Group],
    struct_group: np.ndarray,
) -> None:
    """Whole-run columnar evaluation (every target batch-capable)."""
    cols, group_positions = _build_columns(sim, state, groups, struct_group)
    core, merged_dram = _openrow_core(sim, cols.dram_mask)
    _evaluate_columns(
        sim, state, groups, group_positions, cols, core, merged_dram
    )


def _evaluate_columns(
    sim: "Simulator",
    state: "_RunState",
    groups: list[_Group],
    group_positions: dict[int, np.ndarray],
    cols: _Columns,
    core: np.ndarray,
    merged_dram: int,
    shared=None,
    walk=None,
) -> None:
    """Fold prebuilt whole-run columns into ``state`` (no replay rows).

    The tail of the columnar engine after :func:`_build_columns` and
    the merged open-row pass — shared verbatim with the batch
    evaluator, whose candidates arrive here with group-shared columns,
    the group plan as ``shared`` (the candidate-independent energy
    terms), and the group's prebuilt whole-run row lists as ``walk``.
    """
    trace = sim.trace
    n = len(trace)
    sampling = sim.sampling
    posted = sim.posted_writes

    u = cols.u_partial + core
    write_mask = (
        shared.write_mask if shared is not None
        else trace.kinds == _WRITE_CODE
    )

    if sim.connectivity is None:
        # Ideal connectivity: no channel ever has a component, so the
        # reference loop never touches cluster_free/dram_free or the
        # wait/busy counters — on- and off-window accesses both
        # complete in exactly their contention-free latency.
        latency = u
        if int(latency.min()) < 1:
            bad = int(np.argmax(latency < 1))
            raise SimulationError(
                f"access {bad} completed in {int(latency[bad])} cycles"
            )
        eff = np.where(write_mask, np.int64(1), latency) if posted else latency
        state.lag += int(eff.sum()) - n
    else:
        latency = u.copy()
        spans = (
            [(0, n, True)] if sampling is None else sampling.windows(n)
        )
        _contended_pass(
            sim, state, groups, cols, core, u, latency, spans, write_mask,
            walk=walk,
        )
        eff = np.where(write_mask, np.int64(1), latency) if posted else latency

    if sampling is None:
        counted = None
        measured = n
    else:
        _, counted_mask = sampling.masks(n)
        counted = counted_mask
        measured = int(np.count_nonzero(counted_mask))
    _fold_measured(
        sim, state, groups, group_positions, cols, core, eff, counted,
        measured, shared=shared,
    )

    if obs.enabled():
        if merged_dram:
            obs.incr("sim.kernel.openrow_merged_passes")
            obs.incr("sim.kernel.openrow_merged_accesses", merged_dram)
        n_on = n if sampling is None else int(
            np.count_nonzero(sampling.masks(n)[0])
        )
        obs.incr("sim.kernel.onwindow_batched", n_on)
        if sampling is None and sim.connectivity is None:
            obs.incr("sim.kernel.unsampled_batched_spans")


def _fold_measured(
    sim: "Simulator",
    state: "_RunState",
    groups: list[_Group],
    group_positions: dict[int, np.ndarray],
    cols: _Columns,
    core: np.ndarray,
    eff: np.ndarray,
    counted: np.ndarray | None,
    measured: int,
    shared=None,
) -> None:
    """Fold the measured-window statistics of an effective-latency column.

    The latency/struct/energy accounting tail shared by the columnar
    engine and the batch evaluator: ``eff`` is the whole-run effective
    (post-posted-write) latency column, ``counted`` the measured mask
    (``None`` for unsampled runs) and ``measured`` its popcount.
    ``shared`` is the batch evaluator's group plan, whose
    ``energy_statics`` dict memoizes the candidate-independent energy
    terms across the group's members.
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
        sim, state, groups, group_positions, cols, core, counted,
        sizes64=trace.sizes.astype(np.int64),
        statics=None if shared is None else shared.energy_statics,
    )


def _contended_pass(
    sim: "Simulator",
    state: "_RunState",
    groups: list[_Group],
    cols: _Columns,
    core: np.ndarray,
    u: np.ndarray,
    latency: np.ndarray,
    spans: list[tuple[int, int, bool]],
    write_mask: np.ndarray,
    walk=None,
) -> None:
    """Serial contention walk over the on-window accesses.

    Off-window spans reduce to slice sums of the contention-free
    latency column; on-window spans run a lean integer loop that
    replays the reference recurrence's state updates in the exact
    reference order over the precomputed columns (no ``timing()``
    calls, no module calls, no response allocations). Writes the
    on-window latencies into ``latency`` and the wait/busy sums into
    the channel states. On an unsampled whole-run walk, ``walk`` (a
    batch group plan's row lists) supplies the candidate-independent
    lists prebuilt once per group, leaving only the connectivity-priced
    columns to convert per member.
    """
    trace = sim.trace
    channels = sim._channels
    posted = sim.posted_writes
    page_hit_latency = sim.memory.dram.page_hit_latency

    channel_of = {id(channel): i for i, channel in enumerate(channels)}
    ginfo = []
    for group in groups:
        cpu = group.cpu_state
        component = cpu.component
        back = group.backing_state
        back_component = back.component if back is not None else None
        ginfo.append(
            (
                group.module is None,
                cpu.cluster_index,
                channel_of[id(cpu)],
                bool(component.split_transactions),
                component.base_latency,
                back.cluster_index if back is not None else 0,
                channel_of[id(back)] if back is not None else 0,
                (
                    bool(back_component.split_transactions)
                    if back_component is not None
                    else False
                ),
                (
                    back_component.base_latency
                    if back_component is not None
                    else 0
                ),
            )
        )

    if len(spans) == 1 and spans[0][2]:
        on_idx = None
        sel: slice | np.ndarray = slice(None)
    else:
        on_mask = np.zeros(len(u), dtype=bool)
        for span_start, span_stop, on in spans:
            if on:
                on_mask[span_start:span_stop] = True
        on_idx = np.flatnonzero(on_mask)
        sel = on_idx

    # No replay rows here, so a hit's arrival tick is never needed on
    # its own — the wire and module latencies fold into one column.
    serve_l = (cols.conn + cols.mlat)[sel].tolist()
    occ_l = cols.occ[sel].tolist()
    dbeats_l = cols.dbeats[sel].tolist()
    docc_l = cols.docc[sel].tolist()
    bgocc_l = cols.bgocc[sel].tolist()
    if on_idx is None and walk is not None:
        ticks_l = walk.ticks_l
        gid_l = walk.gid_l
        refill_l = walk.refill_l
        core_l = walk.core_l
        bg_l = walk.bg_l
        dch_l = walk.dch_l
        write_l = walk.write_l if posted else None
    else:
        ticks_l = trace.ticks[sel].tolist()
        gid_l = cols.gid[sel].tolist()
        refill_l = (cols.refill[sel] > 0).tolist()
        core_l = core[sel].tolist()
        bg_l = (cols.offpath[sel] > 0).tolist()
        dram = sim.memory.dram
        if dram.channels == 1:
            dch_l = [0] * len(ticks_l)
        else:
            dch_l = dram.channel_column(trace.addresses)[sel].tolist()
        write_l = write_mask[sel].tolist() if posted else None
    lat_out = [0] * len(ticks_l)

    cluster_free = state.cluster_free
    dram_free = state.dram_free
    lag = state.lag
    waits = [0] * len(channels)
    busys = [0] * len(channels)
    cch = wait_acc = busy_acc = 0

    k = 0
    last_gid = -1
    for span_start, span_stop, on in spans:
        if not on:
            lag += _fold_span(u, write_mask, posted, span_start, span_stop)
            continue
        stop_k = k + (span_stop - span_start)
        for k in range(k, stop_k):
            gid = gid_l[k]
            if gid != last_gid:
                # Routing constants change only on a group switch;
                # traces run the same structure for long stretches, so
                # the CPU channel's wait/busy sums also accumulate in
                # locals and flush on the switch.
                if wait_acc:
                    waits[cch] += wait_acc
                    wait_acc = 0
                if busy_acc:
                    busys[cch] += busy_acc
                    busy_acc = 0
                (
                    is_uncached,
                    ci,
                    cch,
                    csplit,
                    cbase,
                    bci,
                    bch,
                    bsplit,
                    bbase,
                ) = ginfo[gid]
                last_gid = gid
            issue = ticks_l[k] + lag
            if is_uncached:
                free = cluster_free[ci]
                start = issue if issue >= free else free
                wait_acc += start - issue
                command_done = start + cbase
                dch = dch_l[k]
                chfree = dram_free[dch]
                dram_start = (
                    command_done if command_done >= chfree else chfree
                )
                core_k = core_l[k]
                completion = dram_start + core_k + dbeats_l[k]
                dram_free[dch] = dram_start + core_k
                busy_until = start + occ_l[k] if csplit else completion
                busy_acc += busy_until - start
                if busy_until > cluster_free[ci]:
                    cluster_free[ci] = busy_until
            else:
                free = cluster_free[ci]
                start = issue if issue >= free else free
                wait = start - issue
                served = start + serve_l[k]
                completion = served
                has_refill = refill_l[k]
                if has_refill:
                    free = cluster_free[bci]
                    back_start = served if served >= free else free
                    waits[bch] += back_start - served
                    command_done = back_start + bbase
                    dch = dch_l[k]
                    chfree = dram_free[dch]
                    dram_start = (
                        command_done
                        if command_done >= chfree
                        else chfree
                    )
                    core_k = core_l[k]
                    completion = dram_start + core_k + dbeats_l[k]
                    dram_free[dch] = dram_start + core_k
                    busy_until = (
                        back_start + docc_l[k] if bsplit else completion
                    )
                    delta = busy_until - back_start
                    if delta > 0:
                        busys[bch] += delta
                    if busy_until > cluster_free[bci]:
                        cluster_free[bci] = busy_until
                if bg_l[k]:
                    free = cluster_free[bci]
                    bg_start = served if served >= free else free
                    occupancy = bgocc_l[k]
                    busys[bch] += occupancy
                    cluster_free[bci] = bg_start + occupancy
                    dram_start = bg_start + bbase
                    dch = dch_l[k]
                    chfree = dram_free[dch]
                    if dram_start < chfree:
                        dram_start = chfree
                    dram_free[dch] = dram_start + page_hit_latency
                # Non-split bus held for the whole miss (the reference
                # busy rule: completion == served exactly when there
                # was no refill).
                if csplit or not has_refill:
                    busy_until = start + occ_l[k]
                else:
                    busy_until = completion
                busy_acc += busy_until - start
                if busy_until > cluster_free[ci]:
                    cluster_free[ci] = busy_until
                wait_acc += wait

            lat = completion - issue
            if lat < 1:
                index = k if on_idx is None else int(on_idx[k])
                raise SimulationError(
                    f"access {index} completed in {lat} cycles"
                )
            lat_out[k] = lat
            if posted and write_l[k]:
                lat = 1
            lag += lat - 1
        k = stop_k

    if wait_acc:
        waits[cch] += wait_acc
    if busy_acc:
        busys[cch] += busy_acc
    state.lag = lag
    for i, wait in enumerate(waits):
        if wait:
            channels[i].wait_cycles += wait
    for i, busy in enumerate(busys):
        if busy:
            channels[i].busy_cycles += busy
    lat_column = np.array(lat_out, dtype=np.int64)
    if on_idx is None:
        latency[:] = lat_column
    else:
        latency[on_idx] = lat_column


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
    group_positions: dict[int, np.ndarray],
    cols: _Columns,
    core: np.ndarray,
    counted: np.ndarray | None,
    sizes64: np.ndarray,
    statics: dict | None = None,
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
    terms follow the memory architecture alone, so the batch evaluator
    passes a per-group ``statics`` dict that memoizes them — same
    expressions, same floats — across the group's members.
    """
    n = len(core)
    cpu_epb = np.zeros(n, dtype=np.float64)
    back_epb = np.zeros(n, dtype=np.float64)
    if statics is not None and "e_dram1" in statics:
        for gid, positions in group_positions.items():
            group = groups[gid]
            cpu_epb[positions] = group.cpu_state.energy_per_byte
            if group.backing_state is not None:
                back_epb[positions] = group.backing_state.energy_per_byte
        dram_bytes = statics["dram_bytes"]
        e_dram1 = statics["e_dram1"]
        e_dram2 = statics["e_dram2"]
        e_module = statics["e_module"]
    else:
        module_nj = np.zeros(n, dtype=np.float64)
        for gid, positions in group_positions.items():
            group = groups[gid]
            cpu_epb[positions] = group.cpu_state.energy_per_byte
            if group.backing_state is not None:
                back_epb[positions] = group.backing_state.energy_per_byte
            if group.module is not None:
                module_nj[positions] = group.module.access_energy_nj
        page_hit = core == sim.memory.dram.page_hit_latency
        dram_bytes = np.where(cols.uncached, sizes64, cols.refill)
        e_dram1 = DRAM_PAGE_ACCESS_NJ + DRAM_PER_BYTE_NJ * dram_bytes
        e_dram1 = np.where(page_hit, e_dram1, e_dram1 + DRAM_ACTIVATE_NJ)
        e_dram1 = np.where(cols.dram_mask, e_dram1, 0.0)
        background = cols.offpath > 0
        e_dram2 = np.where(
            background,
            DRAM_PAGE_ACCESS_NJ + DRAM_PER_BYTE_NJ * cols.offpath,
            0.0,
        )
        e_module = np.where(cols.uncached, 0.0, module_nj)
        if statics is not None:
            statics["dram_bytes"] = dram_bytes
            statics["e_dram1"] = e_dram1
            statics["e_dram2"] = e_dram2
            statics["e_module"] = e_module

    e_wire1 = dram_bytes * np.where(cols.uncached, cpu_epb, back_epb)
    e_wire2 = cols.offpath * back_epb
    e_wire3 = np.where(cols.uncached, 0.0, sizes64 * cpu_epb)
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
    if statics is not None and "module_sum" in statics:
        state.energy_modules += statics["module_sum"]
        state.energy_dram += statics["dram_sum"]
    else:
        module_sum = float(np.cumsum(e_module)[-1])
        dram_sum = float(
            np.cumsum(np.column_stack((e_dram1, e_dram2)).ravel())[-1]
        )
        if statics is not None:
            statics["module_sum"] = module_sum
            statics["dram_sum"] = dram_sum
        state.energy_modules += module_sum
        state.energy_dram += dram_sum
    state.energy_wires += float(np.cumsum(wire_triples.ravel())[-1])
