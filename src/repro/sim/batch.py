"""Cross-candidate batch evaluation: shared trace plans + module columns.

Phase II explorations simulate *many candidates over one trace*, and
most of those candidates share the identical memory-module architecture,
differing only in connectivity assignment. A single
:meth:`~repro.sim.simulator.Simulator.run` re-derives from scratch, per
candidate, work that is invariant across the whole sweep:

* **per-trace** — sampling masks and window lists, tick/write columns,
  the list conversions backing the contention walks. Hoisted into a
  :class:`TracePlan`, built once per trace fingerprint and reused by
  every candidate (an LRU registry keeps the few live traces).
* **per memory signature** — module outcomes. For batch-capable
  modules, the whole-run ``access_many`` columns; for the tick-affine
  DMA engines, a symbolic :class:`~repro.memory.module.ReplayTrace`
  recording (:meth:`~repro.memory.module.MemoryModule.record_replay`)
  whose stall terms are re-priced per candidate against its arrivals
  and backing delay. Module state evolution is tick-independent
  (membership, replacement, byte amounts), so one merged DRAM open-row
  pass is also shared. All of it lives in a :class:`GroupPlan`, built
  once per (trace, memory-architecture signature) group by a
  connectivity-free *lead* simulation.

Each candidate then runs only its **delta pass**: connectivity-priced
transfer columns, then either the vector fold (ideal connectivity and
no replay modules, the APEX shape) or the one contention/stall walk
(:func:`_replay_pass`, every other member), and the measured-window
statistics — exactly the parts that depend on the candidate's
connectivity, sampling, and write model. :meth:`Simulator.run` takes
the same route as a private one-member group (:func:`run_single`).
Results are **bit-identical** to the scalar reference loop: the walk
replicates the reference recurrence's update order over the shared
columns, and the shared columns equal what the candidate's own modules
would have produced, by the ``supports_batch`` / ``supports_replay``
contracts.

Safety valves: when ``REPRO_REFERENCE_SIM=1`` requests the reference
loop, or when a group contains a module that is neither batch-capable
nor replay-recordable (or a non-batchable DRAM), the group falls back
to independent per-candidate runs — correctness never depends on a
module opting in.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro import obs
from repro.channels import DRAM
from repro.errors import SimulationError
from repro.sim.kernels import (
    _WRITE_CODE,
    _Columns,
    _build_groups,
    _evaluate_columns,
    _fold_measured,
    _fold_span,
    _offpath_bytes,
    _openrow_core,
    reference_requested,
)
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import Simulator, _RunState
from repro.timing.batch import transfer_timing_columns

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.apex.architectures import MemoryArchitecture
    from repro.sim.sampling import SamplingConfig
    from repro.trace.events import Trace

__all__ = [
    "GroupPlan",
    "TracePlan",
    "clear_plan_registry",
    "evaluate_group",
    "trace_plan",
]


class _JobLike(Protocol):
    """What :func:`evaluate_group` needs from a work item.

    Structurally matched by :class:`repro.exec.engine.SimulationJob`
    (the sim layer does not import the exec layer).
    """

    memory: "MemoryArchitecture"
    connectivity: object | None
    sampling: "SamplingConfig | None"
    posted_writes: bool


#: Group plans retained per trace plan (distinct memory signatures).
_GROUP_PLAN_LIMIT = 32

#: Trace plans retained process-wide (distinct trace fingerprints).
_TRACE_PLAN_LIMIT = 4

#: Shortest off-window span the replay walk folds into one vector sum;
#: shorter runs are walked (identical results, lower constant cost).
MIN_BATCH_SPAN = 64


def _batch_spans(fast: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of ``fast`` at least :data:`MIN_BATCH_SPAN` long."""
    edges = np.flatnonzero(fast[1:] != fast[:-1]) + 1
    bounds = [0, *edges.tolist(), len(fast)]
    return [
        (bounds[k], bounds[k + 1])
        for k in range(len(bounds) - 1)
        if fast[bounds[k]] and bounds[k + 1] - bounds[k] >= MIN_BATCH_SPAN
    ]


class TracePlan:
    """Reusable per-trace planning state shared across candidates.

    Holds the columns every candidate evaluation needs but no candidate
    changes: whole-run tick/write lists for the walks, sampling masks
    per distinct :meth:`~repro.sim.sampling.SamplingConfig.key`, and
    the :class:`GroupPlan` cache keyed by memory-architecture signature.
    """

    def __init__(self, trace: "Trace") -> None:
        self.trace = trace
        self.write_mask = trace.kinds == _WRITE_CODE
        self._lists: dict[str, list] = {}
        self._sampling: dict = {}
        self._groups: OrderedDict = OrderedDict()

    def tick_list(self) -> list:
        """Tick column as a Python list (built on first use)."""
        ticks = self._lists.get("ticks")
        if ticks is None:
            ticks = self._lists["ticks"] = self.trace.ticks.tolist()
        return ticks

    def write_list(self) -> list:
        """Posted-write column as a Python list (built on first use)."""
        writes = self._lists.get("writes")
        if writes is None:
            writes = self._lists["writes"] = self.write_mask.tolist()
        return writes

    def sampling_columns(
        self, sampling: "SamplingConfig | None"
    ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
        """``(on_mask, counted_mask, measured)`` for one schedule.

        ``(None, None, n)`` for unsampled runs; cached per
        :meth:`SamplingConfig.key` so candidates sharing a schedule
        share the mask materialization.
        """
        key = None if sampling is None else sampling.key()
        columns = self._sampling.get(key)
        if columns is None:
            n = len(self.trace)
            if sampling is None:
                columns = (None, None, n)
            else:
                on_mask, counted = sampling.masks(n)
                columns = (on_mask, counted, int(np.count_nonzero(counted)))
            self._sampling[key] = columns
        return columns

    def group_plan(self, memory: "MemoryArchitecture") -> "GroupPlan":
        """The memory architecture's :class:`GroupPlan`, built on demand.

        Keyed by :meth:`~repro.apex.architectures.MemoryArchitecture.signature`,
        so signature-equal architectures (however many instances) share
        one recording; a small LRU bounds retention when a sweep visits
        many distinct signatures.
        """
        signature = memory.signature()
        plan = self._groups.get(signature)
        if plan is not None:
            self._groups.move_to_end(signature)
            if obs.enabled():
                obs.incr("sim.batch.groupplan_hits")
            return plan
        with obs.span("sim.batch.build_group_plan"):
            lead = Simulator(self.trace, memory)  # validates once per group
            lead._prime_modules()
            plan = GroupPlan(self, lead)
        self._groups[signature] = plan
        while len(self._groups) > _GROUP_PLAN_LIMIT:
            self._groups.popitem(last=False)
        return plan


class GroupPlan:
    """Shared module outcomes for one (trace, memory signature) group.

    Built from a primed *lead* :class:`Simulator` over the group's
    memory architecture: module behaviour (state evolution, hit and
    byte columns) is memory-determined, and architectures with equal
    signatures have identical module names, routes, and channel sets,
    so the recording transfers to every member verbatim. Only the
    stall *latency* of a replay module depends on the candidate — kept
    symbolic in the recording and re-priced per member. Building
    advances the lead's batch modules and DRAM but never its channel
    counters, so the lead may itself be the group's only member.

    It builds only what its members read: stall columns only with
    replay modules, and walk row lists only for a schedule some member
    walks (eagerly for a walking lead), so an ideal group without
    replay modules — the APEX shape — builds neither.
    """

    def __init__(self, plan: TracePlan, lead: Simulator) -> None:
        trace = plan.trace
        memory = lead.memory
        groups, struct_group = _build_groups(lead)
        gid_col = struct_group[trace.struct_ids]
        sizes64 = trace.sizes.astype(np.int64)

        self.targets = [group.target for group in groups]
        #: gid -> (latency, refill, offpath, hits) outcome columns.
        self.outcomes: dict[int, tuple] = {}
        #: gid -> ReplayTrace for the tick-affine modules.
        self.replay: dict[int, object] = {}
        self.node_sizes: dict[int, int] = {}
        self.positions_of: dict[int, np.ndarray] = {}
        replay_ok = bool(
            getattr(type(memory.dram), "supports_batch", False)
        )

        for gid, group in enumerate(groups):
            positions = np.flatnonzero(gid_col == gid)
            if not len(positions):
                continue
            self.positions_of[gid] = positions
            module = group.module
            if module is None:
                continue
            g_sizes = sizes64[positions]
            g_kinds = trace.kinds[positions]
            if group.batchable:
                outcome = module.access_many(
                    trace.addresses[positions], g_sizes, g_kinds
                )
                self.outcomes[gid] = (
                    outcome.latency,
                    outcome.refill_bytes,
                    _offpath_bytes(outcome),
                    int(np.count_nonzero(outcome.hit)),
                )
            elif getattr(type(module), "supports_replay", False):
                recording = module.record_replay(g_sizes, g_kinds)
                if recording is None:
                    replay_ok = False
                    continue
                self.outcomes[gid] = (
                    recording.latency,
                    recording.refill_bytes,
                    recording.writeback_bytes + recording.prefetch_bytes,
                    int(np.count_nonzero(recording.hit)),
                )
                self.replay[gid] = recording
                self.node_sizes[gid] = int(getattr(module, "node_size", 0))
            else:
                replay_ok = False

        self.replay_ok = replay_ok
        if not replay_ok:
            return

        # Shared whole-run columns, kept by reference: members read but
        # never mutate them.
        n = len(trace)
        uncached = np.zeros(n, dtype=bool)
        mlat = np.zeros(n, dtype=np.int64)
        refill = np.zeros(n, dtype=np.int64)
        offpath = np.zeros(n, dtype=np.int64)
        replay_rows = np.zeros(n, dtype=bool)
        for gid, positions in self.positions_of.items():
            group = groups[gid]
            if group.module is None:
                uncached[positions] = True
                continue
            lat_col, refill_col, off, _ = self.outcomes[gid]
            mlat[positions] = lat_col
            if group.backing_state is not None:
                if refill_col is not None:
                    refill[positions] = refill_col
                if off is not None:
                    offpath[positions] = off
            if gid in self.replay:
                replay_rows[positions] = True
        dram_mask = uncached | (refill > 0)
        core, merged = _openrow_core(lead, dram_mask)
        if obs.enabled() and merged:
            obs.incr("sim.kernel.openrow_merged_passes")
            obs.incr("sim.kernel.openrow_merged_accesses", merged)
        self.core = core
        self.cols_gid = gid_col
        self.cols_uncached = uncached
        self.cols_mlat = mlat
        self.cols_refill = refill
        self.cols_offpath = offpath
        self.cols_dram_mask = dram_mask
        #: Rows the replay walk must visit even off-window: a replay
        #: module's later stalls read every one of its arrivals.
        self.replay_rows = replay_rows

        # Per-gid fold amounts: everything a member adds to the run
        # state and channel counters, minus the connectivity-priced
        # transfer columns that stay per member.
        fold = []
        for gid in sorted(self.positions_of):
            positions = self.positions_of[gid]
            group = groups[gid]
            g_sizes = sizes64[positions]
            count = len(positions)
            size_sum = int(g_sizes.sum())
            if group.module is None:
                fold.append(
                    (gid, True, count, 0, size_sum, g_sizes,
                     None, None, 0, None, None, 0, 0)
                )
                continue
            _, refill_col, off, hits = self.outcomes[gid]
            r_pos = r_bytes = None
            r_sum = 0
            if refill_col is not None and refill_col.any():
                r_local = np.flatnonzero(refill_col)
                r_pos = positions[r_local]
                r_bytes = refill_col[r_local].astype(np.int64, copy=False)
                r_sum = int(r_bytes.sum())
            bg_pos = bg_bytes = None
            off_sum = bg_count = 0
            if off is not None and off.any():
                bg_local = np.flatnonzero(off)
                bg_pos = positions[bg_local]
                bg_bytes = off[bg_local].astype(np.int64, copy=False)
                off_sum = int(off.sum())
                bg_count = len(bg_local)
            fold.append(
                (gid, False, count, hits, size_sum, g_sizes,
                 r_pos, r_bytes, r_sum, bg_pos, bg_bytes, off_sum,
                 bg_count)
            )
        self.fold = fold

        self.has_replay = bool(self.replay)
        if self.has_replay:
            # Walk inputs only replay rows read; walk() turns them into
            # per-schedule row lists.
            stall_src = np.full(n, -1, dtype=np.int64)
            stall_alpha = np.zeros(n, dtype=np.int64)
            stall_beta = np.zeros(n, dtype=np.int64)
            for gid, recording in self.replay.items():
                positions = self.positions_of[gid]
                stall_src[positions] = recording.stall_src
                stall_alpha[positions] = recording.stall_alpha
                stall_beta[positions] = recording.stall_beta
            self.stall_cols = (stall_src, stall_alpha, stall_beta)
        # Per-access DRAM channel column (memory-determined, so shared
        # across the group's members like the other outcome columns).
        dram = memory.dram
        self.dch = (
            None if dram.channels == 1
            else dram.channel_column(trace.addresses)
        )
        self.write_mask = plan.write_mask
        #: Candidate-independent energy terms, memoized by the kernel's
        #: :func:`~repro.sim.kernels._accumulate_energy` on first use.
        self.energy_statics: dict = {}
        self._walks: dict = {}
        if self.member_walks(lead):
            # Build a walking lead's row lists now, next to the columns:
            # built later, between member passes, they walked measurably
            # slower.
            self.walk(plan, lead.sampling)

    def member_walks(self, sim: Simulator) -> bool:
        """Does ``sim`` (a member) need the walk, or does it vector-fold?"""
        return sim.connectivity is not None or self.has_replay

    def walk(
        self, plan: TracePlan, sampling: "SamplingConfig | None"
    ) -> "_Walk":
        """The rows a walk under ``sampling`` visits, built once per key."""
        key = None if sampling is None else sampling.key()
        walk = self._walks.get(key)
        if walk is None:
            walk = self._walks[key] = _Walk(plan, self, sampling)
        return walk


class _Walk:
    """The rows one sampling schedule's walk visits, as shared lists.

    Unsampled, every row. Sampled, the *folds* drop out: maximal
    off-window spans of at least :data:`MIN_BATCH_SPAN` rows free of
    replay rows touch no shared timeline and no replay arrival, so each
    member sums their contention-free latencies instead
    (:func:`~repro.sim.kernels._fold_span`). ``rows`` maps walk
    positions to trace rows (``None`` when every row is walked), and
    ``segments`` lists ``(walk_start, walk_stop, fold)`` in trace order,
    ``fold`` being the ``(start, stop)`` trace span that follows the
    walked rows, or ``None``. Plain lists, because list indexing beats
    any per-row tuple machinery in CPython; members read but never
    mutate them.
    """

    def __init__(
        self,
        plan: TracePlan,
        gplan: GroupPlan,
        sampling: "SamplingConfig | None",
    ) -> None:
        n = len(plan.trace)
        if sampling is None:
            self.rows = None
            self.folds = []
            self.segments = [(0, n, None)]
            self.on_l = None
            self.ticks_l = plan.tick_list()
            self.write_l = plan.write_list()
            rows = slice(None)
        else:
            on_mask, _, _ = plan.sampling_columns(sampling)
            folds = _batch_spans(~(on_mask | gplan.replay_rows))
            walked = np.ones(n, dtype=bool)
            for start, stop in folds:
                walked[start:stop] = False
            rows = np.flatnonzero(walked)
            starts = [start for start, _ in folds]
            cuts = np.searchsorted(rows, starts).tolist()
            self.rows = rows
            self.folds = folds
            self.segments = list(
                zip([0, *cuts], [*cuts, len(rows)], [*folds, None])
            )
            self.on_l = on_mask[rows].tolist()
            self.ticks_l = plan.trace.ticks[rows].tolist()
            self.write_l = plan.write_mask[rows].tolist()
        self.gid_l = gplan.cols_gid[rows].tolist()
        self.refill_l = (gplan.cols_refill[rows] > 0).tolist()
        self.bg_l = (gplan.cols_offpath[rows] > 0).tolist()
        self.core_l = gplan.core[rows].tolist()
        if gplan.dch is None:
            self.dch_l = [0] * len(self.gid_l)
        else:
            self.dch_l = gplan.dch[rows].tolist()
        self.mlat_l = self.rsrc_l = self.ralpha_l = self.rbeta_l = None
        if gplan.has_replay:
            # Only replay rows read module latencies and stalls.
            self.mlat_l = gplan.cols_mlat[rows].tolist()
            stall_src, stall_alpha, stall_beta = gplan.stall_cols
            self.rsrc_l = stall_src[rows].tolist()
            self.ralpha_l = stall_alpha[rows].tolist()
            self.rbeta_l = stall_beta[rows].tolist()


# -- trace-plan registry ----------------------------------------------------

_PLANS: "OrderedDict[str, TracePlan]" = OrderedDict()


def trace_plan(trace: "Trace") -> TracePlan:
    """The trace's :class:`TracePlan`, from the process-wide registry."""
    fingerprint = trace.fingerprint()
    plan = _PLANS.get(fingerprint)
    if plan is not None:
        _PLANS.move_to_end(fingerprint)
        if obs.enabled():
            obs.incr("sim.batch.traceplan_hits")
        return plan
    plan = TracePlan(trace)
    _PLANS[fingerprint] = plan
    while len(_PLANS) > _TRACE_PLAN_LIMIT:
        _PLANS.popitem(last=False)
    if obs.enabled():
        obs.incr("sim.batch.traceplan_builds")
    return plan


def clear_plan_registry() -> None:
    """Drop every cached trace plan (tests and benchmarks)."""
    _PLANS.clear()


# -- group evaluation -------------------------------------------------------


def evaluate_group(
    trace: "Trace",
    jobs: "Sequence[_JobLike]",
    plan: TracePlan | None = None,
) -> tuple[list[SimulationResult], int]:
    """Evaluate one same-memory-signature candidate group.

    Every job must carry a memory architecture whose
    :meth:`~repro.apex.architectures.MemoryArchitecture.signature`
    equals the first job's (the callers group by exactly that key).
    Returns ``(results, delta_candidates)`` with ``results[i]``
    bit-identical to ``Simulator(trace, ...).run()`` of ``jobs[i]``;
    ``delta_candidates`` counts members served by the shared-column
    delta pass — 0 when the group fell back to independent runs (the
    reference engine was requested, or a member module neither batches
    nor replays).
    """
    jobs = list(jobs)
    if not jobs:
        return [], 0
    if plan is None:
        plan = trace_plan(trace)
    if reference_requested():
        return [_fallback_run(trace, job) for job in jobs], 0
    gplan = plan.group_plan(jobs[0].memory)
    if not gplan.replay_ok:
        return [_fallback_run(trace, job) for job in jobs], 0
    results = []
    with obs.span("sim.batch.group"):
        for job in jobs:
            sim = Simulator(
                trace,
                job.memory,
                job.connectivity,
                job.sampling,
                job.posted_writes,
                validated=True,
            )
            state = _RunState(sim)
            _evaluate_member(plan, gplan, sim, state)
            results.append(sim._finalize(state))
    if obs.enabled():
        obs.incr("sim.batch.groups")
        obs.incr("sim.batch.module_column_group_size", len(jobs))
        obs.incr("sim.batch.delta_pass_candidates", len(jobs))
    return results, len(jobs)


def _fallback_run(trace: "Trace", job: "_JobLike") -> SimulationResult:
    """Independent per-candidate run (reference engine or opt-outs)."""
    return Simulator(
        trace,
        job.memory,
        job.connectivity,
        job.sampling,
        job.posted_writes,
    ).run()


def run_single(sim: Simulator, state: "_RunState") -> bool:
    """Evaluate ``sim`` as a one-member group into ``state``.

    The fast path of :meth:`Simulator.run`: the group plan is built over
    a private :class:`TracePlan` (kept out of the process-wide registry)
    with ``sim`` itself as the lead, so nothing outlives the run and the
    architecture is not validated twice. ``sim`` must be freshly primed.
    Returns ``False`` — modules re-primed, ``state`` untouched — when a
    module (or the DRAM) neither batches nor replays, so the caller can
    run the reference loop instead.
    """
    if not len(sim.trace):
        return True
    plan = TracePlan(sim.trace)
    gplan = GroupPlan(plan, sim)
    if not gplan.replay_ok:
        sim._prime_modules()
        return False
    _evaluate_member(plan, gplan, sim, state)
    return True


def _evaluate_member(
    plan: TracePlan, gplan: GroupPlan, sim: Simulator, state: "_RunState"
) -> None:
    """One candidate's delta pass against the group's shared columns.

    Accumulates into ``state`` and ``sim``'s channel counters exactly
    what an independent reference run of ``sim`` would: the vector fold
    for an ideal member without replay rows, the walk for the rest.
    """
    groups, _ = _build_groups(sim)
    if [group.target for group in groups] != gplan.targets:
        raise SimulationError(
            "batch group plan does not match the candidate's routing"
        )
    cols = _member_columns(sim, state, gplan, groups)
    _, counted, measured = plan.sampling_columns(sim.sampling)
    if not gplan.member_walks(sim):
        _evaluate_columns(sim, state, groups, gplan, cols, counted, measured)
        return
    walk = gplan.walk(plan, sim.sampling)
    latencies = _replay_pass(sim, state, groups, gplan, cols, walk)
    if sim.posted_writes:
        eff = np.where(plan.write_mask, np.int64(1), latencies)
    else:
        eff = latencies
    _fold_measured(sim, state, groups, gplan, eff, counted, measured)
    if obs.enabled():
        obs.incr("sim.walk.rows", len(walk.gid_l))
        if walk.folds:
            obs.incr("sim.batch.folded_spans", len(walk.folds))
            obs.incr(
                "sim.batch.folded_accesses",
                sum(stop - start for start, stop in walk.folds),
            )


def _member_columns(
    sim: Simulator, state: "_RunState", gplan: GroupPlan, groups: list
) -> _Columns:
    """One member's connectivity-priced transfer columns.

    The candidate-independent columns stay on the group plan; the
    counter folds replay the plan's precomputed per-gid amounts into
    this member's state, and only the transfer columns are computed
    fresh.
    """
    n = len(gplan.cols_gid)
    conn = np.zeros(n, dtype=np.int64)
    occ = np.zeros(n, dtype=np.int64)
    dbase = np.zeros(n, dtype=np.int64)
    dbeats = np.zeros(n, dtype=np.int64)
    docc = np.zeros(n, dtype=np.int64)
    bgocc = np.zeros(n, dtype=np.int64)

    for (gid, uncached, count, hits, size_sum, g_sizes,
         r_pos, r_bytes, r_sum, bg_pos, bg_bytes, off_sum,
         bg_count) in gplan.fold:
        group = groups[gid]
        positions = gplan.positions_of[gid]
        cpu_state = group.cpu_state
        component = cpu_state.component
        if uncached:
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
                if r_pos is not None:
                    back_component = back_state.component
                    if back_component is not None:
                        lat_col, occ_col = transfer_timing_columns(
                            back_component, r_bytes
                        )
                        dbase[r_pos] = back_component.base_latency
                        dbeats[r_pos] = lat_col - back_component.base_latency
                        docc[r_pos] = occ_col
                    back_state.bytes_moved += r_sum
                    back_state.transactions += len(r_pos)
                if bg_pos is not None:
                    back_component = back_state.component
                    if back_component is not None:
                        _, occ_col = transfer_timing_columns(
                            back_component, bg_bytes
                        )
                        bgocc[bg_pos] = occ_col
                    back_state.bytes_moved += off_sum
                    back_state.background_transactions += bg_count
        cpu_state.bytes_moved += size_sum
        cpu_state.transactions += count

    # A batch row's wire and module latencies only ever add up, so the
    # walk reads them fused; a replay row subtracts the module part back.
    cols = _Columns()
    cols.serve = conn + gplan.cols_mlat
    cols.occ = occ
    cols.dbeats = dbeats
    cols.docc = docc
    cols.bgocc = bgocc
    cols.u_partial = cols.serve + dbase + dbeats
    return cols


def _replay_pass(
    sim: Simulator,
    state: "_RunState",
    groups: list,
    gplan: GroupPlan,
    cols,
    walk: _Walk,
) -> np.ndarray:
    """The candidate's contention/stall walk over the shared columns.

    The one walk of every member with a connectivity architecture or a
    replay module. Replicates the reference recurrence's update order
    for every row of ``walk`` — uncached, batch-column, and replay rows
    alike, on- and off-window — reading module outcomes from the group
    plan and pricing each replay hit's stall from its affine term
    against this candidate's arrivals and backing delay; the walk's
    folds add their contention-free latencies in one sum each. Returns the raw latency
    column (pre posted-write folding) and leaves ``state``/channel
    counters exactly as the reference loop would.
    """
    channels = sim._channels
    page_hit_latency = sim.memory.dram.page_hit_latency
    channel_of = {id(channel): i for i, channel in enumerate(channels)}
    ginfo = []
    binfo = []
    for gid, group in enumerate(groups):
        cpu = group.cpu_state
        component = cpu.component
        back = group.backing_state
        back_component = back.component if back is not None else None
        if group.module is None:
            kind = 0
        elif group.batchable:
            kind = 1
        else:
            kind = 2
        delay = (
            sim._dma_backing_delay(group.target, gplan.node_sizes.get(gid, 0))
            if kind == 2
            else 0
        )
        ginfo.append(
            (
                kind,
                component is not None,
                cpu.cluster_index,
                channel_of[id(cpu)],
                (
                    bool(component.split_transactions)
                    if component is not None
                    else False
                ),
                component.base_latency if component is not None else 0,
                (
                    0
                    if back is None
                    else (2 if back_component is not None else 1)
                ),
                delay,
            )
        )
        binfo.append(
            (
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

    rows = walk.rows
    sel = slice(None) if rows is None else rows
    serve_l = cols.serve[sel].tolist()
    occ_l = cols.occ[sel].tolist()
    dbeats_l = cols.dbeats[sel].tolist()
    docc_l = cols.docc[sel].tolist()
    bgocc_l = cols.bgocc[sel].tolist()
    ticks_l = walk.ticks_l
    gid_l = walk.gid_l
    mlat_l = walk.mlat_l
    refill_l = walk.refill_l
    bg_l = walk.bg_l
    core_l = walk.core_l
    dch_l = walk.dch_l
    rsrc_l = walk.rsrc_l
    ralpha_l = walk.ralpha_l
    rbeta_l = walk.rbeta_l
    on_l = walk.on_l
    posted = sim.posted_writes
    write_l = walk.write_l if posted else None

    n = len(serve_l)
    lat_out = [0] * n
    arrivals: list[list[int]] = [[] for _ in groups]
    cluster_free = state.cluster_free
    dram_free = state.dram_free
    lag = state.lag
    waits = [0] * len(channels)
    busys = [0] * len(channels)
    cch = wait_acc = busy_acc = 0

    last_gid = -1
    if on_l is None:
        # Unsampled fast path: every access is on-window, so the
        # off-window branches (and the mask lookups) drop out entirely.
        for k in range(n):
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
                    kind, has_comp, ci, cch, csplit, cbase, back_kind,
                    delay,
                ) = ginfo[gid]
                last_gid = gid
            issue = ticks_l[k] + lag
            if kind == 0:
                # Uncached: straight to DRAM over the off-chip wire.
                if not has_comp:
                    completion = issue + core_l[k]
                else:
                    free = cluster_free[ci]
                    start = issue if issue >= free else free
                    wait_acc += start - issue
                    command_done = start + cbase
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
                        start + occ_l[k] if csplit else completion
                    )
                    busy_acc += busy_until - start
                    if busy_until > cluster_free[ci]:
                        cluster_free[ci] = busy_until
            else:
                if has_comp:
                    free = cluster_free[ci]
                    start = issue if issue >= free else free
                    wait = start - issue
                else:
                    start = issue
                    wait = 0
                served = start + serve_l[k]
                if kind == 2:
                    arrival = served - mlat_l[k]
                    arr_list = arrivals[gid]
                    arr_list.append(arrival)
                    src = rsrc_l[k]
                    if src >= 0:
                        ready = (
                            arr_list[src]
                            + ralpha_l[k] * delay
                            + rbeta_l[k]
                        )
                        if ready > arrival:
                            served += ready - arrival
                completion = served
                if back_kind and refill_l[k]:
                    if back_kind == 2:
                        bci, bch, bsplit, bbase = binfo[gid]
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
                            back_start + docc_l[k]
                            if bsplit
                            else completion
                        )
                        delta = busy_until - back_start
                        if delta > 0:
                            busys[bch] += delta
                        if busy_until > cluster_free[bci]:
                            cluster_free[bci] = busy_until
                    else:
                        completion = served + core_l[k]
                if back_kind == 2 and bg_l[k]:
                    bci, bch, bsplit, bbase = binfo[gid]
                    free = cluster_free[bci]
                    bg_start = served if served >= free else free
                    occupancy = bgocc_l[k]
                    busys[bch] += occupancy
                    cluster_free[bci] = bg_start + occupancy
                    dch = dch_l[k]
                    chfree = dram_free[dch]
                    dram_start = bg_start + bbase
                    if dram_start < chfree:
                        dram_start = chfree
                    dram_free[dch] = dram_start + page_hit_latency
                if has_comp:
                    # Reference busy rule: the bus is released after its
                    # occupancy on a split bus or a refill-free access,
                    # and held for the whole miss otherwise.
                    if csplit or completion == served:
                        busy_until = start + occ_l[k]
                    else:
                        busy_until = completion
                    busy_acc += busy_until - start
                    if busy_until > cluster_free[ci]:
                        cluster_free[ci] = busy_until
                wait_acc += wait

            lat = completion - issue
            if lat < 1:
                raise SimulationError(
                    f"access {k} completed in {lat} cycles"
                )
            lat_out[k] = lat
            if posted and write_l[k]:
                lat = 1
            lag += lat - 1
    else:
        u = cols.u_partial + gplan.core
        for walk_start, walk_stop, fold in walk.segments:
            for k in range(walk_start, walk_stop):
                gid = gid_l[k]
                if gid != last_gid:
                    if wait_acc:
                        waits[cch] += wait_acc
                        wait_acc = 0
                    if busy_acc:
                        busys[cch] += busy_acc
                        busy_acc = 0
                    (
                        kind, has_comp, ci, cch, csplit, cbase, back_kind,
                        delay,
                    ) = ginfo[gid]
                    last_gid = gid
                issue = ticks_l[k] + lag
                on = on_l[k]
                if kind == 0:
                    # Uncached: straight to DRAM over the off-chip wire.
                    if not has_comp:
                        completion = issue + core_l[k]
                    else:
                        if on:
                            free = cluster_free[ci]
                            start = issue if issue >= free else free
                        else:
                            start = issue
                        wait_acc += start - issue
                        command_done = start + cbase
                        if on:
                            dch = dch_l[k]
                            chfree = dram_free[dch]
                            dram_start = (
                                command_done
                                if command_done >= chfree
                                else chfree
                            )
                        else:
                            dram_start = command_done
                        core_k = core_l[k]
                        completion = dram_start + core_k + dbeats_l[k]
                        if on:
                            dram_free[dch] = dram_start + core_k
                            busy_until = (
                                start + occ_l[k] if csplit else completion
                            )
                            busy_acc += busy_until - start
                            if busy_until > cluster_free[ci]:
                                cluster_free[ci] = busy_until
                else:
                    if has_comp:
                        if on:
                            free = cluster_free[ci]
                            start = issue if issue >= free else free
                        else:
                            start = issue
                        wait = start - issue
                    else:
                        start = issue
                        wait = 0
                    served = start + serve_l[k]
                    if kind == 2:
                        arrival = served - mlat_l[k]
                        arr_list = arrivals[gid]
                        arr_list.append(arrival)
                        src = rsrc_l[k]
                        if src >= 0:
                            ready = (
                                arr_list[src]
                                + ralpha_l[k] * delay
                                + rbeta_l[k]
                            )
                            if ready > arrival:
                                served += ready - arrival
                    completion = served
                    if back_kind and refill_l[k]:
                        if back_kind == 2:
                            bci, bch, bsplit, bbase = binfo[gid]
                            if on:
                                free = cluster_free[bci]
                                back_start = (
                                    served if served >= free else free
                                )
                            else:
                                back_start = served
                            waits[bch] += back_start - served
                            command_done = back_start + bbase
                            if on:
                                dch = dch_l[k]
                                chfree = dram_free[dch]
                                dram_start = (
                                    command_done
                                    if command_done >= chfree
                                    else chfree
                                )
                            else:
                                dram_start = command_done
                            core_k = core_l[k]
                            completion = dram_start + core_k + dbeats_l[k]
                            if on:
                                dram_free[dch] = dram_start + core_k
                                busy_until = (
                                    back_start + docc_l[k]
                                    if bsplit
                                    else completion
                                )
                                delta = busy_until - back_start
                                if delta > 0:
                                    busys[bch] += delta
                                if busy_until > cluster_free[bci]:
                                    cluster_free[bci] = busy_until
                        else:
                            completion = served + core_l[k]
                    if back_kind == 2 and bg_l[k] and on:
                        bci, bch, bsplit, bbase = binfo[gid]
                        free = cluster_free[bci]
                        bg_start = served if served >= free else free
                        occupancy = bgocc_l[k]
                        busys[bch] += occupancy
                        cluster_free[bci] = bg_start + occupancy
                        dch = dch_l[k]
                        chfree = dram_free[dch]
                        dram_start = bg_start + bbase
                        if dram_start < chfree:
                            dram_start = chfree
                        dram_free[dch] = dram_start + page_hit_latency
                    if has_comp and on:
                        # Reference busy rule: the bus is released after its
                        # occupancy on a split bus or a refill-free access,
                        # and held for the whole miss otherwise.
                        if csplit or completion == served:
                            busy_until = start + occ_l[k]
                        else:
                            busy_until = completion
                        busy_acc += busy_until - start
                        if busy_until > cluster_free[ci]:
                            cluster_free[ci] = busy_until
                    wait_acc += wait

                lat = completion - issue
                if lat < 1:
                    raise SimulationError(
                        f"access {rows[k]} completed in {lat} cycles"
                    )
                lat_out[k] = lat
                if posted and write_l[k]:
                    lat = 1
                lag += lat - 1
            if fold is not None:
                lag += _fold_span(u, gplan.write_mask, posted, *fold)

    if wait_acc:
        waits[cch] += wait_acc
    if busy_acc:
        busys[cch] += busy_acc
    state.lag = lag
    for index, wait in enumerate(waits):
        if wait:
            channels[index].wait_cycles += wait
    for index, busy in enumerate(busys):
        if busy:
            channels[index].busy_cycles += busy
    if rows is None:
        return np.array(lat_out, dtype=np.int64)
    # Folded rows completed in their contention-free latency.
    u[rows] = lat_out
    return u
