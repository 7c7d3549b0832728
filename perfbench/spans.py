"""Layer spans recorded from outside the program.

The benchmark attributes host time to the program's layers without
adding code under ``src/``: :func:`install` replaces each public
function one layer calls in another, at every module attribute of the
``repro`` package where a caller looks it up (or on the class, for a
method), with a wrapper that records a span around the call. The
program's own control flow makes the calls; :func:`uninstall` puts
every original back.

A span is (name, trace id, start, end, parent index, counts). Spans
stay in memory in a :class:`Tracer` and are written out by the process
that owns them when its run ends. Counts come from the wrapped call's
arguments and return value, never from inside the program.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

#: Root span names: one per measured unit (a pipeline run, a service job).
RUN_ROOT = "bench.run"
JOB_ROOT = "service.job"
ROOTS = (RUN_ROOT, JOB_ROOT)


@dataclass
class Span:
    name: str
    trace_id: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    def as_list(self) -> list:
        return [self.name, self.trace_id, self.start, self.end, self.parent,
                self.counts]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        name, trace_id, start, end, parent, counts = row
        return cls(name, trace_id, start, end, parent, dict(counts))


class Tracer:
    """Thread-safe in-memory span store with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace_id: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if trace_id is None:
            trace_id = self.spans[parent].trace_id if parent >= 0 else ""
        span = Span(name, trace_id, time.perf_counter(), parent=parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def finish(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            span.counts = counts
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def dump(self) -> list[list]:
        with self._lock:
            return [span.as_list() for span in self.spans]


# -- what to wrap -------------------------------------------------------------


def _len_result(key: str) -> Callable:
    return lambda args, kwargs, result: {key: len(result)}


def _batch_counts(args, kwargs, report) -> dict:
    return {
        "jobs": len(report.results),
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "deduplicated": report.deduplicated,
        "retries": report.retries,
        "pool_rebuilds": report.pool_rebuilds,
    }


def _group_counts(args, kwargs, result) -> dict:
    trace = args[0]
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    members = len(jobs)
    return {
        "members": members,
        "delta": result[1],
        "member_accesses": members * len(trace),
    }


def _connectivity_counts(args, kwargs, result) -> dict:
    return {"estimated": len(result[1])}


def _conex_counts(args, kwargs, result) -> dict:
    return {"carried": len(result.simulated), "selected": len(result.selected)}


def _job_trace_id(args, kwargs) -> str:
    return str(args[0].id)


def _pareto_counts(args, kwargs, result) -> dict:
    return {"points_in": len(args[0])}


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, defining module, qualified name."""

    span: str
    module: str
    qualname: str
    #: ``(args, kwargs, result) -> {count: value}`` for the span.
    counts: Callable | None = None
    #: ``(args, kwargs) -> id``: makes the span a root (a service job).
    trace_id: Callable | None = None


#: The layer boundaries. None of these runs more than a few thousand
#: times per run; per-access functions (``dominates``, ``access_many``)
#: are deliberately absent, since a wrapper there would cost more than
#: the call it measures.
LAYER_TARGETS: tuple[Target, ...] = (
    Target("workloads.trace", "repro.workloads.base", "Workload.trace",
           _len_result("accesses")),
    Target("trace.profile", "repro.trace.patterns", "profile_patterns"),
    Target("apex.explore", "repro.apex.explorer",
           "explore_memory_architectures"),
    Target("apex.enumerate", "repro.apex.explorer", "enumerate_architectures",
           _len_result("candidates")),
    Target("exec.simulate_batch", "repro.exec.engine", "simulate_batch",
           _batch_counts),
    Target("sim.trace_plan", "repro.sim.batch", "trace_plan"),
    # ``builds`` is counted per installation (see _group_plan_counter).
    Target("sim.group_plan", "repro.sim.batch", "TracePlan.group_plan"),
    Target("sim.evaluate_group", "repro.sim.batch", "evaluate_group",
           _group_counts),
    Target("conex.explore", "repro.conex.explorer", "explore_connectivity",
           _conex_counts),
    Target("conex.connectivity_exploration", "repro.conex.explorer",
           "connectivity_exploration", _connectivity_counts),
    Target("conex.brg", "repro.conex.brg", "build_brg"),
    Target("conex.clustering", "repro.conex.clustering", "clustering_levels"),
    Target("conex.plan", "repro.conex.allocation", "plan_assignments"),
    Target("conex.estimate", "repro.conex.estimator", "estimate_plan"),
    Target("pareto.front", "repro.util.pareto", "pareto_front",
           _pareto_counts),
    Target("core.report", "repro.core.report", "render_full_report"),
    Target("core.pruned", "repro.core.strategies", "run_pruned"),
    Target("core.neighborhood", "repro.core.strategies", "run_neighborhood"),
    Target("core.full", "repro.core.strategies", "run_full"),
)

#: The daemon additionally roots one span per job at the runner call.
SERVICE_TARGETS: tuple[Target, ...] = LAYER_TARGETS + (
    Target(JOB_ROOT, "repro.service.runner", "execute_job",
           trace_id=_job_trace_id),
)


# -- installing wrappers ------------------------------------------------------


@dataclass
class Installation:
    """The patches one :func:`install` made, for :func:`uninstall`."""

    patches: list[tuple[Any, str, Any]] = field(default_factory=list)
    #: Targets absent from this version of the program (not fatal:
    #: their time shows as the enclosing span's self time).
    missing: list[str] = field(default_factory=list)


def _group_plan_counter() -> Callable:
    """``builds`` for ``TracePlan.group_plan``: a call returning a plan
    this installation has not seen before built it."""
    seen: weakref.WeakSet = weakref.WeakSet()

    def counts(args, kwargs, plan) -> dict:
        built = plan not in seen
        seen.add(plan)
        return {"builds": int(built)}

    return counts


def _wrap(tracer: Tracer, target: Target, original: Callable) -> Callable:
    counts_of = target.counts
    if target.span == "sim.group_plan":
        counts_of = _group_plan_counter()
    trace_id_of = target.trace_id

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        trace_id = trace_id_of(args, kwargs) if trace_id_of else None
        index = tracer.begin(target.span, trace_id)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            counts = None
            if counts_of is not None and result is not None:
                counts = counts_of(args, kwargs, result)
            tracer.finish(index, counts)

    return wrapper


def install(
    tracer: Tracer, targets: tuple[Target, ...] = LAYER_TARGETS
) -> Installation:
    """Wrap every target.

    Functions are replaced at every attribute of an imported ``repro``
    module that holds the original, so ``from x import f`` callers see
    the wrapper too; import the callers before installing. Methods are
    replaced on their class.
    """
    installation = Installation()
    functions: dict[int, tuple[Callable, Callable]] = {}
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            installation.missing.append(target.span)
            continue
        owner: Any = module
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(attr)
        if original is None or not callable(original):
            installation.missing.append(target.span)
            continue
        wrapper = _wrap(tracer, target, original)
        if path:
            setattr(owner, attr, wrapper)
            installation.patches.append((owner, attr, original))
        else:
            functions[id(original)] = (original, wrapper)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            entry = functions.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                installation.patches.append((module, attr, value))
    return installation


def uninstall(installation: Installation) -> None:
    """Restore every attribute :func:`install` replaced."""
    for owner, name, original in reversed(installation.patches):
        setattr(owner, name, original)
    installation.patches.clear()
