"""Installing and removing the layer wrappers."""

import sys

import pytest

import spans
from analysis import layer_metrics


def _repro_attributes():
    """Every attribute of every imported repro module, and of the
    classes whose methods are wrapped, by identity."""
    import repro.cli  # noqa: F401 - import every caller
    import repro.service.server  # noqa: F401
    from repro.sim.batch import TracePlan
    from repro.workloads.base import Workload

    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
    for cls in (TracePlan, Workload):
        for attr, value in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = value
    return snapshot


def test_uninstall_restores_every_patched_attribute():
    before = _repro_attributes()
    installation = spans.install(spans.Tracer(), spans.SERVICE_TARGETS)
    try:
        assert installation.missing == []
        changed = {key for key, value in _repro_attributes().items()
                   if before.get(key) is not value}
        # Each target is replaced where it is defined, and functions also
        # wherever a caller imported them.
        assert ("repro.util.pareto", "pareto_front") in changed
        assert ("repro.conex.explorer", "pareto_front") in changed
        assert ("repro.core.strategies", "simulate_batch") in changed
        assert ("TracePlan", "group_plan") in changed
        assert ("repro.service.server", "execute_job") in changed
        assert len(installation.patches) == len(changed)
    finally:
        spans.uninstall(installation)
    after = _repro_attributes()
    assert all(after[key] is value for key, value in before.items())
    assert installation.patches == []


def test_missing_target_is_reported_not_fatal():
    target = spans.Target("gone.layer", "repro.util.pareto", "no_such_function")
    absent_module = spans.Target("gone.module", "repro.no_such_module", "f")
    installation = spans.install(spans.Tracer(), (target, absent_module))
    assert installation.missing == ["gone.layer", "gone.module"]
    assert installation.patches == []


def test_spans_follow_the_programs_own_calls(compress_fronts_run):
    tracer, metrics = compress_fronts_run
    names = {span.name for span in tracer.spans}
    assert {"bench.run", "apex.explore", "exec.simulate_batch",
            "sim.evaluate_group", "conex.estimate", "pareto.front"} <= names
    assert metrics["apex.candidates"] > 0
    assert metrics["exec.cache_misses"] == metrics["exec.jobs"] > 0
    assert metrics["sim.group_plan_builds"] <= metrics["sim.group_plan_calls"]
    assert 0 < metrics["conex.carried"] <= metrics["conex.estimated"]
    assert metrics["bench.unattributed_ratio"] < 0.1


@pytest.fixture(scope="module")
def compress_fronts_run():
    """One traced tiny exploration through the program's entry point."""
    from repro.apex.explorer import ApexConfig
    from repro.conex.explorer import ConExConfig
    from repro.core.memorex import MemorExConfig, run_memorex
    from repro.exec.cache import SimulationCache
    from repro.workloads import get_workload

    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        root = tracer.begin(spans.RUN_ROOT, trace_id="run")
        run_memorex(
            get_workload("vocoder", scale=0.02, seed=1),
            config=MemorExConfig(apex=ApexConfig(select_count=2),
                                 conex=ConExConfig(phase1_keep=2)),
            workers=1,
            cache=SimulationCache(),
        )
        tracer.finish(root)
    finally:
        spans.uninstall(installation)
    return tracer, layer_metrics(tracer.spans, units=1)
