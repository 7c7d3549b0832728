"""End-to-end integration tests for the MemorEx pipeline."""

from dataclasses import replace

import pytest

from repro import run_memorex
from repro.apex.explorer import ApexConfig
from repro.conex.explorer import ConExConfig
from repro.core.design_point import summarize
from repro.core.memorex import MemorExConfig
from repro.errors import ExplorationError
from repro.workloads import get_workload

CONFIG = MemorExConfig(
    apex=ApexConfig(
        cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
        stream_buffer_options=(None, "stream_buffer_4"),
        dma_options=(None, "si_dma_32"),
        map_indexed_to_sram=(False,),
        select_count=3,
    ),
    conex=ConExConfig(
        max_logical_connections=4,
        max_assignments_per_level=64,
        phase1_keep=4,
    ),
)


@pytest.fixture(scope="module")
def result():
    workload = get_workload("compress", scale=0.12, seed=7)
    return run_memorex(workload, config=CONFIG)


class TestPipeline:
    def test_stages_connected(self, result):
        assert result.workload_name == "compress"
        assert result.apex.trace_name == result.trace.name
        assert result.conex.trace_name == result.trace.name
        assert result.selected_points == result.conex.selected

    def test_selected_points_simulated(self, result):
        assert result.selected_points
        for point in result.selected_points:
            assert point.simulation is not None
            assert point.simulation.cost_gates > 0
            assert point.simulation.avg_latency >= 1.0
            assert point.simulation.avg_energy_nj > 0

    def test_exploration_yields_spread(self, result):
        """The paper's Table 1 shape: a wide latency range across the
        selected cost range."""
        points = result.selected_points
        costs = [p.simulation.cost_gates for p in points]
        latencies = [p.simulation.avg_latency for p in points]
        assert max(costs) > 2 * min(costs)
        assert max(latencies) > 1.5 * min(latencies)

    def test_energy_varies_less_than_latency(self, result):
        """Table 1: energy varies much less than performance among
        cache-based designs (connectivity power is small)."""
        cached = [
            p
            for p in result.selected_points
            if p.memory_eval.architecture.modules
        ]
        if len(cached) >= 2:
            energies = [p.simulation.avg_energy_nj for p in cached]
            latencies = [p.simulation.avg_latency for p in cached]
            energy_spread = max(energies) / min(energies)
            latency_spread = max(latencies) / min(latencies)
            assert energy_spread < latency_spread + 1.0

    def test_default_libraries_used(self):
        workload = get_workload("vocoder", scale=0.25, seed=3)
        small = MemorExConfig(
            apex=ApexConfig(
                cache_options=(None, "cache_4k_16b_1w"),
                stream_buffer_options=(None,),
                dma_options=(None,),
                map_indexed_to_sram=(False,),
                select_count=2,
            ),
            conex=ConExConfig(
                max_logical_connections=3,
                max_assignments_per_level=16,
                phase1_keep=3,
            ),
        )
        result = run_memorex(workload, config=small)
        assert result.selected_points


class TestSummaries:
    def test_summarize_fields(self, result):
        summary = summarize(result.selected_points[0])
        assert summary.cost_gates > 0
        assert summary.connections
        assert summary.objectives == (
            summary.cost_gates,
            summary.avg_latency,
            summary.avg_energy_nj,
        )

    def test_summarize_estimated_only_rejected(self, result):
        from repro.errors import ExplorationError

        with pytest.raises(ExplorationError):
            summarize(result.conex.estimated[0])


class TestSmallScaleHints:
    @pytest.mark.parametrize("seed", [28, 38, 46])
    def test_compress_runs_where_a_hinted_structure_is_absent(self, seed):
        """At scale 0.02 these seeds emit no ``globals`` access; the
        pipeline must drop that hint instead of failing on it."""
        workload = get_workload("compress", scale=0.02, seed=seed)
        trace = workload.trace()
        assert "globals" in workload.pattern_hints
        assert "globals" not in trace.structs
        assert "globals" not in workload.hints_for(trace)
        result = run_memorex(workload, config=CONFIG)
        assert result.selected_points


class TestPhase1Keep:
    @pytest.mark.parametrize("keep", [0, -1])
    def test_keep_below_one_is_rejected(self, keep):
        """Regression: ``phase1_keep < 1`` used to carry one design per
        memory architecture instead of failing."""
        config = replace(CONFIG, conex=replace(CONFIG.conex, phase1_keep=keep))
        workload = get_workload("vocoder", scale=0.05, seed=1)
        with pytest.raises(ExplorationError, match="phase1_keep"):
            run_memorex(workload, config=config)
