"""Integration tests for the ConEx explorer and scenarios."""

import pytest

from repro.apex.explorer import ApexConfig, explore_memory_architectures
from repro.conex.explorer import ConExConfig, explore_connectivity
from repro.conex.scenarios import (
    cost_constrained_selection,
    performance_constrained_selection,
    power_constrained_selection,
)
from repro.errors import ExplorationError
from repro.util.pareto import is_pareto_point

APEX_CONFIG = ApexConfig(
    cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
    stream_buffer_options=(None, "stream_buffer_4"),
    dma_options=(None, "si_dma_32"),
    map_indexed_to_sram=(False,),
    select_count=3,
)

CONEX_CONFIG = ConExConfig(
    max_logical_connections=4,
    max_assignments_per_level=128,
    phase1_keep=5,
)


@pytest.fixture(scope="module")
def exploration(mem_library_module, conn_library_module):
    from repro.workloads import get_workload

    workload = get_workload("compress", scale=0.12, seed=7)
    trace = workload.trace()
    apex = explore_memory_architectures(
        trace, mem_library_module, APEX_CONFIG, hints=workload.pattern_hints
    )
    conex = explore_connectivity(
        trace, apex.selected, conn_library_module, CONEX_CONFIG
    )
    return trace, apex, conex


@pytest.fixture(scope="module")
def mem_library_module():
    from repro.memory.library import default_memory_library

    return default_memory_library()


@pytest.fixture(scope="module")
def conn_library_module():
    from repro.connectivity.library import default_connectivity_library

    return default_connectivity_library()


class TestConExResult:
    def test_phase1_estimates_produced(self, exploration):
        _, apex, conex = exploration
        assert len(conex.estimated) > len(conex.simulated)
        memory_names = {p.memory_name for p in conex.estimated}
        assert memory_names == {
            e.architecture.name for e in apex.selected
        }

    def test_phase2_simulated_bounded(self, exploration):
        _, apex, conex = exploration
        assert len(conex.simulated) <= (
            len(apex.selected) * CONEX_CONFIG.phase1_keep
        )
        assert all(p.simulation is not None for p in conex.simulated)

    def test_selected_is_pareto_of_simulated(self, exploration):
        _, _, conex = exploration
        vectors = [p.simulated_objectives for p in conex.simulated]
        for point in conex.selected:
            assert is_pareto_point(point.simulated_objectives, vectors)

    def test_brg_per_memory_architecture(self, exploration):
        _, apex, conex = exploration
        assert set(conex.brgs) == {e.architecture.name for e in apex.selected}

    def test_cluster_counts_respect_guard(self, exploration):
        _, _, conex = exploration
        for point in conex.estimated:
            assert (
                len(point.connectivity.clusters)
                <= CONEX_CONFIG.max_logical_connections
            )

    def test_timing_recorded(self, exploration):
        _, _, conex = exploration
        assert conex.phase1_seconds > 0
        assert conex.phase2_seconds > 0
        assert conex.total_seconds == pytest.approx(
            conex.phase1_seconds + conex.phase2_seconds
        )

    def test_exploration_improves_on_worst(self, exploration):
        """The headline claim: connectivity choice matters a lot."""
        _, _, conex = exploration
        latencies = [p.simulation.avg_latency for p in conex.simulated]
        assert max(latencies) > 1.3 * min(latencies)

    def test_empty_memory_set_rejected(self, exploration, conn_library_module):
        trace, _, _ = exploration
        with pytest.raises(ExplorationError):
            explore_connectivity(trace, [], conn_library_module)

    def test_rank_tau_gauge(self, exploration, conn_library_module):
        """With obs on, the Phase-I/Phase-II rank agreement of the
        carried designs' latencies is published as ``conex.rank_tau``."""
        from repro import obs
        from repro.util.stats import kendall_tau_b

        trace, apex, _ = exploration
        was_enabled = obs.enabled()
        obs.reset()
        obs.enable()
        try:
            conex = explore_connectivity(
                trace, apex.selected, conn_library_module, CONEX_CONFIG
            )
            gauges = obs.snapshot().gauges
        finally:
            if not was_enabled:
                obs.disable()
            obs.reset()
        expected = kendall_tau_b(
            [p.estimate.avg_latency for p in conex.simulated],
            [p.simulation.avg_latency for p in conex.simulated],
        )
        assert len(conex.simulated) >= 2
        assert gauges["conex.rank_tau"] == expected
        assert -1.0 <= expected <= 1.0

    def test_phase1_keep_one(self, exploration, conn_library_module):
        """Regression: a single carry slot used to divide by zero in
        the latency-axis thinning."""
        trace, apex, _ = exploration
        config = ConExConfig(
            max_logical_connections=4,
            max_assignments_per_level=128,
            phase1_keep=1,
        )
        conex = explore_connectivity(
            trace, apex.selected, conn_library_module, config
        )
        # One design carried per memory architecture: the lowest-latency
        # point of each local front.
        assert 1 <= len(conex.simulated) <= len(apex.selected)
        for point in conex.simulated:
            local = [
                p for p in conex.estimated
                if p.memory_name == point.memory_name
            ]
            assert point.estimate.avg_latency == min(
                p.estimate.avg_latency for p in local
            )


class TestScenarios:
    def test_power_constrained(self, exploration):
        _, _, conex = exploration
        energies = sorted(p.simulation.avg_energy_nj for p in conex.simulated)
        budget = energies[len(energies) // 2]
        picks = power_constrained_selection(conex.simulated, budget)
        assert picks
        assert all(p.simulation.avg_energy_nj <= budget for p in picks)
        # 2D pareto in cost/latency: sorted by cost, latency decreases.
        ordered = sorted(picks, key=lambda p: p.simulation.cost_gates)
        latencies = [p.simulation.avg_latency for p in ordered]
        assert latencies == sorted(latencies, reverse=True)

    def test_cost_constrained(self, exploration):
        _, _, conex = exploration
        costs = sorted(p.simulation.cost_gates for p in conex.simulated)
        budget = costs[len(costs) // 2]
        picks = cost_constrained_selection(conex.simulated, budget)
        assert picks
        assert all(p.simulation.cost_gates <= budget for p in picks)

    def test_performance_constrained(self, exploration):
        _, _, conex = exploration
        latencies = sorted(p.simulation.avg_latency for p in conex.simulated)
        budget = latencies[-1]
        picks = performance_constrained_selection(conex.simulated, budget)
        assert picks

    def test_scenarios_pick_different_designs(self, exploration):
        """The paper: the three goals are incompatible; scenario
        selections differ."""
        _, _, conex = exploration
        energies = sorted(p.simulation.avg_energy_nj for p in conex.simulated)
        costs = sorted(p.simulation.cost_gates for p in conex.simulated)
        power_picks = {
            p.label()
            for p in power_constrained_selection(conex.simulated, energies[-1])
        }
        cost_picks = {
            p.label()
            for p in cost_constrained_selection(conex.simulated, costs[-1])
        }
        assert power_picks != cost_picks

    def test_unconstrained_budget_keeps_all_feasible(self, exploration):
        _, _, conex = exploration
        picks = power_constrained_selection(conex.simulated, float("inf"))
        assert picks

    def test_impossible_budget_gives_empty(self, exploration):
        _, _, conex = exploration
        assert power_constrained_selection(conex.simulated, 0.0) == []

    def test_unsimulated_points_rejected(self, exploration):
        _, _, conex = exploration
        estimated_only = conex.estimated[:3]
        with pytest.raises(ExplorationError):
            power_constrained_selection(estimated_only, 100.0)

    def test_empty_points_rejected(self):
        with pytest.raises(ExplorationError):
            cost_constrained_selection([], 1.0)
