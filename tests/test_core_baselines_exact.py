"""Tests for baseline placements and the exhaustive optimal solvers."""

import pytest

from repro.core import (
    average_max_delay,
    average_total_delay,
    capacity_violation_factor,
    expected_max_delay,
    greedy_placement,
    is_capacity_respecting,
    random_placement,
    single_node_placement,
    solve_qpp_exact,
    solve_ssqpp_exact,
    solve_total_delay_exact,
)
from repro.exceptions import CapacityError, InfeasibleError, ValidationError
from repro.network import path_network, random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, QuorumSystem, majority


class TestSingleNode:
    def test_collapses_everything_onto_median(self):
        system = majority(3)
        network = path_network(5)
        placement = single_node_placement(system, network)
        assert set(placement.as_dict().values()) == {2}

    def test_explicit_node(self):
        system = majority(3)
        network = path_network(5)
        placement = single_node_placement(system, network, node=4)
        assert set(placement.as_dict().values()) == {4}

    def test_single_node_has_delay_zero_from_host_but_high_load(self):
        system = majority(5)
        strategy = AccessStrategy.uniform(system)
        network = path_network(4).with_capacities(1.0)
        placement = single_node_placement(system, network, node=0)
        assert expected_max_delay(placement, strategy, 0) == 0.0
        # The host carries the whole expected quorum size worth of load.
        assert capacity_violation_factor(placement, strategy) == pytest.approx(3.0)


class TestRandomPlacement:
    def test_feasible_and_deterministic(self, rng, small_network, majority5):
        system, strategy = majority5
        placement = random_placement(system, strategy, small_network, rng=rng)
        assert is_capacity_respecting(placement, strategy)

    def test_impossible_instance_raises(self, rng):
        system = QuorumSystem([{0, 1, 2}])
        strategy = AccessStrategy.uniform(system)
        network = path_network(2).with_capacities(1.0)  # 3 unit loads, cap 2
        with pytest.raises(CapacityError):
            random_placement(system, strategy, network, rng=rng, attempts=5)


class TestGreedyPlacement:
    def test_greedy_feasible(self, rng, small_network, majority5):
        system, strategy = majority5
        placement = greedy_placement(system, strategy, small_network)
        assert is_capacity_respecting(placement, strategy)

    def test_greedy_packs_near_center(self):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(9).with_capacities(10.0)
        placement = greedy_placement(system, strategy, network)
        # Everything fits on the 1-median (node 4).
        assert set(placement.as_dict().values()) == {4}

    def test_greedy_custom_center(self):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(9).with_capacities(10.0)
        placement = greedy_placement(system, strategy, network, center=0)
        assert set(placement.as_dict().values()) == {0}

    def test_greedy_failure_raises(self):
        system = QuorumSystem([{0, 1}])
        strategy = AccessStrategy.uniform(system)
        network = path_network(1).with_capacities(1.0)
        with pytest.raises(CapacityError):
            greedy_placement(system, strategy, network)


class TestExactSolvers:
    def test_exact_solutions_respect_capacity(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        for solver in (
            lambda: solve_ssqpp_exact(system, strategy, network=network, source=network.nodes[0]),
            lambda: solve_qpp_exact(system, strategy, network=network),
            lambda: solve_total_delay_exact(system, strategy, network=network),
        ):
            result = solver()
            assert is_capacity_respecting(result.placement, strategy)

    def test_exact_qpp_objective_matches_placement(self, rng):
        network = uniform_capacities(random_geometric_network(5, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp_exact(system, strategy, network=network)
        assert result.objective == pytest.approx(
            average_max_delay(result.placement, strategy)
        )

    def test_exact_total_delay_objective_matches(self, rng):
        network = uniform_capacities(random_geometric_network(5, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_total_delay_exact(system, strategy, network=network)
        assert result.objective == pytest.approx(
            average_total_delay(result.placement, strategy)
        )

    def test_exact_beats_baselines(self, rng, small_network, majority5):
        system, strategy = majority5
        exact = solve_qpp_exact(system, strategy, network=small_network)
        for _ in range(5):
            baseline = random_placement(system, strategy, small_network, rng=rng)
            assert exact.objective <= average_max_delay(baseline, strategy) + 1e-9

    def test_infeasible_detected(self):
        system = QuorumSystem([{0, 1, 2}])
        strategy = AccessStrategy.uniform(system)
        network = path_network(2).with_capacities(1.0)
        with pytest.raises(InfeasibleError):
            solve_qpp_exact(system, strategy, network=network)

    def test_oversized_search_guard(self):
        system = majority(9)
        strategy = AccessStrategy.uniform(system)
        network = path_network(12).with_capacities(10.0)
        with pytest.raises(ValidationError, match="refused"):
            solve_qpp_exact(system, strategy, network=network)

    def test_exact_ssqpp_with_rates_ignored_smoke(self, rng):
        """solve_qpp_exact accepts rates and optimizes the weighted avg."""
        network = uniform_capacities(random_geometric_network(5, 0.6, rng=rng), 2.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        rates = {network.nodes[0]: 10.0}
        result = solve_qpp_exact(system, strategy, network=network, rates=rates)
        assert result.objective == pytest.approx(
            average_max_delay(result.placement, strategy, rates=rates)
        )
