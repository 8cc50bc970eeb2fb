"""Tests for the local-search ablation baseline."""

import numpy as np
import pytest

from repro.core import (
    average_max_delay,
    average_total_delay,
    improve_max_delay,
    improve_total_delay,
    is_capacity_respecting,
    local_search,
    random_placement,
    solve_qpp_exact,
)
from repro.network import path_network, random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, majority


@pytest.fixture
def instance(rng):
    system = majority(5)
    strategy = AccessStrategy.uniform(system)
    network = uniform_capacities(random_geometric_network(7, 0.55, rng=rng), 1.0)
    return system, strategy, network


class TestDescent:
    def test_never_worsens(self, rng, instance):
        system, strategy, network = instance
        start = random_placement(system, strategy, network, rng=rng)
        result = improve_max_delay(start, strategy)
        assert result.objective <= result.initial_objective + 1e-12
        assert result.improvement >= 0.0

    def test_preserves_feasibility(self, rng, instance):
        system, strategy, network = instance
        start = random_placement(system, strategy, network, rng=rng)
        result = improve_max_delay(start, strategy)
        assert is_capacity_respecting(result.placement, strategy)

    def test_objective_matches_placement(self, rng, instance):
        system, strategy, network = instance
        start = random_placement(system, strategy, network, rng=rng)
        result = improve_max_delay(start, strategy)
        assert result.objective == pytest.approx(
            average_max_delay(result.placement, strategy)
        )

    def test_total_delay_variant(self, rng, instance):
        system, strategy, network = instance
        start = random_placement(system, strategy, network, rng=rng)
        result = improve_total_delay(start, strategy)
        assert result.objective == pytest.approx(
            average_total_delay(result.placement, strategy)
        )
        assert result.objective <= result.initial_objective + 1e-12

    def test_local_optimum_is_stable(self, rng, instance):
        """Re-running from a converged point makes no further progress."""
        system, strategy, network = instance
        start = random_placement(system, strategy, network, rng=rng)
        first = improve_max_delay(start, strategy)
        assert first.converged
        second = improve_max_delay(first.placement, strategy)
        assert second.iterations == 0
        assert second.objective == pytest.approx(first.objective)

    def test_iteration_budget_respected(self, rng, instance):
        system, strategy, network = instance
        start = random_placement(system, strategy, network, rng=rng)
        result = improve_max_delay(start, strategy, max_iterations=1)
        assert result.iterations <= 1

    def test_close_to_exact_on_tiny_instance(self, rng):
        """On a tiny instance, local search from random usually lands near
        the global optimum (sanity: within 2x here)."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(4).with_capacities(1.0)
        exact = solve_qpp_exact(system, strategy, network=network)
        start = random_placement(system, strategy, network, rng=rng)
        result = improve_max_delay(start, strategy)
        assert result.objective <= 2 * exact.objective + 1e-9
        assert result.objective >= exact.objective - 1e-9

    def test_swap_neighborhood_used_when_moves_blocked(self):
        """With exactly-tight capacities no single move is feasible; only
        swaps can improve.  Start from a bad arrangement on a path."""
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(3).with_capacities(2 / 3)  # each node: 1 element
        # Delays are permutation-invariant for majority; use total-delay
        # where position matters... actually for majority both objectives
        # are slot-multiset-invariant. Use a custom objective that prefers
        # element 0 on node 0 to force a swap.
        from repro.core import Placement

        start = Placement(system, network, {0: 2, 1: 1, 2: 0})
        result = local_search(
            start,
            strategy,
            lambda p: float(p.network.node_index(p[0])),
        )
        assert result.placement[0] == 0
        assert result.iterations >= 1
