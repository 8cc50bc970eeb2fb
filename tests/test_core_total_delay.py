"""Tests for Section 5 / Theorems 1.4 and 5.1 (total delay via GAP)."""

import pytest

from repro.core import (
    average_total_delay,
    node_loads,
    solve_total_delay,
    solve_total_delay_exact,
)
from repro.exceptions import InfeasibleError
from repro.experiments import small_suite
from repro.network import path_network, random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, QuorumSystem, majority


# paper: Thm 1.4, §5
class TestTheorem51:
    def test_delay_at_most_optimum_small_instances(self):
        """The headline guarantee: delay <= OPT (with 2x capacity)."""
        for instance in small_suite(21)[:6]:
            result = solve_total_delay(
                instance.system, instance.strategy, network=instance.network
            )
            exact = solve_total_delay_exact(
                instance.system, instance.strategy, network=instance.network
            )
            assert result.objective <= exact.objective + 1e-6
            assert result.lp_value <= exact.objective + 1e-6
            assert result.load_violation_factor <= 2.0 + 1e-6
            assert result.within_guarantees

    def test_reported_delay_matches_placement(self, rng):
        network = uniform_capacities(random_geometric_network(9, 0.5, rng=rng), 0.9)
        system = majority(5)
        strategy = AccessStrategy.uniform(system)
        result = solve_total_delay(system, strategy, network=network)
        assert result.objective == pytest.approx(
            average_total_delay(result.placement, strategy)
        )

    def test_load_bound_2x(self, rng):
        network = uniform_capacities(random_geometric_network(10, 0.5, rng=rng), 0.7)
        system = majority(7)
        strategy = AccessStrategy.uniform(system)
        result = solve_total_delay(system, strategy, network=network)
        loads = node_loads(result.placement, strategy)
        for node, load in loads.items():
            assert load <= 2.0 * network.capacity(node) + 1e-6

    def test_infeasible_instance_raises(self):
        system = QuorumSystem([{0, 1, 2}])
        strategy = AccessStrategy.uniform(system)
        network = path_network(2).with_capacities(0.5)  # loads are 1 each
        with pytest.raises(InfeasibleError):
            solve_total_delay(system, strategy, network=network)

    def test_rates_shift_placement_toward_hot_clients(self):
        """All access rate at one end of a path: the placement should
        sit strictly closer to that end than the uniform solution."""
        network = path_network(7).with_capacities(10.0)  # capacity slack
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        hot = {0: 100.0, **{v: 0.001 for v in network.nodes if v != 0}}
        weighted = solve_total_delay(system, strategy, network=network, rates=hot)
        hosts = set(weighted.placement.as_dict().values())
        assert hosts == {0}  # capacity allows full collapse onto the hot node

    def test_uncapacitated_collapses_to_median(self):
        """With infinite capacities the per-element optimum is the
        1-median for every element."""
        network = path_network(5)  # default capacities: infinity
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_total_delay(system, strategy, network=network)
        median = network.metric().median()
        assert set(result.placement.as_dict().values()) == {median}
