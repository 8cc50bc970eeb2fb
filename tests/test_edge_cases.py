"""Edge-case hardening across modules.

Behaviors that only show up at boundaries: single-node networks,
single-element universes, zero-probability quorums, degenerate
capacities, and empty-ish inputs.
"""

import math

import numpy as np
import pytest

from repro.core import (
    Placement,
    average_max_delay,
    average_total_delay,
    expected_max_delay,
    node_loads,
    relay_analysis,
    solve_qpp,
    solve_ssqpp,
    solve_total_delay,
)
from repro.exceptions import ValidationError
from repro.network import Network, path_network
from repro.quorums import AccessStrategy, QuorumSystem, singleton


class TestSingleNodeWorld:
    """Everything collapses gracefully on a one-node network."""

    @pytest.fixture
    def world(self):
        system = singleton("s")
        strategy = AccessStrategy.uniform(system)
        network = Network([0], [], capacities=5.0)
        placement = Placement(system, network, {"s": 0})
        return system, strategy, network, placement

    def test_all_delays_zero(self, world):
        _, strategy, _, placement = world
        assert average_max_delay(placement, strategy) == 0.0
        assert average_total_delay(placement, strategy) == 0.0

    def test_relay_factor_one(self, world):
        _, strategy, _, placement = world
        assert relay_analysis(placement, strategy).factor == 1.0

    def test_solvers_work(self, world):
        system, strategy, network, _ = world
        ssqpp = solve_ssqpp(system, strategy, network=network, source=0)
        assert ssqpp.delay == 0.0
        qpp = solve_qpp(system, strategy, network=network)
        assert qpp.objective == 0.0
        total = solve_total_delay(system, strategy, network=network)
        assert total.objective == 0.0


class TestZeroProbabilityQuorums:
    def test_unsupported_quorums_do_not_affect_delay(self):
        """A quorum with p = 0 can sit arbitrarily far away."""
        system = QuorumSystem([{0, 1}, {0, 2}], universe=range(3))
        strategy = AccessStrategy.from_weights(system, {0: 1.0})  # only {0,1}
        network = path_network(10).with_capacities(10.0)
        near = Placement(system, network, {0: 0, 1: 0, 2: 9})
        assert expected_max_delay(near, strategy, 0) == 0.0

    def test_zero_load_element_fits_anywhere(self):
        """Element 2 carries zero load: capacity 0 nodes can host it."""
        system = QuorumSystem([{0, 1}, {0, 2}], universe=range(3))
        strategy = AccessStrategy.from_weights(system, {0: 1.0})
        capacities = {0: 1.0, 1: 1.0, 2: 0.0}
        network = path_network(3).with_capacities(capacities)
        result = solve_ssqpp(system, strategy, network=network, source=0)
        assert result.within_guarantees

    def test_node_loads_ignore_unsupported_quorums(self):
        system = QuorumSystem([{0, 1}, {0, 2}], universe=range(3))
        strategy = AccessStrategy.from_weights(system, {0: 1.0})
        network = path_network(3).with_capacities(1.0)
        placement = Placement(system, network, {0: 0, 1: 1, 2: 2})
        loads = node_loads(placement, strategy)
        assert loads[2] == 0.0


class TestDegenerateCapacities:
    def test_all_zero_capacity_with_positive_load_is_infeasible(self):
        from repro.exceptions import InfeasibleError

        system = singleton("s")
        strategy = AccessStrategy.uniform(system)
        network = path_network(3).with_capacities(0.0)
        with pytest.raises(InfeasibleError):
            solve_ssqpp(system, strategy, network=network, source=0)

    def test_exactly_tight_capacity_is_feasible(self):
        system = singleton("s")
        strategy = AccessStrategy.uniform(system)
        network = path_network(2).with_capacities(1.0)  # load = cap = 1
        result = solve_ssqpp(system, strategy, network=network, source=0)
        assert result.delay == pytest.approx(0.0)


class TestMetricEdges:
    def test_two_node_metric(self):
        network = Network([0, 1], [(0, 1, 7.0)])
        metric = network.metric()
        assert metric.diameter() == 7.0
        assert metric.median() in (0, 1)
        assert metric.k_centers(2) != [metric.median()] * 2

    def test_distances_from_returns_read_only_row(self):
        metric = path_network(3).metric()
        row = metric.distances_from(0)
        with pytest.raises(ValueError):
            row[0] = 99.0


class TestStrategySupportEdge:
    def test_point_mass_support_and_sampling(self):
        system = QuorumSystem([{0, 1}, {1, 2}], universe=range(3))
        strategy = AccessStrategy.point_mass(system, 1)
        assert strategy.support() == (1,)
        rng = np.random.default_rng(0)
        assert set(np.asarray(strategy.sample(rng, size=20)).tolist()) == {1}

    def test_expected_quorum_size_single_quorum(self):
        system = QuorumSystem([{0, 1, 2}])
        strategy = AccessStrategy.uniform(system)
        assert strategy.expected_quorum_size() == 3.0


class TestNumericRobustness:
    def test_tiny_edge_lengths(self):
        network = Network([0, 1, 2], [(0, 1, 1e-9), (1, 2, 1e-9)])
        metric = network.metric()
        assert metric.distance(0, 2) == pytest.approx(2e-9)

    def test_huge_edge_lengths(self):
        network = Network([0, 1], [(0, 1, 1e12)])
        assert network.metric().diameter() == pytest.approx(1e12)

    def test_mixed_scale_instance_solves(self):
        system = QuorumSystem([{0, 1}], universe=range(2))
        strategy = AccessStrategy.uniform(system)
        network = Network(
            [0, 1, 2], [(0, 1, 1e-6), (1, 2, 1e6)], capacities=1.0
        )
        result = solve_ssqpp(system, strategy, network=network, source=0)
        assert math.isfinite(result.delay)
        assert result.within_guarantees
