"""Tests for §4.2: the Majority placement and equation (19)."""

from math import comb

import numpy as np
import pytest

from repro.core import (
    Placement,
    expected_max_delay,
    is_capacity_respecting,
    majority_delay_formula,
    optimal_majority_placement,
)
from repro.exceptions import ValidationError
from repro.network import path_network, random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, threshold


# paper: Thm 1.3, eq. (19)
class TestFormula:
    def test_formula_validation(self):
        with pytest.raises(ValidationError, match="2t > n"):
            majority_delay_formula(6, 3, [1.0] * 6)
        with pytest.raises(ValidationError, match="distances"):
            majority_delay_formula(5, 3, [1.0] * 4)

    def test_formula_by_hand_n3_t2(self):
        """n=3, t=2, distances 0, 1, 2 (taus: 2, 1, 0).
        Quorums: C(3,2)=3; coefficient of tau_1 is C(2,1)=2, of tau_2 is
        C(1,1)=1 => (2*2 + 1*1)/3 = 5/3."""
        assert majority_delay_formula(3, 2, [0.0, 1.0, 2.0]) == pytest.approx(5 / 3)

    def test_formula_equals_direct_evaluation(self, rng):
        """Equation (19) must match the brute-force expectation for every
        random distance multiset."""
        n, t = 6, 4
        for _ in range(10):
            distances = sorted(rng.uniform(0, 10, n), reverse=True)
            expected = 0.0
            from itertools import combinations

            for quorum in combinations(range(n), t):
                expected += max(distances[i] for i in quorum)
            expected /= comb(n, t)
            assert majority_delay_formula(n, t, list(distances)) == pytest.approx(expected)

    def test_formula_zero_distances(self):
        assert majority_delay_formula(5, 3, [0.0] * 5) == 0.0


class TestPlacementInvariance:
    def test_any_permutation_has_same_delay(self, rng):
        """§4.2's claim: the delay depends only on the occupied slots."""
        n, t = 5, 3
        system = threshold(n, t)
        strategy = AccessStrategy.uniform(system)
        network = uniform_capacities(random_geometric_network(8, 0.55, rng=rng), 1.0)
        source = network.nodes[0]
        hosts = list(network.nodes[:n])
        reference = None
        for _ in range(10):
            shuffled = list(hosts)
            rng.shuffle(shuffled)
            placement = Placement(
                system, network, dict(zip(system.universe, shuffled))
            )
            delay = expected_max_delay(placement, strategy, source)
            if reference is None:
                reference = delay
            assert delay == pytest.approx(reference)


class TestOptimalMajorityPlacement:
    def test_formula_matches_realized_delay(self, rng):
        network = uniform_capacities(random_geometric_network(9, 0.5, rng=rng), 1.0)
        result = optimal_majority_placement(network, network.nodes[0], n=5)
        assert result.objective == pytest.approx(result.formula_delay)

    def test_respects_capacities(self, rng):
        network = uniform_capacities(random_geometric_network(9, 0.5, rng=rng), 1.0)
        result = optimal_majority_placement(network, network.nodes[0], n=7)
        assert is_capacity_respecting(result.placement, result.strategy)

    def test_custom_threshold(self, rng):
        network = uniform_capacities(random_geometric_network(8, 0.55, rng=rng), 1.0)
        result = optimal_majority_placement(network, network.nodes[0], n=5, t=4)
        assert result.placement.system.min_quorum_size() == 4

    def test_optimal_on_path_uses_closest_nodes(self):
        """On a path with the source at one end, the n closest slots are
        nodes 0..n-1 and the delay follows formula (19) on 0..n-1."""
        network = path_network(8).with_capacities(1.0)
        n, t = 5, 3
        result = optimal_majority_placement(network, 0, n=n, t=t)
        used = sorted(set(result.placement.as_dict().values()))
        assert used == [0, 1, 2, 3, 4]
        expected = majority_delay_formula(n, t, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert result.objective == pytest.approx(expected)

    def test_beats_exhaustive_alternatives_small(self):
        """On a tiny instance, no capacity-respecting placement has
        smaller delay (cross-check of the optimality argument)."""
        from repro.core import solve_ssqpp_exact

        network = path_network(6).with_capacities(1.0)
        n, t = 4, 3
        result = optimal_majority_placement(network, 0, n=n, t=t)
        exact = solve_ssqpp_exact(
            result.placement.system, result.strategy, network=network, source=0
        )
        assert result.objective == pytest.approx(exact.objective)
