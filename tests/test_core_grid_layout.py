"""Tests for the §4.1 / Appendix B optimal Grid layout."""

from itertools import permutations

import numpy as np
import pytest

from repro.core import (
    concentric_matrix,
    concentric_positions,
    expected_max_delay,
    grid_matrix_delay,
    is_capacity_respecting,
    nearest_slots,
    optimal_grid_placement,
)
from repro.exceptions import CapacityError
from repro.network import (
    path_network,
    random_geometric_network,
    star_network,
    uniform_capacities,
)


# paper: Thm 1.3, Thm B.1
class TestConcentricPositions:
    def test_k2_order(self):
        assert concentric_positions(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_k3_order(self):
        assert concentric_positions(3) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 2),
            (1, 2),
            (2, 0),
            (2, 1),
            (2, 2),
        ]

    def test_positions_cover_matrix(self):
        for k in (1, 2, 3, 4, 5):
            positions = concentric_positions(k)
            assert len(positions) == k * k
            assert len(set(positions)) == k * k

    def test_prefix_is_square(self):
        """After l^2 placements the filled cells form the top-left l x l
        square — the invariant of the Appendix B induction."""
        positions = concentric_positions(4)
        for l in (1, 2, 3, 4):
            filled = set(positions[: l * l])
            assert filled == {(i, j) for i in range(l) for j in range(l)}


class TestConcentricMatrix:
    def test_largest_value_at_origin(self):
        matrix = concentric_matrix([1.0, 5.0, 3.0, 2.0])
        assert matrix[0, 0] == 5.0
        assert matrix[1, 1] == 1.0

    def test_values_descend_along_fill_order(self):
        values = [float(v) for v in range(9)]
        matrix = concentric_matrix(values)
        ordered = [matrix[p] for p in concentric_positions(3)]
        assert ordered == sorted(values, reverse=True)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            concentric_matrix([1.0, 2.0, 3.0])


class TestMatrixDelay:
    def test_delay_by_hand_k2(self):
        # M = [[d, c], [b, a]] with d >= c >= b >= a.
        matrix = np.array([[4.0, 3.0], [2.0, 1.0]])
        # Quorums (i,j): max(row i, col j):
        # (0,0): 4; (0,1): 4; (1,0): 4; (1,1): 3 (row1 max 2, col1 max 3).
        assert grid_matrix_delay(matrix) == pytest.approx((4 + 4 + 4 + 3) / 4)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            grid_matrix_delay(np.zeros((2, 3)))

    def test_matches_placement_evaluator(self, rng):
        """grid_matrix_delay(layout matrix) == Delta_f(v0) of the
        produced placement."""
        network = uniform_capacities(random_geometric_network(12, 0.5, rng=rng), 1.0)
        result = optimal_grid_placement(network, network.nodes[0], k=2)
        assert grid_matrix_delay(result.matrix) == pytest.approx(result.objective)


class TestTheoremB1:
    def test_concentric_beats_all_permutations_k2(self, rng):
        """Exhaustive optimality for k=2 on random distance multisets."""
        for _ in range(20):
            values = sorted(rng.uniform(0, 10, 4))
            best = min(
                grid_matrix_delay(np.array(p).reshape(2, 2))
                for p in permutations(values)
            )
            ours = grid_matrix_delay(concentric_matrix(list(values)))
            assert ours == pytest.approx(best)

    def test_concentric_never_beaten_by_samples_k3(self, rng):
        """Randomized optimality check for k=3 (exhaustive 9! is a bench)."""
        values = list(rng.uniform(0, 10, 9))
        ours = grid_matrix_delay(concentric_matrix(values))
        array = np.array(values)
        for _ in range(3000):
            rng.shuffle(array)
            assert ours <= grid_matrix_delay(array.reshape(3, 3)) + 1e-9

    def test_row_major_is_no_better(self, rng):
        values = sorted(rng.uniform(0, 10, 16), reverse=True)
        ours = grid_matrix_delay(concentric_matrix(list(values)))
        row_major = grid_matrix_delay(np.array(values).reshape(4, 4))
        assert ours <= row_major + 1e-12


class TestSlots:
    def test_capacity_two_gives_two_slots(self):
        network = path_network(3).with_capacities(2.0)
        slots = nearest_slots(network, 0, element_load=1.0, count=4)
        assert slots == [0, 0, 1, 1]

    def test_small_capacity_nodes_suppressed(self):
        network = path_network(3).with_capacities({0: 0.4, 1: 1.0, 2: 1.0})
        # Node 0 holds zero copies of load 0.5; node 1 supplies two slots.
        slots = nearest_slots(network, 0, element_load=0.5, count=3)
        assert slots == [1, 1, 2]

    def test_insufficient_slots_raise(self):
        network = path_network(2).with_capacities(1.0)
        with pytest.raises(CapacityError, match="slots"):
            nearest_slots(network, 0, element_load=1.0, count=3)


class TestOptimalGridPlacement:
    def test_respects_capacities_theorem_1_3(self, rng):
        network = uniform_capacities(random_geometric_network(11, 0.5, rng=rng), 1.0)
        result = optimal_grid_placement(network, network.nodes[0], k=3)
        assert is_capacity_respecting(result.placement, result.strategy)

    def test_delay_matches_reported(self, rng):
        network = uniform_capacities(random_geometric_network(10, 0.5, rng=rng), 1.0)
        result = optimal_grid_placement(network, network.nodes[2], k=2)
        assert expected_max_delay(
            result.placement, result.strategy, network.nodes[2]
        ) == pytest.approx(result.objective)

    def test_star_network_layout_uses_center_first(self):
        """On a star with the hub as source, one element lands on the hub
        (its slot is at distance 0) and the layout puts the *closest* slot
        at the matrix corner (k,k)."""
        network = star_network(9).with_capacities(1.0)
        result = optimal_grid_placement(network, 0, k=2)
        assert result.matrix[1, 1] == pytest.approx(0.0)
        assert result.placement[(1, 1)] == 0
