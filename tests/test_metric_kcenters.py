"""Tests for the greedy k-center candidate selector."""

import pytest

from repro.exceptions import ValidationError
from repro.network import path_network, random_geometric_network, two_cluster_network


class TestKCenters:
    def test_first_center_is_median(self):
        metric = path_network(5).metric()
        assert metric.k_centers(1) == [2]

    def test_two_centers_span_the_path(self):
        metric = path_network(9).metric()
        centers = metric.k_centers(2)
        assert centers[0] == 4  # median
        assert centers[1] in (0, 8)  # farthest endpoint

    def test_centers_cover_both_clusters(self):
        network = two_cluster_network(4, bridge_length=50.0)
        centers = network.metric().k_centers(2)
        sides = {node[0] for node in centers}
        assert sides == {"a", "b"}

    def test_k_larger_than_nodes_truncates(self):
        metric = path_network(3).metric()
        centers = metric.k_centers(10)
        assert len(centers) == 3
        assert len(set(centers)) == 3

    def test_invalid_k(self):
        metric = path_network(3).metric()
        with pytest.raises(ValidationError):
            metric.k_centers(0)

    def test_centers_are_distinct(self, rng):
        metric = random_geometric_network(15, 0.5, rng=rng).metric()
        centers = metric.k_centers(5)
        assert len(set(centers)) == len(centers)

    def test_k_center_objective_two_approximation_shape(self, rng):
        """Greedy k-center: max distance to the chosen centers shrinks
        (weakly) as k grows."""
        metric = random_geometric_network(20, 0.4, rng=rng).metric()
        radii = []
        import numpy as np

        for k in (1, 2, 4, 8):
            centers = metric.k_centers(k)
            indices = [metric.node_index(c) for c in centers]
            radii.append(float(metric.matrix[:, indices].min(axis=1).max()))
        assert radii == sorted(radii, reverse=True)

    def test_qpp_with_kcenter_candidates(self, rng):
        """The intended use: prune the relay sweep with k-centers."""
        from repro.core import solve_qpp
        from repro.network import uniform_capacities
        from repro.quorums import AccessStrategy, majority

        network = uniform_capacities(
            random_geometric_network(10, 0.5, rng=rng), 1.0
        )
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        candidates = network.metric().k_centers(3)
        pruned = solve_qpp(
            system, strategy, network=network, candidate_sources=candidates
        )
        full = solve_qpp(system, strategy, network=network)
        # Pruning can lose a little; it must stay within a sane factor.
        assert pruned.objective <= 2.0 * full.objective + 1e-9
