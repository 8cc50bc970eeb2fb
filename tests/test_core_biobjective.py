"""Tests for the max-delay / total-delay scalarization."""

import numpy as np
import pytest

from repro.core import (
    max_vs_total_frontier,
    solve_scalarized_placement,
    solve_ssqpp,
    solve_total_delay,
)
from repro.exceptions import ValidationError
from repro.network import random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, majority


@pytest.fixture
def instance(rng):
    system = majority(5)
    strategy = AccessStrategy.uniform(system)
    network = uniform_capacities(random_geometric_network(9, 0.5, rng=rng), 0.9)
    return system, strategy, network


class TestScalarization:
    def test_load_guarantee_holds_at_every_weight(self, instance):
        system, strategy, network = instance
        for weight in (0.0, 0.3, 0.7, 1.0):
            result = solve_scalarized_placement(
                system, strategy, network, 0, weight=weight, alpha=2.0
            )
            assert result.max_load_factor <= 3.0 + 1e-6

    def test_weight_one_matches_pure_ssqpp_shape(self, instance):
        """At weight 1 the pipeline is the plain §3.3 algorithm: the
        realized max-delay stays within the Theorem 3.7 bound."""
        system, strategy, network = instance
        pure = solve_ssqpp(system, strategy, network=network, source=0, alpha=2.0)
        scalarized = solve_scalarized_placement(
            system, strategy, network, 0, weight=1.0, alpha=2.0
        )
        assert scalarized.max_delay <= pure.delay_bound + 1e-6

    def test_weight_zero_tracks_total_delay_solver(self, instance):
        """At weight 0 the objective is the Section 5 decomposition; the
        scalarized result should not be far above the dedicated solver
        (which has no source restriction but the same per-element costs)."""
        system, strategy, network = instance
        dedicated = solve_total_delay(system, strategy, network=network)
        scalarized = solve_scalarized_placement(
            system, strategy, network, 0, weight=0.0, alpha=2.0
        )
        assert scalarized.total_delay <= 1.5 * dedicated.objective + 1e-6

    def test_reported_metrics_match_placement(self, instance):
        from repro.core import average_total_delay, expected_max_delay

        system, strategy, network = instance
        result = solve_scalarized_placement(
            system, strategy, network, 0, weight=0.5
        )
        assert result.max_delay == pytest.approx(
            expected_max_delay(result.placement, strategy, 0)
        )
        assert result.total_delay == pytest.approx(
            average_total_delay(result.placement, strategy)
        )

    def test_weight_validation(self, instance):
        system, strategy, network = instance
        with pytest.raises(ValidationError):
            solve_scalarized_placement(
                system, strategy, network, 0, weight=1.5
            )
        with pytest.raises(ValidationError):
            solve_scalarized_placement(
                system, strategy, network, 0, weight=0.5, alpha=1.0
            )


class TestFrontier:
    def test_frontier_is_pareto_clean(self, instance):
        system, strategy, network = instance
        front = max_vs_total_frontier(system, strategy, network, 0)
        assert front
        for i, a in enumerate(front):
            for b in front[i + 1 :]:
                dominated = (
                    a.max_delay <= b.max_delay + 1e-12
                    and a.total_delay <= b.total_delay + 1e-12
                )
                assert not dominated or (
                    a.max_delay == pytest.approx(b.max_delay)
                    and a.total_delay == pytest.approx(b.total_delay)
                )

    def test_frontier_sorted_by_max_delay(self, instance):
        system, strategy, network = instance
        front = max_vs_total_frontier(system, strategy, network, 0)
        delays = [point.max_delay for point in front]
        assert delays == sorted(delays)

    def test_custom_weights(self, instance):
        system, strategy, network = instance
        front = max_vs_total_frontier(
            system, strategy, network, 0, weights=[0.0, 1.0]
        )
        assert 1 <= len(front) <= 2
