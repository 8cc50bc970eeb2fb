"""Tests for the full Quorum Placement Problem solver (Theorem 1.2)."""

import numpy as np
import pytest

from repro.core import (
    average_max_delay,
    average_strategy,
    solve_qpp,
    solve_qpp_exact,
)
from repro.exceptions import ValidationError
from repro.experiments import small_suite
from repro.network import path_network, random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, majority


# paper: Thm 1.2, Thm 3.3
class TestTheorem12:
    def test_bounds_against_exact_optimum(self):
        """On exhaustively solvable instances: the algorithm's delay is
        within 5 alpha/(alpha-1) of OPT and the certified lower bound is
        valid."""
        for instance in small_suite(11)[:5]:
            result = solve_qpp(
                instance.system, instance.strategy, network=instance.network, alpha=2.0
            )
            exact = solve_qpp_exact(
                instance.system, instance.strategy, network=instance.network
            )
            assert result.objective <= (
                result.approximation_factor * exact.objective + 1e-6
            )
            assert result.optimum_lower_bound <= exact.objective + 1e-6

    def test_load_bound_holds(self, rng):
        from repro.core import capacity_violation_factor

        network = uniform_capacities(random_geometric_network(8, 0.55, rng=rng), 0.8)
        system = majority(5)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(system, strategy, network=network, alpha=2.0)
        violation = capacity_violation_factor(result.placement, strategy)
        assert violation <= result.load_factor_bound + 1e-6

    def test_reported_delay_matches_placement(self, rng):
        network = uniform_capacities(random_geometric_network(7, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(system, strategy, network=network)
        recomputed = average_max_delay(result.placement, strategy)
        assert result.objective == pytest.approx(recomputed)

    def test_per_source_results_cover_candidates(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(system, strategy, network=network)
        assert set(result.per_source) == set(network.nodes)
        assert result.source in result.per_source

    def test_candidate_restriction(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(
            system, strategy, network=network, candidate_sources=[network.nodes[0]]
        )
        assert set(result.per_source) == {network.nodes[0]}

    def test_empty_candidates_rejected(self, rng):
        network = uniform_capacities(random_geometric_network(5, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        with pytest.raises(ValidationError):
            solve_qpp(system, strategy, network=network, candidate_sources=[])

    def test_certified_ratio_consistency(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_qpp(system, strategy, network=network)
        if result.optimum_lower_bound > 0:
            assert result.certified_ratio == pytest.approx(
                result.objective / result.optimum_lower_bound
            )


# paper: Thm 3.3
class TestLowerBoundCertificate:
    """``min over v0 of (d(v0) + LP(v0)) / 5`` bounds OPT only when the
    OPT-dependent source of Lemma 3.1 is among the swept candidates."""

    @staticmethod
    def _instance():
        # Almost all demand at node 0; the lone candidate sits at the far
        # end of the path, where (d(6) + LP(6)) / 5 overshoots OPT ~6x.
        network = uniform_capacities(path_network(7), 10.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        rates = {v: 1.0 if v == 0 else 0.01 for v in network.nodes}
        exact = solve_qpp_exact(system, strategy, network=network, rates=rates)
        return system, strategy, network, rates, exact.objective

    @pytest.mark.parametrize("scale", ["dense", "large"])
    def test_partial_sweep_reports_no_bound(self, scale):
        system, strategy, network, rates, optimum = self._instance()
        result = solve_qpp(
            system,
            strategy,
            network=network,
            rates=rates,
            candidate_sources=[6],
            scale=scale,
            horizon=None,
        )
        assert result.optimum_lower_bound <= optimum
        assert result.optimum_lower_bound == 0.0
        assert dict(result.provenance.parameters)["lower_bound_void"] == (
            "partial candidate sweep (1 of 7 nodes)"
        )

    @pytest.mark.parametrize("scale", ["dense", "large"])
    def test_full_sweep_keeps_the_certified_bound(self, scale):
        system, strategy, network, rates, optimum = self._instance()
        result = solve_qpp(
            system,
            strategy,
            network=network,
            rates=rates,
            candidate_sources=list(network.nodes),
            scale=scale,
            horizon=None,
        )
        assert 0.0 < result.optimum_lower_bound <= optimum + 1e-9
        assert "lower_bound_void" not in dict(result.provenance.parameters)

    def test_restricted_domain_is_named(self):
        system, strategy, network, rates, _ = self._instance()
        result = solve_qpp(
            system,
            strategy,
            network=network,
            rates=rates,
            candidate_sources=list(network.nodes),
            scale="large",
            horizon=2,
        )
        assert result.optimum_lower_bound == 0.0
        assert dict(result.provenance.parameters)["lower_bound_void"] == (
            "restricted placement domain"
        )


class TestRates:
    def test_rate_weighted_objective_selected(self, rng):
        """With all the rate on one client, the solver should find a
        placement at least as good for that client as the uniform-rate
        solution."""
        network = uniform_capacities(random_geometric_network(7, 0.55, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        hot_client = network.nodes[3]
        rates = {hot_client: 100.0, **{v: 0.01 for v in network.nodes if v != hot_client}}
        weighted = solve_qpp(system, strategy, network=network, rates=rates)
        uniform = solve_qpp(system, strategy, network=network)
        weighted_objective = average_max_delay(weighted.placement, strategy, rates=rates)
        uniform_objective = average_max_delay(uniform.placement, strategy, rates=rates)
        assert weighted_objective <= uniform_objective + 1e-6


class TestAverageStrategy:
    def test_average_strategy_uniform_rates(self):
        system = majority(3)
        network = path_network(3)
        a = AccessStrategy.point_mass(system, 0)
        b = AccessStrategy.point_mass(system, 1)
        c = AccessStrategy.point_mass(system, 2)
        averaged = average_strategy({0: a, 1: b, 2: c}, network)
        assert averaged.probabilities == pytest.approx(np.full(3, 1 / 3))

    def test_average_strategy_rate_weighted(self):
        system = majority(3)
        network = path_network(2)
        a = AccessStrategy.point_mass(system, 0)
        b = AccessStrategy.point_mass(system, 1)
        averaged = average_strategy({0: a, 1: b}, network, rates={0: 3.0, 1: 1.0})
        assert averaged.probability(0) == pytest.approx(0.75)

    def test_missing_client_rejected(self):
        system = majority(3)
        network = path_network(3)
        with pytest.raises(ValidationError, match="missing"):
            average_strategy({0: AccessStrategy.uniform(system)}, network)


class TestCandidateDedupe:
    """Duplicate candidate sources must be solved once and reported once."""

    def test_duplicates_are_deduped(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        nodes = list(network.nodes)
        duplicated = [nodes[0], nodes[1], nodes[0], nodes[2], nodes[1], nodes[0]]
        result = solve_qpp(
            system, strategy, network=network, candidate_sources=duplicated
        )
        assert set(result.per_source) == {nodes[0], nodes[1], nodes[2]}
        assert len(result.per_source) == 3

    def test_duplicates_match_unique_sweep(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        nodes = list(network.nodes)
        unique = solve_qpp(
            system, strategy, network=network, candidate_sources=nodes[:3]
        )
        duplicated = solve_qpp(
            system, strategy, network=network, candidate_sources=nodes[:3] * 2
        )
        assert duplicated.objective == pytest.approx(unique.objective)
        assert duplicated.optimum_lower_bound == pytest.approx(
            unique.optimum_lower_bound
        )
        assert duplicated.source == unique.source

    def test_per_source_keys_equal_candidate_set(self, rng):
        """Diagnostics must cover exactly the (deduped) candidate set."""
        network = uniform_capacities(random_geometric_network(7, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        full = solve_qpp(system, strategy, network=network)
        assert set(full.per_source) == set(network.nodes)
        restricted = solve_qpp(
            system,
            strategy,
            network=network,
            candidate_sources=list(network.nodes)[:4],
        )
        assert set(restricted.per_source) == set(list(network.nodes)[:4])
