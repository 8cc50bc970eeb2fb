"""Tests for the single-source LP-rounding algorithm (Theorems 3.7/3.12)."""

import numpy as np
import pytest

from repro.core import solve_ssqpp, solve_ssqpp_exact
from repro.core.ssqpp import _filter_fractions, build_ssqpp_lp
from repro.exceptions import InfeasibleError, ValidationError
from repro.experiments import small_suite
from repro.network import path_network, random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, QuorumSystem, majority, wheel


class TestLPRelaxation:
    def test_lp_lower_bounds_exact_optimum(self, rng):
        for instance in small_suite(3)[:6]:
            source = instance.network.nodes[0]
            model, *_ = build_ssqpp_lp(
                instance.system, instance.strategy, instance.network, source
            )
            lp_value = model.solve().objective
            exact = solve_ssqpp_exact(
                instance.system, instance.strategy, network=instance.network, source=source
            )
            assert lp_value <= exact.objective + 1e-6

    def test_lp_zero_when_everything_fits_at_source(self):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(3).with_capacities({0: 10.0, 1: 1.0, 2: 1.0})
        model, *_ = build_ssqpp_lp(system, strategy, network, 0)
        assert model.solve().objective == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_when_element_fits_nowhere(self):
        system = QuorumSystem([{0}])
        strategy = AccessStrategy.uniform(system)
        network = path_network(2).with_capacities(0.5)  # load(0) = 1 > 0.5
        with pytest.raises(InfeasibleError, match="exceeding every node"):
            build_ssqpp_lp(system, strategy, network, 0)

    def test_strategy_mismatch_rejected(self):
        system = majority(3)
        other = AccessStrategy.uniform(majority(5))
        with pytest.raises(ValidationError):
            build_ssqpp_lp(system, other, path_network(3), 0)


class TestFiltering:
    def test_filtering_moves_mass_toward_source(self):
        raw = np.array([[0.25], [0.25], [0.25], [0.25]])
        filtered = _filter_fractions(raw, 2.0)
        assert filtered[:, 0] == pytest.approx([0.5, 0.5, 0.0, 0.0])

    def test_filtering_splits_at_threshold(self):
        raw = np.array([[0.4], [0.4], [0.2]])
        filtered = _filter_fractions(raw, 2.0)
        assert filtered[:, 0] == pytest.approx([0.8, 0.2, 0.0])

    def test_filtering_alpha_three(self):
        raw = np.array([[0.2], [0.2], [0.2], [0.2], [0.2]])
        filtered = _filter_fractions(raw, 3.0)
        assert filtered[:, 0] == pytest.approx([0.6, 0.4, 0.0, 0.0, 0.0])

    def test_filtering_preserves_unit_mass(self, rng):
        raw = rng.dirichlet(np.ones(6), size=4).T  # columns sum to 1
        for alpha in (1.5, 2.0, 4.0):
            filtered = _filter_fractions(raw, alpha)
            assert filtered.sum(axis=0) == pytest.approx(np.ones(4))
            assert (filtered <= alpha * raw + 1e-9).all()

    def test_filtering_rejects_deficient_columns(self):
        raw = np.array([[0.1], [0.1]])
        with pytest.raises(ValidationError, match="unit mass"):
            _filter_fractions(raw, 2.0)


# paper: Thm 3.7, Thm 3.12
class TestTheorem37:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 5.0])
    def test_guarantees_hold_across_alpha(self, alpha, rng):
        network = uniform_capacities(random_geometric_network(9, 0.5, rng=rng), 0.8)
        system = majority(5)
        strategy = AccessStrategy.uniform(system)
        result = solve_ssqpp(system, strategy, network=network, source=0, alpha=alpha)
        assert result.within_guarantees
        assert result.delay <= (alpha / (alpha - 1)) * result.lp_value + 1e-6
        assert result.max_load_factor <= alpha + 1 + 1e-6

    def test_lp_value_lower_bounds_exact(self, rng):
        suite = small_suite(5)
        for instance in suite[:4]:
            source = instance.network.nodes[0]
            result = solve_ssqpp(
                instance.system, instance.strategy, network=instance.network, source=source
            )
            exact = solve_ssqpp_exact(
                instance.system, instance.strategy, network=instance.network, source=source
            )
            assert result.lp_value <= exact.objective + 1e-6
            # Theorem 3.12 (alpha = 2): delay within 2x the true optimum.
            assert result.delay <= 2.0 * exact.objective + 1e-6

    def test_alpha_must_exceed_one(self):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(3).with_capacities(1.0)
        with pytest.raises(ValidationError):
            solve_ssqpp(system, strategy, network=network, source=0, alpha=1.0)

    def test_unknown_source_rejected(self):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(3).with_capacities(1.0)
        with pytest.raises(ValidationError):
            solve_ssqpp(system, strategy, network=network, source=99)

    def test_wheel_nonuniform_loads(self, rng):
        """The wheel's skewed loads exercise constraint (13) omission."""
        from repro.quorums import optimal_strategy

        system = wheel(5)
        strategy = optimal_strategy(system).strategy
        network = uniform_capacities(random_geometric_network(8, 0.6, rng=rng), 0.6)
        result = solve_ssqpp(system, strategy, network=network, source=0, alpha=2.0)
        assert result.within_guarantees

    def test_result_reports_source(self, rng):
        network = uniform_capacities(random_geometric_network(6, 0.6, rng=rng), 1.0)
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = solve_ssqpp(system, strategy, network=network, source=2)
        assert result.source == 2
        assert result.alpha == 2.0


class TestLargerAlphaTradeoff:
    def test_larger_alpha_weakly_improves_delay_bound(self, rng):
        """alpha/(alpha-1) shrinks with alpha: the *bound* tightens even
        if realized delays fluctuate."""
        network = uniform_capacities(random_geometric_network(8, 0.5, rng=rng), 0.9)
        system = majority(5)
        strategy = AccessStrategy.uniform(system)
        results = {
            alpha: solve_ssqpp(system, strategy, network=network, source=0, alpha=alpha)
            for alpha in (1.5, 2.0, 4.0)
        }
        assert (
            results[1.5].delay_bound
            >= results[2.0].delay_bound
            >= results[4.0].delay_bound
        )
        # All share the same LP value (the LP does not depend on alpha).
        values = [r.lp_value for r in results.values()]
        assert max(values) - min(values) < 1e-6


class TestSharedLPFactory:
    """The incremental candidate-sweep machinery (SSQPPLPFactory)."""

    def _instance(self, rng):
        network = uniform_capacities(random_geometric_network(7, 0.6, rng=rng), 1.0)
        system = majority(3)
        return system, AccessStrategy.uniform(system), network

    def test_shared_factory_matches_fresh_solves(self, rng):
        from repro.core import SSQPPLPFactory

        system, strategy, network = self._instance(rng)
        factory = SSQPPLPFactory(system, strategy, network)
        for source in network.nodes:
            shared = solve_ssqpp(system, strategy, network=network, source=source, factory=factory)
            fresh = solve_ssqpp(system, strategy, network=network, source=source)
            assert shared.lp_value == pytest.approx(fresh.lp_value, abs=1e-9)
            assert shared.delay == pytest.approx(fresh.delay, abs=1e-9)
            assert shared.placement.as_dict() == fresh.placement.as_dict()

    def test_factory_released_after_each_solve(self, rng):
        from repro.core import SSQPPLPFactory

        system, strategy, network = self._instance(rng)
        factory = SSQPPLPFactory(system, strategy, network)
        base_vars = factory.model.num_variables
        solve_ssqpp(system, strategy, network=network, source=network.nodes[0], factory=factory)
        assert factory.model.num_variables == base_vars

    def test_factory_released_even_on_solver_failure(self, rng):
        from repro.core import SSQPPLPFactory

        system, strategy, network = self._instance(rng)
        factory = SSQPPLPFactory(system, strategy, network)
        base_vars = factory.model.num_variables
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            solve_ssqpp(
                system, strategy, network=network, source=network.nodes[0],
                factory=factory, lp_method="no-such-method",
            )
        assert factory.model.num_variables == base_vars
        result = solve_ssqpp(
            system, strategy, network=network, source=network.nodes[0], factory=factory
        )
        assert result.lp_value >= 0.0

    def test_attach_twice_without_release_rejected(self, rng):
        from repro.core import SSQPPLPFactory

        system, strategy, network = self._instance(rng)
        factory = SSQPPLPFactory(system, strategy, network)
        factory.attach(network.nodes[0])
        with pytest.raises(ValidationError, match="release"):
            factory.attach(network.nodes[1])
        factory.release()
        factory.attach(network.nodes[1])

    def test_mismatched_factory_rejected(self, rng):
        from repro.core import SSQPPLPFactory

        system, strategy, network = self._instance(rng)
        other_network = path_network(4)
        factory = SSQPPLPFactory(system, strategy, other_network)
        with pytest.raises(ValidationError, match="different inputs"):
            solve_ssqpp(
                system, strategy, network=network, source=network.nodes[0], factory=factory
            )

    def test_cumulative_formulation_through_factory(self, rng):
        from repro.core import SSQPPLPFactory

        system, strategy, network = self._instance(rng)
        factory = SSQPPLPFactory(system, strategy, network, formulation="cumulative")
        source = network.nodes[0]
        shared = solve_ssqpp(
            system, strategy, network=network, source=source,
            formulation="cumulative", factory=factory,
        )
        fresh = solve_ssqpp(system, strategy, network=network, source=source)
        assert shared.lp_value == pytest.approx(fresh.lp_value, abs=1e-6)
