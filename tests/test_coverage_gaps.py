"""Coverage for paths the main test files leave untouched."""

import numpy as np
import pytest

from repro.core import QPPResult, solve_qpp
from repro.exceptions import ValidationError
from repro.experiments import feasible_uniform_capacity, small_suite
from repro.gap import GAPInstance, solve_gap
from repro.lp import Model
from repro.network import path_network
from repro.quorums import (
    AccessStrategy,
    QuorumSystem,
    compose,
    majority,
    singleton,
    threshold,
)


class TestComposeHeterogeneous:
    def test_different_inner_systems_per_slot(self):
        """Composition with non-uniform inner systems: one slot expands
        to a majority, another stays a singleton."""
        outer = majority(3)  # slots 0, 1, 2
        inner = {
            0: majority(3),
            1: singleton("only"),
            2: threshold(3, 2),
        }
        composed = compose(outer, inner)
        composed.verify_intersection()
        # Universe: 3 + 1 + 3 namespaced elements.
        assert composed.universe_size == 7
        # Quorums touching slot 1 contain its single namespaced element.
        assert any((1, "only") in q for q in composed.quorums)

    def test_compose_guard(self):
        outer = majority(5)
        inner = {slot: majority(13) for slot in outer.universe}
        with pytest.raises(ValidationError, match="enumerate"):
            compose(outer, inner)


class TestQPPResultAccessors:
    def test_certified_ratio_zero_bound_zero_delay(self, rng):
        """A single-node network: delay 0, bound 0 => ratio reported 0."""
        system = singleton("s")
        strategy = AccessStrategy.uniform(system)
        from repro.network import Network

        network = Network([0], [], capacities=2.0)
        result = solve_qpp(system, strategy, network=network)
        assert result.objective == 0.0
        assert result.certified_ratio == 0.0

    def test_result_is_frozen(self, rng):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        network = path_network(3).with_capacities(1.0)
        result = solve_qpp(system, strategy, network=network)
        with pytest.raises(AttributeError):
            result.average_delay = 0.0


class TestWorkloadsSlack:
    def test_larger_slack_gives_larger_capacity(self):
        system = majority(5)
        strategy = AccessStrategy.uniform(system)
        network = path_network(4)
        tight = feasible_uniform_capacity(system, strategy, network, slack=1.0)
        loose = feasible_uniform_capacity(system, strategy, network, slack=3.0)
        assert loose.capacity(0) >= tight.capacity(0)

    def test_suite_slack_parameter_threads_through(self):
        tight = small_suite(0, slack=1.1)
        loose = small_suite(0, slack=3.0)
        assert (
            loose[0].network.capacity(loose[0].network.nodes[0])
            >= tight[0].network.capacity(tight[0].network.nodes[0])
        )


class TestGAPSolutionAccessors:
    def test_load_violation_factors_zero_capacity_machine(self, rng):
        instance = GAPInstance(
            jobs=(0,),
            machines=("big", "zero"),
            costs=np.array([[1.0], [2.0]]),
            loads=np.array([[0.5], [0.5]]),
            capacities=np.array([1.0, 0.0]),
        )
        solution = solve_gap(instance)
        factors = solution.load_violation_factors(instance)
        assert factors["zero"] == 0.0  # empty zero-cap machine
        assert factors["big"] == pytest.approx(0.5)

    def test_fractional_attached(self, rng):
        instance = GAPInstance(
            jobs=(0, 1),
            machines=("a", "b"),
            costs=np.array([[1.0, 2.0], [2.0, 1.0]]),
            loads=np.array([[0.5, 0.5], [0.5, 0.5]]),
            capacities=np.array([1.0, 1.0]),
        )
        solution = solve_gap(instance)
        assert solution.fractional.instance is instance
        assert solution.fractional.cost <= solution.objective + 1e-9


class TestModelIntrospection:
    def test_constraint_name_assignment(self):
        m = Model()
        x = m.variable("x")
        constraint = m.add_constraint(x <= 1, name="cap")
        assert constraint.name == "cap"

    def test_variables_kwargs_forwarded(self):
        m = Model()
        xs = m.variables(3, prefix="p", lb=0.5, ub=2.0)
        assert m.bounds() == [(0.5, 2.0)] * 3

    def test_solve_proxy_matches_solve_model(self):
        from repro.lp import solve_model

        m = Model()
        x = m.variable("x", ub=4)
        m.maximize(x + 0)
        assert m.solve().objective == solve_model(m).objective == 4.0


class TestReportingPrecision:
    def test_custom_precision(self):
        from repro.analysis import ResultTable

        table = ResultTable("t", ["v"], precision=2)
        table.add_row(v=3.14159)
        assert "3.1" in table.render()
        assert "3.142" not in table.render()


class TestUniverseOrderStability:
    def test_quorum_system_universe_sorted_deterministically(self):
        a = QuorumSystem([{3, 1}, {1, 2}], universe=[3, 2, 1])
        b = QuorumSystem([{1, 2}, {3, 1}], universe=[1, 2, 3])
        assert a.universe == b.universe == (1, 2, 3)

    def test_strategy_load_array_follows_universe_order(self):
        system = QuorumSystem([{2, 5}, {5, 9}], universe=[9, 5, 2])
        strategy = AccessStrategy.uniform(system)
        array = strategy.load_array()
        for i, u in enumerate(system.universe):
            assert array[i] == pytest.approx(strategy.load(u))
