"""Tests for the Theorem 3.6 NP-hardness reduction.

The reduction's whole point is the exact affine correspondence between
schedule cost and placement delay; these tests certify it bidirectionally
on exhaustively solvable instances.
"""

import numpy as np
import pytest

from repro.core import (
    reduce_scheduling_to_ssqpp,
    solve_ssqpp_exact,
)
from repro.exceptions import ValidationError
from repro.scheduling import (
    SchedulingInstance,
    random_woeginger_instance,
    solve_scheduling_exact,
)


@pytest.fixture
def reduction(rng):
    instance = random_woeginger_instance(3, 3, rng=rng, edge_probability=0.5)
    return reduce_scheduling_to_ssqpp(instance)


# paper: Thm 3.6
class TestConstruction:
    def test_rejects_general_instances(self):
        general = SchedulingInstance(
            ("a",), {"a": 2.0}, {"a": 1.0}
        )
        with pytest.raises(ValidationError, match="Woeginger"):
            reduce_scheduling_to_ssqpp(general)

    def test_universe_and_network_sizes(self, reduction):
        q = reduction.num_unit_time
        assert reduction.system.universe_size == q + 1
        assert reduction.network.size == q + 1

    def test_epsilon_satisfies_proof_requirement(self, reduction):
        q = reduction.num_unit_time
        assert reduction.epsilon < (1 - reduction.epsilon) / q

    def test_anchor_element_only_fits_on_source(self, reduction):
        """cap(v0) = 1 = load(e0); every other capacity is below 1."""
        load_anchor = reduction.strategy.load("e0")
        assert load_anchor == pytest.approx(1.0)
        for node in reduction.network.nodes[1:]:
            assert reduction.network.capacity(node) < 1.0

    def test_each_node_fits_exactly_one_element(self, reduction):
        """Capacities allow one non-anchor element but never two."""
        loads = [
            reduction.strategy.load(e)
            for e in reduction.system.universe
            if e != "e0"
        ]
        capacity = reduction.network.capacity(1)
        assert all(load <= capacity + 1e-12 for load in loads)
        assert min(loads) * 2 > capacity

    def test_strategy_is_distribution(self, reduction):
        assert float(reduction.strategy.probabilities.sum()) == pytest.approx(1.0)


class TestCostDelayEquivalence:
    def test_every_feasible_schedule_maps_exactly(self, rng):
        """cost -> delay mapping is exact for every linear extension we
        can sample."""
        instance = random_woeginger_instance(3, 2, rng=rng, edge_probability=0.5)
        reduction = reduce_scheduling_to_ssqpp(instance)
        jobs = list(instance.jobs)
        tested = 0
        for _ in range(100):
            order = tuple(jobs[i] for i in rng.permutation(len(jobs)))
            if not instance.is_feasible_order(order):
                continue
            placement = reduction.schedule_to_placement(order)
            delay = reduction.placement_delay(placement)
            # The reduction maps the *canonical* schedule of the placement
            # (unit-weight jobs as early as possible); recompute it.
            canonical = reduction.placement_to_schedule(placement)
            assert delay == pytest.approx(
                reduction.delay_of_schedule_cost(instance.cost(canonical))
            )
            tested += 1
        assert tested >= 3

    def test_optimal_schedule_gives_optimal_placement(self, rng):
        instance = random_woeginger_instance(3, 3, rng=rng, edge_probability=0.4)
        reduction = reduce_scheduling_to_ssqpp(instance)
        best_schedule = solve_scheduling_exact(instance)
        best_placement = solve_ssqpp_exact(
            reduction.system, reduction.strategy, network=reduction.network, source=0
        )
        assert best_placement.objective == pytest.approx(
            reduction.delay_of_schedule_cost(best_schedule.cost)
        )
        assert reduction.schedule_cost_of_delay(
            best_placement.objective
        ) == pytest.approx(best_schedule.cost)

    def test_roundtrip_schedule_placement_schedule(self, rng):
        instance = random_woeginger_instance(4, 2, rng=rng, edge_probability=0.5)
        reduction = reduce_scheduling_to_ssqpp(instance)
        best = solve_scheduling_exact(instance)
        placement = reduction.schedule_to_placement(best.order)
        recovered = reduction.placement_to_schedule(placement)
        assert instance.cost(recovered) == pytest.approx(best.cost)

    def test_infeasible_order_rejected(self, reduction):
        jobs = list(reduction.scheduling.jobs)
        with pytest.raises(ValidationError):
            reduction.schedule_to_placement(tuple(jobs[:-1]))

    def test_degenerate_no_precedence(self, rng):
        """With no precedence constraints every schedule is optimal and
        all weight jobs complete at time 0."""
        instance = random_woeginger_instance(2, 2, rng=rng, edge_probability=0.0)
        reduction = reduce_scheduling_to_ssqpp(instance)
        best = solve_scheduling_exact(instance)
        assert best.cost == 0.0
        placement = reduction.schedule_to_placement(best.order)
        expected = reduction.delay_of_schedule_cost(0.0)
        assert reduction.placement_delay(placement) == pytest.approx(expected)
