"""Tests for the greedy GAP baseline."""

import numpy as np
import pytest

from repro.exceptions import InfeasibleError
from repro.gap import GAPInstance, solve_gap_exact, solve_gap_greedy


def make_instance(costs, loads, capacities):
    costs = np.asarray(costs, dtype=float)
    return GAPInstance(
        tuple(range(costs.shape[1])),
        tuple(f"m{i}" for i in range(costs.shape[0])),
        costs,
        np.asarray(loads, dtype=float),
        np.asarray(capacities, dtype=float),
    )


def test_greedy_respects_capacities(rng):
    for _ in range(10):
        inst = make_instance(
            rng.uniform(1, 10, (3, 6)),
            rng.uniform(0.1, 0.6, (3, 6)),
            rng.uniform(1.0, 2.0, 3),
        )
        try:
            result = solve_gap_greedy(inst)
        except InfeasibleError:
            continue
        for i, machine in enumerate(inst.machines):
            assert result.machine_loads[machine] <= inst.capacities[i] + 1e-9


def test_greedy_covers_all_jobs(rng):
    inst = make_instance(
        rng.uniform(1, 5, (4, 5)),
        rng.uniform(0.1, 0.4, (4, 5)),
        np.full(4, 2.0),
    )
    result = solve_gap_greedy(inst)
    assert set(result.assignment) == set(inst.jobs)
    assert result.cost == pytest.approx(inst.assignment_cost(result.assignment))


def test_greedy_never_beats_exact(rng):
    compared = 0
    for _ in range(10):
        inst = make_instance(
            rng.uniform(1, 10, (3, 4)),
            rng.uniform(0.2, 0.8, (3, 4)),
            rng.uniform(1.0, 2.0, 3),
        )
        try:
            greedy = solve_gap_greedy(inst)
            exact = solve_gap_exact(inst)
        except InfeasibleError:
            continue
        assert exact.objective <= greedy.cost + 1e-9
        compared += 1
    assert compared >= 5


def test_greedy_can_fail_on_feasible_instances():
    """The classic greedy trap: assigning the big job to its cheapest
    machine blocks the only machine that fits the remaining jobs."""
    inst = make_instance(
        # machine 0 is cheap for everyone but small.
        [[1.0, 1.0], [10.0, 10.0]],
        [[0.6, 0.6], [0.6, 0.6]],
        [0.6, 0.6],
    )
    # Feasible: one job per machine.  Greedy may or may not find it; the
    # exact solver must.
    exact = solve_gap_exact(inst)
    assert exact.objective == pytest.approx(11.0)


def test_greedy_stuck_raises():
    inst = make_instance([[1.0, 1.0]], [[0.6, 0.6]], [0.6])
    with pytest.raises(InfeasibleError, match="stuck"):
        solve_gap_greedy(inst)
