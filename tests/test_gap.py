"""Tests for the GAP substrate: instances, LP, Shmoys-Tardos rounding."""

import math

import numpy as np
import pytest

from repro.exceptions import InfeasibleError, ValidationError
from repro.gap import (
    FractionalAssignment,
    GAPInstance,
    round_fractional_assignment,
    solve_gap,
    solve_gap_exact,
    solve_gap_lp,
)


def make_instance(costs, loads, capacities, jobs=None, machines=None):
    costs = np.asarray(costs, dtype=float)
    loads = np.asarray(loads, dtype=float)
    jobs = tuple(jobs) if jobs else tuple(range(costs.shape[1]))
    machines = tuple(machines) if machines else tuple(
        f"m{i}" for i in range(costs.shape[0])
    )
    return GAPInstance(jobs, machines, costs, loads, np.asarray(capacities, dtype=float))


class TestInstance:
    def test_validation_shapes(self):
        with pytest.raises(ValidationError):
            make_instance([[1.0]], [[1.0, 2.0]], [1.0])

    def test_forbidden_pairs_must_match(self):
        with pytest.raises(ValidationError, match="BOTH"):
            make_instance([[math.inf]], [[1.0]], [1.0])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            make_instance([[-1.0]], [[1.0]], [1.0])

    def test_from_dicts(self):
        inst = GAPInstance.from_dicts(
            jobs=["j1", "j2"],
            machines=["a", "b"],
            cost={("a", "j1"): 1.0, ("b", "j1"): 2.0, ("b", "j2"): 1.0},
            load={("a", "j1"): 0.5, ("b", "j1"): 0.5, ("b", "j2"): 0.5},
            capacity={"a": 1.0, "b": 1.0},
        )
        assert inst.allowed(0, 0)
        assert not inst.allowed(0, 1)  # ("a", "j2") missing => forbidden

    def test_from_dicts_requires_load_for_every_cost(self):
        with pytest.raises(ValidationError, match="no load"):
            GAPInstance.from_dicts(
                jobs=["j"],
                machines=["a"],
                cost={("a", "j"): 1.0},
                load={},
                capacity={"a": 1.0},
            )

    def test_assignment_cost_and_loads(self):
        inst = make_instance([[1.0, 2.0], [3.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
        assignment = {0: "m0", 1: "m1"}
        assert inst.assignment_cost(assignment) == pytest.approx(5.0)
        assert inst.machine_loads(assignment) == {"m0": 1.0, "m1": 1.0}

    def test_assignment_with_forbidden_pair_rejected(self):
        inst = make_instance(
            [[math.inf, 2.0], [3.0, 4.0]],
            [[math.inf, 1.0], [1.0, 1.0]],
            [2.0, 2.0],
        )
        with pytest.raises(ValidationError, match="forbidden"):
            inst.assignment_cost({0: "m0", 1: "m1"})

    def test_max_load_on_machine(self):
        inst = make_instance([[1.0, 2.0]], [[0.3, 0.9]], [1.0])
        assert inst.max_load_on_machine(0) == pytest.approx(0.9)


class TestLP:
    def test_lp_lower_bounds_exact(self, rng):
        for _ in range(10):
            inst = make_instance(
                rng.uniform(1, 5, (3, 4)),
                rng.uniform(0.2, 0.8, (3, 4)),
                rng.uniform(1.2, 2.0, 3),
            )
            try:
                exact = solve_gap_exact(inst)
            except InfeasibleError:
                continue
            fractional = solve_gap_lp(inst)
            assert fractional.cost <= exact.objective + 1e-6

    def test_lp_respects_forbidden_and_oversized_pairs(self):
        # Job 1 only fits (capacity-wise) on machine 1.
        inst = make_instance(
            [[1.0, 1.0], [5.0, 5.0]],
            [[0.5, 2.0], [0.5, 1.0]],
            [1.0, 1.5],
        )
        fractional = solve_gap_lp(inst)
        assert fractional.fractions[0, 1] == pytest.approx(0.0)
        assert fractional.fractions[1, 1] == pytest.approx(1.0)

    def test_lp_infeasible_when_job_fits_nowhere(self):
        inst = make_instance([[1.0]], [[2.0]], [1.0])
        with pytest.raises(InfeasibleError, match="fits on no machine"):
            solve_gap_lp(inst)

    def test_fractional_support_queries(self):
        # Two jobs of load 1, two machines of capacity 1, symmetric costs:
        # the LP must split the load; query helpers read the split back.
        inst = make_instance(
            [[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]
        )
        fractional = solve_gap_lp(inst)
        support_union = set(fractional.job_support(0)) | set(fractional.job_support(1))
        assert support_union == {0, 1}
        total = fractional.machine_fractional_load(0) + fractional.machine_fractional_load(1)
        assert total == pytest.approx(2.0)


class TestRounding:
    def test_theorem_3_11_guarantees_random_instances(self, rng):
        """Cost <= fractional cost; machine load <= T_i + p_i^max."""
        checked = 0
        for _ in range(30):
            inst = make_instance(
                rng.uniform(1, 10, (4, 6)),
                rng.uniform(0.1, 1.0, (4, 6)),
                rng.uniform(0.8, 2.0, 4),
            )
            try:
                fractional = solve_gap_lp(inst)
            except InfeasibleError:
                continue
            rounded = round_fractional_assignment(fractional)
            assert rounded.cost <= fractional.cost + 1e-6
            for i, machine in enumerate(inst.machines):
                bound = inst.capacities[i] + inst.max_load_on_machine(i)
                assert rounded.machine_loads[machine] <= bound + 1e-6
            checked += 1
        assert checked >= 15  # most random instances must be feasible

    def test_integral_input_passes_through(self):
        inst = make_instance([[1.0, 9.0], [9.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        fractions = np.array([[1.0, 0.0], [0.0, 1.0]])
        fractional = FractionalAssignment(instance=inst, fractions=fractions, cost=2.0)
        rounded = round_fractional_assignment(fractional)
        assert rounded.assignment == {0: "m0", 1: "m1"}
        assert rounded.cost == pytest.approx(2.0)

    def test_malformed_fractions_rejected(self):
        inst = make_instance([[1.0]], [[1.0]], [1.0])
        bad = FractionalAssignment(
            instance=inst, fractions=np.array([[0.4]]), cost=0.4
        )
        with pytest.raises(ValidationError, match="fractional total"):
            round_fractional_assignment(bad)

    def test_split_job_lands_on_exactly_one_machine(self):
        inst = make_instance(
            [[2.0], [2.0]],
            [[1.0], [1.0]],
            [0.5, 0.5],
        )
        fractions = np.array([[0.5], [0.5]])
        fractional = FractionalAssignment(instance=inst, fractions=fractions, cost=2.0)
        rounded = round_fractional_assignment(fractional)
        assert rounded.assignment[0] in ("m0", "m1")


class TestSolver:
    def test_solve_gap_end_to_end(self, rng):
        inst = make_instance(
            rng.uniform(1, 5, (3, 5)),
            rng.uniform(0.2, 0.6, (3, 5)),
            np.full(3, 1.5),
        )
        solution = solve_gap(inst)
        assert set(solution.placement) == set(inst.jobs)
        assert solution.objective <= solution.lp_value + 1e-6
        factors = solution.load_violation_factors(inst)
        assert all(f <= 2.0 + 1e-6 for f in factors.values())

    def test_exact_matches_enumeration_guarantee(self):
        inst = make_instance(
            [[1.0, 10.0], [10.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [1.0, 1.0],
        )
        exact = solve_gap_exact(inst)
        assert exact.objective == pytest.approx(2.0)
        assert exact.placement == {0: "m0", 1: "m1"}

    def test_exact_infeasible_raises(self):
        inst = make_instance([[1.0, 1.0]], [[0.8, 0.8]], [1.0])
        with pytest.raises(InfeasibleError):
            solve_gap_exact(inst)

    def test_exact_respects_capacities_strictly(self, rng):
        for _ in range(5):
            inst = make_instance(
                rng.uniform(1, 5, (3, 4)),
                rng.uniform(0.2, 0.7, (3, 4)),
                rng.uniform(1.0, 1.6, 3),
            )
            try:
                exact = solve_gap_exact(inst)
            except InfeasibleError:
                continue
            for i, machine in enumerate(inst.machines):
                assert exact.machine_loads[machine] <= inst.capacities[i] + 1e-9
