"""End-to-end GAP solving: LP relaxation + Shmoys-Tardos rounding.

Also provides an exhaustive exact solver for small instances, used by the
test suite and benchmarks to measure true approximation quality.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product
from typing import ClassVar

import numpy as np

from .._compat import solver_api
from .._results import Provenance, SolveResult
from .._validation import check_integer_in_range, raises
from ..exceptions import InfeasibleError, ValidationError
from ..obs.trace import span
from .instance import GAPInstance, Label
from .lp import FractionalAssignment, solve_gap_lp
from .rounding import RoundedAssignment, round_fractional_assignment

__all__ = ["GAPSolution", "solve_gap", "solve_gap_exact"]

_MAX_EXACT_STATES = 5_000_000


@dataclass(frozen=True)
class GAPSolution(SolveResult):
    """Result of :func:`solve_gap` (a :class:`~repro._results.SolveResult`).

    ``placement`` is the job → machine assignment and ``objective`` its
    cost; the pre-unification names ``assignment``/``cost``/``lp_cost``
    still resolve but emit a :class:`FutureWarning` (removal scheduled
    for the next major release).

    The Theorem 3.11 guarantees, restated on the result:

    * ``objective <= lp_value`` (and ``lp_value`` lower-bounds every
      integral solution respecting the capacities exactly);
    * load on machine ``i`` at most ``capacities[i] + p_i^max``.
    """

    lp_value: float
    machine_loads: dict[Label, float]
    fractional: FractionalAssignment

    _legacy_aliases: ClassVar[Mapping[str, str]] = {
        "assignment": "placement",
        "cost": "objective",
        "lp_cost": "lp_value",
    }

    def load_violation_factors(self, instance: GAPInstance) -> dict[Label, float]:
        """Per-machine ``realized load / T_i`` (0 when ``T_i`` is 0 and
        the machine is empty; infinite when loaded beyond a zero bound)."""
        factors: dict[Label, float] = {}
        for i, machine in enumerate(instance.machines):
            bound = float(instance.capacities[i])
            load = self.machine_loads[machine]
            if bound > 0:
                factors[machine] = load / bound
            else:
                factors[machine] = 0.0 if load == 0 else float("inf")
        return factors


def _worst_violation(machine_loads: Mapping[Label, float], instance: GAPInstance) -> float:
    """Worst per-machine ``load / T_i`` (the canonical violation factor)."""
    worst = 0.0
    for i, machine in enumerate(instance.machines):
        bound = float(instance.capacities[i])
        load = machine_loads[machine]
        if bound > 0:
            worst = max(worst, load / bound)
        elif load > 0:
            return float("inf")
    return worst


@solver_api(aliases={"method": "lp_method"})
@raises("InfeasibleError", "ValidationError", transient=("SolverError",))
def solve_gap(  # repro-lint: disable=R001 (delegates to solve_gap_lp's checks)
    instance: GAPInstance, *, lp_method: str = "highs-ds"
) -> GAPSolution:
    """Solve *instance* approximately: LP + rounding.

    Raises :class:`InfeasibleError` when even the relaxation is
    infeasible (a job fits nowhere, or fractional capacity is exceeded).
    """
    with span("gap.solve", jobs=instance.num_jobs, machines=instance.num_machines):
        fractional = solve_gap_lp(instance, lp_method=lp_method)
        with span("gap.round"):
            rounded: RoundedAssignment = round_fractional_assignment(fractional)
    return GAPSolution(
        placement=rounded.assignment,
        objective=rounded.cost,
        load_violation_factor=_worst_violation(rounded.machine_loads, instance),
        provenance=Provenance.of(
            "gap.lp+shmoys-tardos", "Thm 3.11", lp_method=lp_method
        ),
        lp_value=fractional.cost,
        machine_loads=rounded.machine_loads,
        fractional=fractional,
    )


@raises("InfeasibleError", "ValidationError")
def solve_gap_exact(instance: GAPInstance) -> GAPSolution:
    """Exhaustive optimal GAP solution (capacities respected exactly).

    Enumerates all machine choices per job with early pruning; intended
    for instances with at most a few million candidate states (roughly
    ``machines ** jobs``).  Raises :class:`InfeasibleError` when no
    capacity-respecting assignment exists.
    """
    num_jobs = instance.num_jobs
    allowed = [
        [
            i
            for i in instance.allowed_machines(j)
            if instance.loads[i, j] <= instance.capacities[i]
        ]
        for j in range(num_jobs)
    ]
    states = 1
    for options in allowed:
        if not options:
            raise InfeasibleError("a job fits on no machine")
        states *= len(options)
        if states > _MAX_EXACT_STATES:
            raise ValidationError(
                f"exact GAP search would enumerate over {_MAX_EXACT_STATES} states"
            )

    best_cost = np.inf
    best_choice: tuple[int, ...] | None = None
    capacities = instance.capacities

    def recurse(job: int, choice: list[int], loads: np.ndarray, cost: float) -> None:
        nonlocal best_cost, best_choice
        if cost >= best_cost:
            return
        if job == num_jobs:
            best_cost = cost
            best_choice = tuple(choice)
            return
        for machine in allowed[job]:
            extra = float(instance.loads[machine, job])
            if loads[machine] + extra > capacities[machine] + 1e-12:
                continue
            loads[machine] += extra
            choice.append(machine)
            recurse(job + 1, choice, loads, cost + float(instance.costs[machine, job]))
            choice.pop()
            loads[machine] -= extra

    recurse(0, [], np.zeros(instance.num_machines), 0.0)
    if best_choice is None:
        raise InfeasibleError("no capacity-respecting assignment exists")

    assignment = {
        instance.jobs[j]: instance.machines[best_choice[j]] for j in range(num_jobs)
    }
    machine_loads = instance.machine_loads(assignment)
    # Exact solutions are their own certificate: report cost as lp_cost too.
    fractions = np.zeros((instance.num_machines, instance.num_jobs))
    for j, machine_index in enumerate(best_choice):
        fractions[machine_index, j] = 1.0
    fractional = FractionalAssignment(
        instance=instance, fractions=fractions, cost=float(best_cost)
    )
    return GAPSolution(
        placement=assignment,
        objective=float(best_cost),
        load_violation_factor=_worst_violation(machine_loads, instance),
        provenance=Provenance.of("gap.exhaustive", "Thm 3.11"),
        lp_value=float(best_cost),
        machine_loads=machine_loads,
        fractional=fractional,
    )
