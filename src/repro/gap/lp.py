"""The GAP linear-programming relaxation (paper equations (15)-(18)).

    minimize   sum_{j, i} c_ij y_ij                       (15)
    subject to sum_j p_ij y_ij <= T_i      for machines i (16)
               sum_i y_ij = 1              for jobs j     (17)
               y_ij >= 0                                  (18)

with the standard Lenstra-Shmoys-Tardos strengthening ``y_ij = 0``
whenever ``p_ij > T_i`` — required for the additive ``p_i^max`` load
guarantee of the rounding step, and exactly what constraint (13) of the
placement LP does in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._compat import solver_api
from .._validation import raises, require
from ..exceptions import InfeasibleError
from ..lp import Model
from ..obs.trace import span
from .instance import GAPInstance

__all__ = ["FractionalAssignment", "solve_gap_lp"]


@dataclass(frozen=True)
class FractionalAssignment:
    """A fractional solution to the GAP LP.

    Attributes
    ----------
    instance:
        The instance solved.
    fractions:
        Matrix ``y`` with ``fractions[i, j]`` = fraction of job ``j`` on
        machine ``i``; rows are machines.
    cost:
        The LP objective value ``Y*``.
    """

    instance: GAPInstance
    fractions: np.ndarray
    cost: float

    def __post_init__(self) -> None:
        array = np.asarray(self.fractions, dtype=float)
        array.setflags(write=False)
        object.__setattr__(self, "fractions", array)

    def job_support(self, job_index: int, tolerance: float = 1e-9) -> list[int]:
        """Machines carrying a positive fraction of the job."""
        column = self.fractions[:, job_index]
        return [int(i) for i in np.nonzero(column > tolerance)[0]]

    def machine_fractional_load(self, machine_index: int) -> float:
        row = self.fractions[machine_index]
        loads = self.instance.loads[machine_index]
        mask = row > 0
        return float(np.sum(row[mask] * loads[mask]))


@solver_api(aliases={"method": "lp_method"})
@raises("InfeasibleError", "ValidationError")
def solve_gap_lp(
    instance: GAPInstance, *, lp_method: str = "highs-ds"
) -> FractionalAssignment:
    """Solve the GAP LP relaxation.

    Uses the dual simplex by default so the returned point is a vertex,
    which keeps the fractional support small for the rounding step.

    Raises
    ------
    InfeasibleError
        If some job has no allowed machine, or the capacity constraints
        cannot be met even fractionally.
    """
    require(instance.num_jobs > 0, "GAP instance has no jobs to assign")
    model = Model(name="gap-lp")
    num_machines, num_jobs = instance.num_machines, instance.num_jobs
    variables: dict[tuple[int, int], object] = {}
    for j in range(num_jobs):
        allowed = [
            i
            for i in instance.allowed_machines(j)
            if instance.loads[i, j] <= instance.capacities[i]
        ]
        if not allowed:
            raise InfeasibleError(
                f"job {instance.jobs[j]!r} fits on no machine "
                "(every allowed machine has capacity below its load)"
            )
        for i in allowed:
            variables[(i, j)] = model.variable(f"y[{i},{j}]", lb=0.0, ub=1.0)

    # (17): each job fully assigned.
    for j in range(num_jobs):
        terms = [variables[(i, j)] for i in range(num_machines) if (i, j) in variables]
        expr = terms[0].to_expr()
        for variable in terms[1:]:
            expr = expr + variable
        model.add_constraint(expr == 1, name=f"assign[{j}]")

    # (16): machine capacities (skipped for uncapacitated machines — an
    # infinite right-hand side is vacuous and upsets the solver).
    for i in range(num_machines):
        if not np.isfinite(instance.capacities[i]):
            continue
        terms = [
            (variables[(i, j)], float(instance.loads[i, j]))
            for j in range(num_jobs)
            if (i, j) in variables
        ]
        if not terms:
            continue
        expr = terms[0][0] * terms[0][1]
        for variable, coefficient in terms[1:]:
            expr = expr + variable * coefficient
        model.add_constraint(expr <= float(instance.capacities[i]), name=f"cap[{i}]")

    # (15): cost objective.
    objective = None
    for (i, j), variable in variables.items():
        term = variable * float(instance.costs[i, j])
        objective = term if objective is None else objective + term
    model.minimize(objective)

    with span("gap.lp", jobs=num_jobs, machines=num_machines):
        solution = model.solve(method=lp_method)
    fractions = np.zeros((num_machines, num_jobs))
    for (i, j), variable in variables.items():
        fractions[i, j] = max(solution.value(variable), 0.0)
    return FractionalAssignment(instance=instance, fractions=fractions, cost=solution.objective)
