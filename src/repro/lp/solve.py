"""Solver backend for :class:`repro.lp.model.Model`.

Compiles a model to sparse matrices and delegates to scipy's HiGHS
interface.  Two methods matter for this library:

* ``"highs"`` — let HiGHS pick (usually fastest); used by default.
* ``"highs-ds"`` — dual simplex, which returns a *basic* (vertex)
  solution.  The Shmoys-Tardos style roundings in :mod:`repro.gap`
  tolerate any feasible fractional point, but vertex solutions have at
  most ``#jobs + #machines`` fractional assignments and round faster, so
  rounding-sensitive callers request this method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .._validation import raises
from ..exceptions import InfeasibleError, SolverError, UnboundedError
from ..obs.metrics import counter
from ..obs.trace import span
from .model import LinExpr, Model, Variable

__all__ = ["Solution", "solve_model"]

_SUPPORTED_METHODS = ("highs", "highs-ds", "highs-ipm")

# Every LP in the library funnels through solve_model(), so these two
# counters are the authoritative solver-effort telemetry (surfaced by
# `repro profile` and the bench reports).
_LP_SOLVES = counter("lp.solve.count")
_LP_ITERATIONS = counter("lp.iterations.total")


@dataclass(frozen=True)
class Solution:
    """An optimal solution to a linear program.

    Attributes
    ----------
    objective:
        Optimal objective value, in the *model's* sense (a maximization
        model reports the maximum, not the negated internal minimum).
    values:
        Optimal value of every variable, in index order.
    status:
        Human-readable solver status (always ``"optimal"``; failures raise).
    iterations:
        Simplex/IPM iteration count reported by HiGHS, for diagnostics.
    constraint_duals:
        Dual values (shadow prices), one per constraint in the order they
        were added to the model, sign-normalized to the model's sense:
        the marginal change of the reported optimum per unit increase of
        the constraint's right-hand side.  ``None`` when the backend did
        not report duals.
    """

    objective: float
    values: np.ndarray
    status: str
    iterations: int
    constraint_duals: np.ndarray | None = None

    def dual_of(self, constraint) -> float:
        """Shadow price of a constraint added to the solved model.

        Requires the constraint object returned by
        :meth:`repro.lp.model.Model.add_constraint` and that the backend
        reported duals.
        """
        index = getattr(constraint, "_dual_index", None)
        if index is None:
            raise SolverError(
                "constraint carries no dual index; was it added to the "
                "model that produced this solution?"
            )
        if self.constraint_duals is None:
            raise SolverError("the solver reported no dual values")
        return float(self.constraint_duals[index])

    def value(self, variable: Variable) -> float:
        """The optimal value of *variable*."""
        return float(self.values[variable.index])

    def expression_value(self, expr: LinExpr) -> float:
        """Evaluate a linear expression at the optimal point."""
        return float(
            sum(coef * self.values[index] for index, coef in expr.coefficients.items())
            + expr.constant
        )


def _compile(model: Model):
    """Build the (c, A_ub, b_ub, A_eq, b_eq, bounds) tuple for linprog."""
    n = model.num_variables
    c = np.zeros(n)
    objective = model._objective
    if objective is None:
        raise SolverError(f"model {model.name!r} has no objective; call minimize()/maximize()")
    sign = 1.0 if model._sense == "min" else -1.0
    for index, coef in objective.coefficients.items():
        c[index] = sign * coef

    ub_rows: list[int] = []
    ub_cols: list[int] = []
    ub_data: list[float] = []
    b_ub: list[float] = []
    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_data: list[float] = []
    b_eq: list[float] = []

    # Per added constraint: ("eq"|"ub", internal row, sign of d(rhs_internal)/d(rhs)).
    dual_map: list[tuple[str, int, float]] = []
    for position, constraint in enumerate(model._constraints):
        constraint._dual_index = position
        expr, sense = constraint.expr, constraint.sense
        if sense == "==":
            row = len(b_eq)
            for index, coef in expr.coefficients.items():
                eq_rows.append(row)
                eq_cols.append(index)
                eq_data.append(coef)
            b_eq.append(-expr.constant)
            dual_map.append(("eq", row, 1.0))
        else:
            # Normalize `expr >= 0` to `-expr <= 0`.
            flip = -1.0 if sense == ">=" else 1.0
            row = len(b_ub)
            for index, coef in expr.coefficients.items():
                ub_rows.append(row)
                ub_cols.append(index)
                ub_data.append(flip * coef)
            b_ub.append(-flip * expr.constant)
            dual_map.append(("ub", row, flip))

    a_ub = (
        sparse.csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(len(b_ub), n))
        if b_ub
        else None
    )
    a_eq = (
        sparse.csr_matrix((eq_data, (eq_rows, eq_cols)), shape=(len(b_eq), n))
        if b_eq
        else None
    )
    return c, a_ub, (np.array(b_ub) if b_ub else None), a_eq, (
        np.array(b_eq) if b_eq else None
    ), model.bounds(), sign, dual_map


@raises("InfeasibleError", "UnboundedError", transient=("SolverError",))
def solve_model(model: Model, method: str = "highs") -> Solution:
    """Solve *model* and return its optimal :class:`Solution`.

    Raises
    ------
    InfeasibleError
        If the constraints admit no feasible point.
    UnboundedError
        If the objective is unbounded in the optimization direction.
    SolverError
        For any other solver failure (iteration limit, numerical issues)
        or if no objective was set.
    """
    if method not in _SUPPORTED_METHODS:
        raise SolverError(
            f"unsupported LP method {method!r}; expected one of {_SUPPORTED_METHODS}"
        )
    c, a_ub, b_ub, a_eq, b_eq, bounds, sign, dual_map = _compile(model)
    with span(
        "lp.solve",
        model=model.name,
        method=method,
        variables=model.num_variables,
        constraints=len(model._constraints),
    ) as sp:
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method=method,
        )
        _LP_SOLVES.inc()
        if result.status == 2:
            raise InfeasibleError(f"LP {model.name!r} is infeasible")
        if result.status == 3:
            raise UnboundedError(f"LP {model.name!r} is unbounded")
        if not result.success:
            raise SolverError(f"LP {model.name!r} failed: {result.message}")
        values = np.asarray(result.x, dtype=float)
        constant = model._objective.constant if model._objective is not None else 0.0
        objective = sign * float(result.fun) + constant
        iterations = int(getattr(result, "nit", 0) or 0)
        _LP_ITERATIONS.inc(iterations)
        sp.set(iterations=iterations)

    # Normalize HiGHS marginals to per-added-constraint shadow prices in
    # the model's sense: d(objective)/d(rhs).  The internal problem is a
    # minimization of sign * objective; a ">=" constraint flips its rhs.
    constraint_duals: np.ndarray | None = None
    ub_marginals = getattr(getattr(result, "ineqlin", None), "marginals", None)
    eq_marginals = getattr(getattr(result, "eqlin", None), "marginals", None)
    if dual_map and (ub_marginals is not None or eq_marginals is not None):
        constraint_duals = np.zeros(len(dual_map))
        for position, (kind, row, flip) in enumerate(dual_map):
            source = eq_marginals if kind == "eq" else ub_marginals
            if source is None:
                constraint_duals = None
                break
            constraint_duals[position] = sign * flip * float(source[row])

    return Solution(
        objective=objective,
        values=values,
        status="optimal",
        iterations=iterations,
        constraint_duals=constraint_duals,
    )
