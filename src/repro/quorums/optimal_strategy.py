"""Load-optimal access strategies via linear programming (Naor & Wool 1998).

The *system load* of a quorum system ``Q`` is

    L(Q) = min over strategies p of max over elements u of load_p(u),

the best achievable worst-element load.  It is computed exactly by the LP

    minimize  L
    s.t.      sum_Q p(Q) = 1
              sum_{Q containing u} p(Q) <= L        for every element u
              p(Q) >= 0

The paper takes the access strategy as an *input* ("chosen from the
existing literature to achieve good load-balancing"); this module is how
the library produces that input for arbitrary systems, and it also
verifies the classical closed forms (uniform is optimal for Grid and
Majority) used in Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import raises
from ..lp import Model
from .base import QuorumSystem
from .strategy import AccessStrategy

__all__ = ["OptimalStrategyResult", "optimal_strategy", "system_load"]


@dataclass(frozen=True)
class OptimalStrategyResult:
    """Result of the Naor-Wool strategy LP.

    Attributes
    ----------
    strategy:
        A load-optimal access strategy.
    load:
        The system load ``L(Q)`` achieved by ``strategy``.
    """

    strategy: AccessStrategy
    load: float


@raises("ValidationError")
def optimal_strategy(  # repro-lint: disable=R001 (input pre-validated by type)
    system: QuorumSystem,
) -> OptimalStrategyResult:
    """Compute a load-optimal access strategy for *system*.

    Returns the strategy together with the optimal system load.  The LP
    has one variable per quorum plus the load bound, and one constraint
    per universe element, so it is comfortably polynomial in the explicit
    system size.
    """
    model = Model(name=f"naor-wool({system.name})")
    p = model.variables(len(system), prefix="p")
    bound = model.variable("L")

    total = p[0].to_expr()
    for variable in p[1:]:
        total = total + variable
    model.add_constraint(total == 1, name="distribution")

    for element in system.universe:
        indices = system.quorums_containing(element)
        if not indices:
            continue
        load_expr = p[indices[0]].to_expr()
        for index in indices[1:]:
            load_expr = load_expr + p[index]
        model.add_constraint(load_expr <= bound, name=f"load[{element!r}]")

    model.minimize(bound)
    solution = model.solve()
    probabilities = [max(solution.value(variable), 0.0) for variable in p]
    strategy = AccessStrategy.from_weights(system, probabilities)
    return OptimalStrategyResult(strategy=strategy, load=float(solution.objective))


def system_load(system: QuorumSystem) -> float:  # repro-lint: disable=R001
    """The system load ``L(Q)``: see :func:`optimal_strategy`."""
    return optimal_strategy(system).load
