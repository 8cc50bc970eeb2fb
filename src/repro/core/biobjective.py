"""Bi-objective placement: max-delay vs total-delay scalarization.

The paper studies two delay measures separately — the max-delay
``Delta`` (Section 3) and the total delay ``Gamma`` (Section 5).  Real
deployments often care about both: ``Delta`` is the latency of a
parallel round, ``Gamma`` the message/work cost.  Because **both are
linear in the LP variables**, a convex scalarization needs no new
machinery:

    objective(lambda) = lambda * (9)   +   (1 - lambda) * Gamma-term,

where the ``Gamma`` contribution of placing element ``u`` on node ``v_t``
is ``load(u) * Avg_w d(w, v_t)`` (the Section 5 decomposition).  The
filtering step still certifies the max-delay part (it only needs the
prefix structure), and Theorem 3.11's rounding bounds the *combined*
linear cost, so every point of the sweep keeps the
``(alpha + 1) * cap`` load guarantee.

Sweeping ``lambda`` from 0 to 1 traces (an approximation of) the
Pareto frontier between the two objectives;
:func:`max_vs_total_frontier` packages the sweep and prunes dominated
points with :mod:`repro._pareto`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._validation import check_positive, check_probability, raises
from .._pareto import ParetoPoint, pareto_front
from ..gap.instance import GAPInstance
from ..gap.lp import FractionalAssignment
from ..gap.rounding import round_fractional_assignment
from ..network.graph import Network, Node
from ..quorums.base import QuorumSystem
from ..quorums.strategy import AccessStrategy
from .placement import (
    Placement,
    average_total_delay,
    expected_max_delay,
    node_loads,
)
from .ssqpp import _filter_fractions, build_ssqpp_lp

__all__ = ["ScalarizedResult", "solve_scalarized_placement", "max_vs_total_frontier"]

_ZERO = 1e-12


@dataclass(frozen=True)
class ScalarizedResult:
    """One point of the max-delay/total-delay sweep.

    Attributes
    ----------
    placement:
        The rounded placement.
    weight:
        The scalarization weight ``lambda`` (1 = pure max-delay).
    max_delay:
        Realized ``Delta_f(source)``.
    total_delay:
        Realized all-clients average ``Gamma``.
    max_load_factor:
        Realized worst ``load/cap``; bounded by ``alpha + 1``.
    """

    placement: Placement
    weight: float
    max_delay: float
    total_delay: float
    max_load_factor: float


@raises("ValidationError", transient=("SolverError",))
def solve_scalarized_placement(
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    source: Node,
    *,
    weight: float,
    alpha: float = 2.0,
) -> ScalarizedResult:
    """Minimize ``weight * Delta(source) + (1-weight) * Avg Gamma``.

    Runs the §3.3 pipeline with the scalarized linear objective: the LP
    gains the per-element total-delay cost, the filtering step is
    unchanged, and the GAP rounding uses the scalarized assignment cost
    (Theorem 3.11 bounds any linear cost).  The ``(alpha+1)*cap`` load
    guarantee holds at every weight.
    """
    weight = check_probability(weight, "weight")
    check_positive(alpha - 1.0, "alpha - 1")
    model, x_element, x_quorum, ordered_nodes, distances = build_ssqpp_lp(
        system, strategy, network, source
    )
    metric = network.metric()
    # Average distance from all clients to each ordered node.
    average_distance = [
        float(metric.distances_from(node).mean()) for node in ordered_nodes
    ]
    loads = {u: strategy.load(u) for u in system.universe}

    # Rebuild the objective as the scalarization (the model's existing
    # objective is the pure max-delay term (9)).
    objective = None
    for (t, q), variable in x_quorum.items():
        coefficient = weight * strategy.probability(q) * distances[t]
        if coefficient == 0:
            continue
        term = variable * coefficient
        objective = term if objective is None else objective + term
    for (t, u), variable in x_element.items():
        coefficient = (1.0 - weight) * loads[u] * average_distance[t]
        if coefficient == 0:
            continue
        term = variable * coefficient
        objective = term if objective is None else objective + term
    if objective is None:
        objective = next(iter(x_element.values())) * 0.0
    model.minimize(objective)
    solution = model.solve()

    universe = list(system.universe)
    n = len(ordered_nodes)
    raw = np.zeros((n, len(universe)))
    for j, u in enumerate(universe):
        for t in range(n):
            variable = x_element.get((t, u))
            if variable is not None:
                raw[t, j] = max(solution.value(variable), 0.0)
    filtered = _filter_fractions(raw, alpha)

    load_array = strategy.load_array()
    capacities = np.array([network.capacity(v) for v in ordered_nodes])
    costs = np.full((n, len(universe)), math.inf)
    gap_loads = np.full((n, len(universe)), math.inf)
    for j, u in enumerate(universe):
        for t in range(n):
            if filtered[t, j] > _ZERO:
                costs[t, j] = (
                    weight * distances[t]
                    + (1.0 - weight) * loads[u] * average_distance[t]
                )
                gap_loads[t, j] = load_array[j]
    instance = GAPInstance(
        jobs=tuple(universe),
        machines=tuple(ordered_nodes),
        costs=costs,
        loads=gap_loads,
        capacities=alpha * capacities,
    )
    fractional_cost = float((filtered * np.where(np.isfinite(costs), costs, 0.0)).sum())
    fractional = FractionalAssignment(
        instance=instance, fractions=filtered, cost=fractional_cost
    )
    rounded = round_fractional_assignment(fractional)
    placement = Placement(system, network, rounded.assignment)

    max_factor = 0.0
    for node, load in node_loads(placement, strategy).items():
        if load <= 0:
            continue
        capacity = network.capacity(node)
        max_factor = max(max_factor, load / capacity if capacity > 0 else math.inf)

    return ScalarizedResult(
        placement=placement,
        weight=weight,
        max_delay=expected_max_delay(placement, strategy, source),
        total_delay=average_total_delay(placement, strategy),
        max_load_factor=max_factor,
    )


def max_vs_total_frontier(
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    source: Node,
    *,
    weights: list[float] | None = None,
    alpha: float = 2.0,
) -> list[ScalarizedResult]:
    """Sweep scalarization weights and return the Pareto-front points.

    The default sweep uses 6 weights from 0 (pure total-delay) to 1
    (pure max-delay); dominated points are pruned on the realized
    ``(max_delay, total_delay)`` coordinates.
    """
    sweep = weights if weights is not None else [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    results = [
        solve_scalarized_placement(
            system, strategy, network, source, weight=w, alpha=alpha
        )
        for w in sweep
    ]
    points = [
        ParetoPoint(delay=r.max_delay, load=r.total_delay, tag=r) for r in results
    ]
    return [point.tag for point in pareto_front(points)]
