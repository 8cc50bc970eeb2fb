"""Exhaustive optimal solvers for small placement instances.

The paper compares against the (NP-hard) true optimum; these solvers
compute it by branch-and-bound over all capacity-respecting placements.
They exist so tests and benchmarks can report *true* approximation
ratios on small instances.  All are exponential in the universe size and
guard against oversized inputs.

Pruning: elements are assigned in decreasing-load order; partial
assignments track node loads, and a branch is cut as soon as either the
capacity is violated or a (cheaply computed) partial cost already meets
the best known cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .._compat import solver_api
from .._validation import raises, require
from ..exceptions import InfeasibleError, ValidationError
from ..network.graph import Network, Node
from ..obs.trace import span
from ..quorums.base import Element, QuorumSystem
from ..quorums.strategy import AccessStrategy
from .placement import (
    Placement,
    average_max_delay,
    average_total_delay,
    expected_max_delay,
)

__all__ = [
    "ExactPlacement",
    "solve_ssqpp_exact",
    "solve_qpp_exact",
    "solve_total_delay_exact",
]

_MAX_STATES = 40_000_000


@dataclass(frozen=True)
class ExactPlacement:
    """An optimal placement with its objective value."""

    placement: Placement
    objective: float


def _search_space_guard(
    system: QuorumSystem, strategy: AccessStrategy, network: Network
) -> None:
    """Refuse hopeless instances before recursing.

    The naive bound is ``n^|U|``, but when every node can hold at most one
    element (each element's load exceeds half of every capacity) the
    capacity pruning reduces the search to injective maps, whose count
    ``n (n-1) ... (n - |U| + 1)`` is what actually gets explored.
    """
    n = network.size
    loads = [strategy.load(u) for u in system.universe]
    max_capacity = max(network.capacity(v) for v in network.nodes)
    one_per_node = min(loads) * 2 > max_capacity if loads else False
    if one_per_node:
        states = 1.0
        for i in range(system.universe_size):
            states *= max(n - i, 0)
    else:
        states = float(n) ** system.universe_size
    if states > _MAX_STATES:
        raise ValidationError(
            f"exhaustive search over ~{states:.3g} placements refused; "
            "shrink the instance (guard is "
            f"{_MAX_STATES} states)"
        )


def _enumerate_optimal(
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    objective: Callable[[Placement], float],
) -> ExactPlacement:
    """Branch-and-bound over capacity-respecting placements.

    The objective is treated as a black box evaluated at the leaves; the
    bound function is monotone pruning on capacities only.  This keeps
    the solver correct for *any* delay objective at the cost of
    evaluating full placements — acceptable at the guarded sizes.
    """
    _search_space_guard(system, strategy, network)
    universe = sorted(
        system.universe, key=lambda u: -strategy.load(u)
    )  # heavy elements first => earlier capacity cuts
    nodes = list(network.nodes)
    capacities = np.array([network.capacity(v) for v in nodes])
    loads = np.array([strategy.load(u) for u in universe])

    # Quick infeasibility screens.
    if loads.sum() > capacities.sum() + 1e-9:
        raise InfeasibleError(
            "total element load exceeds total network capacity"
        )

    best_cost = float("inf")
    best_mapping: dict[Element, Node] | None = None
    node_loads = np.zeros(len(nodes))
    assignment: list[int] = []

    def recurse(index: int) -> None:
        nonlocal best_cost, best_mapping
        if index == len(universe):
            mapping = {
                universe[i]: nodes[assignment[i]] for i in range(len(universe))
            }
            placement = Placement(system, network, mapping)
            cost = objective(placement)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_mapping = mapping
            return
        load = loads[index]
        for node_index in range(len(nodes)):
            if node_loads[node_index] + load > capacities[node_index] + 1e-9:
                continue
            node_loads[node_index] += load
            assignment.append(node_index)
            recurse(index + 1)
            assignment.pop()
            node_loads[node_index] -= load

    with span("exact.search", elements=len(universe), nodes=len(nodes)):
        recurse(0)
    if best_mapping is None:
        raise InfeasibleError("no capacity-respecting placement exists")
    return ExactPlacement(
        placement=Placement(system, network, best_mapping), objective=best_cost
    )


@solver_api(legacy_positional=("network", "source"))
@raises("InfeasibleError", "ValidationError")
def solve_ssqpp_exact(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    source: Node,
) -> ExactPlacement:
    """The true optimum of Problem 3.2 (single-source, max-delay)."""
    network.node_index(source)
    return _enumerate_optimal(
        system,
        strategy,
        network,
        lambda placement: expected_max_delay(placement, strategy, source),
    )


@solver_api(legacy_positional=("network",))
@raises("InfeasibleError", "ValidationError")
def solve_qpp_exact(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    rates: dict[Node, float] | None = None,
) -> ExactPlacement:
    """The true optimum of Problem 1.1 (all clients, average max-delay)."""
    return _enumerate_optimal(
        system,
        strategy,
        network,
        lambda placement: average_max_delay(placement, strategy, rates=rates),
    )


@solver_api(legacy_positional=("network",))
@raises("InfeasibleError", "ValidationError")
def solve_total_delay_exact(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    rates: dict[Node, float] | None = None,
) -> ExactPlacement:
    """The true optimum of the Section 5 problem (average total delay)."""
    return _enumerate_optimal(
        system,
        strategy,
        network,
        lambda placement: average_total_delay(placement, strategy, rates=rates),
    )
