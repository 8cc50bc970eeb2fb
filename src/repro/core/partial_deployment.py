"""The partial quorum deployment problem (Gilbert & Malewicz, §2).

The related-work section describes the problem Gilbert and Malewicz
study independently: with ``|Q| = |V| = |U|``, find a *bijection*
``f : U -> V`` placing the elements and a *bijection* ``q : V -> Q``
assigning each client its own distinct quorum, minimizing the average
total delay ``Avg_v gamma_f(v, q(v))``.  The paper notes its own Section
5 results generalize this scenario (arbitrary sizes, load constraints,
probabilistic access); this module implements the restricted bijective
problem itself so the two can be compared.

Two solvers:

* :func:`solve_partial_deployment_exact` — exhaustive over both
  bijections (tiny instances only), the ground truth.
* :func:`solve_partial_deployment` — alternating optimization.  Each
  half-problem is a *linear assignment problem*:

  - with ``f`` fixed, choosing ``q`` assigns clients to quorums with
    cost ``gamma_f(v, Q)``;
  - with ``q`` fixed, the objective re-groups per element as
    ``sum_u sum_{v : u in q(v)} d(v, f(u))``, so choosing ``f`` assigns
    elements to nodes with cost ``c(u, w) = sum_{v : u in q(v)} d(v, w)``.

  Both are solved exactly with the Hungarian algorithm; alternation is
  monotone non-increasing and stops at a (joint) local optimum.  This is
  a heuristic — Gilbert & Malewicz give a polynomial exact algorithm for
  their setting; the exact solver here provides the reference on small
  instances, and the tests measure the alternation's gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .._validation import check_integer_in_range, check_scale, raises, require
from ..exceptions import ValidationError
from ..network.graph import Network, Node
from ..quorums.base import Element, QuorumSystem
from .placement import Placement

__all__ = [
    "PartialDeployment",
    "solve_partial_deployment",
    "solve_partial_deployment_exact",
]

_MAX_EXACT_SIZE = 5


@dataclass(frozen=True)
class PartialDeployment:
    """A solved partial deployment.

    Attributes
    ----------
    placement:
        The bijection ``f`` wrapped as a :class:`Placement`.
    quorum_of_client:
        The bijection ``q``: each client's assigned quorum index.
    average_delay:
        ``Avg_v gamma_f(v, q(v))``.
    iterations:
        Alternating rounds performed (0 for the exact solver).
    """

    placement: Placement
    quorum_of_client: dict[Node, int]
    average_delay: float
    iterations: int


def _check_shape(system: QuorumSystem, network: Network) -> None:
    require(
        len(system) == network.size == system.universe_size,
        "partial deployment requires |Q| = |V| = |U| "
        f"(got {len(system)} quorums, {network.size} nodes, "
        f"{system.universe_size} elements)",
    )


def _gamma_matrix(
    system: QuorumSystem,
    network: Network,
    element_to_node: list[int],
    metric: object,
) -> np.ndarray:
    """``gamma[v_index, quorum_index]`` for a fixed element placement.

    Works against any :class:`~repro.network.lazymetric.MetricView`: a
    dense metric is sliced by columns as before, while a lazy view uses
    metric symmetry (``d(v, h) = d(h, v)``) to sum the *rows* of the
    ``O(q)`` host nodes — never materializing all ``n`` rows.
    """
    matrix = getattr(metric, "matrix", None)
    n = network.size
    nodes = network.nodes
    gamma = np.zeros((n, len(system)))
    element_index = {u: i for i, u in enumerate(system.universe)}
    for j, quorum in enumerate(system.quorums):
        hosts = [element_to_node[element_index[u]] for u in quorum]
        if matrix is not None:
            gamma[:, j] = matrix[:, hosts].sum(axis=1)
        else:
            gamma[:, j] = np.sum(
                [metric.distances_from(nodes[h]) for h in hosts], axis=0
            )
    return gamma


def _deployment_cost(
    system: QuorumSystem,
    network: Network,
    element_to_node: list[int],
    client_to_quorum: list[int],
    metric: object,
) -> float:
    gamma = _gamma_matrix(system, network, element_to_node, metric)
    return float(np.mean([gamma[v, client_to_quorum[v]] for v in range(network.size)]))


@raises("ValidationError")
def solve_partial_deployment(
    system: QuorumSystem,
    network: Network,
    *,
    max_rounds: int = 20,
    metric: object | None = None,
    scale: str | None = None,
) -> PartialDeployment:
    """Alternating Hungarian optimization of ``(f, q)``.

    Starts from the identity placement and alternates exact assignment
    solves until neither bijection improves (or *max_rounds*).

    ``scale="large"`` (the shared ``scale=`` gate, ``docs/api.md``)
    routes all distance access through the network's lazy metric —
    every cost matrix is assembled from ``O(q)`` symmetric row pulls
    per quorum instead of the dense ``(n, n)`` build.  An explicit
    ``metric=`` (any :class:`~repro.network.lazymetric.MetricView`)
    takes precedence.
    """
    _check_shape(system, network)
    check_integer_in_range(max_rounds, "max_rounds", low=1)
    check_scale(scale)
    n = network.size
    if metric is None:
        metric = network.lazy_metric() if scale == "large" else network.metric()
    matrix = getattr(metric, "matrix", None)
    universe = list(system.universe)
    element_index = {u: i for i, u in enumerate(universe)}

    element_to_node = list(range(n))  # f: universe order -> node index
    client_to_quorum = list(range(n))  # q: node index -> quorum index
    best = _deployment_cost(
        system, network, element_to_node, client_to_quorum, metric
    )

    iterations = 0
    for _ in range(max_rounds):
        improved = False

        # Step 1: optimal q for fixed f (clients x quorums assignment).
        gamma = _gamma_matrix(system, network, element_to_node, metric)
        rows, columns = linear_sum_assignment(gamma)
        candidate_q = [0] * n
        for v, j in zip(rows, columns):
            candidate_q[int(v)] = int(j)
        cost_q = _deployment_cost(
            system, network, element_to_node, candidate_q, metric
        )
        if cost_q < best - 1e-12:
            client_to_quorum = candidate_q
            best = cost_q
            improved = True

        # Step 2: optimal f for fixed q (elements x nodes assignment).
        # cost(u, w) = sum over clients v whose quorum contains u of d(v, w).
        demand = np.zeros((len(universe), n))
        for v in range(n):
            row = (
                matrix[v, :]
                if matrix is not None
                else metric.distances_from(network.nodes[v])
            )
            for u in system.quorums[client_to_quorum[v]]:
                demand[element_index[u], :] += row
        rows, columns = linear_sum_assignment(demand)
        candidate_f = [0] * len(universe)
        for i, w in zip(rows, columns):
            candidate_f[int(i)] = int(w)
        cost_f = _deployment_cost(
            system, network, candidate_f, client_to_quorum, metric
        )
        if cost_f < best - 1e-12:
            element_to_node = candidate_f
            best = cost_f
            improved = True

        iterations += 1
        if not improved:
            break

    mapping = {
        universe[i]: network.nodes[element_to_node[i]] for i in range(len(universe))
    }
    quorum_of_client = {
        network.nodes[v]: client_to_quorum[v] for v in range(n)
    }
    return PartialDeployment(
        placement=Placement(system, network, mapping),
        quorum_of_client=quorum_of_client,
        average_delay=best,
        iterations=iterations,
    )


@raises("ValidationError")
def solve_partial_deployment_exact(
    system: QuorumSystem, network: Network
) -> PartialDeployment:
    """Exhaustive optimum over both bijections (``n <= 5``)."""
    _check_shape(system, network)
    n = network.size
    if n > _MAX_EXACT_SIZE:
        raise ValidationError(
            f"exact partial deployment supports n <= {_MAX_EXACT_SIZE} (got {n})"
        )
    universe = list(system.universe)
    dense = network.metric()
    best_cost = np.inf
    best_f: tuple[int, ...] | None = None
    best_q: tuple[int, ...] | None = None
    for f_perm in permutations(range(n)):
        gamma = _gamma_matrix(system, network, list(f_perm), dense)
        # For a fixed f, the best q is itself an assignment problem —
        # solve it exactly instead of enumerating all q permutations.
        rows, columns = linear_sum_assignment(gamma)
        cost = float(gamma[rows, columns].mean())
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_f = f_perm
            q = [0] * n
            for v, j in zip(rows, columns):
                q[int(v)] = int(j)
            best_q = tuple(q)
    assert best_f is not None and best_q is not None
    mapping = {universe[i]: network.nodes[best_f[i]] for i in range(n)}
    return PartialDeployment(
        placement=Placement(system, network, mapping),
        quorum_of_client={network.nodes[v]: best_q[v] for v in range(n)},
        average_delay=best_cost,
        iterations=0,
    )
