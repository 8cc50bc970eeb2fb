"""Optimal single-source placement of the Grid quorum system (§4.1 and
Appendix B of the paper).

Setting: the Grid system on ``k^2`` elements under the uniform strategy
(load-optimal for the Grid), a source ``v0``, and node capacities.  After
the capacity preprocessing below, the problem reduces to choosing which
``k^2`` *slots* (node copies) host the matrix and in what arrangement.

The paper's concentric strategy: let ``tau_1 >= ... >= tau_{k^2}`` be the
chosen slot distances in *decreasing* order.  Put ``tau_1`` at matrix
position (0,0); having filled the top-left ``l x l`` square with the
largest ``l^2`` values, put the next ``l`` values down column ``l``
(rows ``0..l-1``) and the following ``l+1`` values across row ``l``
(columns ``0..l``).  Theorem B.1 proves this arrangement minimizes the
sum over quorums of the maximum member distance — i.e. it is an optimal
solution of the Single-Source QPP for the Grid.

Capacity preprocessing (from §4.1): a node with ``cap(v) >= load`` can
host ``floor(cap(v)/load)`` elements, so it contributes that many slots
at distance ``d(v0, v)``; nodes below the per-element load contribute
none.  Choosing the ``k^2`` closest slots is optimal because the
objective is monotone in each ``tau_i`` (swapping any chosen slot for a
farther one cannot decrease any quorum's max).
"""

from __future__ import annotations

import math

from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .._compat import solver_api
from .._results import Provenance, SolveResult
from .._validation import check_integer_in_range, check_positive, raises
from ..exceptions import CapacityError, ValidationError
from ..network.graph import Network, Node
from ..obs.trace import span
from ..quorums.grid import grid
from ..quorums.strategy import AccessStrategy
from .placement import Placement, expected_max_delay, node_loads

__all__ = [
    "concentric_positions",
    "concentric_matrix",
    "grid_matrix_delay",
    "GridLayoutResult",
    "optimal_grid_placement",
    "nearest_slots",
]


def concentric_positions(k: int) -> list[tuple[int, int]]:
    """Matrix positions in the concentric fill order of §4.1.

    ``positions[r]`` is where the ``(r+1)``-th largest distance goes.

    >>> concentric_positions(2)
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    """
    check_integer_in_range(k, "k", low=1)
    positions: list[tuple[int, int]] = [(0, 0)]
    for l in range(1, k):
        positions.extend((row, l) for row in range(l))  # column l, top to bottom
        positions.extend((l, column) for column in range(l + 1))  # row l, left to right
    return positions


def concentric_matrix(values: list[float]) -> np.ndarray:
    """Arrange ``k^2`` values in the concentric layout.

    Values are sorted in decreasing order internally, so callers can pass
    distances in any order.  Returns the ``k x k`` matrix ``M`` whose
    entry ``M[i, j]`` is the distance placed at matrix cell ``(i, j)``.
    """
    k = int(round(len(values) ** 0.5))
    if k * k != len(values):
        raise ValidationError(f"need a square count of values, got {len(values)}")
    ordered = sorted(values, reverse=True)
    matrix = np.zeros((k, k))
    for value, (row, column) in zip(ordered, concentric_positions(k)):
        matrix[row, column] = value
    return matrix


def grid_matrix_delay(matrix: np.ndarray) -> float:
    """Average max-delay of a distance matrix under the uniform strategy.

    ``(1/k^2) * sum_{i,j} max(row i union column j)`` — the §4.1
    rephrasing of ``Delta_f(v0)`` for the Grid.
    """
    array = np.asarray(matrix, dtype=float)
    k = array.shape[0]
    if array.shape != (k, k):
        raise ValidationError("matrix must be square")
    row_max = array.max(axis=1)
    column_max = array.max(axis=0)
    total = 0.0
    for i in range(k):
        for j in range(k):
            total += max(row_max[i], column_max[j])
    return total / (k * k)


def nearest_slots(
    network: Network, source: Node, element_load: float, count: int
) -> list[Node]:
    """The *count* closest capacity slots to *source*.

    Node ``v`` contributes ``floor(cap(v) / element_load)`` slots at
    distance ``d(source, v)`` (the §4.1 suppress/duplicate preprocessing,
    equivalent to greedy packing of equal loads).

    Raises
    ------
    CapacityError
        When the network has fewer than *count* slots in total.
    """
    check_positive(element_load, "element_load")
    metric = network.metric()
    slots: list[tuple[float, int, Node]] = []
    for node in metric.nodes_by_distance(source):
        capacity = network.capacity(node)
        if math.isfinite(capacity):
            copies = int(capacity // element_load)
        else:
            copies = count  # an uncapacitated node can host everything
        distance = metric.distance(source, node)
        for copy in range(copies):
            slots.append((distance, copy, node))
    if len(slots) < count:
        raise CapacityError(
            f"network supplies only {len(slots)} capacity slots for load "
            f"{element_load:.4f}; {count} are needed"
        )
    slots.sort(key=lambda item: (item[0], network.node_index(item[2]), item[1]))
    return [node for _, _, node in slots[:count]]


@dataclass(frozen=True)
class GridLayoutResult(SolveResult):
    """An optimal Grid placement (a :class:`~repro._results.SolveResult`).

    ``objective`` equals :func:`grid_matrix_delay` of the arranged
    distance matrix, which Theorem B.1 certifies as the minimum over all
    capacity-respecting placements; the pre-unification name ``delay``
    still resolves but emits a :class:`FutureWarning` (removal scheduled
    for the next major release).
    """

    strategy: AccessStrategy
    matrix: np.ndarray
    slots: list[Node]

    _legacy_aliases: ClassVar[Mapping[str, str]] = {"delay": "objective"}


def _realized_load_factor(
    placement: Placement, strategy: AccessStrategy, network: Network
) -> float:
    """Realized worst ``load_f(v)/cap(v)`` of an integral placement."""
    worst = 0.0
    for node, load in node_loads(placement, strategy).items():
        if load <= 0:
            continue
        capacity = network.capacity(node)
        worst = max(worst, load / capacity if capacity > 0 else float("inf"))
    return worst


# paper: Thm 1.3, Thm B.1, §4
@solver_api(legacy_positional=("k",))
@raises("CapacityError", "ValidationError")
def optimal_grid_placement(network: Network, source: Node, *, k: int) -> GridLayoutResult:
    """Place ``grid(k)`` optimally for source *source* (Theorem B.1).

    The per-element load under the uniform strategy is
    ``(2k - 1)/k^2``; the ``k^2`` nearest capacity slots are arranged
    concentrically.  The result's placement respects every node capacity
    exactly (no violation), matching Theorem 1.3's requirements.
    """
    check_integer_in_range(k, "k", low=1)
    with span("grid.layout", k=k, source=source):
        system = grid(k)
        strategy = AccessStrategy.uniform(system)
        element_load = strategy.load(system.universe[0])
        slots = nearest_slots(network, source, element_load, k * k)

        metric = network.metric()
        distances = [metric.distance(source, node) for node in slots]
        # Pair each matrix cell with a slot: sort slots by decreasing distance
        # and walk the concentric position order.
        order = sorted(range(len(slots)), key=lambda i: -distances[i])
        mapping = {}
        matrix = np.zeros((k, k))
        for rank, (row, column) in enumerate(concentric_positions(k)):
            slot_index = order[rank]
            mapping[(row, column)] = slots[slot_index]
            matrix[row, column] = distances[slot_index]

        placement = Placement(system, network, mapping)
        delay = expected_max_delay(placement, strategy, source)
    return GridLayoutResult(
        placement=placement,
        objective=delay,
        load_violation_factor=_realized_load_factor(placement, strategy, network),
        provenance=Provenance.of("grid.concentric", "Thm B.1", k=k),
        strategy=strategy,
        matrix=matrix,
        slots=slots,
    )
