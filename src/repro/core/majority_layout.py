"""Single-source placement of Majority/threshold systems (§4.2).

For the generalized Majority system — all ``t``-subsets of an
``n``-element universe, ``2t > n`` — under the uniform strategy, §4.2
observes that the average delay from the source depends only on the
*multiset of distances* of the slots hosting the elements, not on which
element sits where.  Sorting the chosen slot distances in decreasing
order ``tau_1 >= tau_2 >= ...``, equation (19) gives the delay exactly:

    Delta_f(v0) = (1 / C(n, t)) * sum_{i=1}^{n-t+1} tau_i * C(n-i, t-1)

(There are ``C(n-1, t-1)`` quorums whose farthest member is ``tau_1``,
``C(n-2, t-1)`` whose farthest is ``tau_2`` but not ``tau_1``, and so on.)

Consequently the optimal placement simply occupies the ``n`` closest
capacity slots — any assignment of elements to those slots is optimal,
and :func:`optimal_majority_placement` returns one while
:func:`majority_delay_formula` computes (19) directly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import comb
from typing import ClassVar

from .._compat import solver_api
from .._results import Provenance, SolveResult
from .._validation import check_integer_in_range, raises
from ..exceptions import ValidationError
from ..network.graph import Network, Node
from ..obs.trace import span
from ..quorums.majority import threshold
from ..quorums.strategy import AccessStrategy
from .grid_layout import _realized_load_factor, nearest_slots
from .placement import Placement, expected_max_delay

__all__ = [
    "majority_delay_formula",
    "MajorityLayoutResult",
    "optimal_majority_placement",
]


# paper: eq. (19), §4.2
def majority_delay_formula(n: int, t: int, distances: list[float]) -> float:
    """Equation (19): the exact average delay of any placement of the
    ``t``-of-``n`` threshold system whose slots sit at *distances*.

    Parameters
    ----------
    n, t:
        Universe size and quorum size; requires ``2t > n``.
    distances:
        The ``n`` slot distances from the source, in any order.

    Examples
    --------
    >>> majority_delay_formula(3, 2, [0.0, 1.0, 2.0])
    1.666666666666666...
    """
    check_integer_in_range(n, "n", low=1)
    check_integer_in_range(t, "t", low=1, high=n)
    if 2 * t <= n:
        raise ValidationError(f"threshold system needs 2t > n, got n={n}, t={t}")
    if len(distances) != n:
        raise ValidationError(f"need exactly {n} distances, got {len(distances)}")
    taus = sorted((float(d) for d in distances), reverse=True)
    total = 0.0
    for i in range(1, n - t + 2):  # i = 1 .. n - t + 1
        total += taus[i - 1] * comb(n - i, t - 1)
    return total / comb(n, t)


@dataclass(frozen=True)
class MajorityLayoutResult(SolveResult):
    """An optimal Majority placement (a
    :class:`~repro._results.SolveResult`).

    ``objective`` is the realized ``Delta_f(v0)``; ``formula_delay`` is
    the closed-form (19) evaluated on the chosen slot distances.  The
    two agree to numerical precision — the test suite asserts it.  The
    pre-unification name ``delay`` still resolves but emits a
    :class:`FutureWarning` (removal scheduled for the next major
    release).
    """

    strategy: AccessStrategy
    formula_delay: float
    slots: list[Node]

    _legacy_aliases: ClassVar[Mapping[str, str]] = {"delay": "objective"}


# paper: Thm 1.3, §4
@solver_api(legacy_positional=("n", "t"))
@raises("CapacityError", "ValidationError")
def optimal_majority_placement(
    network: Network, source: Node, *, n: int, t: int | None = None
) -> MajorityLayoutResult:
    """Optimally place the ``t``-of-``n`` threshold system for one source.

    ``t`` defaults to the simple majority ``floor(n/2) + 1``.  Uses the
    §4.1-style capacity preprocessing (a node hosts
    ``floor(cap(v)/load)`` elements at its distance) and occupies the
    ``n`` nearest slots; equation (19) makes any element-to-slot
    assignment equally good, and taking the pointwise-smallest distance
    multiset minimizes the formula since its coefficients are
    non-negative.
    """
    check_integer_in_range(n, "n", low=1)
    quorum_size = t if t is not None else n // 2 + 1
    with span("majority.layout", n=n, t=quorum_size, source=source):
        system = threshold(n, quorum_size)
        strategy = AccessStrategy.uniform(system)
        element_load = strategy.load(system.universe[0])
        slots = nearest_slots(network, source, element_load, n)

        mapping = {
            element: slots[index] for index, element in enumerate(system.universe)
        }
        placement = Placement(system, network, mapping)
        metric = network.metric()
        distances = [metric.distance(source, node) for node in slots]
        delay = expected_max_delay(placement, strategy, source)
        formula = majority_delay_formula(n, quorum_size, distances)
    return MajorityLayoutResult(
        placement=placement,
        objective=delay,
        load_violation_factor=_realized_load_factor(placement, strategy, network),
        provenance=Provenance.of("majority.nearest-slots", "eq. (19)", n=n, t=quorum_size),
        strategy=strategy,
        formula_delay=formula,
        slots=slots,
    )
