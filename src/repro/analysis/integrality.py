"""Integrality-gap instances for the single-source LP (Appendix A).

Claim A.1: the LP relaxation (9)-(14) has integrality gap at least ``n``
on general metrics and at least ``sqrt(n)`` on unit-length graphs.  Both
constructions use a single quorum containing the entire universe with
unit capacities, so every feasible *integral* placement is a bijection
and pays the largest node distance, while the LP spreads each element
``1/n`` everywhere and pays roughly the average distance.

* :func:`general_metric_gap_instance` — the weighted star whose farthest
  node sits at distance ``M >> 1``: integral optimum ``M``, LP about
  ``(n - 1 + M)/n``, gap approaching ``n``.
* :func:`broom_gap_instance` — **Figure 1**: the ``k^2``-node unit-length
  broom; integral optimum ``k``, LP about ``3/2``, gap ``O(sqrt(n))``.

The LP values are computed by actually solving the relaxation with
:func:`repro.core.ssqpp.build_ssqpp_lp`, so these instances double as an
end-to-end exercise of the LP machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_integer_in_range, check_positive, raises
from ..core.ssqpp import build_ssqpp_lp
from ..network.generators import broom_network
from ..network.graph import Network
from ..quorums.base import QuorumSystem
from ..quorums.strategy import AccessStrategy

__all__ = [
    "GapInstance",
    "general_metric_gap_instance",
    "broom_gap_instance",
    "solve_gap_instance_lp",
]


@dataclass(frozen=True)
class GapInstance:
    """A single-quorum gap instance with its certified gap numbers.

    ``integral_optimum`` is exact (argued in Appendix A: unit loads and
    unit capacities force a bijection, whose delay is the distance of the
    farthest node).  ``lp_value`` is the solved LP optimum, and ``gap``
    their ratio.
    """

    name: str
    system: QuorumSystem
    strategy: AccessStrategy
    network: Network
    source: int
    integral_optimum: float
    lp_value: float

    @property
    def gap(self) -> float:
        return self.integral_optimum / self.lp_value if self.lp_value > 0 else float("inf")


def _single_quorum_system(n: int) -> tuple[QuorumSystem, AccessStrategy]:
    system = QuorumSystem(
        [frozenset(range(n))], universe=range(n), name=f"one-quorum({n})", check=False
    )
    return system, AccessStrategy.uniform(system)


@raises("ValidationError")
def solve_gap_instance_lp(
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    source: int,
) -> float:
    """Optimal value ``Z*`` of the relaxation (9)-(14) for the instance."""
    model, _, _, _, _ = build_ssqpp_lp(system, strategy, network, source)
    return float(model.solve().objective)


def general_metric_gap_instance(n: int, far_distance: float) -> GapInstance:
    """The general-metric instance of Claim A.1.

    A star with center ``v0``: ``n - 2`` leaves at distance 1 and one
    leaf at distance ``M = far_distance``.  Distances from ``v0`` are
    ``0, 1, .., 1, M``; unit loads and unit capacities force every node
    to host exactly one element, so the integral optimum is ``M`` while
    the LP pays about ``(n - 1 + M)/n``.
    """
    check_integer_in_range(n, "n", low=3)
    check_positive(far_distance, "far_distance")
    edges = [(0, leaf, 1.0) for leaf in range(1, n - 1)]
    edges.append((0, n - 1, float(far_distance)))
    network = Network(
        range(n), edges, capacities=1.0, name=f"gap-star({n},M={far_distance:g})"
    )
    system, strategy = _single_quorum_system(n)
    lp_value = solve_gap_instance_lp(system, strategy, network, 0)
    return GapInstance(
        name=network.name,
        system=system,
        strategy=strategy,
        network=network,
        source=0,
        integral_optimum=float(far_distance),
        lp_value=lp_value,
    )


# paper: Claim A.1, App. A
def broom_gap_instance(k: int) -> GapInstance:
    """The unit-length Figure 1 instance: integral optimum ``k``, LP
    roughly ``3/2``, certifying a gap of ``Omega(sqrt(n))``."""
    check_integer_in_range(k, "k", low=2)
    network = broom_network(k).with_capacities(1.0)
    system, strategy = _single_quorum_system(network.size)
    lp_value = solve_gap_instance_lp(system, strategy, network, 0)
    return GapInstance(
        name=network.name,
        system=system,
        strategy=strategy,
        network=network,
        source=0,
        integral_optimum=float(k),
        lp_value=lp_value,
    )
