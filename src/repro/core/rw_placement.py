"""Placement for read/write quorum systems.

The single-source algorithm of §3.3 never uses the intersection
property — the LP, the filtering and the GAP rounding are all oblivious
to why the family matters — so it applies verbatim to the *mixed*
read/write workload: quorums are the union of the read and write
families, weighted by the workload's read fraction.

What does **not** carry over is the Theorem 3.3 reduction from the
all-clients problem: Lemma 3.1 samples two quorums independently and
uses their intersection, which fails for a pair of reads.  The
all-clients solver here therefore sweeps candidate sources like
:func:`repro.core.qpp.solve_qpp` and keeps the bicriteria *load*
guarantee, but honestly reports no proven delay factor (the certified
LP-based lower bound per source is still valid and is returned).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .._compat import solver_api
from .._validation import check_probability, check_scale, raises
from ..network.graph import Network, Node
from ..network.lazymetric import LandmarkOracle
from ..quorums.readwrite import ReadWriteQuorumSystem
from ..quorums.strategy import AccessStrategy
from .placement import Placement, average_max_delay
from .ssqpp import SSQPPResult, solve_ssqpp

__all__ = ["RWPlacementResult", "solve_rw_ssqpp", "solve_rw_placement"]


@dataclass(frozen=True)
class RWPlacementResult:
    """A placement for a mixed read/write workload.

    Attributes
    ----------
    placement:
        The chosen placement of the combined universe.
    strategy:
        The mixed-workload strategy the placement was optimized for.
    average_delay:
        Realized all-clients average max-delay of the mixed workload.
    load_factor_bound:
        ``alpha + 1`` — the §3.3 load guarantee, which survives intact.
    lp_lower_bound:
        ``min over sources of (avg distance to source + Z*) / 5`` —
        reported for symmetry with :class:`repro.core.qpp.QPPResult`;
        valid as a lower bound only when the combined family pairwise
        intersects (e.g. a write-only workload), else informational.
    source:
        The winning candidate source.
    """

    placement: Placement
    strategy: AccessStrategy
    average_delay: float
    load_factor_bound: float
    lp_lower_bound: float
    source: Node


@solver_api(legacy_positional=("source",))
@raises("ValidationError", transient=("SolverError",))
def solve_rw_ssqpp(
    rw_system: ReadWriteQuorumSystem,
    network: Network,
    *,
    source: Node,
    read_fraction: float,
    alpha: float = 2.0,
    metric: object | None = None,
    scale: str | None = None,
) -> SSQPPResult:
    """Single-source placement of a read/write workload (Theorem 3.7
    applies unchanged: its guarantees never use intersection).

    ``metric=`` and ``scale=`` thread straight to
    :func:`~repro.core.ssqpp.solve_ssqpp` (the shared ``scale=`` gate,
    ``docs/api.md``): ``scale="large"`` routes distances through the
    network's lazy metric instead of a dense all-pairs build.
    """
    read_fraction = check_probability(read_fraction, "read_fraction")
    check_scale(scale)
    system, strategy = rw_system.workload_weights(read_fraction)
    return solve_ssqpp(
        system,
        strategy,
        network=network,
        source=source,
        alpha=alpha,
        metric=metric,
        scale=scale,
    )


@raises("ValidationError", transient=("SolverError",))
def solve_rw_placement(
    rw_system: ReadWriteQuorumSystem,
    network: Network,
    *,
    read_fraction: float,
    alpha: float = 2.0,
    candidate_sources: Sequence[Node] | None = None,
    scale: str | None = None,
    landmarks: int = 16,
) -> RWPlacementResult:
    """All-clients placement of a read/write workload.

    Sweeps candidate sources with the single-source solver and keeps the
    best realized average delay.  The load bound ``(alpha+1)·cap`` is
    guaranteed; the delay carries no proven factor (see module docs).

    ``scale="large"`` (the shared ``scale=`` gate, ``docs/api.md``)
    routes every distance access through the network's lazy metric and,
    when ``candidate_sources`` is not given, restricts the sweep to a
    farthest-point landmark set of size *landmarks* instead of every
    node — the same default the large-scale QPP sweep uses.
    """
    read_fraction = check_probability(read_fraction, "read_fraction")
    check_scale(scale)
    system, strategy = rw_system.workload_weights(read_fraction)
    if scale == "large":
        metric = network.lazy_metric()
        if candidate_sources is None:
            oracle = LandmarkOracle.build(metric, landmarks)
            candidate_sources = oracle.landmarks
    else:
        metric = network.metric()
    candidates = (
        list(candidate_sources) if candidate_sources is not None else list(network.nodes)
    )

    best_result: SSQPPResult | None = None
    best_delay = float("inf")
    best_source: Node | None = None
    lower_bound = float("inf")
    for source in candidates:
        result = solve_ssqpp(
            system,
            strategy,
            network=network,
            source=source,
            alpha=alpha,
            metric=metric if scale == "large" else None,
        )
        to_source = float(metric.distances_from(source).mean())
        lower_bound = min(lower_bound, (to_source + result.lp_value) / 5.0)
        delay = average_max_delay(
            result.placement, strategy, metric=metric if scale == "large" else None
        )
        if delay < best_delay:
            best_delay = delay
            best_result = result
            best_source = source

    assert best_result is not None and best_source is not None
    return RWPlacementResult(
        placement=best_result.placement,
        strategy=strategy,
        average_delay=best_delay,
        load_factor_bound=alpha + 1.0,
        lp_lower_bound=lower_bound,
        source=best_source,
    )
