"""The Quorum Placement Problem (Problem 1.1) via the single-source
reduction (Theorem 3.3), giving the paper's main result, Theorem 1.2.

Algorithm
---------
Lemma 3.1 guarantees some node ``v0`` for which the "relay-via-v0"
strategy costs at most 5x the optimum; Theorem 3.3 turns any
``beta``-approximate single-source solution at that ``v0`` into a
``5 beta``-approximation for QPP.  Since ``v0`` is unknown, the paper
prescribes running the single-source algorithm from *every* node and
keeping the best placement — which is what :func:`solve_qpp` does
(optionally over a restricted candidate set for speed).

The returned result also carries a *certified lower bound* on the QPP
optimum: by the proof of Theorem 3.3, for the (unknown) right relay node

    Avg_v d(v, v0) + Z*(v0) <= Avg_v d(v, v0) + Delta_{f*}(v0) <= 5 OPT,

so ``min over candidates of (Avg_v d(v, v0) + Z*(v0)) / 5 <= OPT``.  The
benchmarks use it to report honest measured-vs-optimal ratios when
exhaustive search is out of reach.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from .._compat import solver_api
from .._results import Provenance, SolveResult
from .._validation import (
    check_integer_in_range,
    check_positive,
    check_scale,
    effects,
    raises,
    require,
)
from ..network.graph import Network, Node
from ..network.lazymetric import LandmarkOracle
from ..obs.metrics import counter, telemetry_scope
from ..obs.trace import span
from ..parallel import parallel_map
from ..resilience import fault_point
from ..quorums.base import QuorumSystem
from ..quorums.strategy import AccessStrategy
from .placement import (
    Placement,
    _client_weights,
    average_max_delay,
    average_max_delay_bounds,
    average_max_delay_via_sources,
)
from .ssqpp import SSQPPLPFactory, SSQPPResult, solve_ssqpp

__all__ = ["QPPResult", "solve_qpp", "average_strategy", "warm_candidates"]


@dataclass(frozen=True)
class QPPResult(SolveResult):
    """Output of :func:`solve_qpp` (a :class:`~repro._results.SolveResult`).

    ``objective`` is the realized QPP objective ``Avg_v Delta_f(v)`` and
    ``load_violation_factor`` the realized worst ``load_f(v)/cap(v)``;
    the pre-unification name ``average_delay`` still resolves but emits
    a :class:`FutureWarning` (removal scheduled for the next major
    release).

    Attributes
    ----------
    source:
        The relay candidate whose single-source solution won.
    alpha:
        The load/delay trade-off parameter forwarded to the single-source
        solver.
    approximation_factor:
        The proven factor ``5 * alpha / (alpha - 1)`` of Theorem 1.2.
    load_factor_bound:
        The proven load bound ``alpha + 1`` (Theorem 1.2).
    optimum_lower_bound:
        A certified lower bound on the optimal capacity-respecting
        average delay (see module docstring).
    per_source:
        The single-source result obtained from every candidate source,
        keyed by source node (useful for diagnostics and ablations).
    """

    source: Node
    alpha: float
    approximation_factor: float
    load_factor_bound: float
    optimum_lower_bound: float
    per_source: dict[Node, SSQPPResult]

    _legacy_aliases: ClassVar[Mapping[str, str]] = {"average_delay": "objective"}

    @property
    def certified_ratio(self) -> float:
        """``objective / optimum_lower_bound`` — an upper bound on the
        realized approximation ratio (infinite when the bound is zero
        while the delay is positive)."""
        if self.optimum_lower_bound > 0:
            return self.objective / self.optimum_lower_bound
        return 0.0 if self.objective == 0 else float("inf")


# paper: Thm 3.3
@effects("reads-global", "writes-metrics")
def _qpp_candidate_worker(
    source: Node,
    *,
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    alpha: float,
    lp_method: str,
    formulation: str,
) -> SSQPPResult:
    """Solve one relay candidate in isolation (the process-pool worker).

    Unlike the serial sweep, each worker builds its own LP factory: the
    shared-factory optimization assumes sequential attach/release on one
    mutable LP base, which processes cannot share.  The factory's
    checkpoint/rollback contract makes a fresh base bitwise-equivalent
    to a rolled-back shared one, so the sweep's results do not depend on
    which path ran (test-asserted).  Declared effects cover callees the
    static analysis cannot see through method calls (the LP solve
    counters, the network metric cache).
    """
    return solve_ssqpp(
        system,
        strategy,
        network=network,
        source=source,
        alpha=alpha,
        lp_method=lp_method,
        formulation=formulation,
    )


# paper: Thm 1.2, Thm 3.3, §3
@solver_api(legacy_positional=("network",))
@raises("ParallelSafetyError", "ValidationError", transient=("SolverError",))
def solve_qpp(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    alpha: float = 2.0,
    candidate_sources: Sequence[Node] | None = None,
    rates: Mapping[Node, float] | None = None,
    lp_method: str = "highs",
    formulation: str = "prefix",
    parallel: str | None = None,
    certificate: Mapping[str, Any] | str | Path | None = None,
    max_workers: int | None = None,
    scale: str | None = None,
    landmarks: int = 16,
    horizon: int | str | None = "auto",
    prune: bool = True,
) -> QPPResult:
    """Solve the Quorum Placement Problem (Theorem 1.2).

    Runs :func:`repro.core.ssqpp.solve_ssqpp` from every candidate source
    and returns the placement with the smallest realized average
    max-delay.  The placement satisfies
    ``load_f(v) <= (alpha + 1) cap(v)`` and
    ``Avg_v Delta_f(v) <= 5 alpha/(alpha-1) * OPT``.

    Parameters
    ----------
    candidate_sources:
        Restrict the relay-candidate sweep (default: all nodes).  The
        Theorem 1.2 guarantee formally needs all nodes; a restricted sweep
        retains the load bound but may lose the delay guarantee, and it
        voids the certified lower bound: the result then reports
        ``optimum_lower_bound = 0.0`` and its provenance names why.
    rates:
        Optional per-client access rates (§6 extension); both the
        objective and the lower bound become rate-weighted averages.
    parallel:
        ``"process"`` fans the candidate sweep out across a process pool
        via :func:`repro.parallel.parallel_map`, gated on the
        parallel-safety *certificate*; ``None`` (default) sweeps
        serially with a shared LP factory.  Results are identical either
        way — only the telemetry attribution differs (child-process
        counter increments stay in the children).
    certificate:
        Parallel-safety certificate for the pooled sweep: a parsed
        document, a path to one, or ``None`` to consult
        ``$REPRO_PARALLEL_CERTIFICATE``.  Generate with ``repro lint
        --effects --certificate out.json``.  Without a valid certificate
        covering the worker, ``parallel="process"`` refuses
        (:class:`~repro.exceptions.ParallelSafetyError`).
    max_workers:
        Pool size for ``parallel="process"`` (default: executor choice).
    scale:
        ``None`` or ``"dense"`` (equivalent) run the classic sweep over
        the dense cached metric.  ``"large"`` switches to the lazy-metric
        sweep: distances come from :meth:`Network.lazy_metric` (rows on
        demand, never an ``n x n`` matrix), candidates default to a
        farthest-point landmark set, each single-source LP is restricted
        to a capacity-adaptive prefix of nodes near the source, and
        oracle bounds prune the exact evaluation of hopeless candidates.
    landmarks:
        Landmark count for the ``scale="large"`` oracle (and the default
        candidate set).  Ignored otherwise.
    horizon:
        ``scale="large"`` placement-domain control: ``"auto"`` sizes a
        capacity-adaptive prefix per candidate, an integer fixes the
        prefix length, ``None`` keeps the full domain (exact but slow).
        Restricting the domain voids the certified lower bound — the
        result then reports ``optimum_lower_bound = 0.0``.
    prune:
        In ``scale="large"``, skip exact evaluation of a candidate whose
        oracle *lower* bound already matches or exceeds the incumbent.
        Never changes the returned placement, objective, or source
        (test-asserted); set ``False`` to force every exact evaluation.
    """
    check_positive(alpha - 1.0, "alpha - 1")
    require(
        parallel in (None, "process"),
        f"parallel must be None or 'process', got {parallel!r}",
    )
    check_scale(scale)
    require(
        horizon is None or horizon == "auto"
        or (isinstance(horizon, int) and not isinstance(horizon, bool) and horizon >= 1),
        f"horizon must be None, 'auto' or a positive int, got {horizon!r}",
    )
    if scale == "large":
        require(
            parallel is None,
            "scale='large' sweeps serially over the shared lazy metric; "
            "parallel='process' is not supported",
        )
        return _solve_qpp_large(
            system,
            strategy,
            network=network,
            alpha=alpha,
            candidate_sources=candidate_sources,
            rates=rates,
            lp_method=lp_method,
            formulation=formulation,
            landmarks=landmarks,
            horizon=horizon,
            prune=prune,
        )
    candidates = list(candidate_sources) if candidate_sources is not None else list(network.nodes)
    require(len(candidates) > 0, "at least one candidate source is required")
    # Dedupe while preserving order: repeated candidates would waste
    # solves and make per_source diagnostics ambiguous.
    candidates = list(dict.fromkeys(candidates))
    for node in candidates:
        network.node_index(node)

    metric = network.metric()
    weights = _client_weights(network, rates)

    best: SSQPPResult | None = None
    best_delay = float("inf")
    best_source: Node | None = None
    lower_bound = float("inf")
    per_source: dict[Node, SSQPPResult] = {}

    with telemetry_scope() as telemetry, span(
        "qpp.sweep", candidates=len(candidates), alpha=alpha
    ):
        if parallel == "process":
            worker = partial(
                _qpp_candidate_worker,
                system=system,
                strategy=strategy,
                network=network,
                alpha=alpha,
                lp_method=lp_method,
                formulation=formulation,
            )
            results = parallel_map(
                worker,
                candidates,
                certificate=certificate,
                max_workers=max_workers,
            )
        else:
            # One shared LP base (variables, assignment and capacity
            # rows) for the whole sweep; each solve_ssqpp call attaches
            # only the source-dependent structure and rolls it back
            # afterwards.
            factory = SSQPPLPFactory(
                system, strategy, network, formulation=formulation
            )
            results = []
            for source in candidates:
                with span("qpp.candidate", source=source):
                    fault_point("qpp.candidate")
                    results.append(
                        solve_ssqpp(
                            system,
                            strategy,
                            network=network,
                            source=source,
                            alpha=alpha,
                            lp_method=lp_method,
                            formulation=formulation,
                            factory=factory,
                        )
                    )
        # Selection is shared between both sweep modes and iterates in
        # candidate order, so serial and pooled runs reduce the same
        # per-candidate results with the same float arithmetic.
        for source, result in zip(candidates, results):
            per_source[source] = result
            to_source = float(weights @ metric.distances_from(source))
            lower_bound = min(lower_bound, (to_source + result.lp_value) / 5.0)
            realized = average_max_delay(result.placement, strategy, rates=rates)
            if realized < best_delay:
                best_delay = realized
                best = result
                best_source = source

    assert best is not None and best_source is not None
    void = _void_bound_reasons(network, candidates, restricted=False)
    if void:
        lower_bound = 0.0
    return QPPResult(
        placement=best.placement,
        objective=best_delay,
        load_violation_factor=best.max_load_factor,
        provenance=Provenance.of(
            "qpp.relay-sweep",
            "Thm 1.2",
            alpha=alpha,
            formulation=formulation,
            **void,
        ),
        source=best_source,
        alpha=alpha,
        approximation_factor=5.0 * alpha / (alpha - 1.0),
        load_factor_bound=alpha + 1.0,
        optimum_lower_bound=lower_bound,
        per_source=per_source,
        telemetry=telemetry.snapshot,
    )


def _void_bound_reasons(
    network: Network, candidates: Sequence[Node], *, restricted: bool
) -> dict[str, str]:
    """Why the sweep's Theorem 3.3 lower bound is not a certificate.

    ``min over v0 of (d(v0) + LP(v0)) / 5`` bounds OPT only because the
    OPT-dependent source of Lemma 3.1 is among the swept ``v0``, so the
    candidates must cover every node; and a restricted placement domain
    makes each LP optimum an upper bound on ``Z*``, not a lower one.
    Returns ``{}`` for a certified bound, else the ``lower_bound_void``
    provenance parameter.
    """
    reasons = []
    if len(candidates) < network.size:
        reasons.append(
            f"partial candidate sweep ({len(candidates)} of {network.size} nodes)"
        )
    if restricted:
        reasons.append("restricted placement domain")
    return {"lower_bound_void": "; ".join(reasons)} if reasons else {}


#: Minimum prefix length of the ``horizon="auto"`` placement domain.
_HORIZON_FLOOR = 32

#: ``horizon="auto"`` grows the prefix until its cumulative capacity
#: reaches this multiple of ``(alpha + 1) * total_load`` — generous
#: headroom over the Theorem 1.2 load bound, so the restricted LP is
#: never starved for capacity.
_HORIZON_CAPACITY_FACTOR = 4.0


def _capacity_prefix_domain(
    network: Network,
    ordered: Sequence[Node],
    *,
    alpha: float,
    total_load: float,
    max_load: float,
    horizon: int | str | None,
) -> list[Node] | None:
    """The restricted placement domain for one candidate source.

    *ordered* is every node sorted by distance from the source.  Returns
    ``None`` for ``horizon=None`` (unrestricted); otherwise a prefix —
    fixed-length for an integer horizon, capacity-adaptive for
    ``"auto"`` — patched, if necessary, with the nearest node able to
    host the heaviest element so the restricted LP stays feasible
    whenever the unrestricted one is.
    """
    if horizon is None:
        return None
    n = len(ordered)
    if isinstance(horizon, int):
        cut = min(horizon, n)
    else:
        cut = min(_HORIZON_FLOOR, n)
        target = _HORIZON_CAPACITY_FACTOR * (alpha + 1.0) * total_load
        cumulative = sum(network.capacity(node) for node in ordered[:cut])
        while cut < n and cumulative < target:
            cumulative += network.capacity(ordered[cut])
            cut += 1
    domain = list(ordered[:cut])
    if not any(network.capacity(node) + 1e-12 >= max_load for node in domain):
        for node in ordered[cut:]:
            if network.capacity(node) + 1e-12 >= max_load:
                domain.append(node)
                break
    return domain


# paper: Thm 1.2, Thm 3.3, §3
@effects("reads-global", "writes-metrics")
def _solve_qpp_large(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    alpha: float,
    candidate_sources: Sequence[Node] | None,
    rates: Mapping[Node, float] | None,
    lp_method: str,
    formulation: str,
    landmarks: int,
    horizon: int | str | None,
    prune: bool,
) -> QPPResult:
    """The ``scale="large"`` sweep behind :func:`solve_qpp`.

    Identical selection semantics to the dense sweep — candidates in
    order, strict ``<`` updates — but every distance flows through the
    network's shared :class:`~repro.network.lazymetric.LazyMetric`, so
    no ``n x n`` matrix is ever materialized.  Exact candidate values
    come from :func:`average_max_delay_via_sources` (``O(|image|)`` row
    pulls; matches the dense evaluator up to metric-symmetry ulp).
    Three scale levers:

    1. **Candidates** default to a greedy farthest-point landmark set
       (``landmarks`` of them) instead of all ``n`` nodes.
    2. **Horizon** restricts each candidate's LP to nodes near the
       source (see :func:`_capacity_prefix_domain`).  Restriction voids
       the Theorem 3.3 certificate: the restricted LP optimum
       upper-bounds the true ``Z*``, so the result reports
       ``optimum_lower_bound = 0.0`` whenever any domain was restricted,
       as it does whenever the candidates miss a node.
    3. **Pruning** skips the exact streamed evaluation of a candidate
       whose oracle lower bound already reaches the incumbent — sound
       because the exact value can only be larger, so the strict ``<``
       selection could not have switched to it anyway.
    """
    view = network.lazy_metric()
    k = max(1, min(int(landmarks), network.size))
    oracle = LandmarkOracle.build(view, k)
    if candidate_sources is not None:
        candidates = list(dict.fromkeys(candidate_sources))
    else:
        candidates = list(oracle.landmarks)
    require(len(candidates) > 0, "at least one candidate source is required")
    for node in candidates:
        network.node_index(node)
    weights = _client_weights(network, rates)
    loads = strategy.load_array()
    total_load = float(loads.sum())
    max_load = float(loads.max()) if loads.size else 0.0

    pruned = counter("qpp.prune.skipped")
    evaluated = counter("qpp.prune.evaluated")

    best: SSQPPResult | None = None
    best_delay = float("inf")
    best_source: Node | None = None
    lower_bound = float("inf")
    restricted = False
    per_source: dict[Node, SSQPPResult] = {}

    with telemetry_scope() as telemetry, span(
        "qpp.sweep.large",
        candidates=len(candidates),
        alpha=alpha,
        landmarks=k,
    ):
        for source in candidates:
            ordered = view.nodes_by_distance(source)
            domain = _capacity_prefix_domain(
                network,
                ordered,
                alpha=alpha,
                total_load=total_load,
                max_load=max_load,
                horizon=horizon,
            )
            with span(
                "qpp.candidate",
                source=source,
                domain=network.size if domain is None else len(domain),
            ):
                fault_point("qpp.candidate")
                result = solve_ssqpp(
                    system,
                    strategy,
                    network=network,
                    source=source,
                    alpha=alpha,
                    lp_method=lp_method,
                    formulation=formulation,
                    metric=view,
                    placement_nodes=domain,
                )
            per_source[source] = result
            if domain is None:
                to_source = float(weights @ view.distances_from(source))
                lower_bound = min(lower_bound, (to_source + result.lp_value) / 5.0)
            else:
                restricted = True
            if prune and best is not None:
                bound_low, _ = average_max_delay_bounds(
                    result.placement, strategy, oracle, rates=rates
                )
                if bound_low >= best_delay:
                    pruned.inc()
                    continue
            evaluated.inc()
            realized = average_max_delay_via_sources(
                result.placement, strategy, view, rates=rates
            )
            if realized < best_delay:
                best_delay = realized
                best = result
                best_source = source

    assert best is not None and best_source is not None
    void = _void_bound_reasons(network, candidates, restricted=restricted)
    if void:
        lower_bound = 0.0
    return QPPResult(
        placement=best.placement,
        objective=best_delay,
        load_violation_factor=best.max_load_factor,
        provenance=Provenance.of(
            "qpp.relay-sweep-large",
            "Thm 1.2",
            alpha=alpha,
            formulation=formulation,
            landmarks=k,
            horizon=horizon,
            **void,
        ),
        source=best_source,
        alpha=alpha,
        approximation_factor=5.0 * alpha / (alpha - 1.0),
        load_factor_bound=alpha + 1.0,
        optimum_lower_bound=lower_bound,
        per_source=per_source,
        telemetry=telemetry.snapshot,
    )


def warm_candidates(previous: QPPResult, *, limit: int = 8) -> list[Node]:
    """Candidate sources for an incremental re-solve, best-first.

    The relay-sweep structure is what makes QPP re-solves incremental:
    when the access distribution drifts, the best relay node rarely
    jumps far, so re-running :func:`solve_qpp` over the most promising
    relays of the *previous* solve (its winner first, then the other
    swept candidates ordered by their single-source delay at the relay)
    recovers near-identical quality at a fraction of the sweep cost.
    The serving layer (:mod:`repro.serve`) passes the returned list as
    ``candidate_sources=`` on drift-triggered re-solves.

    Note the usual restricted-sweep caveat (see ``candidate_sources``
    above): the Theorem 1.2 guarantee is relative to the best candidate
    *in the list*, so a warm re-solve trades the exhaustive-sweep bound
    for speed.
    """
    check_integer_in_range(limit, "limit", low=1)
    require(
        len(previous.per_source) > 0,
        "previous result carries no per-source diagnostics to warm from",
    )
    ranked = sorted(
        previous.per_source,
        key=lambda node: (node != previous.source, previous.per_source[node].delay),
    )
    return ranked[:limit]


def average_strategy(
    per_client: Mapping[Node, AccessStrategy],
    network: Network,
    *,
    rates: Mapping[Node, float] | None = None,
) -> AccessStrategy:
    """The §6 reduction for per-client access strategies.

    When each client ``v`` uses its own strategy ``p_v``, assigning every
    client the (rate-weighted) average strategy preserves the average
    delay analysis of Lemma 3.1; the placement algorithms can then run
    unchanged on the averaged strategy.
    """
    missing = [v for v in network.nodes if v not in per_client]
    require(not missing, f"missing strategies for clients {missing[:5]!r}")
    weights = _client_weights(network, rates)
    strategies = [per_client[v] for v in network.nodes]
    return AccessStrategy.mixture(strategies, list(np.asarray(weights)))
