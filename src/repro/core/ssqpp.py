"""The Single-Source Quorum Placement Problem (Problem 3.2) and the
LP-rounding algorithm of Section 3.3 (Theorems 3.7 and 3.12).

Given a quorum system ``Q`` with access strategy ``p0``, a network with a
distinguished source ``v0``, and per-node capacities, find a placement
minimizing ``Delta_f(v0)`` subject to ``load_f(v) <= cap(v)``.  The
problem is NP-hard (Theorem 3.6, see :mod:`repro.core.hardness`); the
algorithm here is the paper's bicriteria approximation:

1. **LP.**  Solve the relaxation (9)-(14): variables ``x_tu`` ("element
   ``u`` sits on the ``t``-th closest node to ``v0``") and ``x_tQ``
   ("quorum ``Q`` is fully contained in the ``t`` closest nodes"), with
   assignment, capacity and prefix-consistency constraints.
2. **Filtering** (Claim 3.8 / Lemma 3.9, generalized to ``alpha``).
   Scale each element's fractional assignment by ``alpha`` and truncate
   the cumulative mass at 1 — "moving mass toward the source" — so that
   any node still fractionally carrying ``u`` satisfies
   ``d_t <= alpha/(alpha-1) * D_Q`` for every quorum ``Q`` containing
   ``u``.
3. **GAP rounding** (Theorem 3.11).  Interpret the filtered solution as
   a fractional Generalized Assignment: jobs = elements, machines =
   nodes, load = ``load(u)``, cost = ``d_t``, machine budget
   ``alpha * cap(v_t)``.  Shmoys-Tardos rounding yields an integral
   placement with cost (delay) at most the fractional cost and load at
   most ``alpha*cap + max-allowed-load <= (alpha+1) * cap``.

The result object reports both the realized quantities and the proven
bounds, so callers (and benchmarks) can check Theorem 3.7 mechanically:
``Delta_f(v0) <= alpha/(alpha-1) * Z*`` and
``load_f(v) <= (alpha+1) * cap(v)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._compat import solver_api
from .._validation import check_positive, check_scale, raises, require
from ..exceptions import InfeasibleError, ValidationError
from ..obs.trace import span
from ..gap.instance import GAPInstance
from ..gap.lp import FractionalAssignment
from ..gap.rounding import round_fractional_assignment
from ..lp import Model
from ..network.graph import Network, Node
from ..quorums.base import Element, QuorumSystem
from ..quorums.strategy import AccessStrategy
from .placement import Placement, expected_max_delay, node_loads

__all__ = ["SSQPPResult", "SSQPPLPFactory", "solve_ssqpp", "build_ssqpp_lp"]

_ZERO = 1e-12


@dataclass(frozen=True)
class SSQPPResult:
    """Output of :func:`solve_ssqpp`.

    Attributes
    ----------
    placement:
        The integral placement ``f``.
    delay:
        The realized objective ``Delta_f(v0)``.
    lp_value:
        ``Z*``, the LP optimum — a lower bound on the delay of every
        capacity-respecting placement.
    alpha:
        The trade-off parameter used.
    delay_bound:
        The proven guarantee ``alpha/(alpha-1) * Z*``; always
        ``delay <= delay_bound`` (up to numerical tolerance).
    load_factor_bound:
        ``alpha + 1``: the proven per-node capacity violation cap.
    max_load_factor:
        The realized worst ``load_f(v)/cap(v)``.
    source:
        The source node ``v0``.
    """

    placement: Placement
    delay: float
    lp_value: float
    alpha: float
    delay_bound: float
    load_factor_bound: float
    max_load_factor: float
    source: Node

    @property
    def within_guarantees(self) -> bool:
        """Whether both Theorem 3.7 bounds hold for the realized solution."""
        return (
            self.delay <= self.delay_bound + 1e-6
            and self.max_load_factor <= self.load_factor_bound + 1e-6
        )


def _supported_quorums(strategy: AccessStrategy) -> list[int]:
    return list(strategy.support())


class SSQPPLPFactory:
    """Shared LP scaffolding for the relaxation (9)-(14).

    The LP splits into a part that does not depend on the source ``v0``
    — the assignment variables ("element ``u`` sits on node ``v``"), the
    placement rows (10), and the capacity rows (12)/(13) — and a part
    that does: the quorum-completion variables over the distance
    ordering, the prefix-consistency rows (14), and the objective (9).
    The factory builds the v0-independent base exactly once; each call
    to :meth:`attach` adds only the delay-dependent structure for one
    candidate source on top of a :class:`repro.lp.ModelCheckpoint`, and
    :meth:`release` rolls the model back so the next candidate reuses
    the base.  This turns :func:`repro.core.qpp.solve_qpp`'s sweep from
    a quadratic rebuild into an incremental re-fill.

    One factory serves one ``(system, strategy, network, formulation)``
    combination; at most one source can be attached at a time.

    Two large-scale knobs widen the constructor without changing any
    default behaviour:

    * ``metric`` — any :class:`~repro.network.lazymetric.MetricView`
      (e.g. a :class:`~repro.network.lazymetric.LazyMetric`) to use for
      the distance ordering instead of forcing the dense cached build.
    * ``placement_nodes`` — restrict the placement domain (and the LP's
      variables, capacity rows and distance ranks) to a subset of the
      network.  The LP then solves the *restricted* problem: its optimum
      upper-bounds the unrestricted ``Z*``, so certified lower bounds
      derived from it are void — callers must not propagate them.
    """

    def __init__(
        self,
        system: QuorumSystem,
        strategy: AccessStrategy,
        network: Network,
        *,
        formulation: str = "prefix",
        metric: "object | None" = None,
        placement_nodes: "list[Node] | tuple[Node, ...] | None" = None,
    ) -> None:
        if formulation not in ("prefix", "cumulative"):
            raise ValidationError(
                f"unknown formulation {formulation!r}; use 'prefix' or 'cumulative'"
            )
        require(strategy.system == system, "strategy does not match the quorum system")
        self._system = system
        self._strategy = strategy
        self._network = network
        self._formulation = formulation
        self._explicit_metric = metric
        self._metric = metric if metric is not None else network.metric()
        if placement_nodes is None:
            self._domain: tuple[Node, ...] | None = None
            domain_nodes: tuple[Node, ...] = network.nodes
        else:
            self._domain = tuple(placement_nodes)
            if not self._domain:
                raise ValidationError("placement_nodes must not be empty")
            if len(set(self._domain)) != len(self._domain):
                raise ValidationError("placement_nodes contains duplicates")
            for node in self._domain:
                network.node_index(node)
            domain_nodes = self._domain
        self._support = _supported_quorums(strategy)
        universe = system.universe
        self._loads = {u: strategy.load(u) for u in universe}

        capacities = {node: network.capacity(node) for node in domain_nodes}
        for u in universe:
            if self._loads[u] > _ZERO and not any(
                self._loads[u] <= cap + _ZERO for cap in capacities.values()
            ):
                raise InfeasibleError(
                    f"element {u!r} has load {self._loads[u]:.4f} exceeding "
                    "every node capacity"
                )

        model = Model(name="ssqpp-lp")
        # Assignment variables keyed by *node* (not by distance rank), so
        # they are shared by every candidate source.  Pairs with
        # load(u) > cap(v) are fixed to zero by constraint (13), i.e.
        # simply omitted.
        self._x_by_node: dict[tuple[Node, Element], object] = {}
        element_vars: dict[Element, list] = {u: [] for u in universe}
        for node in domain_nodes:
            cap = capacities[node]
            for u in universe:
                if self._loads[u] <= cap + _ZERO:
                    variable = model.variable(f"x[{node!r},{u!r}]", lb=0.0, ub=1.0)
                    self._x_by_node[(node, u)] = variable
                    element_vars[u].append(variable)

        # (10): every element placed exactly once.
        for u in universe:
            terms = element_vars[u]
            if not terms:
                raise InfeasibleError(f"element {u!r} fits on no node")
            expr = terms[0].to_expr()
            for variable in terms[1:]:
                expr = expr + variable
            model.add_constraint(expr == 1, name=f"place[{u!r}]")

        # (12): fractional load within capacity (vacuous for uncapacitated
        # nodes, so those constraints are omitted).
        for node in domain_nodes:
            if not math.isfinite(capacities[node]):
                continue
            terms = [
                (self._x_by_node[(node, u)], self._loads[u])
                for u in universe
                if (node, u) in self._x_by_node and self._loads[u] > 0
            ]
            if not terms:
                continue
            expr = terms[0][0] * terms[0][1]
            for variable, coefficient in terms[1:]:
                expr = expr + variable * coefficient
            model.add_constraint(expr <= capacities[node], name=f"cap[{node!r}]")

        self._model = model
        self._base = model.checkpoint()
        self._attached = False

    # -- accessors -----------------------------------------------------------------

    @property
    def system(self) -> QuorumSystem:
        return self._system

    @property
    def strategy(self) -> AccessStrategy:
        return self._strategy

    @property
    def network(self) -> Network:
        return self._network

    @property
    def formulation(self) -> str:
        return self._formulation

    @property
    def model(self) -> Model:
        """The underlying (shared) model; solve only while attached."""
        return self._model

    @property
    def placement_nodes(self) -> tuple[Node, ...] | None:
        """The restricted placement domain, or ``None`` for the whole network."""
        return self._domain

    def matches(
        self,
        system: QuorumSystem,
        strategy: AccessStrategy,
        network: Network,
        formulation: str,
        metric: "object | None" = None,
        placement_nodes: "list[Node] | tuple[Node, ...] | None" = None,
    ) -> bool:
        """Whether this factory was built for exactly these inputs."""
        domain = tuple(placement_nodes) if placement_nodes is not None else None
        return (
            self._system == system
            and self._strategy is strategy
            and self._network is network
            and self._formulation == formulation
            and self._explicit_metric is metric
            and self._domain == domain
        )

    # -- per-candidate structure -----------------------------------------------------

    def attach(self, source: Node):
        """Add the delay-dependent structure for *source* on top of the base.

        Returns ``(model, x_element, x_quorum, ordered_nodes, distances)``
        in :func:`build_ssqpp_lp`'s format: ``x_element[(t, u)]`` maps the
        §3.3 rank ``t`` (``ordered_nodes[t]`` is the ``t``-th closest node
        to the source) back to the shared node-keyed variable.  Call
        :meth:`release` before attaching the next candidate.
        """
        require(
            not self._attached,
            "factory already has an attached source; call release() first",
        )
        self._network.node_index(source)
        system, strategy, model = self._system, self._strategy, self._model
        support = self._support
        if self._domain is None:
            ordered_nodes = self._metric.nodes_by_distance(source)
            distances = [
                self._metric.distance(source, node) for node in ordered_nodes
            ]
        else:
            # Rank only the restricted domain by distance from the source,
            # tie-broken by node index exactly like nodes_by_distance.
            row = self._metric.distances_from(source)
            all_nodes = self._network.nodes
            indices = np.fromiter(
                (self._network.node_index(node) for node in self._domain),
                dtype=np.intp,
                count=len(self._domain),
            )
            order = indices[np.lexsort((indices, row[indices]))]
            ordered_nodes = [all_nodes[int(i)] for i in order]
            distances = [float(row[int(i)]) for i in order]
        n = len(ordered_nodes)
        x_element: dict[tuple[int, Element], object] = {
            (t, u): self._x_by_node[(node, u)]
            for t, node in enumerate(ordered_nodes)
            for u in system.universe
            if (node, u) in self._x_by_node
        }
        self._attached = True

        x_quorum: dict[tuple[int, int], object] = {}
        for t in range(n):
            for q in support:
                x_quorum[(t, q)] = model.variable(f"xQ[{t},{q}]", lb=0.0, ub=1.0)

        # (11): every supported quorum completed at exactly one prefix length.
        for q in support:
            expr = x_quorum[(0, q)].to_expr()
            for t in range(1, n):
                expr = expr + x_quorum[(t, q)]
            model.add_constraint(expr == 1, name=f"complete[{q}]")

        # (14): prefix consistency — a quorum cannot finish before its members.
        if self._formulation == "prefix":
            for q in support:
                # Universe order, not set order: frozenset iteration
                # order varies with insertion history (and across pickle
                # round-trips), and the LP row order it would induce
                # perturbs solver pivoting at the last ulp — breaking
                # serial/parallel result identity.
                quorum = sorted(system.quorums[q], key=system.element_index)
                for u in quorum:
                    quorum_prefix = None
                    element_prefix = None
                    for t in range(n):
                        quorum_prefix = (
                            x_quorum[(t, q)].to_expr()
                            if quorum_prefix is None
                            else quorum_prefix + x_quorum[(t, q)]
                        )
                        if (t, u) in x_element:
                            element_prefix = (
                                x_element[(t, u)].to_expr()
                                if element_prefix is None
                                else element_prefix + x_element[(t, u)]
                            )
                        if element_prefix is None:
                            # No placement of u at distance <= d_t: quorum q
                            # cannot complete within the first t+1 nodes either.
                            model.add_constraint(
                                quorum_prefix <= 0, name=f"prefix[{q},{u!r},{t}]"
                            )
                        else:
                            model.add_constraint(
                                quorum_prefix - element_prefix <= 0,
                                name=f"prefix[{q},{u!r},{t}]",
                            )
        else:
            # Cumulative variables: cum_t = cum_{t-1} + x_t, one chain per
            # element and per supported quorum; (14) becomes 2-term rows.
            # The chains follow the distance ranks, so they are rebuilt per
            # candidate (only the node-keyed base is rank-free).
            element_cumulative: dict[Element, list] = {}
            for u in system.universe:
                chain = []
                previous = None
                for t in range(n):
                    cum = model.variable(f"cum[{t},{u!r}]", lb=0.0, ub=1.0)
                    terms = cum.to_expr()
                    if previous is not None:
                        terms = terms - previous
                    if (t, u) in x_element:
                        terms = terms - x_element[(t, u)]
                    model.add_constraint(terms == 0, name=f"chain[{t},{u!r}]")
                    chain.append(cum)
                    previous = cum
                element_cumulative[u] = chain
            for q in support:
                previous = None
                chain_q = []
                for t in range(n):
                    cum = model.variable(f"cumQ[{t},{q}]", lb=0.0, ub=1.0)
                    terms = cum.to_expr() - x_quorum[(t, q)]
                    if previous is not None:
                        terms = terms - previous
                    model.add_constraint(terms == 0, name=f"chainQ[{t},{q}]")
                    chain_q.append(cum)
                    previous = cum
                # Universe order for the same determinism reason as the
                # prefix formulation above.
                for u in sorted(system.quorums[q], key=system.element_index):
                    for t in range(n):
                        model.add_constraint(
                            chain_q[t] - element_cumulative[u][t] <= 0,
                            name=f"prefix[{q},{u!r},{t}]",
                        )

        # (9): expected max-delay objective.
        objective = None
        for q in support:
            probability = strategy.probability(q)
            for t in range(n):
                if distances[t] == 0:
                    continue
                term = x_quorum[(t, q)] * (probability * distances[t])
                objective = term if objective is None else objective + term
        if objective is None:
            # Degenerate but legal: every supported quorum can sit at distance 0.
            objective = next(iter(x_element.values())) * 0.0
        model.minimize(objective)
        return model, x_element, x_quorum, ordered_nodes, distances

    def release(self) -> None:
        """Drop the candidate-specific structure, restoring the shared base.

        Idempotent: releasing with nothing attached is a no-op.
        """
        if self._attached:
            self._model.rollback(self._base)
            self._attached = False


def build_ssqpp_lp(
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    source: Node,
    *,
    formulation: str = "prefix",
):
    """Build the LP relaxation (9)-(14) for one source.

    Returns ``(model, x_element, x_quorum, ordered_nodes, distances)``
    where ``x_element[(t, u)]`` and ``x_quorum[(t, q)]`` map to model
    variables, ``ordered_nodes`` is ``v_0, v_1, ...`` sorted by distance
    from the source (the renaming at the start of §3.3), and
    ``distances[t] = d(v0, v_t)``.

    Variables fixed to zero by constraint (13) — pairs with
    ``load(u) > cap(v_t)`` — are simply omitted.  Quorum variables are
    created only for quorums in the strategy's support: zero-probability
    quorums contribute nothing to the objective and need no containment
    bookkeeping.

    ``formulation`` selects how the prefix constraints (14) are encoded:

    * ``"prefix"`` — the paper's literal form: one inequality per
      ``(quorum, member, t)`` whose left/right sides are explicit prefix
      sums.  ``O(n)`` terms per constraint, ``O(n^2)`` nonzeros per
      (quorum, member) pair.
    * ``"cumulative"`` — auxiliary running-sum variables
      ``C_t = C_{t-1} + x_t`` per element and per quorum, making every
      (14) inequality a 2-term comparison.  Same optimum, far fewer
      nonzeros on large instances; equivalence is covered by tests.

    This is the one-shot convenience over :class:`SSQPPLPFactory`: the
    returned model stays attached to *source* and may be freely extended
    by the caller.  Candidate sweeps should hold a factory instead and
    attach/release per source.
    """
    require(isinstance(network, Network), "network must be a Network")
    factory = SSQPPLPFactory(system, strategy, network, formulation=formulation)
    return factory.attach(source)


def _filter_fractions(
    raw: np.ndarray, alpha: float
) -> np.ndarray:
    """The filtering step, generalized from the paper's alpha = 2.

    ``raw`` has shape (n_positions, n_items), columns summing to 1.
    Column by column, set ``x~_t = min(alpha * x_t, remaining mass to 1)``
    scanning positions in increasing-``t`` order, zeroing everything after
    the cumulative total reaches 1.
    """
    n, items = raw.shape
    filtered = np.zeros_like(raw)
    for j in range(items):
        cumulative = 0.0
        for t in range(n):
            if cumulative >= 1.0 - _ZERO:
                break
            scaled = alpha * raw[t, j]
            take = min(scaled, 1.0 - cumulative)
            if take > _ZERO:
                filtered[t, j] = take
                cumulative += take
        # Guard against columns that fail to reach 1 due to solver noise.
        total = filtered[:, j].sum()
        if total < 1.0 - 1e-6:
            raise ValidationError(
                "filtering failed to accumulate unit mass; LP solution is "
                f"malformed (column {j}, total {total:.8f})"
            )
        filtered[:, j] /= total
    return filtered


# paper: Thm 3.7, Thm 3.12, §3.3
@solver_api(legacy_positional=("network", "source"))
@raises("ValidationError", transient=("SolverError",))
def solve_ssqpp(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    source: Node,
    alpha: float = 2.0,
    lp_method: str = "highs",
    formulation: str = "prefix",
    factory: SSQPPLPFactory | None = None,
    metric: "object | None" = None,
    placement_nodes: "list[Node] | tuple[Node, ...] | None" = None,
    scale: str | None = None,
) -> SSQPPResult:
    """Solve the Single-Source Quorum Placement Problem approximately.

    Implements Theorem 3.7: the returned placement has

    * ``Delta_f(v0) <= alpha/(alpha-1) * Z* <= alpha/(alpha-1) * OPT``,
    * ``load_f(v) <= (alpha + 1) * cap(v)`` for every node.

    ``alpha = 2`` recovers Theorem 3.12 (delay within twice the LP bound,
    load within three times capacity).

    Pass a pre-built :class:`SSQPPLPFactory` (for the same system,
    strategy, network and formulation) to reuse the v0-independent LP
    base across calls — the candidate sweep in
    :func:`repro.core.qpp.solve_qpp` does this.  The factory is released
    (rolled back to its base) before returning.

    ``metric`` and ``placement_nodes`` thread straight to
    :class:`SSQPPLPFactory`: a lazy metric avoids the dense all-pairs
    build, and a restricted domain shrinks the LP for large networks.
    With ``placement_nodes`` set, ``lp_value`` bounds only the
    *restricted* problem — it is **not** a lower bound on the
    unrestricted optimum.

    ``scale="large"`` is shorthand for ``metric=network.lazy_metric()``
    (the shared ``scale=`` gate, ``docs/api.md``): distances stream
    through the lazy row cache instead of a dense all-pairs build.  An
    explicit ``metric=`` (or a pre-built ``factory=``, which owns its
    metric) takes precedence.

    Raises
    ------
    InfeasibleError
        When no capacity-respecting placement exists even fractionally.
    """
    check_positive(alpha - 1.0, "alpha - 1")
    check_scale(scale)
    network.node_index(source)
    if scale == "large" and metric is None and factory is None:
        metric = network.lazy_metric()

    if factory is None:
        factory = SSQPPLPFactory(
            system,
            strategy,
            network,
            formulation=formulation,
            metric=metric,
            placement_nodes=placement_nodes,
        )
    else:
        require(
            isinstance(factory, SSQPPLPFactory)
            and factory.matches(
                system, strategy, network, formulation, metric, placement_nodes
            ),
            "factory was built for different inputs",
        )
    with span(
        "ssqpp.solve", source=source, alpha=alpha, formulation=formulation
    ):
        try:
            model, x_element, x_quorum, ordered_nodes, distances = factory.attach(
                source
            )
            with span("ssqpp.lp"):
                solution = model.solve(method=lp_method)
            lp_value = float(solution.objective)

            universe = list(system.universe)
            n = len(ordered_nodes)
            raw = np.zeros((n, len(universe)))
            for j, u in enumerate(universe):
                for t in range(n):
                    variable = x_element.get((t, u))
                    if variable is not None:
                        raw[t, j] = max(solution.value(variable), 0.0)
        finally:
            factory.release()
        with span("ssqpp.filter"):
            filtered = _filter_fractions(raw, alpha)

        loads = strategy.load_array()
        capacities = np.array([network.capacity(node) for node in ordered_nodes])
        # GAP view: machines are nodes in distance order, jobs are elements.
        costs = np.full((n, len(universe)), math.inf)
        gap_loads = np.full((n, len(universe)), math.inf)
        for j in range(len(universe)):
            for t in range(n):
                if filtered[t, j] > _ZERO:
                    costs[t, j] = distances[t]
                    gap_loads[t, j] = loads[j]
        instance = GAPInstance(
            jobs=tuple(universe),
            machines=tuple(ordered_nodes),
            costs=costs,
            loads=gap_loads,
            capacities=alpha * capacities,
        )
        fractional_cost = float(
            sum(
                filtered[t, j] * distances[t]
                for j in range(len(universe))
                for t in range(n)
                if filtered[t, j] > _ZERO
            )
        )
        fractional = FractionalAssignment(
            instance=instance, fractions=filtered, cost=fractional_cost
        )
        with span("ssqpp.round"):
            rounded = round_fractional_assignment(fractional)

        placement = Placement(system, network, rounded.assignment)
        delay = expected_max_delay(placement, strategy, source, metric=metric)

        max_factor = 0.0
        for node, load in node_loads(placement, strategy).items():
            if load <= 0:
                continue
            capacity = network.capacity(node)
            max_factor = max(
                max_factor, load / capacity if capacity > 0 else float("inf")
            )

    return SSQPPResult(
        placement=placement,
        delay=delay,
        lp_value=lp_value,
        alpha=alpha,
        delay_bound=(alpha / (alpha - 1.0)) * lp_value,
        load_factor_bound=alpha + 1.0,
        max_load_factor=max_factor,
        source=source,
    )
