"""Shortest-path metrics over networks.

The placement algorithms never touch edges directly: everything is
phrased in terms of the metric ``d(u, v)`` induced by shortest paths.
This module computes that metric with a self-contained binary-heap
Dijkstra (cross-checked against networkx in the test suite), wraps it in
the :class:`Metric` value type, and provides the metric-space utilities
the paper's proofs lean on (triangle-inequality audits, medians, nodes
sorted by distance from a source).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .._validation import contract
from ..exceptions import ValidationError
from ..obs.trace import span
from .graph import Network, Node

__all__ = ["dijkstra", "dijkstra_batched", "Metric"]


def dijkstra(adjacency: Mapping[Node, Mapping[Node, float]], source: Node) -> dict[Node, float]:
    """Single-source shortest-path distances by Dijkstra's algorithm.

    Parameters
    ----------
    adjacency:
        ``{u: {v: length}}`` with symmetric entries for undirected graphs.
    source:
        Start node; must be a key of *adjacency*.

    Returns
    -------
    dict
        Distance from *source* to every **reachable** node (unreachable
        nodes are absent, letting callers distinguish disconnection).

    Examples
    --------
    >>> dijkstra({0: {1: 2.0}, 1: {0: 2.0, 2: 1.0}, 2: {1: 1.0}}, 0)
    {0: 0.0, 1: 2.0, 2: 3.0}
    """
    if source not in adjacency:
        raise ValidationError(f"source {source!r} is not in the graph")
    distances: dict[Node, float] = {source: 0.0}
    settled: set[Node] = set()
    heap: list[tuple[float, int, Node]] = [(0.0, 0, source)]
    counter = 1  # tie-breaker so heterogeneous nodes never get compared
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for neighbor, length in adjacency[node].items():
            candidate = dist + length
            if candidate < distances.get(neighbor, math.inf):
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    return distances


@contract(returns={"shape": ("k", "n"), "dtype": "float", "nonnegative": True})
def dijkstra_batched(
    adjacency: Mapping[Node, Mapping[Node, float]],
    sources: Sequence[Node] | None = None,
) -> NDArray[np.float64]:
    """Multi-source shortest-path distances in one batched call.

    The batched entry point behind :meth:`Metric.from_network`: instead
    of running one Python binary-heap per source, the adjacency is
    compiled once into a sparse matrix and handed to scipy's C
    implementation of Dijkstra for every source at once.  The scalar
    :func:`dijkstra` is retained as the paper-faithful reference and the
    two are cross-checked in the test suite.

    Parameters
    ----------
    adjacency:
        ``{u: {v: length}}`` with symmetric entries for undirected
        graphs (the same format :func:`dijkstra` accepts).
    sources:
        Sources to run from, defaulting to every node.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(sources), len(adjacency))`` whose columns
        follow the adjacency's key order.  Unreachable pairs are
        ``math.inf`` — the batched counterpart of the scalar path's
        *absent* dictionary entries.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as _dijkstra_csgraph

    nodes = list(adjacency)
    if not nodes:
        raise ValidationError("adjacency must contain at least one node")
    index = {v: i for i, v in enumerate(nodes)}
    if sources is None:
        source_indices = list(range(len(nodes)))
    else:
        source_indices = []
        for source in sources:
            if source not in index:
                raise ValidationError(f"source {source!r} is not in the graph")
            source_indices.append(index[source])
        if not source_indices:
            raise ValidationError("at least one source is required")
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for u, neighbors in adjacency.items():
        for v, length in neighbors.items():
            if v not in index:
                raise ValidationError(
                    f"adjacency of {u!r} references unknown node {v!r}"
                )
            rows.append(index[u])
            cols.append(index[v])
            data.append(float(length))
    graph = csr_matrix((data, (rows, cols)), shape=(len(nodes), len(nodes)))
    # directed=True honours the entries exactly as given, matching the
    # scalar reference's semantics for (symmetric) adjacencies.
    with span("metric.dijkstra", nodes=len(nodes), sources=len(source_indices)):
        distances = _dijkstra_csgraph(graph, directed=True, indices=source_indices)
    return np.atleast_2d(np.asarray(distances, dtype=float))


class Metric:
    """A finite metric space over an ordered node set.

    Stores the full ``n x n`` distance matrix.  Construction from a
    network runs Dijkstra from every node (``O(n (m + n) log n)``).
    Dense storage pays off when every placement algorithm consumes
    all-pairs distances repeatedly *and* ``n`` stays in the hundreds; at
    the 10^3-10^5 nodes the large-scale paths target, the ``O(n^2)``
    matrix is the bottleneck and
    :class:`repro.network.lazymetric.LazyMetric` (same
    :class:`~repro.network.lazymetric.MetricView` surface, rows on
    demand behind an LRU) is the right choice — see
    ``docs/performance.md``.
    """

    __slots__ = ("_nodes", "_index", "_matrix")

    def __init__(self, nodes: Sequence[Node], matrix: NDArray[np.float64]) -> None:
        self._nodes = tuple(nodes)
        array = np.asarray(matrix, dtype=float)
        n = len(self._nodes)
        if array.shape != (n, n):
            raise ValidationError(
                f"distance matrix must be {n}x{n}, got {array.shape}"
            )
        if not np.all(np.isfinite(array)):
            raise ValidationError("distance matrix contains non-finite entries")
        if np.any(array < 0):
            raise ValidationError("distances must be non-negative")
        if np.any(np.abs(np.diag(array)) > 1e-12):
            raise ValidationError("self-distances must be zero")
        if not np.allclose(array, array.T, atol=1e-9):
            raise ValidationError("distance matrix must be symmetric")
        self._index = {v: i for i, v in enumerate(self._nodes)}
        self._matrix = array
        self._matrix.setflags(write=False)

    @classmethod
    def from_network(cls, network: Network) -> "Metric":
        """All-pairs shortest-path metric of *network* (must be connected).

        Uses the batched multi-source Dijkstra (one sparse-graph call for
        all sources); the dense matrix is materialized exactly once per
        network — :meth:`repro.network.graph.Network.metric` caches it and
        every evaluator shares the cached instance.
        """
        nodes = network.nodes
        adjacency = {u: {v: network.edge_length(u, v) for v in network.neighbors(u)} for u in nodes}
        matrix = dijkstra_batched(adjacency)
        unreachable = ~np.isfinite(matrix)
        if np.any(unreachable):
            source_row = int(np.argwhere(unreachable)[0][0])
            source = nodes[source_row]
            missing = [nodes[int(j)] for j in np.nonzero(unreachable[source_row])[0]]
            raise ValidationError(
                f"network {network.name!r} is disconnected: {source!r} cannot "
                f"reach {missing[:5]!r}"
            )
        return cls(nodes, matrix)

    # -- accessors ---------------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def size(self) -> int:
        return len(self._nodes)

    @property
    def matrix(self) -> NDArray[np.float64]:
        """The read-only distance matrix in node order."""
        return self._matrix

    def node_index(self, node: Node) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise ValidationError(f"{node!r} is not in the metric space") from None

    def distance(self, u: Node, v: Node) -> float:
        return float(self._matrix[self.node_index(u), self.node_index(v)])

    def distances_from(self, source: Node) -> NDArray[np.float64]:
        """Row of distances from *source*, in node order."""
        row: NDArray[np.float64] = self._matrix[self.node_index(source)]
        return row

    def row_block(self, start: int, stop: int) -> NDArray[np.float64]:
        """Rows ``start:stop`` of the distance matrix (a zero-copy view).

        Part of the :class:`~repro.network.lazymetric.MetricView`
        surface: evaluators that stream a lazy metric block-by-block get
        the identical values here without any copying.
        """
        if not (0 <= start <= stop <= self.size):
            raise ValidationError(
                f"row block [{start}, {stop}) out of range for size {self.size}"
            )
        block: NDArray[np.float64] = self._matrix[start:stop]
        return block

    def submatrix(
        self, sources: Sequence[Node], targets: Sequence[Node] | None = None
    ) -> NDArray[np.float64]:
        """Distances from *sources* to *targets* (default: all nodes)."""
        source_indices = np.asarray(
            [self.node_index(v) for v in sources], dtype=np.intp
        )
        rows: NDArray[np.float64] = self._matrix[source_indices]
        if targets is None:
            return rows
        target_indices = np.asarray(
            [self.node_index(v) for v in targets], dtype=np.intp
        )
        return rows[:, target_indices]

    # -- metric-space utilities -----------------------------------------------------

    def verify_triangle_inequality(self, tolerance: float = 1e-9) -> None:
        """Assert ``d(u, w) <= d(u, v) + d(v, w)`` for all triples.

        Shortest-path metrics satisfy this by construction; the check
        exists for metrics built from raw matrices and for tests.
        """
        d = self._matrix
        n = self.size
        for k in range(n):
            # Vectorized check of d <= d[:, k, None] + d[None, k, :].
            via = d[:, k][:, None] + d[k, :][None, :]
            if np.any(d > via + tolerance):
                bad = np.argwhere(d > via + tolerance)[0]
                raise ValidationError(
                    f"triangle inequality violated: d({self._nodes[bad[0]]!r}, "
                    f"{self._nodes[bad[1]]!r}) > via {self._nodes[k]!r}"
                )

    def eccentricity(self, node: Node) -> float:
        """Maximum distance from *node* to any other node."""
        return float(self.distances_from(node).max())

    def diameter(self) -> float:
        return float(self._matrix.max())

    def median(self) -> Node:
        """The 1-median: a node minimizing the sum of distances to all
        nodes (the placement target of Lin's single-node baseline)."""
        sums = self._matrix.sum(axis=1)
        return self._nodes[int(np.argmin(sums))]

    def nodes_by_distance(self, source: Node) -> list[Node]:
        """All nodes sorted by increasing distance from *source*.

        This is the ordering ``d_0 <= d_1 <= ... <= d_{n-1}`` that
        Section 3.3 renames nodes into; ties are broken by node index so
        the order is deterministic.
        """
        row = self.distances_from(source)
        order = np.lexsort((np.arange(self.size), row))
        return [self._nodes[int(i)] for i in order]

    def average_distance_to(self, target: Node) -> float:
        """``Avg_v d(v, target)`` over all nodes ``v`` (uniform clients)."""
        return float(self.distances_from(target).mean())

    def k_centers(self, k: int) -> list[Node]:
        """Greedy farthest-point k-center selection.

        Starts from the 1-median and repeatedly adds the node farthest
        from the current centers — the classical 2-approximation for the
        k-center objective.  Used to prune the Theorem 1.2 relay-candidate
        sweep: a small, well-spread candidate set almost always contains
        a near-optimal relay node (measured in the E12b ablation).
        """
        if k < 1:
            raise ValidationError("k_centers requires k >= 1")
        k = min(k, self.size)
        centers = [self.median()]
        center_indices = [self.node_index(centers[0])]
        while len(centers) < k:
            distance_to_centers = self._matrix[:, center_indices].min(axis=1)
            farthest = int(np.argmax(distance_to_centers))
            if distance_to_centers[farthest] <= 0:
                break  # all remaining nodes coincide with a center
            centers.append(self._nodes[farthest])
            center_indices.append(farthest)
        return centers

    def __repr__(self) -> str:
        return f"Metric(nodes={self.size}, diameter={self.diameter():.4g})"
