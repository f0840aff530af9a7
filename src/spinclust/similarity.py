"""Distances, neighbor graphs, and the pairwise interaction-strength matrix.

The clustering engine operates on a sparse graph: each observation keeps
only its mutual K-nearest neighbors, and a minimum spanning tree is merged
in so the graph is connected at any K. Edge strengths decay with distance,

    J_ij = (1 / K_hat) * exp(-d_ij^2 / (2 a^2)),

where K_hat is the average neighbor count and a is the mean edge distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _TILE, CorrelationMatrix, DataMatrix, _correlation
from .errors import DegenerateInputError, DomainError
from .evaluation import minimum_spanning_tree


@dataclass
class NeighborGraph:
    """Symmetric neighbor lists plus the derived graph constants."""

    n: int
    edge_i: np.ndarray          # int array, edge_i[k] < edge_j[k]
    edge_j: np.ndarray
    edge_dist: np.ndarray
    k_hat: float                # 2 * edge count / n
    length_scale_a: float       # mean edge distance

    @property
    def n_edges(self) -> int:
        return self.edge_i.size


@dataclass
class StrengthGraph:
    """Interaction strengths J > 0 on the edges of a NeighborGraph."""

    graph: NeighborGraph
    j: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def h_max(self) -> float:
        """Mean-field energy ceiling: every bond unsatisfied."""
        return float(self.j.sum()) / self.graph.n


def euclidean_distances(data: DataMatrix) -> np.ndarray:
    """Pairwise Euclidean distances between rows; requires fully observed data.

    d_ij = sqrt(max(|x_i|^2 + |x_j|^2 - 2 x_i . x_j, 0)), 0 on the diagonal,
    computed in place so that two N x N arrays are held at once.
    """
    if not data.fully_observed:
        raise DomainError("euclidean_distances requires fully observed data; "
                          "build a correlation matrix instead")
    x = data.values
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :]
    gram = x @ x.T
    gram *= 2.0
    d -= gram
    np.fill_diagonal(d, 0.0)
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


def correlation_to_distance(corr: CorrelationMatrix) -> np.ndarray:
    """Distances by the envelope's kind: d = sqrt(2 (1 - rho)) for correlations.

    A ``similarity_from_distance`` envelope gets d = 1 - s, clamped at 0: its
    construction inverted up to the global scale, which strengths ignore.
    """
    if corr.kind == "similarity_from_distance":
        d = np.maximum(1.0 - corr.values, 0.0)
    else:
        d = np.sqrt(np.maximum(2.0 * (1.0 - corr.values), 0.0))
    np.fill_diagonal(d, 0.0)
    return d


def similarity_from_distance(dist: np.ndarray, row_ids=None) -> CorrelationMatrix:
    """Rescale distances by the global maximum and flip: s = 1 - d / max(d).

    s is then symmetrized, 0.5 (s + s.T), in place; one N x N array is held
    besides ``dist``.
    """
    d = np.asarray(dist, dtype=float)
    dmax = d.max()
    if dmax <= 0.0:
        raise DegenerateInputError("all distances are zero; similarity undefined")
    s = np.divide(d, dmax)
    np.subtract(1.0, s, out=s)
    return _correlation(s, "similarity_from_distance", row_ids or ())


def mutual_knn_graph(dist: np.ndarray, k: int) -> NeighborGraph:
    """Mutual K-nearest-neighbor graph, connected via MST augmentation.

    An edge (i, j) exists iff each endpoint is among the other's k nearest
    neighbors; the distance-matrix MST is then merged in so the graph has a
    single component regardless of k. Neighbors rank by (distance, index),
    with the diagonal set to +inf, so for finite distances a node is never
    its own neighbor: a partition finds each row's k-th smallest distance,
    and the candidates up to it, in ascending index order, are sorted by
    (row, distance, index), each row keeping its first k. Edges are listed
    with edge_i < edge_j, sorted by (edge_i, edge_j).
    """
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    if not 1 <= k < n:
        raise DomainError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")

    tree = minimum_spanning_tree(d)  # first, so NaN distances fail as a DomainError
    nearest = _k_nearest(d, k)
    rows = np.arange(n)[:, None]
    # k-NN pair (i, j) coded i * n + j; it is mutual iff its reverse j * n + i is one too
    near = rows * n + nearest
    mutual = near[(nearest > rows) & np.isin(near, nearest * n + rows)]
    ei, ej = np.divmod(np.union1d(mutual, tree.i * n + tree.j), n)
    ed = d[ei, ej]
    if ed.max() <= 0.0:
        raise DegenerateInputError("all graph edges have zero length")
    k_hat = 2.0 * ei.size / n
    a = float(ed.mean())
    return NeighborGraph(n, ei, ej, ed, k_hat, a)


def _k_nearest(d: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other nodes, ranked by (distance, index): an N x k array.

    The same as ``np.argsort(ranked, axis=1, kind="stable")[:, :k]`` with
    +inf on the diagonal of ``ranked``, without sorting whole rows. Each
    block of _TILE rows is copied with +inf on its diagonal cells; a
    partition gives each row's k-th smallest distance, and only the
    candidates up to it, which ``np.nonzero`` lists in ascending index
    order, are sorted. No N x N array is held besides ``d``.
    """
    n = d.shape[0]
    nearest = np.empty((n, k), dtype=np.intp)
    for lo in range(0, n, _TILE):
        block = d[lo:lo + _TILE].copy()
        rows = np.arange(block.shape[0])
        block[rows, lo + rows] = np.inf
        kth = np.partition(block, k - 1, axis=1)[:, k - 1]
        r, c = np.nonzero(block <= kth[:, None])
        order = np.lexsort((c, block[r, c], r))
        counts = np.bincount(r, minlength=rows.size)
        first_k = np.arange(r.size) - (np.cumsum(counts) - counts)[r[order]] < k
        nearest[lo:lo + _TILE] = c[order[first_k]].reshape(-1, k)
    return nearest


def strength_matrix(graph: NeighborGraph) -> StrengthGraph:
    """Gaussian-decay interaction strengths on the graph edges."""
    a = graph.length_scale_a
    if not a > 0.0:
        raise DomainError("length scale must be positive")
    j = np.exp(-0.5 * (graph.edge_dist / a) ** 2) / graph.k_hat
    return StrengthGraph(graph, j)


def nearest_neighbor_order(dist: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbor chain through all nodes, starting at node 0.

    Returns a permutation that places similar observations at adjacent
    indices; segment-based mutation operators work noticeably better on
    data reordered this way.
    """
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    current = 0
    for pos in range(n):
        order[pos] = current
        visited[current] = True
        if pos == n - 1:
            break
        row = d[current].copy()
        row[visited] = np.inf
        current = int(np.argmin(row))
    return order
