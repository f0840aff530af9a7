"""Distances, neighbor graphs, and the pairwise interaction-strength matrix.

The clustering engine operates on a sparse graph: each observation keeps
only its mutual K-nearest neighbors, and a minimum spanning tree is merged
in so the graph is connected at any K. Edge strengths decay with distance,

    J_ij = (1 / K_hat) * exp(-d_ij^2 / (2 a^2)),

where K_hat is the average neighbor count and a is the mean edge distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CorrelationMatrix, DataMatrix
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
    """Pairwise Euclidean distances between rows; requires fully observed data."""
    if not data.fully_observed:
        raise DomainError("euclidean_distances requires fully observed data; "
                          "build a correlation matrix instead")
    x = data.values
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


def correlation_to_distance(corr: CorrelationMatrix) -> np.ndarray:
    """Embed correlations as distances via d = sqrt(2 (1 - rho))."""
    d = np.sqrt(np.maximum(2.0 * (1.0 - corr.values), 0.0))
    np.fill_diagonal(d, 0.0)
    return d


def similarity_from_distance(dist: np.ndarray, row_ids=None) -> CorrelationMatrix:
    """Rescale distances by the global maximum and flip: s = 1 - d / max(d)."""
    d = np.asarray(dist, dtype=float)
    dmax = d.max()
    if dmax <= 0.0:
        raise DegenerateInputError("all distances are zero; similarity undefined")
    s = 1.0 - d / dmax
    np.fill_diagonal(s, 1.0)
    s = 0.5 * (s + s.T)
    return CorrelationMatrix(s, "similarity_from_distance",
                             row_ids=list(row_ids) if row_ids else [])


def mutual_knn_graph(dist: np.ndarray, k: int) -> NeighborGraph:
    """Mutual K-nearest-neighbor graph, connected via MST augmentation.

    An edge (i, j) exists iff each endpoint is among the other's k nearest
    neighbors; the distance-matrix MST is then merged in so the graph has a
    single component regardless of k. Neighbor ties are broken by ascending
    index: one stable row-wise argsort ranks each row by (distance, index),
    with the diagonal set to +inf, so for finite distances a node is never
    its own neighbor. Edges are listed with edge_i < edge_j, sorted by
    (edge_i, edge_j).
    """
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    if not 1 <= k < n:
        raise DomainError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")

    ranked = d.copy()
    np.fill_diagonal(ranked, np.inf)
    nearest = np.argsort(ranked, axis=1, kind="stable")[:, :k]
    near = np.zeros((n, n), dtype=bool)
    near[np.arange(n)[:, None], nearest] = True
    upper = np.triu(near & near.T, k=1)
    tree = np.array([(i, j) for i, j, _ in minimum_spanning_tree(d).edges])
    upper[tree[:, 0], tree[:, 1]] = True

    ei, ej = np.nonzero(upper)
    ed = d[ei, ej]
    if ed.max() <= 0.0:
        raise DegenerateInputError("all graph edges have zero length")
    k_hat = 2.0 * ei.size / n
    a = float(ed.mean())
    return NeighborGraph(n, ei, ej, ed, k_hat, a)


def strength_matrix(graph: NeighborGraph, dist: np.ndarray | None = None) -> StrengthGraph:
    """Gaussian-decay interaction strengths on the graph edges."""
    a = graph.length_scale_a
    if not a > 0.0:
        raise DomainError("length scale must be positive")
    d = graph.edge_dist if dist is None else np.asarray(dist)[graph.edge_i, graph.edge_j]
    j = np.exp(-0.5 * (d / a) ** 2) / graph.k_hat
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
