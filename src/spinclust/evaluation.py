"""Partition comparison, minimum spanning trees, and synthetic test datasets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .errors import DomainError


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement between two labelings of the same items.

    Computed from the contingency table with exact integer pair counts;
    1.0 for identical partitions, ~0 for independent ones. Returns 1.0 for
    the degenerate case where both partitions are trivial and identical,
    which labelings of at most one item always are.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError(f"labelings must be equal-length vectors, got {a.shape} vs {b.shape}")
    n = a.size
    if n <= 1:
        return 1.0
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = int(ai.max()) + 1, int(bi.max()) + 1
    table = np.bincount(ai * kb + bi, minlength=ka * kb)  # row-major contingency table
    sum_ij, sum_a, sum_b = (int((x * (x - 1) // 2).sum())
                            for x in (table, np.bincount(ai), np.bincount(bi)))
    total = n * (n - 1) // 2
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


@dataclass
class MstEdgeList:
    """N-1 edges (i[k], j[k]) of weight w[k], spanning all nodes with minimal total weight."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())

    def to_dict(self) -> dict:
        rows = zip(self.i.tolist(), self.j.tolist(), self.w.tolist())
        return {"kind": "mst", "edges": [{"i": i, "j": j, "w": w} for i, j, w in rows]}

    def to_dot(self, ids: list[str] | None = None) -> str:
        lines = ["graph mst {"]
        for i, j, w in zip(self.i.tolist(), self.j.tolist(), self.w.tolist()):
            a = ids[i] if ids else str(i)
            b = ids[j] if ids else str(j)
            lines.append(f'  "{a}" -- "{b}" [label="{w:.6g}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def minimum_spanning_tree(dist: np.ndarray) -> MstEdgeList:
    """Kruskal's tree with ties broken by (weight, i, j) lexicographic order.

    Prim's algorithm over the dense matrix, with the strict key (w, min(u, v),
    max(u, v)) on every pair, w = dist[min(u, v), max(u, v)] read from the
    upper triangle. Each node outside the tree keeps its best edge to the
    tree under that key, and the next node is the one, among the nodes
    outside, whose edge has the least key. The key orders all pairs
    strictly, so the tree is the unique one Kruskal's algorithm builds
    under it; zero-distance pairs stay edges. Edges are listed in (w, i, j)
    order, the order in which Kruskal's algorithm accepts them. Memory
    beyond ``dist`` is O(N).
    """
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    if d.ndim != 2 or d.shape[1] != n or n < 2:
        raise DomainError("distance matrix must be square with N >= 2")
    if np.isnan(d.min()):
        raise DomainError("distance matrix contains NaN")
    # nodes outside the tree, and the best edge (w, lo, hi) of each to the tree
    out = np.arange(1, n)
    w, lo, hi = d[0, 1:].copy(), np.zeros(n - 1, dtype=np.int64), out.copy()
    ei, ej = np.empty(n - 1, dtype=np.int64), np.empty(n - 1, dtype=np.int64)
    for m in range(n - 1, 0, -1):  # m nodes outside the tree
        pick = np.flatnonzero(w == w.min())
        if pick.size > 1:
            pick = pick[lo[pick] == lo[pick].min()]
            pick = pick[hi[pick] == hi[pick].min()]
        p = pick[0]
        u = out[p]
        ei[m - 1], ej[m - 1] = lo[p], hi[p]
        # the last node outside takes u's place
        for a in (out, w, lo, hi):
            a[p] = a[m - 1]
        out, w, lo, hi = out[:m - 1], w[:m - 1], lo[:m - 1], hi[:m - 1]
        cw = d[u, out]
        below = out < u
        cw[below] = d[out[below], u]
        clo, chi = np.minimum(out, u), np.maximum(out, u)
        better = (cw < w) | ((cw == w) & ((clo < lo) | ((clo == lo) & (chi < hi))))
        w[better], lo[better], hi[better] = cw[better], clo[better], chi[better]
    ew = d[ei, ej]
    order = np.lexsort((ej, ei, ew))
    return MstEdgeList(ei[order], ej[order], ew[order])


def generate_circles(n: int, noise: float = 0.5, seed: int = 0) -> tuple[DataMatrix, np.ndarray]:
    """Two concentric rings of n/2 points each at radii 1.0 and 0.4.

    Points sit at evenly spaced angles; radii are perturbed by Gaussian
    noise of scale 0.1 * noise. Returns the 2-D coordinates and the
    ground-truth ring labels (0 = outer, 1 = inner).
    """
    if n < 2 or n % 2 != 0:
        raise DomainError(f"n must be even and >= 2, got {n}")
    if not (math.isfinite(noise) and noise >= 0):
        raise DomainError(f"noise must be a finite number >= 0, got {noise!r}")
    rng = np.random.default_rng(seed)
    half = n // 2
    coords = np.zeros((n, 2))
    labels = np.zeros(n, dtype=int)
    for ring, radius in enumerate((1.0, 0.4)):
        theta = 2.0 * math.pi * np.arange(half) / half
        r = radius + rng.normal(scale=0.1 * noise, size=half)
        sl = slice(ring * half, (ring + 1) * half)
        coords[sl, 0] = r * np.cos(theta)
        coords[sl, 1] = r * np.sin(theta)
        labels[sl] = ring
    return DataMatrix(coords, None), labels


def generate_blobs(n: int, dims: int, sigmas, seed: int = 0) -> tuple[DataMatrix, np.ndarray]:
    """Isotropic Gaussian clusters with per-cluster spreads ``sigmas``.

    Cluster sizes are balanced (first n mod k clusters get one extra point).
    Centers are drawn uniformly in the box [-10*max(sigma), 10*max(sigma)]^dims
    and redrawn until every pair is at least 10*max(sigma) apart, which keeps
    the clusters separable at any dimensionality.
    """
    sigmas = [float(s) for s in sigmas]
    k = len(sigmas)
    if k < 1 or n < k:
        raise DomainError("need at least one sigma and n >= number of clusters")
    if dims < 2:
        raise DomainError("dims must be >= 2")
    for s in sigmas:
        if not (math.isfinite(s) and s >= 0):
            raise DomainError(f"sigmas must be finite numbers >= 0, got {s!r}")
    if not math.isfinite(20.0 * max(sigmas)):
        raise DomainError(f"sigmas must keep 20 * max(sigmas) finite, got {max(sigmas)!r}")
    rng = np.random.default_rng(seed)
    reach = 10.0 * max(sigmas)
    for _ in range(1000):
        centers = rng.uniform(-reach, reach, size=(k, dims))
        if all(np.linalg.norm(centers[i] - centers[j]) >= reach
               for i, j in zip(*np.triu_indices(k, 1))):
            break
    else:
        raise DomainError("failed to place well-separated centers")

    labels = np.repeat(np.arange(k), [n // k + (c < n % k) for c in range(k)])
    points = centers[labels] + np.asarray(sigmas)[labels, None] * rng.normal(size=(n, dims))
    return DataMatrix(points, None), labels
