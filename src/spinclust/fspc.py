"""Cluster-configuration likelihood and the genetic search that maximizes it.

A labeling scores

    L_c = 1/2 * sum over clusters with n_s > 1 of
          [ ln(n_s / c_s) + (n_s - 1) ln((n_s^2 - n_s) / (n_s^2 - c_s)) ]

where n_s is the cluster size and c_s the intra-cluster sum of the
correlation matrix (diagonal included). Clusters with c_s <= n_s carry no
structure and contribute zero; c_s is clamped just under n_s^2 so the
objective stays finite on perfectly correlated blocks.

The maximizer is an elitist mutation-only genetic algorithm: every parent
spawns one mutated child per generation, parents and children compete, and
the run stops after a fixed number of generations without improvement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CorrelationMatrix
from .errors import DegenerateClusterError, DomainError

MUTATION_KINDS = ("new", "split", "merge", "swap", "scramble", "flip")

_UPPER_MARGIN = 1e-9


@dataclass
class ClusterStats:
    """Per-cluster size, intra-cluster correlation sum, and coupling."""

    sizes: np.ndarray      # n_s
    intra_sums: np.ndarray  # c_s
    couplings: np.ndarray  # g_s, nan where undefined


@dataclass
class GaResult:
    best_labels: np.ndarray
    fitness: float
    history: list[float]
    generations_run: int

    def to_dict(self) -> dict:
        sizes = np.bincount(self.best_labels)
        return {"kind": "fspc_result",
                "best_labels": self.best_labels.tolist(),
                "fitness": self.fitness,
                "n_clusters": int(self.best_labels.max()) + 1,
                "cluster_sizes": sorted(sizes.tolist(), reverse=True),
                "generations_run": self.generations_run,
                "history": list(self.history)}


def sequentialize(labels: np.ndarray) -> np.ndarray:
    """Remap labels to 0..k-1 in first-visit order."""
    labels = np.asarray(labels)
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    return rank[inv]


def _cluster_sums(labels: np.ndarray, corr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sizes n_s and intra-cluster sums c_s for every cluster.

    Work scales with sum of n_s^2 over non-singleton clusters; singletons
    only read their diagonal entry.
    """
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_labels)) + 1]
    ends = np.r_[starts[1:], labels.size]
    sizes = (ends - starts).astype(np.int64)
    sums = np.empty(sizes.size, dtype=float)
    singles = sizes == 1
    if singles.any():
        members = order[starts[singles]]
        sums[singles] = corr[members, members]
    for k in np.flatnonzero(~singles):
        idx = order[starts[k]:ends[k]]
        sums[k] = corr[np.ix_(idx, idx)].sum()
    return sizes, sums


def _labeling_sums(labeling, corr: CorrelationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """_cluster_sums of any labeling, its clusters numbered in first-visit order."""
    return _cluster_sums(sequentialize(labeling), np.asarray(corr.values, dtype=float))


def cluster_stats(labeling, corr: CorrelationMatrix) -> ClusterStats:
    """Exact n_s, c_s, g_s per cluster; g_s is nan when n_s <= 1 or c_s <= n_s."""
    sizes, sums = _labeling_sums(labeling, corr)
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.sqrt((sums - sizes) / (sizes.astype(float) ** 2 - sizes))
    g[(sizes <= 1) | (sums <= sizes)] = np.nan
    return ClusterStats(sizes, sums, g)


def _lc_from_sums(sizes: np.ndarray, sums: np.ndarray) -> float:
    n = sizes.astype(float)
    c = sums
    mask = (sizes > 1) & (c > n)
    if not mask.any():
        return 0.0
    n = n[mask]
    c = np.minimum(c[mask], n * n - _UPPER_MARGIN)
    terms = np.log(n / c) + (n - 1.0) * np.log((n * n - n) / (n * n - c))
    return 0.5 * float(terms.sum())


def _kmeans_from_sums(sizes: np.ndarray, sums: np.ndarray) -> float:
    if np.any(sums == 0.0):
        bad = int(np.flatnonzero(sums == 0.0)[0])
        raise DegenerateClusterError(f"cluster {bad} has zero intra-cluster sum")
    n = sizes.astype(float)
    return float((n - n / sums).sum())


# objective name -> score of a labeling from its cluster sizes and sums
_SCORERS = {"lc": _lc_from_sums, "kmeans": _kmeans_from_sums}


def likelihood(labeling, corr: CorrelationMatrix) -> float:
    """Log-likelihood of a labeling; 0 for all-singleton or structureless input."""
    return _lc_from_sums(*_labeling_sums(labeling, corr))


def kmeans_hamiltonian(labeling, corr: CorrelationMatrix) -> float:
    """K-means-style objective sum of (n_s - n_s / c_s)."""
    return _kmeans_from_sums(*_labeling_sums(labeling, corr))


def _distinct_pair(rng: np.random.Generator, k: int) -> tuple[int, int]:
    """Uniform ordered pair of distinct indices in [0, k)."""
    a = int(rng.integers(0, k))
    b = int(rng.integers(0, k - 1))
    if b >= a:
        b += 1
    return a, b


def mutate(labeling, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Apply one mutation operator and resequentialize.

    split on an all-singleton labeling and merge on a single-cluster
    labeling are no-ops returning the input partition.
    """
    labels = sequentialize(labeling)
    n = labels.size
    k = int(labels.max()) + 1

    if kind == "new":
        return sequentialize(rng.integers(0, n, size=n))

    if kind == "split":
        sizes = np.bincount(labels)
        eligible = np.flatnonzero(sizes >= 2)
        if eligible.size == 0:
            return labels
        target = int(rng.choice(eligible))
        members = np.flatnonzero(labels == target)
        side = rng.integers(0, 2, size=members.size).astype(bool)
        while side.all() or not side.any():
            side = rng.integers(0, 2, size=members.size).astype(bool)
        out = labels.copy()
        out[members[side]] = k
        return sequentialize(out)

    if kind == "merge":
        if k < 2:
            return labels
        a, b = _distinct_pair(rng, k)
        out = labels.copy()
        out[out == b] = a
        return sequentialize(out)

    if kind == "swap":
        i, j = _distinct_pair(rng, n)
        out = labels.copy()
        out[i], out[j] = out[j], out[i]
        return sequentialize(out)

    if kind == "scramble":
        max_len = max(2, n // 4)
        length = int(rng.integers(2, max_len + 1))
        start = int(rng.integers(0, n - length + 1))
        out = labels.copy()
        out[start:start + length] = out[start:start + length][::-1]
        return sequentialize(out)

    if kind == "flip":
        mapping = rng.integers(0, k, size=k)
        return sequentialize(mapping[labels])

    raise DomainError(f"unknown mutation kind {kind!r}")


def ga_run(corr: CorrelationMatrix, pop_size: int = 100,
           max_generations: int = 25000, stall_generations: int = 100,
           seed: int = 0, objective: str = "lc") -> GaResult:
    """Elitist mutation-only search for the best-scoring labeling.

    Each generation mutates every parent once (operator drawn uniformly),
    evaluates the children, and keeps the ``pop_size`` fittest of parents
    plus children (ties resolved toward the earlier individual). Stops at
    ``max_generations`` or after ``stall_generations`` without improvement
    of the best fitness.
    """
    if pop_size < 2:
        raise DomainError("pop_size must be >= 2")
    if max_generations < 1:
        raise DomainError("max_generations must be >= 1")
    if objective not in _SCORERS:
        raise DomainError(f"unknown objective {objective!r}")

    score = _SCORERS[objective]
    cvals = np.asarray(corr.values, dtype=float)
    n = cvals.shape[0]

    rng = np.random.default_rng(seed)
    pop = [sequentialize(rng.integers(0, n, size=n)) for _ in range(pop_size)]
    fits = np.array([score(*_cluster_sums(ind, cvals)) for ind in pop])

    best_idx = int(np.argmax(fits))
    best_labels = pop[best_idx].copy()
    best_fit = float(fits[best_idx])
    history: list[float] = []
    stall = 0
    generations = 0

    for _ in range(max_generations):
        generations += 1
        kinds = rng.integers(0, len(MUTATION_KINDS), size=pop_size)
        children = [mutate(pop[i], MUTATION_KINDS[kinds[i]], rng)
                    for i in range(pop_size)]
        child_fits = np.array([score(*_cluster_sums(ch, cvals)) for ch in children])

        all_fits = np.concatenate([fits, child_fits])
        order = np.argsort(-all_fits, kind="stable")[:pop_size]
        pool = pop + children
        pop = [pool[i] for i in order]
        fits = all_fits[order]

        if fits[0] > best_fit:
            best_fit = float(fits[0])
            best_labels = pop[0].copy()
            stall = 0
        else:
            stall += 1
        history.append(best_fit)
        if stall >= stall_generations:
            break

    return GaResult(best_labels, best_fit, history, generations)
