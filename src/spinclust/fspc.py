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

# _cluster_sums sums clusters of up to max(_GATHER_FLOOR, N // _GATHER_DIVISOR)
# members pair by pair, to the bit as a per-cluster loop would, and larger
# ones by a matrix product. The floor keeps the clusters of small instances on
# the exact pair path. A pair gather or one-hot stack holds about _CHUNK
# values, at least one cluster's or labeling's.
_GATHER_DIVISOR = 8
_GATHER_FLOOR = 8
_CHUNK = 1 << 16


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
    survivors: np.ndarray       # children kept by selection, per MUTATION_KINDS entry
    new_bests: np.ndarray       # children that raised the best fitness, per kind
    last_improvement: int       # generation that last raised it; 0 if none did

    def to_dict(self) -> dict:
        sizes = np.bincount(self.best_labels)
        return {"kind": "fspc_result",
                "best_labels": self.best_labels.tolist(),
                "fitness": self.fitness,
                "n_clusters": int(self.best_labels.max()) + 1,
                "cluster_sizes": sorted(sizes.tolist(), reverse=True),
                "generations_run": self.generations_run,
                "history": list(self.history),
                "operators": {kind: {"survivors": int(s), "new_bests": int(b)}
                              for kind, s, b in zip(MUTATION_KINDS, self.survivors,
                                                    self.new_bests)},
                "last_improvement": self.last_improvement}


def sequentialize(labels: np.ndarray) -> np.ndarray:
    """Remap labels to 0..k-1 in first-visit order, along the last axis.

    A (P, N) array is relabeled row by row, as P separate calls would.
    """
    labels = np.asarray(labels)
    n = labels.shape[-1]
    rows = labels.reshape(math.prod(labels.shape[:-1]), n)
    # flat positions, sorted by label within each row; a stable sort puts
    # each label's first visit at the head of its run
    order = (np.argsort(rows, axis=1, kind="stable")
             + n * np.arange(rows.shape[0])[:, None]).ravel()
    ranked = rows.ravel()[order]
    head = np.empty(order.size, dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    head[::n] = True
    first = order[head]  # each label's first visit, runs in sorted order
    visit = np.zeros(order.size, dtype=bool)
    visit[first] = True
    # a first visit's new label counts the first visits before it in its row
    new_label = np.cumsum(visit.reshape(rows.shape), axis=1).ravel() - 1
    out = np.empty(order.size, dtype=np.int64)
    out[order] = new_label[first][np.cumsum(head) - 1]
    return out.reshape(labels.shape)


def _gather_limit(n: int) -> int:
    """Largest cluster that _cluster_sums sums pair by pair, for N nodes."""
    return max(_GATHER_FLOOR, n // _GATHER_DIVISOR)


def _cluster_sums(labels: np.ndarray, corr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sizes n_s and intra-cluster sums c_s of one (N,) or many (P, N) labelings.

    Labels are sequential along the last axis. (P, N) labels give (P, K)
    tables, K the largest cluster count, with size and sum 0 past a row's
    clusters. Clusters of up to ``_gather_limit(N)`` members gather their
    pairs, all clusters of one size at a time, and sum each block as
    ``corr[np.ix_(idx, idx)].sum()`` does. The L larger clusters of a
    labeling take one product C @ H with their N x L one-hot matrix H,
    labelings with equal L in one stacked ``matmul``. Either way a
    labeling's sums are the same bits alone or in a batch.
    """
    rows = np.atleast_2d(labels)
    p, n = rows.shape
    k = int(rows.max()) + 1
    sizes = np.bincount((rows + k * np.arange(p)[:, None]).ravel(), minlength=p * k)
    sums = np.zeros(p * k)
    # nodes grouped by row and label, each cluster's in node order
    members = np.argsort(rows, axis=1, kind="stable").ravel()
    starts = np.cumsum(sizes) - sizes
    flat_corr = corr.ravel()

    limit = _gather_limit(n)
    small = np.flatnonzero((sizes > 0) & (sizes <= limit))
    small_sizes = sizes[small]
    for size in np.flatnonzero(np.bincount(small_sizes)):
        same = small[small_sizes == size]
        step = max(1, _CHUNK // (size * size))
        for lo in range(0, same.size, step):
            ids = same[lo:lo + step]
            idx = members[starts[ids][:, None] + np.arange(size)]
            block = np.take(flat_corr, idx[:, :, None] * n + idx[:, None, :])
            sums[ids] = block.reshape(ids.size, size * size).sum(axis=1)

    sizes, sums = sizes.reshape(p, k), sums.reshape(p, k)
    large = sizes > limit
    widths = large.sum(axis=1)
    for width in np.unique(widths[widths > 0]):
        same = np.flatnonzero(widths == width)
        step = max(1, _CHUNK // (n * width))
        for lo in range(0, same.size, step):
            sel = same[lo:lo + step]
            cols = np.nonzero(large[sel])[1].reshape(sel.size, width)
            onehot = (rows[sel][:, :, None] == cols[:, None, :]).astype(float)
            sums[sel[:, None], cols] = (onehot * np.matmul(corr, onehot)).sum(axis=1)

    shape = np.shape(labels)[:-1] + (k,)
    return sizes.reshape(shape), sums.reshape(shape)


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


def _row_totals(mask: np.ndarray, values: np.ndarray):
    """Per-row sums of ``values``, given for the entries of ``mask`` in row-major order.

    A 1-D mask gives a float. ``bincount`` adds each row's values in cluster
    order, so a row's total does not depend on the rows around it.
    """
    mask2 = np.atleast_2d(mask)
    totals = np.bincount(np.nonzero(mask2)[0], weights=values, minlength=mask2.shape[0])
    return float(totals[0]) if mask.ndim == 1 else totals


def _lc_from_sums(sizes: np.ndarray, sums: np.ndarray):
    """L_c of each labeling in a (K,) or (P, K) table, along the last axis."""
    mask = (sizes > 1) & (sums > sizes)
    n = sizes[mask].astype(float)
    c = np.minimum(sums[mask], n * n - _UPPER_MARGIN)
    terms = np.log(n / c) + (n - 1.0) * np.log((n * n - n) / (n * n - c))
    return 0.5 * _row_totals(mask, terms)


def _kmeans_from_sums(sizes: np.ndarray, sums: np.ndarray):
    """Sum of (n_s - n_s / c_s) of each labeling in a table, along the last axis."""
    mask = sizes > 0
    zero = np.argwhere(np.atleast_2d(mask & (sums == 0.0)))
    if zero.size:
        raise DegenerateClusterError(f"cluster {zero[0, 1]} has zero intra-cluster sum")
    n = sizes[mask].astype(float)
    return _row_totals(mask, n - n / sums[mask])


# objective name -> scores of labelings from their cluster size and sum tables
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


def _mutate(labels: np.ndarray, k: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    """One mutation operator on a sequential labeling of k clusters, in its numbering.

    The child is not resequentialized. split on an all-singleton labeling
    and merge on a single-cluster labeling return the input.
    """
    n = labels.size

    if kind == "new":
        return rng.integers(0, n, size=n)

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
        return out

    if kind == "merge":
        if k < 2:
            return labels
        a, b = _distinct_pair(rng, k)
        out = labels.copy()
        out[out == b] = a
        return out

    if kind == "swap":
        i, j = _distinct_pair(rng, n)
        out = labels.copy()
        out[i], out[j] = out[j], out[i]
        return out

    if kind == "scramble":
        max_len = max(2, n // 4)
        length = int(rng.integers(2, max_len + 1))
        start = int(rng.integers(0, n - length + 1))
        out = labels.copy()
        out[start:start + length] = out[start:start + length][::-1]
        return out

    if kind == "flip":
        mapping = rng.integers(0, k, size=k)
        return mapping[labels]

    raise DomainError(f"unknown mutation kind {kind!r}")


def mutate(labeling, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Apply one mutation operator and resequentialize.

    split on an all-singleton labeling and merge on a single-cluster
    labeling are no-ops returning the input partition.
    """
    labels = sequentialize(labeling)
    return sequentialize(_mutate(labels, int(labels.max()) + 1, kind, rng))


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
    pop = sequentialize(np.stack([rng.integers(0, n, size=n) for _ in range(pop_size)]))
    fits = score(*_cluster_sums(pop, cvals))

    best_idx = int(np.argmax(fits))
    best_labels = pop[best_idx].copy()
    best_fit = float(fits[best_idx])
    history: list[float] = []
    survivors = np.zeros(len(MUTATION_KINDS), dtype=np.int64)
    new_bests = np.zeros(len(MUTATION_KINDS), dtype=np.int64)
    last_improvement = 0
    stall = 0
    generations = 0

    for _ in range(max_generations):
        generations += 1
        kinds = rng.integers(0, len(MUTATION_KINDS), size=pop_size)
        children = sequentialize(np.stack([
            _mutate(parent, k, MUTATION_KINDS[kind], rng)
            for parent, k, kind in zip(pop, (pop.max(axis=1) + 1).tolist(), kinds.tolist())]))
        child_fits = score(*_cluster_sums(children, cvals))

        all_fits = np.concatenate([fits, child_fits])
        order = np.argsort(-all_fits, kind="stable")[:pop_size]
        pop = np.concatenate([pop, children])[order]
        fits = all_fits[order]
        kept = kinds[order[order >= pop_size] - pop_size]
        survivors += np.bincount(kept, minlength=len(MUTATION_KINDS))

        if fits[0] > best_fit:
            # only a child can beat the best, which every generation keeps
            best_fit = float(fits[0])
            best_labels = pop[0].copy()
            new_bests[kinds[order[0] - pop_size]] += 1
            last_improvement = generations
            stall = 0
        else:
            stall += 1
        history.append(best_fit)
        if stall >= stall_generations:
            break

    return GaResult(best_labels, best_fit, history, generations,
                    survivors, new_bests, last_improvement)
