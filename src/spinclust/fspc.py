"""Cluster-configuration likelihood and the genetic search that maximizes it.

A labeling scores

    L_c = 1/2 * sum over clusters with n_s > 1 of
          [ ln(n_s / c_s) + (n_s - 1) ln((n_s^2 - n_s) / (n_s^2 - c_s)) ]

where n_s is the cluster size and c_s the intra-cluster sum of the
correlation matrix (diagonal included), on C rounded to the grid of
``_on_grid``. Clusters with c_s <= n_s carry no structure and contribute
zero; c_s is clamped just under n_s^2 so the objective stays finite on
perfectly correlated blocks.

The maximizer is an elitist mutation-only genetic algorithm: every parent
spawns one mutated child per generation, parents and children compete, and
the run stops after a fixed number of generations without improvement.

Draw order. Every draw is a ``Generator.integers`` draw, Lemire's rule on the
Generator's stream of 32-bit words, in the order FORMATS.md gives ("Search
result"). The first population and each generation's operators are drawn
directly. The children draw as the one-child ``mutate`` does, one after
another: ``_mutate_rows`` reads their words ahead as full-range draws, works
out which ones each child takes, and gives the rest back before it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dataset import CorrelationMatrix
from .errors import DegenerateClusterError, DomainError

MUTATION_KINDS = ("new", "split", "merge", "swap", "scramble", "flip")
_NEW, _SPLIT, _MERGE, _SWAP, _SCRAMBLE, _FLIP = range(len(MUTATION_KINDS))

_UPPER_MARGIN = 1e-9
_WORD = 0xFFFFFFFF  # the low 32 bits, and the largest word
_READ = 512  # the fewest words _mutate_rows reads ahead at a time
# which of _mutate_rows' draw counts and ranges add the row's cluster count k
_PLUS_K = np.zeros((len(MUTATION_KINDS), 3), dtype=np.int64)
_PLUS_K[_MERGE, 1:] = _PLUS_K[_FLIP] = 1

# _cluster_sums gathers the pairs of the clusters of up to _gather_limit(N)
# members and takes one product for the larger ones; on the grid of _on_grid
# both are exact in any order. A pair gather or a block of the product holds
# about _CHUNK values, at least one cluster's or column's.
_CHUNK = 1 << 16


def _gather_limit(n: int) -> int:
    """The largest cluster whose pairs _cluster_sums gathers, at N = n.

    Each size gathered costs a fixed few numpy calls, and a cluster in the
    product costs about N^2 multiply-adds, so the best limit grows with N
    and is 0 (every cluster in the product) below N = 56. Timed on
    recorded GA batches, this rule was at or near the fastest limit at
    N = 20, 40, 80, 300 and 500 (at N = 2000 the GA's clusters were all
    small and the limit made no difference).
    """
    return max(n // 8 - 6, 0)


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
    if rows.size == 0:
        return np.zeros(labels.shape, dtype=np.int64)
    if rows.dtype.kind != "i" or rows.min() < 0 or rows.max() >= n:
        # each label as its rank among the row's labels: in [0, N), same first visits
        rows = np.array([np.unique(r, return_inverse=True, equal_nan=False)[1] for r in rows])
    # each label's first visit, by one scatter-min of the positions; the
    # first visits then number the labels in the order they occur
    p, k = rows.shape[0], int(rows.max()) + 1
    base = np.arange(p)[:, None]
    flat = (rows + k * base).ravel()
    pos = np.arange(n)
    first = np.full(p * k, n)
    np.minimum.at(first, flat, np.tile(pos, p))
    visit = first[flat].reshape(p, n)  # the first visit of each node's label
    label = np.cumsum(visit == pos, axis=1).ravel() - 1
    return label[visit + n * base].reshape(labels.shape)


def _on_grid(values) -> np.ndarray:
    """A copy of C on multiples of q = 2**(ceil(log2 S) + 2 - 53), S = sum |C_ij|.

    Any sum of its entries is a multiple of q below 2**53 q in magnitude, so
    it is exact in any order. Round from the caller's matrix, once: a rounded
    copy can sum to the next power of two, and a second rounding doubles q.
    """
    c = np.asarray(values, dtype=float)
    out = np.abs(c, out=np.empty(c.shape))
    mantissa, exponent = math.frexp(float(out.sum()))
    q = math.ldexp(1.0, exponent - (mantissa == 0.5) + 2 - 53)
    np.rint(np.divide(c, q, out=out), out=out)
    out *= q
    return out


def _cluster_sums(labels: np.ndarray, corr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sizes n_s and intra-cluster sums c_s of one (N,) or many (P, N) labelings.

    Labels are sequential along the last axis and ``corr`` is on the grid
    of ``_on_grid``. (P, N) labels give (P, K) tables, K the largest cluster
    count, with size and sum 0 past a row's clusters. Clusters of up to
    _gather_limit(N) members gather their pairs, one size at a time; the
    L larger clusters of the whole batch take one product C @ H, H their
    N x L one-hot matrix, in blocks of columns. On the grid every sum is
    exact: ``corr[np.ix_(idx, idx)].sum()``, alone, in a batch or any block.
    """
    rows = np.atleast_2d(labels)
    p, n = rows.shape
    k = int(rows.max()) + 1
    sizes = np.bincount((rows + k * np.arange(p)[:, None]).ravel(), minlength=p * k)
    sums = np.zeros(p * k)
    # nodes grouped by row and label, each cluster's in node order; a stable
    # order does not depend on the key type, and numpy radix-sorts 16-bit keys
    keys = rows.astype(np.int16) if k <= np.iinfo(np.int16).max else rows
    members = np.argsort(keys, axis=1, kind="stable").ravel()
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

    # H's columns are the large clusters; their members, cluster after cluster
    large = np.flatnonzero(sizes > limit)
    node = members[np.repeat(sizes > limit, sizes)]
    col = np.repeat(np.arange(large.size), sizes[large])
    step = max(1, _CHUNK // n)
    for lo in range(0, large.size, step):
        ids = large[lo:lo + step]
        a, b = np.searchsorted(col, (lo, lo + ids.size))
        i, j = node[a:b], col[a:b] - lo
        onehot = np.zeros((n, ids.size))
        onehot[i, j] = 1.0
        sums[ids] = np.bincount(j, weights=(corr @ onehot)[i, j], minlength=ids.size)

    shape = np.shape(labels)[:-1] + (k,)
    return sizes.reshape(shape), sums.reshape(shape)


def _labeling_sums(labeling, corr: CorrelationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """_cluster_sums of any labeling on the grid of C, its clusters in first-visit order.

    A labeling whose last axis is not C's N is a DomainError naming both lengths.
    """
    shape = np.shape(labeling)
    if shape[-1:] != (corr.n,):
        raise DomainError(f"a labeling of {shape[-1] if shape else 0} nodes does not fit "
                          f"a correlation matrix of N = {corr.n}")
    return _cluster_sums(sequentialize(labeling), _on_grid(corr.values))


def cluster_stats(labeling, corr: CorrelationMatrix) -> ClusterStats:
    """n_s, c_s and g_s per cluster; g_s is nan when n_s <= 1 or c_s <= n_s.

    c_s is exact on the grid of C (see ``_on_grid``).
    """
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
    """Log-likelihood of a labeling; 0 for all-singleton or structureless input.

    A (P, N) array of labelings gives their P scores, the bits of P calls.
    """
    return _lc_from_sums(*_labeling_sums(labeling, corr))


def kmeans_hamiltonian(labeling, corr: CorrelationMatrix) -> float:
    """K-means-style objective sum of (n_s - n_s / c_s)."""
    return _kmeans_from_sums(*_labeling_sums(labeling, corr))


def _lemire(words, r):
    """Lemire's draws in [0, r) from 32-bit words: (values, rejected).

    ``Generator.integers`` below 2**32 takes one word per try and skips a
    rejected one. ``words`` and ``r`` are arrays, ``r`` of dtype uint64.
    """
    m = words * r
    return m >> 32, (m & _WORD) < (1 << 32) % r


def _mutate_rows(pop: np.ndarray, kinds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One mutation per row of a (P, N) array of sequential labelings.

    Row i gets operator ``MUTATION_KINDS[kinds[i]]``. The rows draw from
    ``rng`` in row order: ``read`` takes their words ahead as full-range
    draws, the kernel works out which ones each row takes, and drawing the
    used words again from the saved state leaves ``rng`` as one-row calls
    made one after another would. split's tries are counted on ``top``, a
    byte per word read that holds its top bit.
    Children stay in their parent's numbering, in [0, N), and are not
    resequentialized. split on an all-singleton row and merge on a
    single-cluster row copy the parent.
    """
    state = rng.bit_generator.state
    words = np.empty(0, dtype=np.uint32)
    top = bytearray()  # each word's top bit, a byte per word

    def read(count: int) -> None:  # at least count words in words
        nonlocal words
        if count > words.size:
            more = rng.integers(0, _WORD, size=max(count - words.size, _READ), dtype=np.uint32,
                                endpoint=True)
            words = np.concatenate([words, more])
            top.extend((more >= 1 << 31).tobytes())

    p, n = pop.shape
    kinds = np.asarray(kinds)
    ks = pop.max(axis=1) + 1  # each row's cluster count
    is_kind = kinds == np.arange(len(MUTATION_KINDS))[:, None]

    # every row but split makes a fixed list of draws, laid end to end: a
    # count, the first draw's range and the others'. A range-1 draw takes
    # no word. scramble's start has range n - length + 1; n - 1 stands in
    # until its length is drawn, and takes a word the same way
    #                count  first                other
    spec = np.array([[n,     n,                   n],          # new
                     [0,     1,                   1],          # split, drawn below
                     [2,     0,                   -1],         # merge, plus k
                     [2,     n,                   n - 1],      # swap
                     [2,     max(2, n // 4) - 1,  n - 1],      # scramble
                     [0,     0,                   0]])[kinds]  # flip, plus k
    spec += _PLUS_K[kinds] * ks[:, None]
    spec[is_kind[_MERGE] & (ks < 2), 0] = 0  # a single cluster has nothing to merge
    count, first, other = spec.T
    row = np.arange(p).repeat(count)
    start = count.cumsum() - count
    ranges = other[row].astype(np.uint64)
    ranges[start[count > 0]] = first[count > 0]
    takes = (ranges > 1).astype(np.int64)
    scramble = start[is_kind[_SCRAMBLE]]

    # split: the clusters of at least two members, row after row
    split = is_kind[_SPLIT].nonzero()[0]
    sizes = np.bincount((pop[split] + n * np.arange(split.size)[:, None]).ravel(),
                        minlength=split.size * n).reshape(split.size, n)
    owner, cluster = (sizes >= 2).nonzero()
    eligible = np.bincount(owner, minlength=split.size).tolist()
    offsets = list(accumulate(eligible, initial=0))
    member_counts = sizes[owner, cluster].tolist()

    read(int(takes.sum()) + 2 * int(sizes.max(axis=1, initial=0).sum()) + split.size + 1)
    extra = np.zeros(row.size, dtype=np.int64)  # rejected words before each draw
    while True:
        edges = np.zeros(row.size + 1, dtype=np.int64)
        (takes + extra).cumsum(out=edges[1:])
        before = edges[start[split]].tolist()  # other rows' words before each split

        # split rows one at a time: the cluster, then tries of one word per
        # member until both sides are nonempty
        picks, tries, blocks = [-1] * split.size, [0] * split.size, [0] * split.size
        shift = 0  # words taken by the split rows so far
        for j, (c, at) in enumerate(zip(eligible, before)):
            if c == 0:
                continue
            at += shift
            pick = 0
            if c > 1:  # _lemire's rule on one word at a time
                while True:
                    if at >= len(top):
                        read(at + 1)
                    m = int(words[at]) * c
                    at += 1
                    if m & _WORD >= (1 << 32) % c:
                        break
                pick = m >> 32
            picks[j] = offsets[j] + pick
            size = member_counts[picks[j]]
            while True:
                if at + size > len(top):
                    read(at + size)
                if 0 < top.count(1, at, at + size) < size:
                    break
                at += size
            tries[j] = at
            blocks[j] = at + size - before[j] - shift
            shift += blocks[j]

        used = int(edges[-1]) + shift
        read(used + 1)  # a last draw of range 1 points one word past them
        after = np.zeros(p, dtype=np.int64)
        after[split] = blocks
        word = words[edges[:-1] + extra + after.cumsum()[row]]
        ranges[scramble + 1] = n - 1 - _lemire(word[scramble], ranges[scramble])[0]
        values, rejected = _lemire(word, ranges)
        if not rejected.any():
            break
        extra[rejected.argmax()] += 1  # the first rejected draw takes the next word

    # each row's values lie at start[row] onward
    out = pop.copy()
    values = values.astype(np.int64)
    rows = is_kind[_NEW].nonzero()[0]
    out[rows] = values[start[rows, None] + np.arange(n)]
    rows = is_kind[_FLIP].nonzero()[0]
    out[rows] = values[start[rows, None] + pop[rows]]
    rows = (is_kind[_MERGE] & (ks >= 2)).nonzero()[0]
    a, b = values[start[rows]], values[start[rows] + 1]
    b += b >= a
    parents = pop[rows]
    out[rows] = np.where(parents == b[:, None], a[:, None], parents)
    rows = is_kind[_SWAP].nonzero()[0]
    i, j = values[start[rows]], values[start[rows] + 1]
    j += j >= i
    out[rows, i], out[rows, j] = pop[rows, j], pop[rows, i]
    rows = is_kind[_SCRAMBLE].nonzero()[0]
    length, begin = values[scramble, None] + 2, values[scramble + 1, None]
    offset = np.arange(n) - begin
    source = np.where((offset >= 0) & (offset < length), begin + length - 1 - offset, np.arange(n))
    out[rows] = pop[rows[:, None], source]
    # split: a member moves to the new cluster k when its word's top bit is set
    picks = np.array(picks, dtype=np.int64)
    rows, tries = split[picks >= 0], np.array(tries, dtype=np.int64)[picks >= 0]
    hit, col = (pop[rows] == cluster[picks[picks >= 0], None]).nonzero()  # in node order
    counts = np.bincount(hit, minlength=rows.size)
    rank = np.arange(hit.size) - (counts.cumsum() - counts)[hit]
    moved = words[tries[hit] + rank] >= 1 << 31
    out[rows[hit[moved]], col[moved]] = ks[rows[hit[moved]]]
    rng.bit_generator.state = state  # give back the words read past the used ones
    rng.random(used, dtype=np.float32)  # a word per value, as the reads took them
    return out


def mutate(labeling, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Apply one mutation operator and resequentialize.

    split on an all-singleton labeling and merge on a single-cluster
    labeling are no-ops returning the input partition. ``rng`` is any numpy
    Generator; it is left as the operator's ``integers`` calls would leave it.
    """
    if kind not in MUTATION_KINDS:
        raise DomainError(f"unknown mutation kind {kind!r}")
    labels = sequentialize(labeling)
    if labels.size < 2:
        raise DomainError("a labeling to mutate needs at least 2 nodes")
    child = _mutate_rows(labels[None], [MUTATION_KINDS.index(kind)], rng)
    return sequentialize(child)[0]


def ga_run(corr: CorrelationMatrix, pop_size: int = 100,
           max_generations: int = 25000, stall_generations: int = 100,
           seed: int = 0, objective: str = "lc") -> GaResult:
    """Elitist mutation-only search for the best-scoring labeling.

    Each generation mutates every parent once (operator drawn uniformly),
    evaluates the children (one equal to its parent takes the parent's
    fitness), and keeps the ``pop_size`` fittest of parents plus children
    (ties resolved toward the earlier individual). Stops at
    ``max_generations`` or after ``stall_generations`` without improvement
    of the best fitness.
    """
    if pop_size < 2:
        raise DomainError("pop_size must be >= 2")
    if max_generations < 1:
        raise DomainError("max_generations must be >= 1")
    if stall_generations < 1:
        raise DomainError("stall_generations must be >= 1")
    if objective not in _SCORERS:
        raise DomainError(f"unknown objective {objective!r}")
    cvals = _on_grid(corr.values)
    n = cvals.shape[0]
    if n < 2:
        raise DomainError(f"the search needs at least 2 nodes, got {n}")

    score = _SCORERS[objective]
    rng = np.random.default_rng(seed)
    pop = sequentialize(rng.integers(0, n, size=(pop_size, n)))
    fits = score(*_cluster_sums(pop, cvals))

    best = float(fits.max())
    history: list[float] = []
    survivors = np.zeros(len(MUTATION_KINDS), dtype=np.int64)
    new_bests = np.zeros(len(MUTATION_KINDS), dtype=np.int64)
    last_improvement = 0

    for generation in range(1, max_generations + 1):
        kinds = rng.integers(0, len(MUTATION_KINDS), size=pop_size)
        children = sequentialize(_mutate_rows(pop, kinds, rng))
        # a child equal to its parent keeps the parent's fitness: a labeling
        # scores the same bits in any batch
        same = (children == pop).all(axis=1)
        child_fits = fits.copy()
        if not same.all():
            child_fits[~same] = score(*_cluster_sums(children[~same], cvals))

        # a stable sort with the parents first keeps the best at the head
        all_fits = np.concatenate([fits, child_fits])
        order = np.argsort(-all_fits, kind="stable")[:pop_size]
        pop = np.concatenate([pop, children])[order]
        fits = all_fits[order]
        kept = kinds[order[order >= pop_size] - pop_size]
        survivors += np.bincount(kept, minlength=len(MUTATION_KINDS))

        if fits[0] > best:  # only a child can beat the best parent
            best = float(fits[0])
            new_bests[kinds[order[0] - pop_size]] += 1
            last_improvement = generation
        history.append(best)
        if generation - last_improvement >= stall_generations:
            break

    return GaResult(pop[0].copy(), best, history, generation,
                    survivors, new_bests, last_improvement)
