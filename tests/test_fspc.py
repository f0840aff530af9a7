import hashlib
import json
import math
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinclust import fspc
from spinclust.cli import main
from spinclust.dataset import CorrelationMatrix
from spinclust.errors import DegenerateClusterError, DomainError
from spinclust.evaluation import adjusted_rand_index
from spinclust.fspc import (
    MUTATION_KINDS,
    _cluster_sums,
    _GATHER_DIVISOR,
    _kmeans_from_sums,
    _lc_from_sums,
    _mutate_rows,
    _on_grid,
    cluster_stats,
    ga_run,
    kmeans_hamiltonian,
    likelihood,
    mutate,
    sequentialize,
)


def pair_corr(rho, n=4):
    """Correlation with rho between nodes 0 and 1 only."""
    c = np.eye(n)
    c[0, 1] = c[1, 0] = rho
    return CorrelationMatrix(c, "pearson")


def lc_by_hand(labels, c):
    """Independent scalar-loop evaluation used as the oracle."""
    labels = list(labels)
    total = 0.0
    for s in set(labels):
        members = [i for i, l in enumerate(labels) if l == s]
        ns = len(members)
        if ns <= 1:
            continue
        cs = sum(c[i][j] for i in members for j in members)
        if cs <= ns:
            continue
        cs = min(cs, ns * ns - 1e-9)
        total += math.log(ns / cs) + (ns - 1) * math.log((ns * ns - ns) / (ns * ns - cs))
    return 0.5 * total


def sequentialize_reference(labels):
    """First-visit relabeling of one row through np.unique, kept as the oracle."""
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    return rank[inv]


def cluster_sums_reference(labels, corr):
    """Sizes and intra-cluster sums by a loop over clusters, kept as the oracle."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_labels)) + 1]
    ends = np.r_[starts[1:], labels.size]
    sizes = (ends - starts).astype(np.int64)
    sums = np.empty(sizes.size, dtype=float)
    for k in range(sizes.size):
        idx = order[starts[k]:ends[k]]
        sums[k] = corr[np.ix_(idx, idx)].sum()
    return sizes, sums


def mutate_reference(labels, kind, rng):
    """One operator on one sequential labeling, child by child, kept as the oracle.

    The child stays in its parent's numbering; split on all singletons and
    merge on one cluster return the parent.
    """
    n, k = labels.size, int(labels.max()) + 1

    def distinct_pair(m):
        a = int(rng.integers(0, m))
        b = int(rng.integers(0, m - 1))
        return a, b + (b >= a)

    out = labels.copy()
    if kind == "new":
        return rng.integers(0, n, size=n)
    if kind == "split":
        eligible = np.flatnonzero(np.bincount(labels) >= 2)
        if eligible.size:
            members = np.flatnonzero(labels == rng.choice(eligible))
            side = rng.integers(0, 2, size=members.size).astype(bool)
            while side.all() or not side.any():
                side = rng.integers(0, 2, size=members.size).astype(bool)
            out[members[side]] = k
    elif kind == "merge":
        if k >= 2:
            a, b = distinct_pair(k)
            out[labels == b] = a
    elif kind == "swap":
        i, j = distinct_pair(n)
        out[i], out[j] = labels[j], labels[i]
    elif kind == "scramble":
        length = int(rng.integers(2, max(2, n // 4) + 1))
        start = int(rng.integers(0, n - length + 1))
        out[start:start + length] = labels[start:start + length][::-1]
    else:
        out = rng.integers(0, k, size=k)[labels]
    return out


LABELING_SHAPES = ("random", "few", "singletons", "giant", "edge")
# the kernel draws through Generator.integers, so it runs on any bit generator
BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def make_labeling(rng, n, shape):
    """A sequential labeling of n nodes; "edge" has clusters of t and t + 1 members."""
    if shape == "random":
        labels = rng.integers(0, n, size=n)
    elif shape == "few":
        labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
    elif shape == "singletons":
        labels = rng.permutation(n)
    elif shape == "giant":
        labels = np.zeros(n, dtype=np.int64)
    else:
        t = n // _GATHER_DIVISOR
        labels = rng.integers(2, 6, size=n)
        labels[:t] = 0
        labels[t:2 * t + 1] = 1
        labels = rng.permutation(labels)
    return sequentialize(labels)


class TestSequentialize:
    def test_first_visit_order(self):
        np.testing.assert_array_equal(sequentialize([5, 5, 2, 7, 2]), [0, 0, 1, 2, 1])

    def test_already_sequential_unchanged(self):
        labels = np.array([0, 1, 1, 2, 0])
        np.testing.assert_array_equal(sequentialize(labels), labels)

    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_batch_equals_rows(self, p, n, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-3, int(rng.integers(-2, 3 * n)), size=(p, n))
        out = sequentialize(labels)
        assert out.shape == (p, n) and out.dtype == np.int64
        for row, got in zip(labels, out):
            np.testing.assert_array_equal(got, sequentialize_reference(row))
            np.testing.assert_array_equal(got, sequentialize(row))


    @pytest.mark.parametrize("span", ["in_range", "negative", "huge"])
    @given(p=st.integers(1, 5), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_unique_reference(self, span, p, n, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, int(rng.integers(1, n + 1)), size=(p, n))
        if span == "negative":
            labels -= int(rng.integers(1, 3 * n + 1))
        elif span == "huge":
            labels = labels * (2**62 // n) + 2**62
        out = sequentialize(labels)
        assert out.dtype == np.int64
        for row, got in zip(labels, out):
            np.testing.assert_array_equal(got, sequentialize_reference(row))


class TestOnGrid:
    @given(st.integers(1, 40), st.floats(0.01, 1e3), st.integers(0, 2**32 - 1))
    def test_rounds_to_the_power_of_two_grid(self, n, scale, seed):
        c = scale * np.random.default_rng(seed).normal(size=(n, n))
        before = c.copy()
        grid = _on_grid(c)
        np.testing.assert_array_equal(c, before)  # the caller's matrix is not touched
        total = np.abs(c).sum()
        q = 2.0 ** (math.ceil(math.log2(total)) + 2 - 53)
        np.testing.assert_array_equal(grid, np.rint(c / q) * q)
        assert np.all(np.abs(grid - c) <= q / 2)
        # every partial sum of the rounded entries stays below 2**53 q
        assert np.abs(grid).sum() < 2.0**53 * q

    @pytest.mark.parametrize("total, exponent", [(64.0, 6), (np.nextafter(64.0, 0), 6),
                                                 (np.nextafter(64.0, 65), 7)])
    def test_power_of_two_edges(self, total, exponent):
        c = np.full((2, 2), total / 4)
        grid = _on_grid(c)
        q = 2.0 ** (exponent + 2 - 53)
        np.testing.assert_array_equal(grid, np.rint(c / q) * q)


class TestClusterSums:
    @given(st.integers(2, 90), st.lists(st.sampled_from(LABELING_SHAPES), min_size=1,
                                        max_size=5),
           st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_batch_matches_reference_and_rows_alone(self, n, shapes, columns, seed):
        rng = np.random.default_rng(seed)
        grid = _on_grid(np.corrcoef(rng.normal(size=(n, 3 * n))))
        batch = np.stack([make_labeling(rng, n, shape) for shape in shapes])
        sizes, sums = _cluster_sums(batch, grid)
        lcs, kms = _lc_from_sums(sizes, sums), _kmeans_from_sums(sizes, sums)
        # blocks of `columns` columns of H, and pair gathers of about as many values
        with patch.object(fspc, "_CHUNK", columns * n):
            chunked = _cluster_sums(batch, grid)
        np.testing.assert_array_equal(chunked[0], sizes)
        np.testing.assert_array_equal(chunked[1], sums)
        for p, labels in enumerate(batch):
            ref_sizes, ref_sums = cluster_sums_reference(labels, grid)
            k = ref_sizes.size
            np.testing.assert_array_equal(sizes[p, :k], ref_sizes)
            np.testing.assert_array_equal(sums[p, :k], ref_sums)
            onehot = (labels[:, None] == np.arange(k)).astype(float)
            np.testing.assert_array_equal(sums[p, :k],
                                          np.einsum("ik,ij,jk->k", onehot, grid, onehot))
            assert not sizes[p, k:].any() and not sums[p, k:].any()
            # the same labeling scored alone gives the same bits
            alone_sizes, alone_sums = _cluster_sums(labels, grid)
            np.testing.assert_array_equal(alone_sizes, sizes[p, :k])
            np.testing.assert_array_equal(alone_sums, sums[p, :k])
            assert _lc_from_sums(alone_sizes, alone_sums) == lcs[p]
            assert _kmeans_from_sums(alone_sizes, alone_sums) == kms[p]

    def test_population_rows_score_as_alone(self):
        # a GA-like batch: condensed, fragmented and mixed labelings with 0 to
        # 7 clusters above the gather limit, at N where the limit is N // 8;
        # likelihood rounds C to the grid itself
        rng = np.random.default_rng(70)
        n = 120
        corr = CorrelationMatrix(np.corrcoef(rng.normal(size=(n, 300))), "pearson")
        rows = [make_labeling(rng, n, LABELING_SHAPES[i % 5]) for i in range(40)]
        for width in range(8):  # width clusters of 16 members (the limit is 15), singletons
            labels = np.r_[np.repeat(np.arange(width), 16), np.arange(width, n - 15 * width)]
            rows.append(sequentialize(rng.permutation(labels)))
        batch = np.stack(rows)
        widths = {int((np.bincount(row) > n // _GATHER_DIVISOR).sum()) for row in batch}
        assert widths == set(range(8))
        scores = _lc_from_sums(*_cluster_sums(batch, _on_grid(corr.values)))
        for labels, score in zip(batch, scores):
            assert likelihood(labels, corr) == score


class TestClusterStats:
    def test_all_singletons(self):
        stats = cluster_stats(np.arange(5), CorrelationMatrix(np.eye(5), "pearson"))
        np.testing.assert_array_equal(stats.sizes, np.ones(5))
        np.testing.assert_allclose(stats.intra_sums, np.ones(5))
        assert np.isnan(stats.couplings).all()

    def test_pair_at_half_correlation(self):
        stats = cluster_stats([0, 0, 1, 2], pair_corr(0.5))
        assert stats.sizes[0] == 2
        assert stats.intra_sums[0] == pytest.approx(3.0)
        assert stats.couplings[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_identity_giant_cluster(self):
        stats = cluster_stats(np.zeros(6, dtype=int),
                              CorrelationMatrix(np.eye(6), "pearson"))
        assert stats.intra_sums[0] == pytest.approx(6.0)
        assert np.isnan(stats.couplings[0])  # c_s == n_s


class TestLikelihood:
    def test_identity_correlation_always_zero(self):
        rng = np.random.default_rng(40)
        corr = CorrelationMatrix(np.eye(10), "pearson")
        for _ in range(20):
            labels = rng.integers(0, 4, size=10)
            assert likelihood(labels, corr) == 0.0

    def test_all_singletons_zero(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(6, 30))
        corr = CorrelationMatrix(np.corrcoef(x), "pearson")
        assert likelihood(np.arange(6), corr) == 0.0

    def test_pair_at_half_correlation(self):
        # 0.5 * ln(4/3), frozen from direct evaluation
        val = likelihood([0, 0, 1, 2], pair_corr(0.5))
        assert val == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(8, 40))
        corr = CorrelationMatrix(np.corrcoef(x), "pearson")
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        permuted = np.array([2, 0, 1, 2, 0, 1, 2, 0])
        assert likelihood(labels, corr) == pytest.approx(
            likelihood(permuted, corr), abs=1e-12)

    def test_matches_hand_oracle_on_random_inputs(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            x = rng.normal(size=(n, 25))
            c = np.corrcoef(x)
            corr = CorrelationMatrix(c, "pearson")
            labels = rng.integers(0, n, size=n)
            assert likelihood(labels, corr) == pytest.approx(
                lc_by_hand(labels, c), abs=1e-10)

    def test_perfect_block_stays_finite(self):
        c = np.ones((4, 4))
        corr = CorrelationMatrix(c, "pearson")
        val = likelihood(np.zeros(4, dtype=int), corr)
        assert math.isfinite(val) and val > 0


class TestKmeansHamiltonian:
    def test_singletons_zero(self):
        assert kmeans_hamiltonian(np.arange(5),
                                  CorrelationMatrix(np.eye(5), "pearson")) == 0.0

    def test_pair_at_half(self):
        assert kmeans_hamiltonian([0, 0, 1, 2], pair_corr(0.5)) == pytest.approx(
            2 - 2 / 3, abs=1e-12)

    def test_perfect_cluster(self):
        n = 5
        corr = CorrelationMatrix(np.ones((n, n)), "pearson")
        # c = n^2 -> n - n/c = n - 1/n
        assert kmeans_hamiltonian(np.zeros(n, dtype=int), corr) == pytest.approx(
            n - 1 / n, abs=1e-12)

    def test_zero_sum_cluster_rejected(self):
        c = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(DegenerateClusterError):
            kmeans_hamiltonian([0, 0], CorrelationMatrix(c, "pearson"))


class TestMutate:
    def valid(self, labels, n):
        assert labels.size == n
        np.testing.assert_array_equal(labels, sequentialize(labels))

    def test_every_kind_produces_valid_labeling(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            labels = sequentialize(rng.integers(0, n, size=n))
            kind = MUTATION_KINDS[int(rng.integers(0, 6))]
            out = mutate(labels, kind, rng)
            self.valid(out, n)

    def test_swap_positions_exchange(self):
        # seed chosen so the drawn positions are 1 and 2; swap draws a
        # position in [0, 4), then one of the 3 others
        for seed in range(200):
            probe = np.random.default_rng(seed)
            i = int(probe.integers(0, 4))
            j = int(probe.integers(0, 3))
            j += j >= i
            if sorted((i, j)) == [1, 2]:
                out = mutate(np.array([0, 0, 1, 1]), "swap",
                             np.random.default_rng(seed))
                np.testing.assert_array_equal(out, [0, 1, 0, 1])
                return
        pytest.fail("no seed produced positions (1, 2)")

    def test_merge_two_clusters_unifies(self):
        rng = np.random.default_rng(45)
        out = mutate(np.array([0, 0, 1, 1]), "merge", rng)
        np.testing.assert_array_equal(out, [0, 0, 0, 0])

    def test_merge_single_cluster_noop(self):
        rng = np.random.default_rng(46)
        out = mutate(np.zeros(5, dtype=int), "merge", rng)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_split_increases_cluster_count(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            labels = sequentialize(rng.integers(0, 3, size=12))
            k = labels.max() + 1
            out = mutate(labels, "split", rng)
            assert out.max() + 1 == k + 1

    def test_split_all_singletons_noop(self):
        rng = np.random.default_rng(48)
        labels = np.arange(6)
        out = mutate(labels, "split", rng)
        np.testing.assert_array_equal(out, labels)

    def test_scramble_preserves_size_multiset(self):
        rng = np.random.default_rng(49)
        for _ in range(50):
            labels = sequentialize(rng.integers(0, 5, size=20))
            out = mutate(labels, "scramble", rng)
            assert sorted(np.bincount(out)) == sorted(np.bincount(labels))

    def test_flip_never_increases_cluster_count(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            labels = sequentialize(rng.integers(0, 6, size=15))
            out = mutate(labels, "flip", rng)
            assert out.max() <= labels.max()

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            mutate(np.zeros(3, dtype=int), "invert", np.random.default_rng(0))

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    @pytest.mark.parametrize("labels", [[0], []], ids=["one_node", "empty"])
    def test_fewer_than_two_nodes_rejected_before_any_draw(self, kind, labels):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="at least 2 nodes"):
            mutate(np.array(labels, dtype=int), kind, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_any_bit_generator(self, bit_generator):
        rng, ref = (np.random.Generator(bit_generator(0)) for _ in range(2))
        out = mutate(np.array([0, 0, 1]), "swap", rng)
        expected = sequentialize(mutate_reference(np.array([0, 0, 1]), "swap", ref))
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    # SHA-256 of 60 seeded mutate outputs per kind, recorded from the
    # per-child implementation that relabeled with np.unique
    GOLDEN = {
        "new": "afaf9ca48b965237e3735f0096d0b12ea77aca3b21ec4b72a9faa5f6d2caf607",
        "split": "d871b55223b4cb9f3852138da31eef5816f9b3ca47cd528b6495aaae703c6213",
        "merge": "adc5b992bce20cbf39b0f883b0f5af6d908cec4c1665b5390ed79fb607257d24",
        "swap": "b56d1495a600479e5a33d7133c3c74d57f8ce21bf1135e25a002c5f833e713de",
        "scramble": "7d00029f853f978d3c3fa59fde5fd0872bb678896dbb99c413fe6039e8f48504",
        "flip": "4c54bbc45fa0964c7601272605cdfe6dfba6306da6675fcd135daae9120174ee",
    }

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    def test_golden_outputs(self, kind):
        h = hashlib.sha256()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            if seed % 3 == 0:  # unsequential input labels
                labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n) * 3 + 5
            elif seed % 3 == 1:
                labels = np.arange(n)[::-1]
            else:
                labels = np.full(n, 4)
            out = mutate(labels, kind, rng)
            h.update(out.astype(np.int64).tobytes() + b"|")
        assert h.hexdigest() == self.GOLDEN[kind]


def buffer_half_word(rng, word):
    """Leave ``word`` as the buffered half that the next 32-bit draw takes first."""
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, word
    rng.bit_generator.state = state
    return rng


class TestMutateRows:
    # four bit generators share the examples: four times the default keeps
    # PCG64's share at the default count
    @settings(max_examples=400)
    @given(st.integers(1, 6), st.integers(2, 300),
           st.lists(st.sampled_from(("random", "few", "singletons", "giant")), min_size=6,
                    max_size=6),
           st.lists(st.integers(0, len(MUTATION_KINDS) - 1), min_size=6, max_size=6),
           st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(BIT_GENERATORS))
    @example(1, 2, ["singletons"] * 6, [1] * 6, 0, False, np.random.PCG64)  # split: a copy
    @example(1, 2, ["giant"] * 6, [2] * 6, 0, False, np.random.PCG64)       # merge: a copy
    @example(6, 2, ["random"] * 6, list(range(6)), 1, False, np.random.PCG64)
    @example(6, 300, ["random", "few", "singletons", "giant", "few", "random"],
             list(range(6)), 2, True, np.random.PCG64)
    @example(6, 300, ["random", "few", "singletons", "giant", "few", "random"],
             list(range(6)), 3, True, np.random.MT19937)
    def test_batch_equals_rows_and_reference(self, p, n, shapes, kinds, seed, buffered,
                                             bit_generator):
        rng = np.random.default_rng(seed)
        pop = np.stack([make_labeling(rng, n, shapes[i]) for i in range(p)])
        kinds = np.array(kinds[:p])
        batch_rng, row_rng, ref_rng = (np.random.Generator(bit_generator(seed + 1))
                                       for _ in range(3))
        if buffered:  # an odd number of words taken: the next one may be a buffered half
            for g in (batch_rng, row_rng, ref_rng):
                g.integers(0, 7)
        batch = _mutate_rows(pop, kinds, batch_rng)
        for i, (parent, kind) in enumerate(zip(pop, kinds)):
            np.testing.assert_array_equal(
                batch[i], _mutate_rows(pop[i:i + 1], kinds[i:i + 1], row_rng)[0])
            np.testing.assert_array_equal(
                batch[i], mutate_reference(parent, MUTATION_KINDS[kind], ref_rng))
        # MT19937's state holds an array
        np.testing.assert_equal(batch_rng.bit_generator.state, row_rng.bit_generator.state)
        np.testing.assert_equal(batch_rng.bit_generator.state, ref_rng.bit_generator.state)
        assert batch.dtype == np.int64 and ((batch >= 0) & (batch < n)).all()

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    def test_rejected_first_word(self, kind):
        # Lemire's rule rejects a zero word for any range that is not a power
        # of two: integers(0, 6) takes two words here, integers(0, 4) one
        skipped = buffer_half_word(np.random.default_rng(7), 0)
        skipped.integers(0, 6)
        two_words = buffer_half_word(np.random.default_rng(7), 0)
        two_words.integers(0, 4, size=2)
        assert skipped.bit_generator.state == two_words.bit_generator.state
        # so the first row's first draw skips it (scramble's length, of
        # range 2 when N = 13, keeps it), and every later draw moves one
        # word on
        rng = np.random.default_rng(6)
        pop = np.stack([make_labeling(rng, 13, shape) for shape in LABELING_SHAPES * 2])
        kinds = rng.integers(0, len(MUTATION_KINDS), size=pop.shape[0])
        kinds[0] = MUTATION_KINDS.index(kind)
        pop[0] = sequentialize([0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 4, 4, 5])  # k = 6, 4 eligible
        if kind == "split":
            pop[0] = sequentialize([0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9])  # 3 eligible
        batch_rng, ref_rng = (buffer_half_word(np.random.default_rng(7), 0) for _ in range(2))
        batch = _mutate_rows(pop, kinds, batch_rng)
        for parent, child, k in zip(pop, batch, kinds):
            np.testing.assert_array_equal(
                child, mutate_reference(parent, MUTATION_KINDS[k], ref_rng))
        assert batch_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rejected_word_mid_generation(self, monkeypatch):
        # seed 10224's word 2704 is the first it rejects for range 300: the
        # giant split takes 300 words and swap 2, so a new row's draw meets it
        n = 300
        rng = np.random.default_rng(0)
        names = ["split", "swap"] + ["new"] * 9 + ["split", "flip", "scramble", "merge",
                                                   "swap", "split"]
        shapes = ["giant"] + ["random"] * 12 + ["few", "random", "few", "few"]
        pop = np.stack([make_labeling(rng, n, shape) for shape in shapes])
        kinds = np.array([MUTATION_KINDS.index(name) for name in names])
        rejected = []
        lemire = fspc._lemire

        def lemire_seen(words, r):
            values, bad = lemire(words, r)
            rejected.append(int(np.sum(bad)))
            return values, bad

        monkeypatch.setattr(fspc, "_lemire", lemire_seen)
        batch_rng, ref_rng = np.random.default_rng(10224), np.random.default_rng(10224)
        batch = _mutate_rows(pop, kinds, batch_rng)
        assert sum(rejected) >= 1
        for parent, child, name in zip(pop, batch, names):
            np.testing.assert_array_equal(child, mutate_reference(parent, name, ref_rng))
        assert batch_rng.bit_generator.state == ref_rng.bit_generator.state


class TestGaStream:
    # SHA-256 of fspc result.json; a change of the GA's draw stream or of
    # its arithmetic changes them
    GOLDEN = {
        "search": "5823fa1e20f8afd61edd06cef86f909381e9def54e102986850d9b997451d100",
        "kmeans": "85954779de2857e44cd8a2c6cbe172af4c8bc944d6f353fe8ec5abc0802922d2",
        "stall": "bf5797594e722aecd6dd02b8930ad19b8c587179daaec3b466af6b2a29dcd523",
    }
    # SHA-256 of the search path alone: the JSON list of PATH_FIELDS. It
    # was recorded before the scores moved to the grid of C and is the
    # same on it; only the low digits of fitness and history moved
    PATH_FIELDS = ("best_labels", "generations_run", "operators", "last_improvement")
    PATH_GOLDEN = {
        "search": "750ee29b2aa07b8f5672bc7a20cefcec613776e1d21f4e6c880bb92b4bcc3adf",
        "kmeans": "824972966ed0aa284479311c928c00f11bedbbceb930dd0ed51f1c6d020c5d4c",
        "stall": "e0e244a464fc38b540f1c42da2743cdfafb1765331b925575dacc4aaf636ac92",
    }
    RUNS = {
        # the bench search shape (N = 80 blobs in 80 dimensions, pop 100), 40 generations
        "search": (["--n", "80", "--dims", "80", "--seed", "3"],
                   ["--pop", "100", "--gens", "40", "--stall", "100", "--seed", "3"]),
        "kmeans": (["--n", "30", "--dims", "5", "--seed", "4"],
                   ["--pop", "20", "--gens", "120", "--stall", "120", "--seed", "4",
                    "--objective", "kmeans"]),
        # stops by stalling: generation 174, 30 after its last improvement at 144
        "stall": (["--n", "30", "--dims", "5", "--seed", "4"],
                  ["--pop", "20", "--gens", "2000", "--stall", "30", "--seed", "4"]),
    }

    def result_bytes(self, name, tmp_path, monkeypatch) -> bytes:
        blobs, ga = self.RUNS[name]
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "blobs", *blobs, "--output", "data.csv"]) == 0
        assert main(["preprocess", "--input", "data.csv", "--corr", "similarity",
                     "--output", "sim.json"]) == 0
        assert main(["fspc", "--corr", "sim.json", *ga, "--output", "result.json"]) == 0
        return (tmp_path / "result.json").read_bytes()

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_result_json_golden(self, name, tmp_path, monkeypatch):
        digest = hashlib.sha256(self.result_bytes(name, tmp_path, monkeypatch)).hexdigest()
        assert digest == self.GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_path_golden(self, name, tmp_path, monkeypatch):
        doc = json.loads(self.result_bytes(name, tmp_path, monkeypatch))
        path = json.dumps([doc[field] for field in self.PATH_FIELDS]).encode()
        assert hashlib.sha256(path).hexdigest() == self.PATH_GOLDEN[name]


def planted_two_block_corr(n=20, rho=0.8):
    c = np.zeros((n, n))
    half = n // 2
    c[:half, :half] = rho
    c[half:, half:] = rho
    np.fill_diagonal(c, 1.0)
    labels = np.array([0] * half + [1] * (n - half))
    return CorrelationMatrix(c, "pearson"), labels


class TestGaRun:
    def test_identity_correlation_flat_history(self):
        corr = CorrelationMatrix(np.eye(8), "pearson")
        res = ga_run(corr, pop_size=10, max_generations=30,
                     stall_generations=10, seed=51)
        assert res.fitness == 0.0
        assert all(f == 0.0 for f in res.history)

    def test_planted_blocks_recovered_exactly(self):
        corr, planted = planted_two_block_corr()
        res = ga_run(corr, pop_size=100, max_generations=5000,
                     stall_generations=100, seed=52)
        assert adjusted_rand_index(res.best_labels, planted) == 1.0
        assert res.fitness == likelihood(planted, corr)

    def test_planted_blocks_beat_random_partitions(self):
        corr, planted = planted_two_block_corr()
        target = likelihood(planted, corr)
        rng = np.random.default_rng(53)
        rows = np.array([rng.integers(0, 20, size=20) for _ in range(100_000)])
        best = likelihood(rows, corr).max()  # the bits of one call per row
        assert best < target

    @pytest.mark.parametrize("objective, score", [("lc", likelihood),
                                                  ("kmeans", kmeans_hamiltonian)])
    def test_fitness_is_exact_score_of_best(self, objective, score):
        rng = np.random.default_rng(71)
        corr = CorrelationMatrix(np.corrcoef(rng.normal(size=(60, 150))), "pearson")
        res = ga_run(corr, pop_size=30, max_generations=150, stall_generations=150,
                     seed=72, objective=objective)
        assert res.fitness == score(res.best_labels, corr)
        assert res.history[-1] == res.fitness

    @pytest.mark.parametrize("side", [-1, 0, 1], ids=["below", "at", "above"])
    def test_fitness_exact_at_a_power_of_two_total(self, side):
        # sum |C_ij| just below, at and just above 2**m; below it, the rounded
        # copy crosses 2**m, so fitness stays exact only if every score
        # rounds from C itself
        rng = np.random.default_rng(77)
        c = np.corrcoef(rng.normal(size=(40, 60)))
        off = c - np.eye(40)
        power = 2.0 ** math.floor(math.log2(np.abs(c).sum()))
        target = power * (1 + side * 2.0**-48)
        values = np.eye(40) + off * ((target - 40) / np.abs(off).sum())
        total = np.abs(values).sum()
        assert (total < power, total == power, total > power)[side + 1]
        if side < 0:
            assert np.abs(_on_grid(values)).sum() >= power
        corr = CorrelationMatrix(values, "pearson")
        res = ga_run(corr, pop_size=20, max_generations=60, stall_generations=60, seed=78)
        assert res.fitness == likelihood(res.best_labels, corr)
        assert res.history[-1] == res.fitness

    def test_operator_diagnostics(self):
        rng = np.random.default_rng(73)
        corr = CorrelationMatrix(np.corrcoef(rng.normal(size=(30, 90))), "pearson")
        res = ga_run(corr, pop_size=20, max_generations=2000, stall_generations=40, seed=74)
        doc = res.to_dict()
        assert list(doc["operators"]) == list(MUTATION_KINDS)
        survivors = sum(v["survivors"] for v in doc["operators"].values())
        new_bests = sum(v["new_bests"] for v in doc["operators"].values())
        assert 0 < survivors <= 20 * res.generations_run
        # each generation raises the best at most once, by a child
        raises = sum(b > a for a, b in zip(res.history, res.history[1:]))
        assert raises <= new_bests <= raises + 1
        last = doc["last_improvement"]
        assert last == res.generations_run - 40  # the stall ended the run
        assert res.history[last - 1] == res.fitness
        assert last == 1 or res.history[last - 2] < res.fitness
        again = ga_run(corr, pop_size=20, max_generations=2000, stall_generations=40, seed=74)
        assert again.to_dict() == doc

    def test_unchanged_children_reuse_parent_fitness(self, monkeypatch):
        # three noisy blocks of 12: the population condenses, and many swaps
        # and scrambles then reproduce their parent
        rng = np.random.default_rng(75)
        x = rng.normal(size=(3, 120))[np.arange(36) % 3] + 0.8 * rng.normal(size=(36, 120))
        corr = CorrelationMatrix(np.corrcoef(x), "pearson")
        run = dict(pop_size=20, max_generations=400, stall_generations=400, seed=76)
        unpatched = ga_run(corr, **run).to_dict()

        parents, expected, scored = [], [20], [0]
        mutate_rows, relabel, sums = fspc._mutate_rows, fspc.sequentialize, fspc._cluster_sums

        def mutate_counted(pop, *args):
            parents.extend(pop.copy())
            return mutate_rows(pop, *args)

        def relabel_counted(labels):
            out = relabel(labels)
            if parents:  # a generation's children, in their parents' order
                expected[0] += int((out != np.stack(parents)).any(axis=1).sum())
                parents.clear()
            return out

        def sums_counted(labels, c):
            scored[0] += np.atleast_2d(labels).shape[0]
            return sums(labels, c)

        monkeypatch.setattr(fspc, "_mutate_rows", mutate_counted)
        monkeypatch.setattr(fspc, "sequentialize", relabel_counted)
        monkeypatch.setattr(fspc, "_cluster_sums", sums_counted)
        res = ga_run(corr, **run)
        # only the initial population and the children that differ from
        # their parent were scored
        assert scored[0] == expected[0] < 20 * (res.generations_run + 1)
        assert res.to_dict() == unpatched
        assert res.fitness == likelihood(res.best_labels, corr)

    def test_history_nondecreasing(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=(12, 50))
        corr = CorrelationMatrix(np.corrcoef(x), "pearson")
        res = ga_run(corr, pop_size=20, max_generations=200,
                     stall_generations=50, seed=55)
        assert all(b >= a for a, b in zip(res.history, res.history[1:]))

    def test_reproducible_bit_for_bit(self):
        rng = np.random.default_rng(56)
        x = rng.normal(size=(10, 30))
        corr = CorrelationMatrix(np.corrcoef(x), "pearson")
        a = ga_run(corr, pop_size=15, max_generations=100, stall_generations=30, seed=57)
        b = ga_run(corr, pop_size=15, max_generations=100, stall_generations=30, seed=57)
        assert a.history == b.history
        assert a.fitness == b.fitness
        np.testing.assert_array_equal(a.best_labels, b.best_labels)

    def test_stall_terminates_early(self):
        corr = CorrelationMatrix(np.eye(6), "pearson")
        res = ga_run(corr, pop_size=8, max_generations=10_000,
                     stall_generations=12, seed=58)
        assert res.generations_run == 12

    def test_kmeans_objective_runs(self):
        corr, planted = planted_two_block_corr(n=10)
        res = ga_run(corr, pop_size=20, max_generations=300,
                     stall_generations=40, seed=59, objective="kmeans")
        assert res.fitness >= kmeans_hamiltonian(planted, corr) - 1e-9

    def test_kmeans_zero_sum_names_cluster(self):
        c = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(DegenerateClusterError, match="cluster 0 has zero intra-cluster sum"):
            ga_run(CorrelationMatrix(c, "pearson"), pop_size=4, max_generations=50,
                   seed=0, objective="kmeans")

    def test_bad_params(self):
        corr = CorrelationMatrix(np.eye(4), "pearson")
        with pytest.raises(DomainError):
            ga_run(corr, pop_size=1)
        with pytest.raises(DomainError):
            ga_run(corr, max_generations=0)
        with pytest.raises(DomainError):
            ga_run(corr, objective="entropy")

    def test_one_node_rejected(self):
        with pytest.raises(DomainError, match="at least 2 nodes, got 1"):
            ga_run(CorrelationMatrix(np.eye(1), "pearson"), pop_size=4, max_generations=5)

    def test_result_round_trip_dict(self):
        corr, _ = planted_two_block_corr(n=8)
        res = ga_run(corr, pop_size=10, max_generations=50,
                     stall_generations=20, seed=60)
        doc = res.to_dict()
        assert doc["kind"] == "fspc_result"
        assert doc["fitness"] == res.fitness
        assert sum(doc["cluster_sizes"]) == 8


def enumerate_partitions(n):
    """All set partitions of range(n) as restricted-growth label strings."""
    labels = [0] * n
    maxes = [0] * n

    def rec(i):
        if i == n:
            yield list(labels)
            return
        for v in range(maxes[i - 1] + 2 if i else 1):
            labels[i] = v
            maxes[i] = max(maxes[i - 1], v) if i else 0
            yield from rec(i + 1)

    yield from rec(0)


class TestSmallInstanceOptimality:
    def test_ga_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(61)
        n = 8
        x = rng.normal(size=(n, 15))
        c = np.corrcoef(x)
        corr = CorrelationMatrix(c, "pearson")
        best_val = -np.inf
        best_part = None
        for labs in enumerate_partitions(n):
            val = lc_by_hand(labs, c)
            if val > best_val:
                best_val = val
                best_part = labs
        res = ga_run(corr, pop_size=30, max_generations=5000,
                     stall_generations=150, seed=62)
        assert adjusted_rand_index(res.best_labels, best_part) == 1.0
        assert res.fitness == pytest.approx(best_val, abs=1e-9)
        assert res.fitness == likelihood(best_part, corr)
