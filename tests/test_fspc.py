import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinclust.dataset import CorrelationMatrix
from spinclust.errors import DegenerateClusterError, DomainError
from spinclust.evaluation import adjusted_rand_index
from spinclust.fspc import (
    MUTATION_KINDS,
    _cluster_sums,
    _gather_limit,
    _kmeans_from_sums,
    _lc_from_sums,
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


LABELING_SHAPES = ("random", "few", "singletons", "giant", "edge")


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
        t = _gather_limit(n)
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


class TestClusterSums:
    @given(st.integers(2, 90), st.lists(st.sampled_from(LABELING_SHAPES), min_size=1,
                                        max_size=5), st.integers(0, 2**32 - 1))
    def test_batch_matches_reference_and_rows_alone(self, n, shapes, seed):
        rng = np.random.default_rng(seed)
        corr = np.corrcoef(rng.normal(size=(n, 3 * n)))
        batch = np.stack([make_labeling(rng, n, shape) for shape in shapes])
        sizes, sums = _cluster_sums(batch, corr)
        lcs, kms = _lc_from_sums(sizes, sums), _kmeans_from_sums(sizes, sums)
        for p, labels in enumerate(batch):
            ref_sizes, ref_sums = cluster_sums_reference(labels, corr)
            k = ref_sizes.size
            np.testing.assert_array_equal(sizes[p, :k], ref_sizes)
            np.testing.assert_allclose(sums[p, :k], ref_sums, rtol=1e-12, atol=0)
            gathered = ref_sizes <= _gather_limit(n)  # summed as the oracle sums
            np.testing.assert_array_equal(sums[p, :k][gathered], ref_sums[gathered])
            assert not sizes[p, k:].any() and not sums[p, k:].any()
            # the same labeling scored alone gives the same bits
            alone_sizes, alone_sums = _cluster_sums(labels, corr)
            np.testing.assert_array_equal(alone_sizes, sizes[p, :k])
            np.testing.assert_array_equal(alone_sums, sums[p, :k])
            assert _lc_from_sums(alone_sizes, alone_sums) == lcs[p]
            assert _kmeans_from_sums(alone_sizes, alone_sums) == kms[p]

    def test_population_rows_score_as_alone(self):
        # a GA-like batch: condensed, fragmented and mixed labelings with 0 to
        # 7 clusters above the gather limit, at N where the limit is N // 8
        rng = np.random.default_rng(70)
        n = 120
        corr = CorrelationMatrix(np.corrcoef(rng.normal(size=(n, 300))), "pearson")
        rows = [make_labeling(rng, n, LABELING_SHAPES[i % 5]) for i in range(40)]
        for width in range(8):  # width clusters of 16 members (the limit is 15), singletons
            labels = np.r_[np.repeat(np.arange(width), 16), np.arange(width, n - 15 * width)]
            rows.append(sequentialize(rng.permutation(labels)))
        batch = np.stack(rows)
        widths = {int((np.bincount(row) > _gather_limit(n)).sum()) for row in batch}
        assert widths == set(range(8))
        scores = _lc_from_sums(*_cluster_sums(batch, np.asarray(corr.values)))
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
        # seed chosen so the drawn positions are 1 and 2
        from spinclust.fspc import _distinct_pair

        for seed in range(200):
            probe = _distinct_pair(np.random.default_rng(seed), 4)
            if sorted(probe) == [1, 2]:
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
        best = max(likelihood(sequentialize(rng.integers(0, 20, size=20)), corr)
                   for _ in range(100_000))
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
