import math
from itertools import combinations

import numpy as np
import pytest

from spinclust.dataset import CorrelationMatrix
from spinclust.errors import DegenerateClusterError, DomainError
from spinclust.evaluation import adjusted_rand_index
from spinclust.fspc import (
    MUTATION_KINDS,
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


class TestSequentialize:
    def test_first_visit_order(self):
        np.testing.assert_array_equal(sequentialize([5, 5, 2, 7, 2]), [0, 0, 1, 2, 1])

    def test_already_sequential_unchanged(self):
        labels = np.array([0, 1, 1, 2, 0])
        np.testing.assert_array_equal(sequentialize(labels), labels)


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
