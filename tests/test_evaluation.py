import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinclust.dataset import DataMatrix
from spinclust.errors import DomainError
from spinclust.evaluation import (
    adjusted_rand_index,
    generate_blobs,
    generate_circles,
    minimum_spanning_tree,
)


def ari_by_hand(a, b):
    """Independent contingency-table computation used as the oracle."""
    a = list(a)
    b = list(b)
    ca = sorted(set(a))
    cb = sorted(set(b))
    table = [[sum(1 for x, y in zip(a, b) if x == u and y == v) for v in cb] for u in ca]
    comb2 = lambda m: m * (m - 1) // 2
    sum_ij = sum(comb2(c) for row in table for c in row)
    sum_a = sum(comb2(sum(row)) for row in table)
    sum_b = sum(comb2(sum(table[i][j] for i in range(len(ca)))) for j in range(len(cb)))
    total = comb2(len(a))
    exp = sum_a * sum_b / total
    mx = (sum_a + sum_b) / 2
    if mx == exp:
        return 1.0
    return (sum_ij - exp) / (mx - exp)


@st.composite
def labeling_pairs(draw):
    """Two equal-length labelings drawn from small pools of int64 values, extremes included."""
    n = draw(st.integers(2, 40))
    wide = st.integers(-2**63, 2**63 - 1)
    pools = [draw(st.lists(wide, min_size=1, max_size=5, unique=True)) for _ in range(2)]
    return [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) for pool in pools]


class TestAdjustedRandIndex:
    def test_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_label_permutation_is_identity(self):
        a = [0, 1, 2, 0, 1, 2]
        b = [2, 0, 1, 2, 0, 1]
        assert adjusted_rand_index(a, b) == 1.0

    def test_hand_computed_value(self):
        # contingency table [[2,0,0],[0,1,1]] -> ARI = 4/7
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7, abs=1e-15)

    def test_against_hand_oracle_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 4, size=n)
            if len(set(a.tolist())) < 2 and len(set(b.tolist())) < 2:
                continue
            assert adjusted_rand_index(a, b) == pytest.approx(ari_by_hand(a, b), abs=1e-12)

    @given(labeling_pairs())
    def test_equals_hand_oracle_exactly(self, pair):
        a, b = pair
        assert adjusted_rand_index(a, b) == ari_by_hand(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.integers(0, 5, size=40)
            b = rng.integers(0, 3, size=40)
            assert adjusted_rand_index(a, b) == pytest.approx(
                adjusted_rand_index(b, a), abs=1e-12)

    def test_null_mean_near_zero(self):
        rng = np.random.default_rng(14)
        ref = np.repeat(np.arange(4), 25)
        vals = []
        for _ in range(1000):
            perm = rng.permutation(100)
            vals.append(adjusted_rand_index(ref, ref[perm]))
        assert abs(float(np.mean(vals))) < 0.02

    @pytest.mark.parametrize("a, b", [([3], [7]), ([], [])], ids=["one_item", "empty"])
    def test_at_most_one_item_scores_one(self, a, b):
        assert adjusted_rand_index(a, b) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            adjusted_rand_index([0, 1], [0, 1, 2])


def prim_mst_weight(d):
    """Independent Prim implementation used as the oracle."""
    n = d.shape[0]
    in_tree = [0]
    out = set(range(1, n))
    total = 0.0
    while out:
        best = None
        for i in in_tree:
            for j in out:
                if best is None or d[i, j] < best[0]:
                    best = (d[i, j], j)
        total += best[0]
        in_tree.append(best[1])
        out.discard(best[1])
    return total


def kruskal_reference(d):
    """Kruskal's algorithm over a Python key sort and a union-find: the tie-rule oracle.

    Pairs i < j are taken in (weight, i, j) order; the result lists the
    accepted edges in the order they were accepted.
    """
    n = d.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    order = sorted(range(iu.size), key=lambda k: (d[iu[k], ju[k]], int(iu[k]), int(ju[k])))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for k in order:
        i, j = int(iu[k]), int(ju[k])
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            edges.append((i, j, float(d[i, j])))
            if len(edges) == n - 1:
                break
    return edges


@st.composite
def tied_distances(draw):
    """Symmetric zero-diagonal matrices of small integers: many ties and zero distances."""
    n = draw(st.integers(2, 40))
    upper = draw(st.lists(st.integers(0, 4), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, k=1)] = upper
    return d + d.T


class TestMinimumSpanningTree:
    def test_three_points(self):
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        mst = minimum_spanning_tree(d)
        assert sorted(mst.w.tolist()) == [1.0, 2.0]

    def test_collinear_chain(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        d = np.abs(pts - pts.T)
        mst = minimum_spanning_tree(d)
        assert sorted(zip(mst.i.tolist(), mst.j.tolist())) == [(0, 1), (1, 2), (2, 3)]
        assert mst.total_weight == 3.0

    def test_matches_prim_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(3, 31))
            pts = rng.normal(size=(n, 3))
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            mst = minimum_spanning_tree(d)
            assert mst.i.size == mst.j.size == mst.w.size == n - 1
            assert mst.total_weight == pytest.approx(prim_mst_weight(d), abs=1e-9)

    def test_spans_all_nodes(self):
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(25, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        mst = minimum_spanning_tree(d)
        assert set(mst.i.tolist()) | set(mst.j.tolist()) == set(range(25))

    @given(tied_distances())
    def test_equals_kruskal_reference_with_ties(self, d):
        mst = minimum_spanning_tree(d)
        assert list(zip(mst.i.tolist(), mst.j.tolist(), mst.w.tolist())) == kruskal_reference(d)

    @staticmethod
    def edges(mst):
        return list(zip(mst.i.tolist(), mst.j.tolist(), mst.w.tolist()))

    def test_equals_kruskal_reference_on_blobs(self):
        data, _ = generate_blobs(300, 3, [0.25, 0.5, 1.0], seed=17)
        x = data.values
        d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        assert self.edges(minimum_spanning_tree(d)) == kruskal_reference(d)

    def test_equals_kruskal_reference_on_integer_ties(self):
        rng = np.random.default_rng(18)
        n = 150
        d = np.triu(rng.integers(0, 6, size=(n, n)).astype(float), k=1)
        d += d.T
        assert self.edges(minimum_spanning_tree(d)) == kruskal_reference(d)

    def test_duplicate_points_keep_zero_weight_edges(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(40, 2))[rng.integers(0, 40, size=120)]
        d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        mst = minimum_spanning_tree(d)
        assert self.edges(mst) == kruskal_reference(d)
        assert (mst.w == 0.0).sum() == 120 - np.unique(x, axis=0).shape[0]

    def test_reads_the_upper_triangle(self):
        # only d[i, j], i < j, weighs the pair; the lower triangle is ignored
        rng = np.random.default_rng(20)
        d = np.triu(rng.random((30, 30)), k=1)
        d = d + d.T
        skewed = d + np.tril(rng.random((30, 30)), k=-1)
        assert self.edges(minimum_spanning_tree(skewed)) == kruskal_reference(d)

    def test_nan_rejected(self):
        d = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 2.0], [np.nan, 2.0, 0.0]])
        with pytest.raises(DomainError, match="NaN"):
            minimum_spanning_tree(d)

    def test_dot_export(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        dot = minimum_spanning_tree(d).to_dot(["a", "b"])
        assert '"a" -- "b"' in dot


class TestGenerateCircles:
    def test_noise_zero_exact_radii(self):
        dm, labels = generate_circles(40, noise=0.0, seed=1)
        r = np.linalg.norm(dm.values, axis=1)
        np.testing.assert_allclose(r[labels == 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(r[labels == 1], 0.4, atol=1e-12)

    def test_two_equal_classes(self):
        _, labels = generate_circles(500, seed=2)
        assert (labels == 0).sum() == 250 and (labels == 1).sum() == 250

    def test_deterministic_under_seed(self):
        a, _ = generate_circles(100, seed=3)
        b, _ = generate_circles(100, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_odd_n_rejected(self):
        with pytest.raises(DomainError):
            generate_circles(7)


class TestGenerateBlobs:
    def test_balanced_sizes_500(self):
        _, labels = generate_blobs(500, 3, [0.25, 0.5, 1.0], seed=4)
        sizes = sorted(np.bincount(labels), reverse=True)
        assert sizes == [167, 167, 166]

    def test_tiny_sigma_collapses_clusters(self):
        dm, labels = generate_blobs(30, 4, [1e-9, 1e-9, 1e-9], seed=5)
        for c in range(3):
            pts = dm.values[labels == c]
            spread = np.linalg.norm(pts - pts.mean(axis=0), axis=1).max()
            assert spread < 1e-6

    def test_centers_separated_high_dims(self):
        dm, labels = generate_blobs(60, 500, [0.25, 0.5, 1.0], seed=6)
        centers = np.array([dm.values[labels == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centers[i] - centers[j]) >= 10.0

    def test_deterministic_under_seed(self):
        a, la = generate_blobs(50, 3, [0.5, 1.0], seed=7)
        b, lb = generate_blobs(50, 3, [0.5, 1.0], seed=7)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(la, lb)
