import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_evaluation import kruskal_reference, tied_distances

from spinclust.dataset import CorrelationMatrix, DataMatrix
from spinclust.errors import DegenerateInputError, DomainError
from spinclust.similarity import (
    correlation_to_distance,
    euclidean_distances,
    mutual_knn_graph,
    similarity_from_distance,
    strength_matrix,
)


class TestEuclideanDistances:
    def test_identical_rows_zero(self):
        dm = DataMatrix(np.array([[1.0, 2.0], [1.0, 2.0]]), None)
        d = euclidean_distances(dm)
        assert d[0, 1] == 0.0

    def test_three_four_five(self):
        dm = DataMatrix(np.array([[0.0, 0.0], [3.0, 4.0]]), None)
        assert euclidean_distances(dm)[0, 1] == pytest.approx(5.0, abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(4, 3))
        d = euclidean_distances(DataMatrix(x, None))
        for i in range(4):
            for j in range(4):
                assert d[i, j] == pytest.approx(
                    float(np.linalg.norm(x[i] - x[j])), abs=1e-12)

    def test_masked_input_rejected(self):
        mask = np.ones((3, 2), dtype=bool)
        mask[0, 0] = False
        with pytest.raises(DomainError):
            euclidean_distances(DataMatrix(np.ones((3, 2)), mask))


class TestCorrelationToDistance:
    def test_endpoints(self):
        c = CorrelationMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), "pearson")
        assert correlation_to_distance(c)[0, 1] == 0.0
        c = CorrelationMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]), "pearson")
        assert correlation_to_distance(c)[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_half_correlation(self):
        c = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), "pearson")
        assert correlation_to_distance(c)[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_triangle_inequality_on_random_psd(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.normal(size=(6, 40))
            c = CorrelationMatrix(np.corrcoef(x), "pearson")
            d = correlation_to_distance(c)
            for i in range(6):
                for j in range(6):
                    for k in range(6):
                        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestSimilarityFromDistance:
    def test_endpoints(self):
        d = np.array([[0.0, 1.0, 2.0],
                      [1.0, 0.0, 4.0],
                      [2.0, 4.0, 0.0]])
        s = similarity_from_distance(d)
        assert s.values[0, 1] == pytest.approx(0.75)
        assert s.values[0, 2] == pytest.approx(0.5)
        assert s.values[1, 2] == pytest.approx(0.0)
        np.testing.assert_array_equal(np.diag(s.values), 1.0)
        assert s.kind == "similarity_from_distance"

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            similarity_from_distance(np.zeros((3, 3)))


def brute_mutual_knn(d, k):
    """Brute-force oracle for the mutual edge set (before MST merge)."""
    n = d.shape[0]
    edges = set()
    ranks = []
    for i in range(n):
        cand = sorted((d[i, j], j) for j in range(n) if j != i)
        ranks.append({j for _, j in cand[:k]})
    for i in range(n):
        for j in range(i + 1, n):
            if j in ranks[i] and i in ranks[j]:
                edges.add((i, j))
    return edges


class TestMutualKnnGraph:
    def test_two_coincident_pairs_bridged(self):
        pts = np.array([[0.0], [0.0], [100.0], [100.0]])
        d = np.abs(pts - pts.T)
        g = mutual_knn_graph(d, k=1)
        pairs = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
        assert (0, 1) in pairs and (2, 3) in pairs
        assert len(pairs) == 3  # one MST bridge added
        assert g.k_hat == pytest.approx(2 * 3 / 4)

    def test_collinear_oracle(self):
        pts = np.array([[0.0], [1.0], [2.0], [10.0]])
        d = np.abs(pts - pts.T)
        g = mutual_knn_graph(d, k=1)
        mutual = brute_mutual_knn(d, 1)
        assert mutual == {(0, 1)}  # ties break to the lower index
        pairs = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
        # mutual edges plus the chain MST
        assert pairs == {(0, 1), (1, 2), (2, 3)}
        assert g.length_scale_a == pytest.approx((1 + 1 + 8) / 3)

    def test_symmetric_and_connected(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            x = rng.normal(size=(30, 3))
            d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
            g = mutual_knn_graph(d, k=3)
            # connectivity via union-find over edges
            parent = list(range(30))

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for i, j in zip(g.edge_i, g.edge_j):
                parent[find(int(i))] = find(int(j))
            assert len({find(v) for v in range(30)}) == 1
            # every mutual pair from the oracle is present
            for (i, j) in brute_mutual_knn(d, 3):
                assert (i, j) in set(zip(g.edge_i.tolist(), g.edge_j.tolist()))

    def test_every_node_has_an_edge(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(20, 2))
        d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        g = mutual_knn_graph(d, k=2)
        touched = set(g.edge_i.tolist()) | set(g.edge_j.tolist())
        assert touched == set(range(20))

    @given(st.data())
    def test_equals_brute_mutual_knn_plus_reference_mst(self, data):
        d = data.draw(tied_distances())
        n = d.shape[0]
        k = data.draw(st.integers(1, n - 1))
        pairs = sorted(brute_mutual_knn(d, k) | {(i, j) for i, j, _ in kruskal_reference(d)})
        ei = np.array([i for i, _ in pairs], dtype=int)
        ej = np.array([j for _, j in pairs], dtype=int)
        ed = d[ei, ej]
        if ed.max() <= 0.0:
            with pytest.raises(DegenerateInputError):
                mutual_knn_graph(d, k)
            return
        g = mutual_knn_graph(d, k)
        np.testing.assert_array_equal(g.edge_i, ei)
        np.testing.assert_array_equal(g.edge_j, ej)
        np.testing.assert_array_equal(g.edge_dist, ed)
        assert g.edge_i.dtype == ei.dtype and g.edge_j.dtype == ej.dtype
        assert g.k_hat == 2.0 * len(pairs) / n
        assert g.length_scale_a == float(ed.mean())

    def test_bad_k_rejected(self):
        d = np.zeros((5, 5))
        with pytest.raises(DomainError):
            mutual_knn_graph(d, k=0)
        with pytest.raises(DomainError):
            mutual_knn_graph(d, k=5)


class TestStrengthMatrix:
    def graph_from_points(self, pts, k=2):
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        return mutual_knn_graph(d, k=k), d

    def test_zero_distance_edge(self):
        # force an edge of length zero: coincident points
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g, d = self.graph_from_points(pts, k=1)
        s = strength_matrix(g, d)
        zero_edges = s.j[g.edge_dist == 0.0]
        np.testing.assert_allclose(zero_edges, 1.0 / g.k_hat)

    def test_strength_at_length_scale(self):
        # J(d = a) = exp(-1/2) / k_hat; frozen 0.1 * 0.6065... for k_hat = 10
        rng = np.random.default_rng(24)
        x = rng.normal(size=(40, 2))
        d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        g = mutual_knn_graph(d, k=10)
        s = strength_matrix(g, d)
        expected = math.exp(-0.5) / g.k_hat
        j_at_a = np.exp(-0.5 * (g.length_scale_a / g.length_scale_a) ** 2) / g.k_hat
        assert j_at_a == pytest.approx(expected, rel=1e-15)
        assert s.j.min() > 0.0

    def test_monotone_decreasing_in_distance(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(25, 3))
        d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        g = mutual_knn_graph(d, k=4)
        s = strength_matrix(g, d)
        order = np.argsort(g.edge_dist)
        assert np.all(np.diff(s.j[order]) <= 1e-15)

    def test_invariant_under_global_rescale(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(20, 2))
        d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        g1 = mutual_knn_graph(d, k=3)
        g2 = mutual_knn_graph(50.0 * d, k=3)
        s1 = strength_matrix(g1)
        s2 = strength_matrix(g2)
        np.testing.assert_allclose(s1.j, s2.j, rtol=1e-12)
