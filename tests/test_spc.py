import hashlib
import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclust.errors import DomainError
from spinclust.evaluation import generate_blobs
from spinclust.similarity import euclidean_distances, mutual_knn_graph, strength_matrix
from spinclust.spc import (
    BondConfiguration,
    _block_edges,
    _components,
    _sw_move,
    bond_probability,
    extended_hoshen_kopelman,
    extract_clusters,
    hamiltonian,
    magnetization,
    run_temperature,
    spin_spin_correlation,
    sweep_from_json,
    sweep_to_json,
    temperature_sweep,
)


def bfs_components(n, edges):
    """Breadth-first component labeling, first-visit order; the oracle."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    labels = [-1] * n
    nxt = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = nxt
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = nxt
                    queue.append(w)
        nxt += 1
    return np.array(labels)


def random_graph(rng, n_max=200):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, 3 * n))
    ei = rng.integers(0, n, size=m)
    ej = rng.integers(0, n, size=m)
    keep = ei != ej
    return n, ei[keep], ej[keep]


def small_strength_graph(n=30, seed=0, k=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    return strength_matrix(mutual_knn_graph(d, k=k))


def sw_step(spins, strengths, t, q, rng):
    """One Swendsen-Wang move of a single replica through the kernel's move."""
    g = strengths.graph
    spins = np.asarray(spins)[None, :]
    rows, cols = _block_edges(g.edge_i, g.edge_j, g.n, 1)
    same = spins[:, g.edge_i] == spins[:, g.edge_j]
    p_edge = bond_probability(strengths.j, t)[None, :]
    new_spins, labels = _sw_move(same, p_edge, rows, cols, g.n, q, [rng])
    return new_spins[0], labels[0]


class TestBondProbability:
    def test_different_spins_zero(self):
        # no bond between unlike spins is ever active: every Swendsen-Wang
        # cluster carries one old spin value, and at saturated bond
        # probability the clusters are exactly the same-spin components
        s = small_strength_graph(n=40, seed=33, k=4)
        ei, ej = s.graph.edge_i, s.graph.edge_j
        rng = np.random.default_rng(34)
        for t in (1e-9, 0.05, 0.5):
            spins = rng.integers(1, 4, size=s.n)
            _, labels = sw_step(spins, s, t, 3, rng)
            assert all(np.unique(spins[labels == c]).size == 1 for c in np.unique(labels))
        same = spins[ei] == spins[ej]
        _, labels = sw_step(spins, s, 1e-9, 3, rng)
        want = bfs_components(s.n, zip(ei[same].tolist(), ej[same].tolist()))
        np.testing.assert_array_equal(labels, want)

    def test_half_at_log_two(self):
        assert bond_probability(math.log(2.0), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturates_at_one(self):
        assert bond_probability(1.0, 1e-12) == pytest.approx(1.0)

    def test_bad_temperature(self):
        with pytest.raises(DomainError, match="temperature"):
            bond_probability(1.0, 0.0)
        with pytest.raises(DomainError, match="temperature"):
            bond_probability([1.0, 2.0], [[0.5], [-1.0]])
        with pytest.raises(DomainError, match="bond strength"):
            bond_probability([1.0, -0.1], 0.5)

    def test_broadcasts_over_temperatures(self):
        j = np.array([0.0, 0.5, 2.0])
        t = np.array([0.1, 1.0])
        p = bond_probability(j, t[:, None])
        assert p.shape == (2, 3)
        for row, tk in zip(p, t):
            np.testing.assert_array_equal(row, [bond_probability(x, tk) for x in j])


class TestExtendedHoshenKopelman:
    def test_no_bonds_gives_singletons(self):
        bonds = BondConfiguration(4, np.array([0, 1]), np.array([1, 2]),
                                  np.array([False, False]))
        labels = extended_hoshen_kopelman(bonds)
        np.testing.assert_array_equal(labels, [0, 1, 2, 3])

    def test_chain_single_cluster(self):
        bonds = BondConfiguration(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                                  np.array([True, True, True]))
        labels = extended_hoshen_kopelman(bonds)
        np.testing.assert_array_equal(labels, [0, 0, 0, 0])

    def test_first_visit_sequential_labels(self):
        # component containing node 0 gets label 0 even if built from high indices
        bonds = BondConfiguration(5, np.array([3, 0]), np.array([4, 2]),
                                  np.array([True, True]))
        labels = extended_hoshen_kopelman(bonds)
        np.testing.assert_array_equal(labels, [0, 1, 0, 2, 2])

    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            n, ei, ej = random_graph(rng)
            bonds = BondConfiguration(n, ei, ej, np.ones(ei.size, dtype=bool))
            got = extended_hoshen_kopelman(bonds)
            want = bfs_components(n, zip(ei.tolist(), ej.tolist()))
            np.testing.assert_array_equal(got, want)


def assert_components(n, rows, cols):
    """``_components`` on (rows, cols) equals the BFS oracle, count and labels."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    count, labels = _components(n, rows, cols)
    want = bfs_components(n, zip(rows.tolist(), cols.tolist()))
    np.testing.assert_array_equal(labels, want)
    assert count == (int(want.max()) + 1 if n else 0)


def sparse_forest(seed=3, n=300, m=200):
    """Many small components, most of them trees that need several hook rounds."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, n, size=(2, m))
    keep = rows != cols
    return n, rows[keep], cols[keep]


class TestComponents:
    """Guards of the union-find labeler against the BFS oracle."""

    @pytest.mark.parametrize("n", [17, 5000])
    @pytest.mark.parametrize("order", ["ordered", "reversed", "permuted"])
    def test_two_paths(self, n, order):
        # two paths, over the first and the second half of the ids in this order
        ids = {"ordered": np.arange(n), "reversed": np.arange(n)[::-1],
               "permuted": np.random.default_rng(n).permutation(n)}[order]
        halves = ids[: n // 2], ids[n // 2:]
        rows = np.concatenate([h[:-1] for h in halves])
        cols = np.concatenate([h[1:] for h in halves])
        assert_components(n, rows, cols)

    def test_star_around_a_middle_node(self):
        n, hub = 41, 20
        leaves = np.delete(np.arange(n), hub)
        assert_components(n + 3, np.full(leaves.size, hub), leaves)

    @pytest.mark.parametrize("shape", ["duplicates", "self_loops", "rows_above_cols",
                                       "unsorted_rows"])
    def test_edge_list_shapes(self, shape):
        n, rows, cols = sparse_forest()
        if shape == "duplicates":
            rows, cols = np.concatenate([rows, cols, rows]), np.concatenate([cols, rows, cols])
        elif shape == "self_loops":
            rows, cols = np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)])
        elif shape == "rows_above_cols":
            rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        else:
            order = np.argsort(rows, kind="stable")[::-1]
            rows, cols = rows[order], cols[order]
        assert_components(n, rows, cols)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_no_edges(self, n):
        empty = np.array([], dtype=np.int64)
        count, labels = _components(n, empty, empty)
        assert count == n
        np.testing.assert_array_equal(labels, np.arange(n))

    def test_single_node_with_self_loop(self):
        assert_components(1, [0, 0], [0, 0])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=2 * n))))
    def test_matches_csgraph(self, case):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        n, edges = case
        rows = np.array([a for a, _ in edges], dtype=np.int64)
        cols = np.array([b for _, b in edges], dtype=np.int64)
        want_count, want = connected_components(
            coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)), directed=False)
        count, labels = _components(n, rows, cols)
        assert count == want_count
        np.testing.assert_array_equal(labels, want)


@st.composite
def block_union(draw):
    """R bond graphs over one shared edge list sorted by edge_i, as the kernel sees them."""
    n = draw(st.integers(1, 25))
    r = draw(st.integers(1, 5))
    pairs = sorted(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                 max_size=3 * n)))
    active = draw(st.lists(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
                           min_size=r, max_size=r))
    ei = np.array([a for a, _ in pairs], dtype=np.int64)
    ej = np.array([b for _, b in pairs], dtype=np.int64)
    return n, ei, ej, np.array(active, dtype=bool).reshape(r, len(pairs))


class TestBlockLabeler:
    @settings(max_examples=300, deadline=None)
    @given(block_union())
    def test_block_diagonal_union_matches_bfs_per_block(self, case):
        n, ei, ej, active = case
        r = active.shape[0]
        rows, cols = _block_edges(ei, ej, n, r)
        count, labels = _components(r * n, rows[active], cols[active])
        blocks = labels.reshape(r, n)
        total = 0
        for k in range(r):
            want = bfs_components(n, zip(ei[active[k]].tolist(), ej[active[k]].tolist()))
            np.testing.assert_array_equal(blocks[k] - blocks[k, 0], want)
            assert blocks[k, 0] == total  # blocks number their clusters in order
            total += int(want.max()) + 1
        assert count == total


class TestSwendsenWangStep:
    def test_hot_limit_all_singletons(self):
        s = small_strength_graph()
        _, labels = sw_step(np.ones(30, dtype=int), s, 1e9, 20, np.random.default_rng(0))
        assert labels.max() == 29

    def test_cold_limit_single_cluster(self):
        s = small_strength_graph()
        _, labels = sw_step(np.full(30, 7), s, 1e-9, 20, np.random.default_rng(0))
        assert labels.max() == 0

    def test_deterministic_under_seed(self):
        s = small_strength_graph()
        spins = np.ones(30, dtype=int)
        out1, lab1 = sw_step(spins, s, 0.05, 20, np.random.default_rng(42))
        out2, lab2 = sw_step(spins, s, 0.05, 20, np.random.default_rng(42))
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(lab1, lab2)

    def test_new_spins_in_range(self):
        s = small_strength_graph()
        out, _ = sw_step(np.ones(30, dtype=int), s, 0.1, 5, np.random.default_rng(1))
        assert out.min() >= 1 and out.max() <= 5


class TestMagnetization:
    def test_single_cluster(self):
        assert magnetization(np.zeros(50, dtype=int), q=20) == 1.0

    def test_balanced_at_n_over_q(self):
        labels = np.repeat(np.arange(20), 5)  # N=100, largest part 5
        assert magnetization(labels, q=20) == 0.0

    def test_half_dominant(self):
        labels = np.array([0] * 50 + list(range(1, 51)))  # N=100, N_max=50
        assert magnetization(labels, q=20) == pytest.approx(900 / 1900, abs=1e-15)

    def test_rows_of_replicas(self):
        rng = np.random.default_rng(35)
        spins = rng.integers(1, 21, size=(6, 40))
        spins[2] = 4  # one ordered replica
        m = magnetization(spins, q=20)
        assert m.shape == (6,) and m[2] == 1.0
        np.testing.assert_array_equal(m, [magnetization(row, q=20) for row in spins])
        with pytest.raises(DomainError, match="q must"):
            magnetization(spins, q=1)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=30), st.integers(1, 4))
    def test_large_values_counted_as_ranks(self, values, copies):
        # values past N count as their ranks do: only the populations matter
        rows = np.array([values] * copies)
        ranks = np.unique(rows, return_inverse=True)[1].reshape(rows.shape)
        np.testing.assert_array_equal(magnetization(rows, q=20), magnetization(ranks, q=20))

    def test_memory_grows_with_n_not_q(self):
        spins = np.array([[1, 10**7, 10**7, 3]])
        tracemalloc.start()
        try:
            m = magnetization(spins, q=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == pytest.approx((2 * 10**7 - 4) / ((10**7 - 1) * 4), rel=1e-15)
        assert peak < 1 << 20


class TestHamiltonian:
    def test_aligned_is_zero(self):
        s = small_strength_graph()
        assert hamiltonian(np.full(30, 3), s) == 0.0

    def test_triangle_hand_value(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        s = strength_matrix(mutual_knn_graph(d, k=2))
        s.j[:] = 0.3  # uniform bonds on the triangle
        # edges (0,2) and (1,2) unsatisfied -> (0.3 + 0.3) / 3
        assert hamiltonian(np.array([1, 1, 2]), s) == pytest.approx(0.2, abs=1e-15)

    def test_bounded_by_h_max(self):
        s = small_strength_graph(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = hamiltonian(rng.integers(1, 21, size=30), s)
            assert 0.0 <= h <= s.h_max + 1e-12


class TestSpinSpinCorrelation:
    def test_always_together(self):
        g = spin_spin_correlation(np.array([10, 10]), 10, q=20)
        np.testing.assert_array_equal(g, [1.0, 1.0])

    def test_never_together(self):
        g = spin_spin_correlation(np.array([0]), 10, q=20)
        assert g[0] == pytest.approx(0.05, abs=1e-15)

    def test_half(self):
        g = spin_spin_correlation(np.array([5]), 10, q=20)
        assert g[0] == pytest.approx(0.525, abs=1e-15)

    def test_range_and_symmetry(self):
        # per-edge counts give G in [1/q, 1], and the same value the symmetric
        # N x N count matrix gives on either orientation of the edge
        graph = small_strength_graph(n=12, seed=5).graph
        rng = np.random.default_rng(5)
        c = rng.integers(0, 11, size=(12, 12))
        c = np.triu(c) + np.triu(c, 1).T
        np.fill_diagonal(c, 10)
        ei, ej = graph.edge_i, graph.edge_j
        g = spin_spin_correlation(c[ei, ej], 10, q=20)
        assert g.min() >= 1 / 20 - 1e-15 and g.max() <= 1.0 + 1e-15
        full = spin_spin_correlation(c, 10, q=20)
        np.testing.assert_array_equal(g, full[ei, ej])
        np.testing.assert_array_equal(g, full[ej, ei])


def brute_extract(edge_g, theta, graph):
    """Oracle: explicit edge construction + BFS components."""
    n = graph.n
    pairs = list(zip(graph.edge_i.tolist(), graph.edge_j.tolist()))
    g_of = {}
    edges = []
    has = [False] * n
    for (i, j), g in zip(pairs, edge_g):
        g_of[i, j] = g_of[j, i] = g
        if g > theta:
            edges.append((i, j))
            has[i] = has[j] = True
    for v in range(n):
        if not has[v]:
            nbrs = sorted({j for i, j in pairs if i == v} | {i for i, j in pairs if j == v})
            best = max(nbrs, key=lambda u: (g_of[v, u], -u))
            edges.append((v, best))
    return bfs_components(n, edges)


class TestExtractClusters:
    def make_graph(self, n=6):
        pts = np.arange(n, dtype=float).reshape(-1, 1)
        d = np.abs(pts - pts.T)
        return mutual_knn_graph(d, k=2)

    def test_block_structure_recovered(self):
        graph = self.make_graph()
        same_block = (graph.edge_i < 3) == (graph.edge_j < 3)
        g = np.where(same_block, 0.9, 0.05)
        labels = extract_clusters(g, 0.5, graph)
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])

    def test_flat_g_matches_bruteforce(self):
        graph = self.make_graph()
        g = np.full(graph.n_edges, 0.05)
        got = extract_clusters(g, 0.5, graph)
        want = brute_extract(g, 0.5, graph)
        np.testing.assert_array_equal(got, want)

    def test_high_theta_uses_fallback(self):
        graph = self.make_graph()
        rng = np.random.default_rng(6)
        g = rng.uniform(0.0, 0.95, size=graph.n_edges)
        got = extract_clusters(g, 0.99, graph)
        want = brute_extract(g, 0.99, graph)
        np.testing.assert_array_equal(got, want)

    def test_fallback_ties_go_to_lowest_neighbor(self):
        graph = small_strength_graph(n=40, seed=31, k=4).graph
        rng = np.random.default_rng(32)
        for _ in range(50):
            g = rng.choice([0.1, 0.3, 0.6, 0.9], size=graph.n_edges)
            for theta in (0.2, 0.5, 0.95):
                np.testing.assert_array_equal(extract_clusters(g, theta, graph),
                                              brute_extract(g, theta, graph))

    def test_theta_bounds(self):
        graph = self.make_graph()
        with pytest.raises(DomainError):
            extract_clusters(np.ones(graph.n_edges), 0.0, graph)
        with pytest.raises(DomainError):
            extract_clusters(np.ones(graph.n_edges), 1.0, graph)


class TestRunTemperature:
    def test_ferromagnetic_limit(self):
        s = small_strength_graph(n=50, seed=7, k=4)
        st = run_temperature(s, 1e-6, m_steps=200, burn_in=40, q=20, seed=8)
        assert st.mean_magnetization > 0.95

    def test_paramagnetic_limit(self):
        s = small_strength_graph(n=50, seed=7, k=4)
        st = run_temperature(s, 1e3, m_steps=200, burn_in=40, q=20, seed=8)
        assert abs(st.mean_magnetization) < 0.1

    def test_energy_samples_within_bounds(self):
        s = small_strength_graph(n=40, seed=9, k=3)
        st = run_temperature(s, 0.08, m_steps=300, burn_in=50, q=20, seed=10)
        assert st.energy_samples.min() >= 0.0
        assert st.energy_samples.max() <= s.h_max + 1e-12
        assert st.n_samples == 250

    def test_edge_g_invariants(self):
        s = small_strength_graph(n=25, seed=11, k=3)
        st = run_temperature(s, 0.05, m_steps=200, burn_in=50, q=20, seed=12)
        g = st.edge_g
        assert g.shape == (s.graph.n_edges,)
        assert g.min() >= 1 / 20 - 1e-15 and g.max() <= 1.0 + 1e-15
        np.testing.assert_array_equal(st.edge_i, s.graph.edge_i)
        np.testing.assert_array_equal(st.edge_j, s.graph.edge_j)
        # G takes only the values ((q - 1) * c / S + 1) / q for integer counts c
        c = (g * 20 - 1) / 19 * st.n_samples
        np.testing.assert_allclose(c, np.round(c), atol=1e-9)

    def test_edge_g_matches_full_two_point(self):
        # replay the chain one step at a time and count co-membership over
        # all N x N pairs; the kernel's per-edge counts are that matrix on edges
        s = small_strength_graph(n=30, seed=25, k=3)
        q, t, m_steps, burn_in = 20, 0.06, 120, 30
        st = run_temperature(s, t, m_steps=m_steps, burn_in=burn_in, q=q, seed=26)
        rng = np.random.default_rng(26)
        spins = rng.integers(1, q + 1, size=s.n)
        two_point = np.zeros((s.n, s.n), dtype=np.int64)
        energies, mags = [], []
        for step in range(m_steps):
            spins, labels = sw_step(spins, s, t, q, rng)
            if step >= burn_in:
                two_point += labels[:, None] == labels[None, :]
                energies.append(hamiltonian(spins, s))
                mags.append(magnetization(spins, q))
        full = spin_spin_correlation(two_point, m_steps - burn_in, q)
        np.testing.assert_array_equal(st.edge_g, full[s.graph.edge_i, s.graph.edge_j])
        np.testing.assert_array_equal(st.energy_samples, energies)
        assert st.mean_magnetization == sum(mags) / len(mags)

    def test_deterministic_bit_for_bit(self):
        s = small_strength_graph(n=30, seed=13, k=3)
        a = run_temperature(s, 0.07, m_steps=150, burn_in=30, q=20, seed=99)
        b = run_temperature(s, 0.07, m_steps=150, burn_in=30, q=20, seed=99)
        assert a.mean_magnetization == b.mean_magnetization
        assert a.susceptibility == b.susceptibility
        np.testing.assert_array_equal(a.energy_samples, b.energy_samples)
        np.testing.assert_array_equal(a.edge_g, b.edge_g)
        np.testing.assert_array_equal(a.labeling, b.labeling)

    def test_bad_arguments(self):
        s = small_strength_graph()
        with pytest.raises(DomainError):
            run_temperature(s, -0.1)
        with pytest.raises(DomainError):
            run_temperature(s, 0.1, m_steps=10, burn_in=10)
        with pytest.raises(DomainError, match="q must"):
            run_temperature(s, 0.1, m_steps=10, burn_in=2, q=1)
        with pytest.raises(DomainError, match="theta"):
            run_temperature(s, 0.1, m_steps=10, burn_in=2, theta=1.5)


class TestTemperatureSweep:
    def test_monotone_limit_property(self):
        for seed in (14, 15, 16):
            s = small_strength_graph(n=50, seed=seed, k=4)
            sweep = temperature_sweep(s, [1e-6, 1e3], m_steps=150, burn_in=30,
                                      q=20, seed=seed)
            assert sweep[0].mean_magnetization > sweep[1].mean_magnetization

    def test_grid_validation(self):
        s = small_strength_graph()
        with pytest.raises(DomainError):
            temperature_sweep(s, [])
        with pytest.raises(DomainError):
            temperature_sweep(s, [0.2, 0.1])
        with pytest.raises(DomainError):
            temperature_sweep(s, [-0.1, 0.2])
        with pytest.raises(DomainError, match="temperature must be positive"):
            temperature_sweep(s, [-0.1, 0.2], m_steps=20, burn_in=5, workers=2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(3))
    def test_non_finite_temperature_rejected(self, value, position):
        grid = [0.01, 0.02, 0.03]
        grid[position] = value
        with pytest.raises(DomainError, match="finite and strictly increasing"):
            temperature_sweep(small_strength_graph(), grid, m_steps=20, burn_in=5)

    def test_susceptibility_low_at_both_grid_ends(self):
        # uniform ring: clean ordered phase at the cold end, disorder at the hot end
        n = 40
        theta = 2 * np.pi * np.arange(n) / n
        x = np.c_[np.cos(theta), np.sin(theta)]
        d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        s = strength_matrix(mutual_knn_graph(d, k=4))
        sweep = temperature_sweep(s, [0.005, 0.02, 0.1, 0.3, 10.0],
                                  m_steps=400, burn_in=200, q=20, seed=18)
        chis = [st.susceptibility for st in sweep]
        peak = max(chis)
        assert peak > 0.5                      # a transition happens mid-grid
        assert chis[0] < 0.05 * peak
        assert chis[-1] < 0.05 * peak

    def test_sweep_matches_individual_runs(self):
        s = small_strength_graph(n=25, seed=19, k=3)
        grid = [0.02, 0.08]
        sweep = temperature_sweep(s, grid, m_steps=100, burn_in=20, q=20, seed=20)
        solo = run_temperature(s, 0.08, m_steps=100, burn_in=20, q=20,
                               seed=np.random.SeedSequence((20, 1)))
        assert sweep[1].mean_magnetization == solo.mean_magnetization
        np.testing.assert_array_equal(sweep[1].labeling, solo.labeling)

    def test_parallel_workers_match_serial(self):
        s = small_strength_graph(n=25, seed=23, k=3)
        grid = [0.03, 0.06, 0.09]
        serial = temperature_sweep(s, grid, m_steps=80, burn_in=20, q=20, seed=24)
        parallel = temperature_sweep(s, grid, m_steps=80, burn_in=20, q=20,
                                     seed=24, workers=2)
        for a, b in zip(serial, parallel):
            assert a.mean_magnetization == b.mean_magnetization
            assert a.susceptibility == b.susceptibility
            np.testing.assert_array_equal(a.labeling, b.labeling)
            np.testing.assert_array_equal(a.energy_samples, b.energy_samples)

    # sweep_to_json of this instance, recorded before the chain became one
    # lockstep kernel; any worker count must reproduce it byte for byte
    GOLDEN_SHA256 = "fd1a774d2af6f0eea3a228a26c8611c4d911455e56d9c1149cd1110f668bac74"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_golden_sweep_json(self, workers):
        data, _ = generate_blobs(60, 3, [0.25, 0.5, 1.0], seed=3)
        dist = euclidean_distances(data)
        s = strength_matrix(mutual_knn_graph(dist, k=6))
        sweep = temperature_sweep(s, [0.005, 0.03, 0.06, 0.12], m_steps=200, burn_in=50,
                                  q=20, seed=5, workers=workers)
        doc = sweep_to_json(sweep, params={"seed": 5})
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == self.GOLDEN_SHA256

    def test_dump_g_round_trip(self):
        s = small_strength_graph(n=20, seed=27, k=3)
        sweep = temperature_sweep(s, [0.05, 0.1], m_steps=80, burn_in=20, q=20, seed=28)
        doc = json.loads(json.dumps(sweep_to_json(sweep, with_g=True)))
        rec = doc["records"][0]
        assert len(rec["g_edges"]) == s.graph.n_edges
        i, j, g = rec["g_edges"][0]
        assert (i, j, g) == (s.graph.edge_i[0], s.graph.edge_j[0], sweep[0].edge_g[0])
        back = sweep_from_json(doc)
        for a, b in zip(back, sweep):
            np.testing.assert_array_equal(a.edge_i, b.edge_i)
            np.testing.assert_array_equal(a.edge_j, b.edge_j)
            np.testing.assert_array_equal(a.edge_g, b.edge_g)
        assert sweep_to_json(back, with_g=True) == doc

    def test_json_round_trip(self):
        s = small_strength_graph(n=20, seed=21, k=3)
        sweep = temperature_sweep(s, [0.05, 0.1], m_steps=80, burn_in=20,
                                  q=20, seed=22)
        doc = sweep_to_json(sweep, params={"q": 20})
        back = sweep_from_json(doc)
        assert len(back) == 2
        assert back[0].temperature == sweep[0].temperature
        assert back[1].mean_magnetization == sweep[1].mean_magnetization
        np.testing.assert_array_equal(back[0].labeling, sweep[0].labeling)
        np.testing.assert_array_equal(back[1].energy_samples, sweep[1].energy_samples)
