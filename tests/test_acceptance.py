"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo sweeps on
the 500-point synthetics dominate the runtime (a few minutes each on one
core); fixtures are session-scoped so the three sweeps run once.
"""

import math
import time
from collections import deque

import numpy as np
import pytest

from spinclust.dataset import CorrelationMatrix
from spinclust.evaluation import (
    adjusted_rand_index,
    generate_blobs,
    generate_circles,
    minimum_spanning_tree,
)
from spinclust.fspc import ga_run, likelihood, sequentialize
from spinclust.preprocess import min_max_scale, wishart_bounds
from spinclust.similarity import (
    euclidean_distances,
    mutual_knn_graph,
    similarity_from_distance,
    strength_matrix,
)
from spinclust.spc import (
    BondConfiguration,
    extended_hoshen_kopelman,
    run_temperature,
    temperature_sweep,
)
from spinclust.thermo import bin_count, energy_histogram, free_energy
from spinclust.validation import lc_vs_temperature, phase_report

Q = 20
THETA = 0.5
K = 10
M_STEPS = 2000
BURN_IN = 400

# grid reaching below the first transition so the leading chi peak is interior
LOW_GRID = [0.001, 0.002, 0.003, 0.004] + [round(0.005 * i, 6) for i in range(1, 51)]
CIRCLES_GRID = [round(0.005 * i, 6) for i in range(1, 51)]  # the 50-point grid


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def sweep_on(data, grid, seed, k=K):
    dist = euclidean_distances(data)
    strengths = strength_matrix(mutual_knn_graph(dist, k=k))
    return temperature_sweep(strengths, grid, m_steps=M_STEPS, burn_in=BURN_IN,
                             q=Q, theta=THETA, seed=seed)


@pytest.fixture(scope="session")
def circles_case():
    data, truth = generate_circles(500, noise=0.5, seed=7)
    t0 = time.time()
    sweep = sweep_on(data, CIRCLES_GRID, seed=1)
    return {"truth": truth, "sweep": sweep, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def blobs3_case():
    data, truth = generate_blobs(500, 3, [0.25, 0.5, 1.0], seed=13)
    sim = similarity_from_distance(euclidean_distances(data))
    sweep = sweep_on(data, LOW_GRID, seed=2)
    return {"truth": truth, "sim": sim, "sweep": sweep}


@pytest.fixture(scope="session")
def blobs500_case():
    data, truth = generate_blobs(500, 500, [0.25, 0.5, 1.0], seed=13)
    sim = similarity_from_distance(euclidean_distances(data))
    sweep = sweep_on(data, LOW_GRID, seed=3)
    return {"truth": truth, "sim": sim, "sweep": sweep}


class TestCriterion1Circles:
    def test_two_rings_recovered(self, circles_case):
        truth = circles_case["truth"]
        hits = []
        for st in circles_case["sweep"]:
            sizes = st.cluster_sizes
            if len(sizes) != 2:
                continue
            if all(abs(s - 250) <= 5 for s in sizes):
                ari = adjusted_rand_index(st.labeling, truth)
                if ari >= 0.98:
                    hits.append((st.temperature, sizes, ari, st.mean_magnetization))
        elapsed = circles_case["elapsed"]
        # two equal rings in the intermediate phase sit at magnetization 1/2
        m_ok = bool(hits) and any(0.4 <= h[3] <= 0.6 for h in hits)
        ok = bool(hits) and m_ok and elapsed < 600
        detail = (f"{len(hits)} temperatures with 2 clusters of 250±5 and ARI>=0.98 "
                  f"(first: T={hits[0][0]:g}, sizes={hits[0][1]}, ARI={hits[0][2]:.3f}, "
                  f"m={hits[0][3]:.3f}); sweep took {elapsed:.0f}s" if hits else
                  f"no qualifying temperature; sweep took {elapsed:.0f}s")
        report("1 (circles reproduction)", ok, detail)


class TestCriterion2Blobs:
    def test_three_blobs_recovered_in_sp_phase(self, blobs3_case):
        truth = blobs3_case["truth"]
        sweep = blobs3_case["sweep"]
        chi = np.array([st.susceptibility for st in sweep])
        chi_floor = 0.1 * chi.max()
        target = [167, 166, 166]
        hits = []
        for st, c in zip(sweep, chi):
            sizes = st.cluster_sizes
            if len(sizes) != 3:
                continue
            if all(abs(a - b) <= 5 for a, b in zip(sizes, target)):
                ari = adjusted_rand_index(st.labeling, truth)
                if ari >= 0.98 and c >= chi_floor:
                    hits.append((st.temperature, sizes, ari))
        ok = bool(hits)
        detail = (f"T={hits[0][0]:g} gives 3 clusters {hits[0][1]} "
                  f"(target 167/166/166 ±5) with ARI={hits[0][2]:.3f} inside the "
                  f"SP phase" if hits else "no SP-phase temperature recovered the blobs")
        report("2 (blobs reproduction)", ok, detail)


class TestCriterion3HighDimFspc:
    def test_ga_recovers_ground_truth(self, blobs500_case):
        t0 = time.time()
        res = ga_run(blobs500_case["sim"], pop_size=100, max_generations=10000,
                     stall_generations=100, seed=7)
        elapsed = time.time() - t0
        ari = adjusted_rand_index(res.best_labels, blobs500_case["truth"])
        ok = ari >= 0.95 and elapsed < 600
        report("3 (high-D likelihood search)", ok,
               f"ARI={ari:.4f} vs ground truth after {res.generations_run} "
               f"generations in {elapsed:.0f}s (fitness {res.fitness:.2f})")


class TestCriterion4DimensionalityPhenomenon:
    def test_lc_argmax_placement(self, blobs3_case, blobs500_case):
        # high-D: likelihood peaks inside the SP phase (chi >= 10% of max)
        sweep5 = blobs500_case["sweep"]
        curve5 = lc_vs_temperature(sweep5, blobs500_case["sim"])
        chi5 = np.array([st.susceptibility for st in sweep5])
        lcs5 = np.array([v for _, v in curve5])
        i5 = int(np.argmax(lcs5))
        highd_ok = chi5[i5] >= 0.1 * chi5.max()

        # low-D: likelihood keeps rising past the last transition into the
        # chi-collapsed (paramagnetic) regime
        sweep3 = blobs3_case["sweep"]
        curve3 = lc_vs_temperature(sweep3, blobs3_case["sim"])
        chi3 = np.array([st.susceptibility for st in sweep3])
        lcs3 = np.array([v for _, v in curve3])
        i3 = int(np.argmax(lcs3))
        peaks = phase_report(sweep3).peaks
        # last located transition: the last prominent interior peak when one
        # exists, else the global chi maximum (transition at the grid edge;
        # well-separated clusters put the ferromagnetic phase below any
        # positive grid temperature)
        t_last = peaks[-1][0] if peaks else sweep3[int(np.argmax(chi3))].temperature
        lowd_ok = curve3[i3][0] > t_last and chi3[i3] < 0.1 * chi3.max()

        # the degeneracy behind it: on low-D data the ground truth is not
        # the likelihood maximizer
        truth_lc = likelihood(blobs3_case["truth"], blobs3_case["sim"])
        degeneracy_ok = lcs3.max() > truth_lc

        ok = highd_ok and lowd_ok and degeneracy_ok
        report("4 (dimensionality phenomenon)", ok,
               f"D=500 argmax L_c at T={curve5[i5][0]:g} with chi={chi5[i5]:.1f} "
               f"(>=10% of max {chi5.max():.1f}: {highd_ok}); "
               f"D=3 argmax L_c at T={curve3[i3][0]:g} past the last transition "
               f"T={t_last:g} with chi collapsed ({lowd_ok}); "
               f"max sweep L_c {lcs3.max():.1f} > truth {truth_lc:.1f} ({degeneracy_ok})")


def all_partitions(n):
    """Every set partition of range(n) as restricted-growth label rows."""
    out = []
    labels = np.zeros(n, dtype=np.int64)

    def rec(i, kmax):
        if i == n:
            out.append(labels.copy())
            return
        for v in range(kmax + 1):
            labels[i] = v
            rec(i + 1, max(kmax, v + 1))

    rec(0, 0) if n == 0 else rec(1, 1)
    return np.array(out)


def batched_lc(parts, c, chunk=20000):
    """Independent einsum-based likelihood of many partitions at once."""
    b, n = parts.shape
    out = np.empty(b)
    for lo in range(0, b, chunk):
        rows = parts[lo:lo + chunk]
        k = int(rows.max()) + 1
        onehot = (rows[:, :, None] == np.arange(k)).astype(float)
        cs = np.einsum("bik,ij,bjk->bk", onehot, c, onehot)
        ns = onehot.sum(axis=1)
        valid = (ns > 1) & (cs > ns)
        cs = np.minimum(cs, ns * ns - 1e-9)
        ns_safe = np.where(ns > 1, ns, 2.0)
        cs_safe = np.where(valid, cs, ns_safe + 1.0)
        terms = (np.log(ns_safe / cs_safe)
                 + (ns_safe - 1.0) * np.log((ns_safe * ns_safe - ns_safe)
                                            / (ns_safe * ns_safe - cs_safe)))
        out[lo:lo + chunk] = 0.5 * np.where(valid, terms, 0.0).sum(axis=1)
    return out


class TestCriterion5SmallInstanceOptimality:
    def test_ga_matches_exhaustive_enumeration(self):
        trials = 100
        wins = 0
        t0 = time.time()
        part_cache = {}
        for trial in range(trials):
            n = 5 + trial % 6  # 5..10; Bell(10) = 115975 keeps enumeration exact
            rng = np.random.default_rng(1000 + trial)
            x = rng.normal(size=(n, 3 * n))
            c = np.corrcoef(x)
            corr = CorrelationMatrix(c, "pearson")
            if n not in part_cache:
                part_cache[n] = all_partitions(n)
            parts = part_cache[n]
            values = batched_lc(parts, c)
            best_idx = int(np.argmax(values))
            oracle_labels = sequentialize(parts[best_idx])
            oracle_value = values[best_idx]

            res = ga_run(corr, pop_size=30, max_generations=5000,
                         stall_generations=200, seed=2000 + trial)
            tol = 1e-9 * max(1.0, abs(oracle_value))
            # exhaustive enumeration is an upper bound; exceeding it would
            # mean the enumeration or an evaluator is broken
            assert res.fitness <= oracle_value + tol
            if adjusted_rand_index(res.best_labels, oracle_labels) == 1.0:
                # identical partition: the package evaluation must agree exactly
                assert res.fitness == likelihood(oracle_labels, corr)
            # the argmax value is frequently degenerate (clusters whose
            # intra-correlation sum carries no structure contribute zero), so
            # a win is matching the maximum, not one specific representative
            if abs(res.fitness - oracle_value) <= tol:
                wins += 1
        ok = wins >= 95
        report("5 (small-instance global optimality)", ok,
               f"{wins}/100 trials reached the exhaustive maximum "
               f"(N in 5..10, {time.time() - t0:.0f}s)")


def bfs_components(n, edges):
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


def prim_weight(d):
    n = d.shape[0]
    in_tree = [0]
    out = set(range(1, n))
    total = 0.0
    while out:
        best = min(((d[i, j], j) for i in in_tree for j in out))
        total += best[0]
        in_tree.append(best[1])
        out.discard(best[1])
    return total


def ari_by_hand(a, b):
    ca, cb = sorted(set(a)), sorted(set(b))
    table = [[sum(1 for x, y in zip(a, b) if x == u and y == v) for v in cb] for u in ca]
    comb2 = lambda m: m * (m - 1) // 2
    sum_ij = sum(comb2(v) for row in table for v in row)
    sum_a = sum(comb2(sum(row)) for row in table)
    sum_b = sum(comb2(sum(table[i][j] for i in range(len(ca)))) for j in range(len(cb)))
    total = comb2(len(a))
    exp = sum_a * sum_b / total
    mx = (sum_a + sum_b) / 2
    return 1.0 if mx == exp else (sum_ij - exp) / (mx - exp)


class TestCriterion6OracleEquivalence:
    def test_component_labeling_vs_bfs(self):
        rng = np.random.default_rng(600)
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            m = int(rng.integers(0, 3 * n))
            ei = rng.integers(0, n, size=m)
            ej = rng.integers(0, n, size=m)
            keep = ei != ej
            ei, ej = ei[keep], ej[keep]
            bonds = BondConfiguration(n, ei, ej, np.ones(ei.size, dtype=bool))
            got = extended_hoshen_kopelman(bonds)
            want = bfs_components(n, zip(ei.tolist(), ej.tolist()))
            np.testing.assert_array_equal(got, want)
        report("6a (component labeling == BFS)", True,
               "1000 random bond graphs, exact equality")

    def test_kruskal_vs_prim(self):
        rng = np.random.default_rng(601)
        for _ in range(200):
            n = int(rng.integers(3, 31))
            pts = rng.normal(size=(n, 3))
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            mst = minimum_spanning_tree(d)
            assert abs(mst.total_weight - prim_weight(d)) <= 1e-12 * max(1.0, mst.total_weight)
        report("6b (Kruskal == Prim)", True, "200 random instances, 1e-12 relative")

    def test_ari_vs_hand_contingency(self):
        rng = np.random.default_rng(602)
        checked = 0
        while checked < 100:
            n = int(rng.integers(4, 40))
            a = rng.integers(0, 5, size=n).tolist()
            b = rng.integers(0, 5, size=n).tolist()
            got = adjusted_rand_index(a, b)
            want = ari_by_hand(a, b)
            assert abs(got - want) <= 1e-12
            checked += 1
        report("6c (ARI == hand contingency)", True, "100 random label pairs, 1e-12")


class TestCriterion7ThermodynamicIdentities:
    def test_free_energy_routes_agree_on_every_sweep_point(
            self, circles_case, blobs3_case, blobs500_case):
        points = 0
        worst = 0.0
        for case in (circles_case, blobs3_case, blobs500_case):
            for st in case["sweep"]:
                hist = energy_histogram(st.energy_samples, st.h_max)
                fd, fp = free_energy(hist, st.temperature)
                rel = abs(fd - fp) / max(1.0, abs(fp))
                worst = max(worst, rel)
                assert rel < 1e-9
                points += 1
        report("7a (free-energy identity)", True,
               f"{points} sweep points, worst relative gap {worst:.2e}")

    def test_magnetization_limits_on_connected_graphs(self):
        rng = np.random.default_rng(700)
        results = []
        for n, k in ((50, 4), (64, 5), (80, 6)):
            x = rng.normal(size=(n, 2))
            d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
            s = strength_matrix(mutual_knn_graph(d, k=k))
            cold = run_temperature(s, 1e-6, m_steps=400, burn_in=200, q=Q,
                                   seed=701).mean_magnetization
            hot = run_temperature(s, 1e3, m_steps=400, burn_in=200, q=Q,
                                  seed=702).mean_magnetization
            assert cold > 0.95 and hot < 0.1
            results.append((n, round(cold, 4), round(hot, 4)))
        report("7b (magnetization limits)", True,
               f"cold/hot magnetization per graph: {results}")

    def test_bin_count_reference(self):
        ok = bin_count(2000) == 19
        report("7c (bin-count rule)", ok, f"bin_count(2000) = {bin_count(2000)}")


class TestCriterion8WishartBounds:
    def test_stock_panel_bounds(self):
        b = wishart_bounds(447, 1249)
        ok = abs(b.lambda_min - 0.16) <= 0.005 and abs(b.lambda_max - 2.55) <= 0.005
        report("8 (Wishart bounds)", ok,
               f"lambda_min={b.lambda_min:.4f} (target 0.16±0.005), "
               f"lambda_max={b.lambda_max:.4f} (target 2.55±0.005)")


def _load_reference_dataset(name):
    """Wine/Iris from a user-supplied CSV next to the tests, else scikit-learn."""
    import os
    here = os.path.dirname(__file__)
    csv_path = os.path.join(here, "data", f"{name}.csv")
    if os.path.exists(csv_path):
        from spinclust.dataset import load_matrix
        dm = load_matrix(csv_path, has_header=True)
        labels = dm.values[:, -1].astype(int)
        return dm.values[:, :-1], labels, csv_path
    try:
        from sklearn import datasets
    except ImportError:
        return None
    bunch = datasets.load_wine() if name == "wine" else datasets.load_iris()
    return bunch.data, bunch.target, "scikit-learn loader"


class TestCriterion9SoftExternalTargets:
    @pytest.mark.parametrize("name,expected", [("wine", 66.97), ("iris", 104.0)])
    def test_reference_label_likelihood(self, name, expected):
        loaded = _load_reference_dataset(name)
        if loaded is None:
            pytest.skip(f"no {name} CSV supplied and scikit-learn unavailable")
        x, labels, source = loaded
        from spinclust.dataset import DataMatrix
        x = np.asarray(x, dtype=float)
        labels = np.asarray(labels)
        scaled = min_max_scale(DataMatrix(x, None))
        sim = similarity_from_distance(euclidean_distances(scaled))
        lc = likelihood(labels, sim)
        within = abs(lc - expected) <= 0.15 * expected
        # the documented alternative constructions: correlation of min-max or
        # z-scored features (wine reproduces its reported value exactly under
        # the former, iris lands within a few percent under the latter)
        alt_minmax = likelihood(labels, CorrelationMatrix(
            np.clip(np.corrcoef(scaled.values), -1.0, 1.0), "pearson"))
        z = (x - x.mean(axis=0)) / x.std(axis=0)
        alt_z = likelihood(labels, CorrelationMatrix(
            np.clip(np.corrcoef(z), -1.0, 1.0), "pearson"))
        # soft target: report, do not hard-fail (similarity construction in the
        # source material is underspecified)
        report(f"9 ({name} soft target)", lc > 0 and math.isfinite(lc),
               f"L_c of true labels = {lc:.2f} vs reported {expected} "
               f"(within 15%: {within}); alternatives: minmax-pearson {alt_minmax:.2f}, "
               f"zscore-pearson {alt_z:.2f}; source: {source}")
