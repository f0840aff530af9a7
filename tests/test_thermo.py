import math

import numpy as np
import pytest

from spinclust.errors import DomainError
from spinclust.thermo import (
    EnergyHistogram,
    bin_count,
    energy_histogram,
    entropy,
    free_energy,
    free_energy_curve,
)


class TestBinCount:
    def test_reference_values(self):
        # frozen from direct evaluation of the closed form
        assert bin_count(2000) == 19
        assert bin_count(1) == 2

    def test_nondecreasing(self):
        prev = 0
        for n in range(1, 100_001, 97):
            k = bin_count(n)
            assert k >= prev
            prev = k

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            bin_count(0)


class TestEnergyHistogram:
    def test_identical_samples_single_occupied_bin(self):
        h = energy_histogram(np.full(100, 0.3), h_max=1.0)
        occupied = h.probabilities > 0
        assert occupied.sum() == 1
        assert h.probabilities[occupied][0] == 1.0
        assert h.bin_centers[occupied][0] == pytest.approx(0.3)

    def test_uniform_samples_near_uniform_probabilities(self):
        rng = np.random.default_rng(31)
        n = 20000
        h = energy_histogram(rng.uniform(0, 1, size=n), h_max=1.0)
        k = h.bin_count
        # 3 sigma of a binomial count around n/k
        sigma = math.sqrt((1 / k) * (1 - 1 / k) / n)
        assert np.all(np.abs(h.probabilities - 1 / k) < 3.5 * sigma)

    def test_2000_samples_use_19_bins(self):
        rng = np.random.default_rng(32)
        h = energy_histogram(rng.uniform(0, 0.5, size=2000), h_max=0.5)
        assert h.bin_count == 19
        assert h.bin_edges.size == 20

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(33)
        h = energy_histogram(rng.uniform(0, 2, size=500), h_max=2.0)
        assert h.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_bins_keep_midpoints(self):
        h = energy_histogram(np.array([0.05, 0.05, 0.95, 0.95]), h_max=1.0)
        k = h.bin_count
        empty = h.probabilities == 0
        mid = 0.5 * (h.bin_edges[:-1] + h.bin_edges[1:])
        np.testing.assert_allclose(h.bin_centers[empty], mid[empty])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            energy_histogram(np.array([0.5, 1.5]), h_max=1.0)
        with pytest.raises(DomainError):
            energy_histogram(np.array([-0.1]), h_max=1.0)


class TestEntropy:
    def test_delta_distribution(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log_k(self):
        for k in (2, 5, 19):
            assert entropy(np.full(k, 1 / k)) == pytest.approx(math.log(k), abs=1e-12)

    def test_hand_value(self):
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_bounded_by_log_k(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            k = int(rng.integers(2, 30))
            p = rng.dirichlet(np.ones(k))
            assert entropy(p) <= math.log(k) + 1e-12

    def test_bad_sum_rejected(self):
        with pytest.raises(DomainError):
            entropy([0.5, 0.4])


def level_histogram(centers, probs=None):
    """Hand-built histogram with explicit energy levels."""
    centers = np.asarray(centers, dtype=float)
    k = centers.size
    if probs is None:
        probs = np.full(k, 1 / k)
    return EnergyHistogram(k, np.linspace(0, 1, k + 1), centers, np.asarray(probs))


class TestFreeEnergy:
    def test_single_level_is_that_energy(self):
        h = level_histogram([0.37])
        for t in (0.01, 0.5, 3.0):
            f_direct, f_partition = free_energy(h, t)
            assert f_direct == pytest.approx(0.37, abs=1e-12)
            assert f_partition == pytest.approx(0.37, abs=1e-12)

    def test_two_level_closed_form(self):
        h = level_histogram([0.0, 1.0])
        f_direct, f_partition = free_energy(h, 1.0)
        expected = -math.log(1.0 + math.exp(-1.0))
        assert f_partition == pytest.approx(expected, abs=1e-12)
        assert f_direct == pytest.approx(f_partition, abs=1e-9)

    def test_cold_limit_reaches_lowest_level(self):
        h = level_histogram([0.2, 0.5, 0.9])
        f_direct, f_partition = free_energy(h, 1e-4)
        assert f_partition == pytest.approx(0.2, abs=1e-3)
        assert f_direct == pytest.approx(0.2, abs=1e-3)

    def test_two_routes_agree_on_random_histograms(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            k = int(rng.integers(1, 25))
            centers = np.sort(rng.uniform(0, 1, size=k))
            h = level_histogram(centers)
            t = float(rng.uniform(1e-3, 10.0))
            f_direct, f_partition = free_energy(h, t)
            assert abs(f_direct - f_partition) < 1e-9 * max(1.0, abs(f_partition))

    def test_nonincreasing_in_t_for_fixed_histogram(self):
        rng = np.random.default_rng(36)
        h = level_histogram(np.sort(rng.uniform(0, 1, size=12)))
        ts = np.linspace(0.01, 2.0, 50)
        fs = [free_energy(h, t)[1] for t in ts]
        assert np.all(np.diff(fs) <= 1e-12)

    def test_single_level_constant_in_t(self):
        h = level_histogram([0.42])
        fs = {free_energy(h, t)[1] for t in np.linspace(0.05, 5, 20)}
        assert all(abs(f - 0.42) < 1e-12 for f in fs)

    def test_bad_temperature(self):
        with pytest.raises(DomainError):
            free_energy(level_histogram([0.1]), 0.0)


class TestFreeEnergyCurve:
    def make_sweep(self):
        from spinclust.similarity import mutual_knn_graph, strength_matrix
        from spinclust.spc import temperature_sweep

        n = 40
        theta = 2 * np.pi * np.arange(n) / n
        x = np.c_[np.cos(theta), np.sin(theta)]
        d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        s = strength_matrix(mutual_knn_graph(d, k=4))
        grid = np.round(np.linspace(0.02, 0.4, 12), 6).tolist()
        return temperature_sweep(s, grid, m_steps=500, burn_in=100, q=20, seed=37)

    def test_cold_end_free_energy_tracks_mean_energy(self):
        sweep = self.make_sweep()
        curve = free_energy_curve(sweep)
        t0, f0, s0, _ = curve[0]
        # at the coldest grid point the T*S term is a small correction
        assert abs(f0 - sweep[0].mean_energy) <= 0.05 * max(0.05, sweep[0].h_max)

    def test_curve_columns_align_with_sweep(self):
        sweep = self.make_sweep()
        curve = free_energy_curve(sweep)
        assert len(curve) == len(sweep)
        for (t, f, s, chi), st in zip(curve, sweep):
            assert t == st.temperature
            assert chi == st.susceptibility
            assert s >= -1e-12

    def test_identity_holds_at_every_point(self):
        sweep = self.make_sweep()
        for st in sweep:
            from spinclust.thermo import energy_histogram as eh
            h = eh(st.energy_samples, st.h_max)
            f_direct, f_partition = free_energy(h, st.temperature)
            assert abs(f_direct - f_partition) < 1e-9 * max(1.0, abs(f_partition))

    def test_columns_are_free_energy_and_boltzmann_entropy(self):
        sweep = self.make_sweep()
        for (t, f, s, _), st in zip(free_energy_curve(sweep), sweep):
            h = energy_histogram(st.energy_samples, st.h_max)
            w = np.exp(-(h.bin_centers - h.bin_centers.min()) / t)
            assert f == free_energy(h, t)[0]
            assert s == entropy(w / w.sum())

    def test_empty_sweep_rejected(self):
        with pytest.raises(DomainError):
            free_energy_curve([])
