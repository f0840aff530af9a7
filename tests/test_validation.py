import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclust.dataset import CorrelationMatrix
from spinclust.errors import DomainError, InsufficientGridError
from spinclust.fspc import likelihood
from spinclust.spc import TemperatureStats
from spinclust.validation import (
    _peaks,
    ari_vs_temperature,
    lc_vs_temperature,
    phase_report,
)


def fake_stats(t, chi, labeling, n_samples=10):
    labeling = np.asarray(labeling)
    n = labeling.size
    path = np.arange(n - 1)  # G on a path graph through the nodes
    return TemperatureStats(
        temperature=t, mean_magnetization=0.5, susceptibility=chi,
        mean_energy=0.1, energy_samples=np.full(n_samples, 0.1),
        n_samples=n_samples, labeling=labeling, q=20, h_max=1.0,
        edge_i=path, edge_j=path + 1, edge_g=np.full(n - 1, 0.05))


class TestLcVsTemperature:
    def test_identity_correlation_all_zero(self):
        corr = CorrelationMatrix(np.eye(6), "pearson")
        sweep = [fake_stats(0.1, 1.0, [0, 0, 1, 1, 2, 2]),
                 fake_stats(0.2, 0.5, [0, 1, 2, 3, 4, 5])]
        curve = lc_vs_temperature(sweep, corr)
        assert [t for t, _ in curve] == [0.1, 0.2]
        assert all(v == 0.0 for _, v in curve)

    def test_values_match_direct_likelihood(self):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(8, 30))
        corr = CorrelationMatrix(np.corrcoef(x), "pearson")
        labeling = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        sweep = [fake_stats(0.05, 1.0, labeling)]
        curve = lc_vs_temperature(sweep, corr)
        assert curve[0][1] == likelihood(labeling, corr)

    def test_size_mismatch_rejected(self):
        corr = CorrelationMatrix(np.eye(4), "pearson")
        sweep = [fake_stats(0.1, 1.0, [0, 1, 2])]
        with pytest.raises(DomainError):
            lc_vs_temperature(sweep, corr)


class TestAriVsTemperature:
    def test_self_reference_scores_one(self):
        labeling = [0, 0, 1, 1, 2]
        sweep = [fake_stats(0.1, 1.0, labeling), fake_stats(0.2, 1.0, [0, 1, 2, 3, 4])]
        curve = ari_vs_temperature(sweep, labeling)
        assert curve[0][1] == 1.0
        assert curve[1][1] != 1.0

    def test_random_reference_near_zero(self):
        rng = np.random.default_rng(71)
        sweep = [fake_stats(0.1, 1.0, np.repeat(np.arange(4), 10))]
        vals = []
        for _ in range(300):
            ref = rng.permutation(np.repeat(np.arange(4), 10))
            vals.append(ari_vs_temperature(sweep, ref)[0][1])
        assert abs(float(np.mean(vals))) < 0.05

    def test_length_mismatch_rejected(self):
        sweep = [fake_stats(0.1, 1.0, [0, 1])]
        with pytest.raises(DomainError):
            ari_vs_temperature(sweep, [0, 1, 2])


class TestPeaks:
    # a pool of a few values, -0.0 and NaN among them, so that plateaus
    # (also at the ends of x), signed-zero runs and NaN cells are common
    @settings(max_examples=500)
    @given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, np.nan]), max_size=15),
           st.sampled_from([-np.inf, 0.0, 1.0, np.inf, np.nan]))
    def test_same_as_find_peaks(self, values, height):
        from scipy.signal import find_peaks

        x = np.array(values, dtype=float)
        np.testing.assert_array_equal(_peaks(x, height), find_peaks(x, height=height)[0])

    def test_plateau_at_its_middle_and_ends_excluded(self):
        x = np.array([3.0, 3.0, 0.0, 2.0, 2.0, 2.0, 2.0, 1.0, 5.0, 5.0])
        assert _peaks(x, -np.inf).tolist() == [4]


class TestPhaseReport:
    def chi_profile(self, ts, chis, n=8):
        labels = [list(range(n))] * len(ts)
        return [fake_stats(t, c, lab) for t, c, lab in zip(ts, chis, labels)]

    def test_single_peak_three_segments(self):
        ts = [0.01, 0.02, 0.03, 0.04, 0.05]
        chis = [0.1, 0.2, 5.0, 0.3, 0.1]
        rep = phase_report(self.chi_profile(ts, chis))
        assert rep.peaks == [(0.03, 5.0)]
        assert rep.sp_window == (0.03, 0.03)
        assert rep.segments["ferromagnetic"] == [0.01, 0.02]
        assert rep.segments["super_paramagnetic"] == [0.03]
        assert rep.segments["paramagnetic"] == [0.04, 0.05]

    def test_two_peaks_window_spans_both(self):
        ts = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07]
        chis = [0.0, 4.0, 1.0, 1.2, 6.0, 0.5, 0.1]
        rep = phase_report(self.chi_profile(ts, chis))
        assert rep.sp_window == (0.02, 0.05)
        assert rep.segments["super_paramagnetic"] == [0.02, 0.03, 0.04, 0.05]

    def test_flat_chi_no_transitions(self):
        ts = [0.01, 0.02, 0.03, 0.04]
        chis = [1.0, 1.0, 1.0, 1.0]
        rep = phase_report(self.chi_profile(ts, chis))
        assert rep.peaks == []
        assert rep.sp_window is None
        assert rep.segments["paramagnetic"] == ts

    def test_small_bumps_below_prominence_ignored(self):
        ts = [0.01, 0.02, 0.03, 0.04, 0.05]
        chis = [0.0, 0.5, 0.0, 100.0, 0.0]
        rep = phase_report(self.chi_profile(ts, chis))
        assert rep.peaks == [(0.04, 100.0)]

    def test_insufficient_grid_rejected(self):
        with pytest.raises(InsufficientGridError):
            phase_report(self.chi_profile([0.1, 0.2], [1.0, 2.0]))

    def test_report_serializes(self):
        ts = [0.01, 0.02, 0.03, 0.04, 0.05]
        chis = [0.1, 0.2, 5.0, 0.3, 0.1]
        rep = phase_report(self.chi_profile(ts, chis))
        doc = rep.to_dict()
        assert doc["kind"] == "phase_report"
        assert doc["sp_window"] == [0.03, 0.03]
        md = rep.to_markdown()
        assert "super_paramagnetic" in md
        assert "| T |" in md

    def test_sp_window_nonempty_whenever_peak_exists(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            ts = sorted(set(np.round(rng.uniform(0.01, 0.3, size=10), 4)))
            if len(ts) < 3:
                continue
            chis = rng.uniform(0, 1, size=len(ts)).tolist()
            rep = phase_report(self.chi_profile(ts, chis))
            if rep.peaks:
                assert rep.sp_window is not None
                lo, hi = rep.sp_window
                assert lo in ts and hi in ts and lo <= hi
                assert len(rep.segments["super_paramagnetic"]) >= 1
