import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclust.dataset import CorrelationMatrix, DataMatrix
from spinclust.errors import DegenerateInputError, DegenerateSpectrumError, DomainError
from spinclust.preprocess import (
    imn_denoise,
    min_max_scale,
    rmt_denoise,
    wishart_bounds,
    wishart_pdf,
)


class TestMinMaxScale:
    def test_endpoints_and_midpoint(self):
        dm = DataMatrix(np.array([[2.0], [4.0], [6.0]]), None)
        out = min_max_scale(dm)
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        dm = DataMatrix(np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]]), None)
        out = min_max_scale(dm)
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.0, 0.0])

    def test_negative_values(self):
        dm = DataMatrix(np.array([[-1.0], [0.0], [3.0]]), None)
        out = min_max_scale(dm)
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.25, 1.0])

    def test_range_and_idempotence(self):
        rng = np.random.default_rng(4)
        dm = DataMatrix(rng.normal(size=(20, 5)) * 10, None)
        once = min_max_scale(dm)
        assert once.values.min() >= 0.0 and once.values.max() <= 1.0
        twice = min_max_scale(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-15)

    def test_masked_entries_ignored_for_extrema(self):
        vals = np.array([[0.0, 1.0], [100.0, 2.0], [10.0, 3.0]])
        mask = np.array([[True, True], [False, True], [True, True]])
        out = min_max_scale(DataMatrix(vals, mask))
        # max over present entries of column 0 is 10, not 100
        np.testing.assert_allclose(out.values[2, 0], 1.0)
        np.testing.assert_array_equal(out.mask, mask)


class TestWishartBounds:
    def test_paper_scale_stock_panel(self):
        b = wishart_bounds(447, 1249)
        assert b.lambda_min == pytest.approx(0.16, abs=0.005)
        assert b.lambda_max == pytest.approx(2.55, abs=0.005)

    def test_square_panel(self):
        b = wishart_bounds(100, 100)
        assert b.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert b.lambda_max == pytest.approx(4.0, abs=1e-12)

    def test_long_history_limit(self):
        b = wishart_bounds(10, 10_000_000)
        assert b.lambda_min == pytest.approx(1.0, abs=0.01)
        assert b.lambda_max == pytest.approx(1.0, abs=0.01)

    def test_band_width_identity(self):
        for n, d in [(50, 200), (447, 1249), (30, 33)]:
            b = wishart_bounds(n, d)
            assert b.lambda_max - b.lambda_min == pytest.approx(
                4.0 * math.sqrt(1.0 / b.q_ratio), rel=1e-12)


class TestWishartPdf:
    def test_zero_at_edges(self):
        b = wishart_bounds(100, 280)
        assert wishart_pdf(b.lambda_min, b) == 0.0
        assert wishart_pdf(b.lambda_max, b) == 0.0

    def test_interior_value_matches_direct_formula(self):
        b = wishart_bounds(447, 1249)  # Q = 2.794...
        lam = 1.0
        expected = b.q_ratio / (2 * math.pi) * math.sqrt(
            (b.lambda_max - lam) * (lam - b.lambda_min)) / lam
        assert wishart_pdf(lam, b) == pytest.approx(expected, rel=1e-14)

    def test_zero_outside(self):
        b = wishart_bounds(100, 280)
        assert wishart_pdf(b.lambda_min - 0.01, b) == 0.0
        assert wishart_pdf(b.lambda_max + 0.01, b) == 0.0

    def test_integrates_to_one(self):
        b = wishart_bounds(200, 600)
        xs = np.linspace(b.lambda_min, b.lambda_max, 20001)
        ys = [wishart_pdf(x, b) for x in xs]
        assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=5e-3)


def planted_two_block(n=40, d=120, coupling=0.85, seed=5):
    """Two equal blocks driven by independent common factors plus noise."""
    rng = np.random.default_rng(seed)
    half = n // 2
    f1 = rng.normal(size=d)
    f2 = rng.normal(size=d)
    rows = []
    for i in range(n):
        f = f1 if i < half else f2
        rows.append(coupling * f + math.sqrt(1 - coupling ** 2) * rng.normal(size=d))
    labels = np.array([0] * half + [1] * (n - half))
    return DataMatrix(np.array(rows), None), labels


class TestRmtDenoise:
    def test_planted_blocks_dominate(self):
        dm, labels = planted_two_block()
        out = rmt_denoise(dm)
        vals = out.values.copy()
        np.fill_diagonal(vals, np.nan)
        same = labels[:, None] == labels[None, :]
        within = np.nanmean(vals[same])
        across = np.nanmean(vals[~same])
        assert within > across + 0.3

    def test_symmetric_unit_diagonal(self):
        dm, _ = planted_two_block(seed=6)
        out = rmt_denoise(dm)
        np.testing.assert_allclose(out.values, out.values.T, atol=1e-10)
        np.testing.assert_allclose(np.diag(out.values), 1.0, atol=1e-10)
        assert out.kind == "denoised_rmt"

    def test_pure_noise_branches_per_spectrum(self):
        # seed chosen so the whole spectrum sits inside the noise band
        rng = np.random.default_rng(11)
        n, d = 20, 1000
        dm = DataMatrix(rng.normal(size=(n, d)), None)
        x = (dm.values - dm.values.mean(axis=1, keepdims=True))
        x /= x.std(axis=1, keepdims=True)
        evals = np.linalg.eigvalsh((x @ x.T) / d)
        from spinclust.preprocess import wishart_bounds as wb
        b = wb(n, d)
        outside = int(((evals < b.lambda_min) | (evals > b.lambda_max)).sum())
        assert outside == 0, "seed no longer produces an all-noise spectrum"
        with pytest.raises(DegenerateSpectrumError):
            rmt_denoise(dm)

    def test_upper_only_flag_drops_left_tail(self):
        dm, _ = planted_two_block()
        full = rmt_denoise(dm, upper_only=False)
        upper = rmt_denoise(dm, upper_only=True)
        assert full.values.shape == upper.values.shape

    def test_masked_input_rejected(self):
        vals = np.ones((4, 6))
        mask = np.ones((4, 6), dtype=bool)
        mask[0, 0] = False
        with pytest.raises(DomainError):
            rmt_denoise(DataMatrix(vals, mask))


def reference_imn(cov, iters):
    """Straightforward loop implementation kept as the oracle."""
    a = cov.copy().astype(float)
    for _ in range(iters):
        for i in range(a.shape[0]):
            a[i] = (a[i] - a[i].mean()) / a[i].std()
        for j in range(a.shape[1]):
            a[:, j] = (a[:, j] - a[:, j].mean()) / a[:, j].std()
    a = 0.5 * (a + a.T)
    d = np.sqrt(np.diag(a))
    a = a / np.outer(d, d)
    np.fill_diagonal(a, 1.0)
    return a


class TestImnDenoise:
    def test_matches_reference_loop_on_2x2(self):
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = imn_denoise(cov, max_iters=500, tol=0.0)
        ref = reference_imn(cov, 500)
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_matches_reference_loop_random(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(6, 10))
        cov = np.cov(b, ddof=0)
        out = imn_denoise(cov, max_iters=40, tol=0.0)
        ref = reference_imn(cov, 40)
        np.testing.assert_allclose(out.values, ref, atol=1e-10)

    def test_row_means_below_tol_after_convergence(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 60))
        dm = DataMatrix(x, None)
        out = imn_denoise(dm, max_iters=500, tol=1e-9)
        # convergence criterion applied before the final symmetrize/rescale,
        # so check the pre-normalization property loosely on the result
        assert np.abs(out.values.mean(axis=1)).max() < 0.2

    def test_skewed_input_recentred(self):
        # one strong common factor makes raw correlations mostly positive
        rng = np.random.default_rng(9)
        n, d = 30, 200
        market = rng.normal(size=d)
        x = 0.8 * market + 0.6 * rng.normal(size=(n, d))
        dm = DataMatrix(x, None)
        raw = np.corrcoef(x)
        off = ~np.eye(n, dtype=bool)
        assert raw[off].mean() > 0.3
        out = imn_denoise(dm)
        assert abs(out.values[off].mean()) < 0.05
        assert out.kind == "denoised_imn"

    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(10)
        cov = np.cov(rng.normal(size=(8, 30)), ddof=0)
        out = imn_denoise(cov)
        np.testing.assert_allclose(np.diag(out.values), 1.0, atol=1e-12)
        np.testing.assert_allclose(out.values, out.values.T, atol=1e-12)

    def test_constant_row_rejected(self):
        cov = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateInputError):
            imn_denoise(cov, max_iters=5, tol=0.0)

    def test_entry_outside_unit_interval_rejected(self):
        # 9 rows over 4 columns: the covariance has rank 3, and the iterated
        # standardization leaves it indefinite
        rng = np.random.default_rng(9)
        x = rng.normal(size=(9, 4)) * rng.uniform(0.1, 10.0, size=(9, 1))
        dm = DataMatrix(x, None, row_ids=[f"s{i}" for i in range(9)])
        with pytest.raises(DegenerateInputError,
                           match=r"entry \('s0', 's3'\) is 1.11.*outside \[-1, 1\]"):
            imn_denoise(dm)

    @settings(max_examples=300)
    @given(st.integers(3, 11), st.integers(3, 11), st.integers(0, 2**32 - 1))
    def test_result_bounded_by_one_or_rejected(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=(n, 1))
        try:
            out = imn_denoise(DataMatrix(x, None))
        except DegenerateInputError:
            return
        assert np.abs(out.values).max() <= 1.0 + 1e-12
