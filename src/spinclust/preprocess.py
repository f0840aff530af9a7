"""Feature scaling and correlation-matrix denoising.

Two market-mode removal routes are provided: spectral filtering against the
Wishart (Marchenko-Pastur) noise band, and iterative row/column
standardization of the covariance matrix. Both return a tagged
:class:`~spinclust.dataset.CorrelationMatrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import _UNIT_TOL, CorrelationMatrix, DataMatrix, _correlation, _symmetrize
from .errors import DegenerateInputError, DegenerateSpectrumError, DomainError


@dataclass(frozen=True)
class WishartBounds:
    """Noise-band edges for eigenvalues of a pure-noise correlation matrix."""

    q_ratio: float
    lambda_min: float
    lambda_max: float


def min_max_scale(data: DataMatrix) -> DataMatrix:
    """Map each feature column onto [0, 1] using its observed min/max.

    Only present entries participate in the min/max; the mask is preserved.
    Constant columns map to 0 so the transform stays total.
    """
    lo = np.where(data.mask, data.values, np.inf).min(axis=0)
    hi = np.where(data.mask, data.values, -np.inf).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (data.values - lo) / (hi - lo)
    # constant or fully masked column: leave at 0
    out = np.where(data.mask & (hi > lo), scaled, 0.0)
    return DataMatrix(out, data.mask.copy(), row_ids=list(data.row_ids),
                      col_ids=list(data.col_ids))


def wishart_bounds(n_obs: int, n_features: int) -> WishartBounds:
    """Closed-form eigenvalue band for an N x D pure-noise correlation matrix."""
    if n_obs < 2 or n_features < 2:
        raise DomainError("wishart_bounds needs n_obs >= 2 and n_features >= 2")
    q = n_features / n_obs
    root = math.sqrt(1.0 / q)
    return WishartBounds(q_ratio=q,
                         lambda_min=1.0 + 1.0 / q - 2.0 * root,
                         lambda_max=1.0 + 1.0 / q + 2.0 * root)


def wishart_pdf(lam: float, bounds: WishartBounds) -> float:
    """Marchenko-Pastur eigenvalue density; zero outside the band."""
    if lam <= 0.0 or lam < bounds.lambda_min or lam > bounds.lambda_max:
        return 0.0
    num = (bounds.lambda_max - lam) * (lam - bounds.lambda_min)
    return bounds.q_ratio / (2.0 * math.pi) * math.sqrt(max(num, 0.0)) / lam


def _standardize_rows(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    if np.any(sd == 0.0):
        raise DegenerateInputError("zero-variance row during standardization")
    return (x - mu) / sd


def rmt_denoise(data: DataMatrix, upper_only: bool = False) -> CorrelationMatrix:
    """Strip the eigenvalue noise band from a correlation matrix.

    Rows are standardized, the correlation matrix is eigendecomposed, only
    eigenvectors whose eigenvalues fall outside the Wishart band are kept,
    the data is reprojected onto that subspace, and correlations are
    recomputed from the reconstruction.

    ``upper_only`` restricts retention to eigenvalues above the band.
    """
    if not data.fully_observed:
        raise DomainError("rmt_denoise requires fully observed data")
    n, d = data.n_rows, data.n_cols
    x = _standardize_rows(data.values.astype(float))
    corr = (x @ x.T) / d
    bounds = wishart_bounds(n, d)
    evals, evecs = np.linalg.eigh(corr)
    if upper_only:
        keep = evals > bounds.lambda_max
    else:
        keep = (evals > bounds.lambda_max) | (evals < bounds.lambda_min)
    if not keep.any():
        raise DegenerateSpectrumError(
            f"no eigenvalue outside the Wishart band "
            f"[{bounds.lambda_min:.4f}, {bounds.lambda_max:.4f}]")
    w = evecs[:, keep]
    recon = w @ (w.T @ x)
    # correlations of the reconstruction; rows that project to (near) zero
    # carry no retained signal and get zero off-diagonal entries
    good = recon.std(axis=1) > 1e-12
    g = recon[good]
    g = g - g.mean(axis=1, keepdims=True)
    g = g / np.linalg.norm(g, axis=1, keepdims=True)
    out = np.eye(n)
    out[np.ix_(good, good)] = np.clip(g @ g.T, -1.0, 1.0)
    return _correlation(out, "denoised_rmt", data.row_ids)


def imn_denoise(data_or_cov: DataMatrix | CorrelationMatrix | np.ndarray,
                max_iters: int = 500, tol: float = 1e-8) -> CorrelationMatrix:
    """Iteratively standardize the covariance across rows then columns.

    Iteration stops after ``max_iters`` passes or once every row and column
    has |mean| < tol and |std - 1| < tol. The result is symmetrized and
    rescaled to unit diagonal. A result entry outside [-1, 1] (beyond 1e-12)
    is a DegenerateInputError naming the first such pair: the iteration
    does not keep a rank-deficient or ill-conditioned covariance positive
    semidefinite.
    """
    if max_iters < 1:
        raise DomainError("max_iters must be >= 1")
    row_ids = list(getattr(data_or_cov, "row_ids", []))
    if isinstance(data_or_cov, DataMatrix):
        if not data_or_cov.fully_observed:
            raise DomainError("imn_denoise needs fully observed data (or a covariance)")
        a = np.cov(data_or_cov.values, ddof=0)
    else:
        a = np.array(getattr(data_or_cov, "values", data_or_cov), dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("covariance input must be square")
    if a.shape[0] < 2:
        raise DomainError("need at least a 2x2 covariance")

    for _ in range(max_iters):
        if _converged(a, tol):
            break
        a = _standardize_rows(a)
        a = _standardize_rows(a.T).T

    _symmetrize(a)
    d = np.diag(a).copy()
    if np.any(d <= 0.0):
        raise DegenerateInputError("nonpositive diagonal after normalization")
    a /= np.sqrt(np.outer(d, d))
    out = _correlation(a, "denoised_imn", row_ids)
    big = np.abs(a) > 1.0 + _UNIT_TOL
    if big.any():
        i, j = np.argwhere(big)[0]
        names = row_ids or range(a.shape[0])
        raise DegenerateInputError(
            f"denoised entry ({names[i]!r}, {names[j]!r}) is {float(a[i, j])!r}, outside "
            f"[-1, 1]: the standardized covariance is indefinite (rank-deficient or "
            f"ill-conditioned input)")
    return out


def _converged(a: np.ndarray, tol: float) -> bool:
    rm = np.abs(a.mean(axis=1)).max()
    rs = np.abs(a.std(axis=1) - 1.0).max()
    cm = np.abs(a.mean(axis=0)).max()
    cs = np.abs(a.std(axis=0) - 1.0).max()
    return max(rm, cm) < tol and max(rs, cs) < tol
