"""Tabular data loading, log returns, and missing-data-aware correlations.

Data flows through two containers: :class:`DataMatrix` (N observations x D
features with a presence mask) and :class:`CorrelationMatrix` (N x N, tagged
with how it was produced). Both round-trip through a small JSON envelope so
CLI stages can be chained.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePairError,
    DomainError,
    InsufficientOverlapError,
    ParseError,
)

CORRELATION_KINDS = ("pearson", "denoised_rmt", "denoised_imn", "similarity_from_distance")

_PD_EPS = 1e-10

# entries a[i, j] and a[j, i] count as equal when np.isclose(..., atol=_SYMMETRY_ATOL)
_SYMMETRY_ATOL = 1e-12


@dataclass
class DataMatrix:
    """N x D numeric table with a boolean presence mask (True = observed)."""

    values: np.ndarray
    mask: np.ndarray
    row_ids: list[str] = field(default_factory=list)
    col_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DomainError("DataMatrix values must be 2-dimensional")
        n, d = self.values.shape
        if n < 2 or d < 1:
            raise DomainError(f"DataMatrix needs N >= 2 and D >= 1, got {n} x {d}")
        if self.mask is None:
            self.mask = np.ones((n, d), dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.values.shape:
            raise DomainError("mask shape must match values shape")
        if not self.row_ids:
            self.row_ids = [str(i) for i in range(n)]
        if not self.col_ids:
            self.col_ids = [str(j) for j in range(d)]
        if len(self.row_ids) != n or len(self.col_ids) != d:
            raise DomainError("row/col id lengths must match the value shape")
        bad = self.mask & ~np.isfinite(self.values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ParseError(f"non-finite value {self.values[i, j]} at row {self.row_ids[i]!r}, "
                             f"column {self.col_ids[j]!r}")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def fully_observed(self) -> bool:
        return bool(self.mask.all())

    def transposed(self) -> "DataMatrix":
        return DataMatrix(self.values.T.copy(), self.mask.T.copy(),
                          row_ids=list(self.col_ids), col_ids=list(self.row_ids))

    def to_envelope(self) -> dict:
        vals = [[self.values[i, j] if self.mask[i, j] else None
                 for j in range(self.n_cols)] for i in range(self.n_rows)]
        return {"kind": "data", "row_ids": list(self.row_ids),
                "col_ids": list(self.col_ids), "values": vals}


@dataclass
class CorrelationMatrix:
    """Symmetric N x N similarity matrix tagged with its construction."""

    values: np.ndarray
    kind: str
    row_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.kind not in CORRELATION_KINDS:
            raise DomainError(f"unknown correlation kind {self.kind!r}")
        n, m = self.values.shape
        if n != m:
            raise DomainError("correlation matrix must be square")
        if not self.row_ids:
            self.row_ids = [str(i) for i in range(n)]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_envelope(self) -> dict:
        return {"kind": self.kind, "row_ids": list(self.row_ids),
                "col_ids": list(self.row_ids), "values": self.values.tolist()}


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as strict JSON plus a newline; NaN or infinity is a DomainError.

    A file the error cut short is removed, so no invalid JSON is left behind.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        os.remove(path)
        raise DomainError(f"{path}: not written, {exc}") from None


def save_envelope(obj: DataMatrix | CorrelationMatrix, path) -> None:
    write_json(obj.to_envelope(), path)


def load_envelope(path) -> DataMatrix | CorrelationMatrix:
    """Read a JSON envelope back into the matching container."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from None
    for key in ("kind", "row_ids", "col_ids", "values"):
        if key not in doc:
            raise ParseError(f"{path}: envelope missing field {key!r}")
    if doc["kind"] == "data":
        raw = doc["values"]
        mask = np.array([[cell is not None for cell in row] for row in raw], dtype=bool)
        vals = np.array([[0.0 if cell is None else float(cell) for cell in row] for row in raw])
        return DataMatrix(vals, mask, row_ids=[str(r) for r in doc["row_ids"]],
                          col_ids=[str(c) for c in doc["col_ids"]])
    if doc["kind"] in CORRELATION_KINDS:
        corr = CorrelationMatrix(np.asarray(doc["values"], dtype=float), doc["kind"],
                                 row_ids=[str(r) for r in doc["row_ids"]])
        _check_envelope_correlation(corr, path)
        return corr
    raise ParseError(f"{path}: unknown envelope kind {doc['kind']!r}")


def _check_envelope_correlation(corr: CorrelationMatrix, path) -> None:
    """Reject a loaded correlation with non-finite cells or asymmetric entries.

    Checked here rather than in CorrelationMatrix, whose callers may build
    matrices (np.corrcoef) that are symmetric only to rounding.
    """
    a, ids = corr.values, corr.row_ids
    if len(ids) != corr.n:
        raise ParseError(f"{path}: {len(ids)} row ids for a {corr.n} x {corr.n} matrix")
    bad = ~np.isfinite(a)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ParseError(f"{path}: non-finite value {float(a[i, j])} at row {ids[i]!r}, "
                         f"column {ids[j]!r}")
    skew = ~np.isclose(a, a.T, atol=_SYMMETRY_ATOL)
    if skew.any():
        i, j = np.argwhere(skew)[0]
        raise DomainError(f"{path}: correlation matrix is not symmetric: "
                          f"({ids[i]!r}, {ids[j]!r}) is {float(a[i, j])!r} but "
                          f"({ids[j]!r}, {ids[i]!r}) is {float(a[j, i])!r}")


def load_matrix(path, has_header: bool = True) -> DataMatrix:
    """Parse a rectangular CSV into a DataMatrix; blank cells become masked.

    Raises ParseError naming the offending row for ragged input, or the
    (row, column) coordinates for a non-numeric or non-finite cell.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh)]
    rows = [row for row in rows if row]  # drop fully empty lines
    if not rows:
        raise ParseError(f"{path}: empty file")

    col_ids: list[str] = []
    if has_header:
        col_ids = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: header only, no data rows")

    width = len(rows[0])
    values = np.zeros((len(rows), width))
    mask = np.ones((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row {i + 1} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                mask[i, j] = False
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell at row {i + 1}, column {j + 1}: {cell!r}") from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: non-finite cell at row {i + 1}, column {j + 1}: {cell!r}")
            values[i, j] = value
    if col_ids and len(col_ids) != width:
        raise ParseError(f"{path}: header has {len(col_ids)} names for {width} columns")
    return DataMatrix(values, mask, col_ids=col_ids)


def log_returns(prices: DataMatrix) -> DataMatrix:
    """Column-wise log returns: out[:, t] = ln(P[:, t+1]) - ln(P[:, t]).

    A return is masked whenever either parent price is masked. Present
    prices must be strictly positive.
    """
    if prices.n_cols < 2:
        raise DomainError("need at least 2 price columns to compute returns")
    bad = prices.mask & (prices.values <= 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DomainError(
            f"nonpositive price {prices.values[i, j]} at row {i}, column {j}")
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(prices.mask, np.log(np.where(prices.mask, prices.values, 1.0)), 0.0)
    out = logp[:, 1:] - logp[:, :-1]
    out_mask = prices.mask[:, 1:] & prices.mask[:, :-1]
    out[~out_mask] = 0.0
    col_ids = [f"r{j}" for j in range(prices.n_cols - 1)]
    return DataMatrix(out, out_mask, row_ids=list(prices.row_ids), col_ids=col_ids)


def pairwise_overlap_correlation(data: DataMatrix, min_overlap: int = 3) -> CorrelationMatrix:
    """Pearson correlations computed on the jointly observed columns of each row pair.

    Every pair must share at least ``min_overlap`` observed columns and have
    nonzero variance on that window; otherwise the pair is reported in the
    raised error. On fully observed input this reduces to the plain Pearson
    matrix.
    """
    n = data.n_rows
    out = np.eye(n)
    vals, mask = data.values, data.mask
    for i in range(n):
        for j in range(i + 1, n):
            joint = mask[i] & mask[j]
            overlap = int(joint.sum())
            if overlap < min_overlap:
                raise InsufficientOverlapError(
                    f"rows ({data.row_ids[i]}, {data.row_ids[j]}) share only "
                    f"{overlap} columns, need >= {min_overlap}")
            x = vals[i, joint]
            y = vals[j, joint]
            xc = x - x.mean()
            yc = y - y.mean()
            sx = math.sqrt(float(xc @ xc))
            sy = math.sqrt(float(yc @ yc))
            if sx == 0.0 or sy == 0.0:
                raise DegeneratePairError(
                    f"rows ({data.row_ids[i]}, {data.row_ids[j]}) have zero "
                    f"variance on their {overlap}-column overlap")
            r = float(xc @ yc) / (sx * sy)
            out[i, j] = out[j, i] = min(1.0, max(-1.0, r))
    return CorrelationMatrix(out, "pearson", row_ids=list(data.row_ids))


def make_positive_definite(corr: CorrelationMatrix, eps: float = _PD_EPS) -> CorrelationMatrix:
    """Clip eigenvalues below eps, reconstruct, and rescale to unit diagonal.

    The clip/rescale pair is iterated to a fixed point because the diagonal
    rescale can push the smallest eigenvalue back under eps. Idempotent:
    inputs already satisfying the postcondition are returned unchanged.
    """
    a = np.asarray(corr.values, dtype=float)
    if not np.allclose(a, a.T, atol=_SYMMETRY_ATOL):
        raise DomainError("make_positive_definite requires a symmetric matrix")
    a = 0.5 * (a + a.T)
    for _ in range(100):
        w = np.linalg.eigvalsh(a)
        diag_ok = np.max(np.abs(np.diag(a) - 1.0)) <= 1e-12
        if w[0] >= eps and diag_ok:
            break
        w, v = np.linalg.eigh(a)
        a = (v * np.maximum(w, eps)) @ v.T
        d = np.sqrt(np.diag(a))
        a = a / np.outer(d, d)
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 1.0)
    return CorrelationMatrix(a, corr.kind, row_ids=list(corr.row_ids))
