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

# a loaded correlation's diagonal must be 1, and |r| <= 1, within this tolerance
_UNIT_TOL = 1e-12


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

    The text is ``json.dump``'s, encoded by ``json.dumps`` (the C encoder)
    one top-level value, or one item of a top-level list, at a time, so
    memory holds one item's text. A file the error cut short is removed,
    so no invalid JSON is left behind.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")
            for i, (key, value) in enumerate(doc.items()):
                fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
                if isinstance(value, (list, tuple)):
                    fh.write("[")
                    for j, item in enumerate(value):
                        fh.write(f"{', ' if j else ''}{json.dumps(item, allow_nan=False)}")
                    fh.write("]")
                else:
                    fh.write(json.dumps(value, allow_nan=False))
            fh.write("}\n")
    except ValueError as exc:
        os.remove(path)
        raise DomainError(f"{path}: not written, {exc}") from None


def read_json(path):
    """Parse the JSON file at ``path``; malformed JSON is a ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None


def save_envelope(obj: DataMatrix | CorrelationMatrix, path) -> None:
    write_json(obj.to_envelope(), path)


def load_envelope(path) -> DataMatrix | CorrelationMatrix:
    """Read a JSON envelope back into the matching container."""
    doc = read_json(path)
    for key in ("kind", "row_ids", "col_ids", "values"):
        if not isinstance(doc, dict) or key not in doc:
            raise ParseError(f"{path}: envelope missing field {key!r}")
    raw = _value_rows(doc["values"], path)
    if doc["kind"] == "data":
        mask = np.array([[cell is not None for cell in row] for row in raw], dtype=bool)
        vals = _cells([[0.0 if cell is None else cell for cell in row] for row in raw], path)
        return DataMatrix(vals, mask, row_ids=[str(r) for r in doc["row_ids"]],
                          col_ids=[str(c) for c in doc["col_ids"]])
    if doc["kind"] in CORRELATION_KINDS:
        corr = CorrelationMatrix(_cells(raw, path), doc["kind"],
                                 row_ids=[str(r) for r in doc["row_ids"]])
        _check_envelope_correlation(corr, path)
        return corr
    raise ParseError(f"{path}: unknown envelope kind {doc['kind']!r}")


def _value_rows(raw, path) -> list:
    """The envelope's ``values``: a non-empty list of rows, all as long as the first.

    A ParseError names the first row (0-based) that is not a list or has
    another length.
    """
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{path}: values must be a non-empty list of rows")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise ParseError(f"{path}: values[{i}] is {row!r}, not a list of cells")
        if len(row) != len(raw[0]):
            raise ParseError(f"{path}: values[{i}] has {len(row)} cells, "
                             f"values[0] has {len(raw[0])}")
    return raw


def _cells(rows: list, path) -> np.ndarray:
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: non-numeric cell in values ({exc})") from None


def _check_envelope_correlation(corr: CorrelationMatrix, path) -> None:
    """Reject a loaded correlation that breaks the envelope contract.

    Cells must be finite, the matrix symmetric and its diagonal 1 (both
    within 1e-12), and |r| <= 1 + 1e-12 for every kind.
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
    off = np.abs(np.diag(a) - 1.0) > _UNIT_TOL
    if off.any():
        i = int(np.argmax(off))
        raise DomainError(f"{path}: diagonal entry ({ids[i]!r}, {ids[i]!r}) is "
                          f"{float(a[i, i])!r}, not 1")
    big = np.abs(a) > 1.0 + _UNIT_TOL
    if big.any():
        i, j = np.argwhere(big)[0]
        raise DomainError(f"{path}: {corr.kind} entry ({ids[i]!r}, {ids[j]!r}) is "
                          f"{float(a[i, j])!r}, outside [-1, 1]")


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

    Rows are centered on their observed means (masked cells stay 0); counts,
    sums, squares and cross sums over every pair's window are then matrix
    products with the mask. The first pair (i < j, row-major) that shares
    fewer than ``min_overlap`` columns, or on whose window a row's variance
    is at most 1e-12 times its sum of squares, is named in the raised error.
    Pairs whose sum of squares exceeds 100 times the variance (a window far
    from its row's mean) lose digits in one pass and are redone two-pass.
    """
    m = data.mask.astype(float)
    x = np.where(data.mask, data.values, 0.0)
    mean = x.sum(1, keepdims=True) / np.maximum(m.sum(1, keepdims=True), 1.0)
    x = np.where(data.mask, x - mean, 0.0)
    count, sums, squares = m @ m.T, x @ m.T, (x * x) @ m.T  # [i, j]: row i on pair's window
    with np.errstate(divide="ignore", invalid="ignore"):
        var = squares - sums * sums / count
        r = (x @ x.T - sums * sums.T / count) / np.sqrt(var * var.T)
    flat = ~(var > 1e-12 * squares)  # also true for the NaN of an empty window
    bad = np.argwhere(np.triu((count < min_overlap) | flat | flat.T, k=1))
    if bad.size:
        i, j = bad[0]
        pair, overlap = f"rows ({data.row_ids[i]}, {data.row_ids[j]})", int(count[i, j])
        if overlap < min_overlap:
            raise InsufficientOverlapError(
                f"{pair} share only {overlap} columns, need >= {min_overlap}")
        raise DegeneratePairError(f"{pair} have zero variance on their {overlap}-column overlap")
    i, j = np.nonzero(np.triu((squares > 100 * var) | (squares > 100 * var).T, k=1))
    joint = data.mask[i] & data.mask[j]
    a, b = (np.where(joint, v - (v * joint).sum(1, keepdims=True) / count[i, j, None], 0.0)
            for v in (x[i], x[j]))
    r[i, j] = r[j, i] = (a * b).sum(1) / np.sqrt((a * a).sum(1) * (b * b).sum(1))
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(r, "pearson", row_ids=list(data.row_ids))


def make_positive_definite(corr: CorrelationMatrix, eps: float = _PD_EPS) -> CorrelationMatrix:
    """Repair a symmetric matrix to unit diagonal and smallest eigenvalue >= eps.

    Input that already qualifies is returned unchanged. Otherwise one eigh
    clips the spectrum at c = 2 eps max(1, lambda_max) and the rebuilt B is
    rescaled to D^-1 B D^-1, D = sqrt(diag B). By congruence its smallest
    eigenvalue is >= c / max_i B_ii >= 2 eps; one left under eps by
    rounding is a DomainError.
    """
    a = np.asarray(corr.values, dtype=float)
    if not np.allclose(a, a.T, atol=_SYMMETRY_ATOL):
        raise DomainError("make_positive_definite requires a symmetric matrix")
    a = 0.5 * (a + a.T)
    if np.linalg.eigvalsh(a)[0] < eps or np.max(np.abs(np.diag(a) - 1.0)) > 1e-12:
        w, v = np.linalg.eigh(a)
        a = (v * np.maximum(w, 2.0 * eps * max(1.0, w[-1]))) @ v.T
        a = a / np.sqrt(np.outer(np.diag(a), np.diag(a)))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 1.0)
        if (low := np.linalg.eigvalsh(a)[0]) < eps:
            raise DomainError(f"positive-definite repair left smallest eigenvalue "
                              f"{low:.3g} < eps = {eps:.3g}")
    return CorrelationMatrix(a, corr.kind, row_ids=list(corr.row_ids))
