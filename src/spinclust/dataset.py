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
import stat
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePairError,
    DomainError,
    InsufficientOverlapError,
    ParseError,
    prefixed,
)

CORRELATION_KINDS = ("pearson", "denoised_rmt", "denoised_imn", "similarity_from_distance")

_PD_EPS = 1e-10

# a loaded correlation's a[i, j] and a[j, i] may differ by at most this
_SYMMETRY_ATOL = 1e-12

# a loaded correlation's diagonal must be 1, and |r| <= 1, within this tolerance
_UNIT_TOL = 1e-12

# what json gives for a number or null; bool is excluded, though a subclass of int
_CELL_TYPES = {int, float, type(None)}


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
        vals = np.where(self.mask, self.values, None).tolist()  # None for a blank cell
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
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise DomainError("correlation matrix must be square")
        if not self.row_ids:
            self.row_ids = [str(i) for i in range(self.n)]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_envelope(self) -> dict:
        """The JSON envelope; ``values`` stays an array, which write_json writes."""
        return {"kind": self.kind, "row_ids": list(self.row_ids),
                "col_ids": list(self.row_ids), "values": self.values}


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as strict JSON plus a newline; NaN or infinity is a DomainError.

    The text is ``json.dump``'s, with a square float array written as its
    ``tolist()``. It is encoded by ``json.dumps`` (the C encoder) one
    top-level value, or one item of a top-level list, at a time, and an
    array one row at a time (see ``_square_rows``), so memory holds one item's text.
    """
    try:
        with open_output(path) as fh:
            fh.write("{")
            for i, (key, value) in enumerate(doc.items()):
                fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
                if isinstance(value, np.ndarray):
                    items = _square_rows(value)
                elif isinstance(value, (list, tuple)):
                    items = (json.dumps(item, allow_nan=False) for item in value)
                else:
                    fh.write(json.dumps(value, allow_nan=False))
                    continue
                fh.write("[")
                for j, text in enumerate(items):
                    fh.write(f"{', ' if j else ''}{text}")
                fh.write("]")
            fh.write("}\n")
    except ValueError as exc:
        raise DomainError(f"{path}: not written, {exc}") from None


def _square_rows(a: np.ndarray):
    """JSON text of each row of a square float matrix, as ``json.dumps`` writes it.

    Each cell above the diagonal is formatted once, by ``float.__repr__`` as
    the C encoder does, and its mirror below reuses that text when the two
    cells are the same bits (so -0.0 and 0.0 each keep their own); any other
    cell below is formatted itself. A row's text is built when it is written,
    and a cell's text is dropped once its mirror row is. A non-finite cell
    raises json's ValueError before the first row.
    """
    bad = ~np.isfinite(a)
    if bad.any():
        json.dumps(float(a[bad][0]), allow_nan=False)
    n = a.shape[0]
    pending = np.empty((n, n), dtype=object)  # pending[j, i]: text of cell (i, j), i < j
    for i in range(n):
        upper = list(map(float.__repr__, a[i, i:].tolist()))
        pending[i + 1:, i] = upper[1:]
        lower = pending[i, :i].copy()
        pending[i, :i] = None
        own = np.flatnonzero(a[i, :i].view(np.int64) != a[:i, i].view(np.int64))
        lower[own] = list(map(float.__repr__, a[i, own].tolist()))
        yield "[" + ", ".join(lower.tolist() + upper) + "]"


@contextmanager
def open_text(path, newline=None):
    """Open ``path`` as UTF-8 text for reading.

    A byte that is not UTF-8 becomes a ParseError naming the byte's offset
    in the file (the decoder's own offset counts from its chunk).
    """
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text: byte 0x{data[exc.start]:02x} "
                                 f"at offset {exc.start}") from None
            raise


@contextmanager
def open_output(path, mode="w"):
    """Open ``path`` to write UTF-8 text (bytes if ``mode`` is "wb"), the twin of open_text.

    Writes go to ``<path>.<pid>.tmp``, moved into place at the end; an error removes it.
    A ``path`` that exists and is not a regular file (a symlink, a pipe, ``/dev/stdout``)
    is written in place instead, so that it stays what it is.
    """
    encoding = None if "b" in mode else "utf-8"
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        _remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the caller's path
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def read_json(path):
    """Parse the JSON file at ``path``; malformed JSON is a ParseError naming the file."""
    with prefixed(path), open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc})") from None


def save_envelope(obj: DataMatrix | CorrelationMatrix, path) -> None:
    """Write ``obj`` as a JSON envelope; a correlation also gets a binary sidecar.

    The sidecar ``<path>.npz`` lets load_envelope skip parsing the text (see
    _write_sidecar). Any sidecar already at that name is removed before the
    JSON is written, so none is left beside JSON it was not written for.
    """
    sidecar = _sidecar_path(path)
    _remove(sidecar)
    write_json(obj.to_envelope(), path)
    if isinstance(obj, CorrelationMatrix):
        _write_sidecar(obj, path, sidecar)


def load_envelope(path) -> DataMatrix | CorrelationMatrix:
    """Read a JSON envelope back into the matching container.

    A correlation comes from its sidecar when one is valid for the JSON now
    on disk (see _load_sidecar), and from the JSON text otherwise; the
    checks on the matrix are the same either way.
    """
    sidecar = _load_sidecar(path)
    doc = read_json(path) if sidecar is None else None
    with prefixed(path):
        if sidecar is None:
            for key in ("kind", "row_ids", "col_ids", "values"):
                if not isinstance(doc, dict) or key not in doc:
                    raise ParseError(f"envelope missing field {key!r}")
            for key in ("row_ids", "col_ids"):
                if not isinstance(doc[key], list):
                    raise ParseError(f"{key} is {doc[key]!r}, not a list of ids")
            raw = _value_rows(doc["values"])
            if doc["kind"] == "data":
                row_ids, col_ids = ([str(x) for x in doc[key]] for key in ("row_ids", "col_ids"))
                mask = np.array([[cell is not None for cell in row] for row in raw], dtype=bool)
                vals = np.where(mask, _cells(raw, row_ids, col_ids), 0.0)
                return DataMatrix(vals, mask, row_ids=row_ids, col_ids=col_ids)
            if doc["kind"] not in CORRELATION_KINDS:
                raise ParseError(f"unknown envelope kind {doc['kind']!r}")
            if doc["col_ids"] != doc["row_ids"]:
                raise ParseError("col_ids must equal row_ids in a correlation envelope")
            row_ids = [str(r) for r in doc["row_ids"]]
            sidecar = _cells(raw, row_ids, row_ids), doc["kind"], row_ids
        corr = CorrelationMatrix(*sidecar)
        _check_envelope_correlation(corr)
    return corr


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _remove(path) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _file_digest(path) -> str:
    """Hex SHA-256 of the file at ``path``, read 1 MiB at a time."""
    import hashlib  # here, not at the top: it adds ~5 ms to every CLI start

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_sidecar(corr: CorrelationMatrix, path, sidecar: str) -> None:
    """Write ``corr`` to ``sidecar``, bound to the JSON at ``path`` by its SHA-256.

    An uncompressed npz of ``values`` (C-contiguous float64), ``kind``,
    ``row_ids`` (str) and ``digest``, the hex SHA-256 of the JSON bytes. The
    JSON holds shortest round-trip floats, so these values are the bits a
    parse of it gives. Row ids that a numpy str array would change (an id that is
    not a str, or that ends in NUL) get no sidecar.
    """
    if not all(isinstance(r, str) and not r.endswith("\0") for r in corr.row_ids):
        return
    with open_output(sidecar, "wb") as fh:
        np.savez(fh, values=np.ascontiguousarray(corr.values, dtype=np.float64),
                 kind=np.array(corr.kind), row_ids=np.array(corr.row_ids, dtype=np.str_),
                 digest=np.array(_file_digest(path)))


def _load_sidecar(path) -> tuple | None:
    """(values, kind, row_ids) from ``path``'s sidecar, or None when none is valid for it.

    A sidecar is valid when ``np.load`` opens it without unpickling, it holds
    the four arrays _write_sidecar writes (``values`` as float64), and its
    digest is the SHA-256 of the file at ``path`` now. A missing, truncated
    or pickled sidecar, one written for other JSON, and JSON edited since it
    was written all give None, and the JSON is parsed.
    """
    try:
        with np.load(_sidecar_path(path), allow_pickle=False) as z:
            if str(z["digest"]) != _file_digest(path):
                return None
            values, kind, row_ids = z["values"], str(z["kind"]), z["row_ids"].tolist()
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    return (values, kind, row_ids) if values.dtype == np.float64 else None


def _value_rows(raw) -> list:
    """The envelope's ``values``: a non-empty list of rows, all as long as the first.

    A ParseError names the first row (0-based) that is not a list or has
    another length.
    """
    if not isinstance(raw, list) or not raw:
        raise ParseError("values must be a non-empty list of rows")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise ParseError(f"values[{i}] is {row!r}, not a list of cells")
        if len(row) != len(raw[0]):
            raise ParseError(f"values[{i}] has {len(row)} cells, values[0] has {len(raw[0])}")
    return raw


def _cells(rows: list, row_ids: list, col_ids: list) -> np.ndarray:
    """The envelope's cells as floats, ``null`` as NaN.

    A cell that is not a JSON number or null, such as ``true`` or ``"0.5"``, is a
    ParseError naming the first (row-major) by row and column id, or by 0-based
    index past the end of the ids.
    """
    for i, row in enumerate(rows):
        if set(map(type, row)) <= _CELL_TYPES:
            continue
        j = next(j for j, cell in enumerate(row) if type(cell) not in _CELL_TYPES)
        rid = row_ids[i] if i < len(row_ids) else str(i)
        cid = col_ids[j] if j < len(col_ids) else str(j)
        raise ParseError(f"non-numeric cell {json.dumps(row[j])} at row {rid!r}, column {cid!r}")
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"non-numeric cell in values ({exc})") from None


def _check_envelope_correlation(corr: CorrelationMatrix) -> None:
    """Reject a loaded correlation that breaks the envelope contract.

    Cells must be finite, the matrix symmetric and its diagonal 1 (both
    within 1e-12), and |r| <= 1 + 1e-12 for every kind.
    Checked here rather than in CorrelationMatrix, whose callers may build
    matrices (np.corrcoef) that are symmetric only to rounding.
    """
    a, ids = corr.values, corr.row_ids
    if len(ids) != corr.n:
        raise ParseError(f"{len(ids)} row ids for a {corr.n} x {corr.n} matrix")
    bad = ~np.isfinite(a)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ParseError(f"non-finite value {float(a[i, j])} at row {ids[i]!r}, column {ids[j]!r}")
    # equal cells are close, so isclose runs only where a != a.T (row-major order)
    rows, cols = np.nonzero(a != a.T)
    skew = ~np.isclose(a[rows, cols], a[cols, rows], rtol=0, atol=_SYMMETRY_ATOL)
    if skew.any():
        k = int(np.argmax(skew))
        i, j = rows[k], cols[k]
        raise DomainError(f"correlation matrix is not symmetric: "
                          f"({ids[i]!r}, {ids[j]!r}) is {float(a[i, j])!r} but "
                          f"({ids[j]!r}, {ids[i]!r}) is {float(a[j, i])!r}")
    off = np.abs(np.diag(a) - 1.0) > _UNIT_TOL
    if off.any():
        i = int(np.argmax(off))
        raise DomainError(f"diagonal entry ({ids[i]!r}, {ids[i]!r}) is {float(a[i, i])!r}, not 1")
    big = np.abs(a) > 1.0 + _UNIT_TOL
    if big.any():
        i, j = np.argwhere(big)[0]
        raise DomainError(f"{corr.kind} entry ({ids[i]!r}, {ids[j]!r}) is "
                          f"{float(a[i, j])!r}, outside [-1, 1]")


def load_matrix(path, has_header: bool = True) -> DataMatrix:
    """Parse a rectangular CSV into a DataMatrix; blank cells become masked.

    Raises ParseError naming the offending row for ragged input, or the
    (row, column) coordinates for a non-numeric or non-finite cell. The
    whole file is decoded, and its rows counted, before any cell is parsed,
    so a byte that is not UTF-8 anywhere wins over a bad cell; a second
    pass then fills the value and mask arrays one row at a time.
    """
    with prefixed(path):
        with open_text(path, newline="") as fh:
            widths = [len(row) for row in csv.reader(fh) if row]  # fully empty lines dropped
            if not widths:
                raise ParseError("empty file")
            if has_header:
                widths = widths[1:]
            if not widths:
                raise ParseError("header only, no data rows")
            fh.seek(0)
            rows = filter(None, csv.reader(fh))
            col_ids = [c.strip() for c in next(rows)] if has_header else []

            width = widths[0]
            values = np.zeros((len(widths), width))
            mask = np.ones(values.shape, dtype=bool)
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise ParseError(f"ragged row {i + 1} has {len(row)} cells, expected {width}")
                line = [0.0] * width
                for j, cell in enumerate(row):
                    cell = cell.strip()
                    if cell == "":
                        mask[i, j] = False
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ParseError(f"non-numeric cell at row {i + 1}, "
                                         f"column {j + 1}: {cell!r}") from None
                    if not math.isfinite(value):
                        raise ParseError(f"non-finite cell at row {i + 1}, "
                                         f"column {j + 1}: {cell!r}")
                    line[j] = value
                values[i] = line
        if col_ids and len(col_ids) != width:
            raise ParseError(f"header has {len(col_ids)} names for {width} columns")
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
    Each N x N array is freed after its last use and the arithmetic runs in
    place, so at most five are held at once.
    """
    m = data.mask.astype(float)
    x = np.where(data.mask, data.values, 0.0)
    mean = x.sum(1, keepdims=True) / np.maximum(m.sum(1, keepdims=True), 1.0)
    x = np.where(data.mask, x - mean, 0.0)
    count, sums, squares = m @ m.T, x @ m.T, (x * x) @ m.T  # [i, j]: row i on pair's window
    del m
    with np.errstate(divide="ignore", invalid="ignore"):
        var = sums * sums
        var /= count
        np.subtract(squares, var, out=var)  # squares - sums * sums / count
    far = squares > 100 * var
    squares *= 1e-12  # in place: squares' last use
    flat = ~(var > squares)  # also true for the NaN of an empty window
    del squares
    bad = np.argwhere(np.triu((count < min_overlap) | flat | flat.T, k=1))
    if bad.size:
        i, j = bad[0]
        pair, overlap = f"rows ({data.row_ids[i]}, {data.row_ids[j]})", int(count[i, j])
        if overlap < min_overlap:
            raise InsufficientOverlapError(
                f"{pair} share only {overlap} columns, need >= {min_overlap}")
        raise DegeneratePairError(f"{pair} have zero variance on their {overlap}-column overlap")
    i, j = np.nonzero(np.triu(far | far.T, k=1))
    redo_count = count[i, j, None]

    with np.errstate(divide="ignore", invalid="ignore"):
        cross = sums * sums.T
        del sums
        cross /= count
        del count
        r = x @ x.T
        r -= cross  # x @ x.T - sums * sums.T / count
        np.multiply(var, var.T, out=cross)
        r /= np.sqrt(cross, out=cross)
    joint = data.mask[i] & data.mask[j]
    a, b = (np.where(joint, v - (v * joint).sum(1, keepdims=True) / redo_count, 0.0)
            for v in (x[i], x[j]))
    r[i, j] = r[j, i] = (a * b).sum(1) / np.sqrt((a * a).sum(1) * (b * b).sum(1))
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(r, "pearson", row_ids=list(data.row_ids))


def make_positive_definite(corr: CorrelationMatrix, eps: float = _PD_EPS) -> CorrelationMatrix:
    """Repair a symmetric matrix to unit diagonal and smallest eigenvalue >= eps.

    Input that already qualifies is returned unchanged. Otherwise one eigh
    clips the spectrum at c = 2 eps max(1, lambda_max) and the rebuilt B is
    rescaled to D^-1 B D^-1, D = sqrt(diag B). By congruence its smallest
    eigenvalue is >= c / max_i B_ii >= 2 eps; one left under eps by
    rounding is a DomainError. The repair runs in place where it can, so
    it holds at most three N x N arrays besides the input and eigh's own.
    """
    a = np.asarray(corr.values, dtype=float)
    if not np.allclose(a, a.T, rtol=0, atol=_SYMMETRY_ATOL):
        raise DomainError("make_positive_definite requires a symmetric matrix")
    a = a + a.T
    a *= 0.5
    if np.linalg.eigvalsh(a)[0] < eps or np.max(np.abs(np.diag(a) - 1.0)) > _UNIT_TOL:
        w, v = np.linalg.eigh(a)
        del a
        a = (v * np.maximum(w, 2.0 * eps * max(1.0, w[-1]))) @ v.T
        del v
        scale = np.outer(np.diag(a), np.diag(a))
        a /= np.sqrt(scale, out=scale)
        a = np.add(a, a.T, out=scale)
        a *= 0.5
        np.fill_diagonal(a, 1.0)
        if (low := np.linalg.eigvalsh(a)[0]) < eps:
            raise DomainError(f"positive-definite repair left smallest eigenvalue "
                              f"{low:.3g} < eps = {eps:.3g}")
    return CorrelationMatrix(a, corr.kind, row_ids=list(corr.row_ids))
