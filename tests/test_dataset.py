import csv
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclust import dataset
from spinclust.dataset import (
    CORRELATION_KINDS,
    CorrelationMatrix,
    DataMatrix,
    load_envelope,
    load_matrix,
    log_returns,
    make_positive_definite,
    pairwise_overlap_correlation,
    read_json,
    save_envelope,
    write_json,
)
from spinclust.errors import (
    DegeneratePairError,
    DomainError,
    InsufficientOverlapError,
    ParseError,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadMatrix:
    def test_plain_numbers(self, tmp_path):
        p = write(tmp_path, "1,2\n3,4\n5,6\n")
        dm = load_matrix(p, has_header=False)
        assert dm.n_rows == 3 and dm.n_cols == 2
        assert dm.mask.all()
        np.testing.assert_array_equal(dm.values, [[1, 2], [3, 4], [5, 6]])

    def test_header_names_columns(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,4\n")
        dm = load_matrix(p, has_header=True)
        assert dm.col_ids == ["a", "b"]
        assert dm.n_rows == 2

    def test_blank_cell_masked(self, tmp_path):
        p = write(tmp_path, "1,2\n3,\n5,6\n")
        dm = load_matrix(p, has_header=False)
        assert not dm.mask[1, 1]
        assert dm.mask.sum() == 5

    def test_ragged_row_names_row(self, tmp_path):
        p = write(tmp_path, "1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="row 2"):
            load_matrix(p, has_header=False)

    def test_non_numeric_names_coordinates(self, tmp_path):
        p = write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            load_matrix(p, has_header=False)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_names_coordinates(self, tmp_path, cell):
        p = write(tmp_path, f"1,2\n3,4\n5,{cell}\n")
        with pytest.raises(ParseError, match="non-finite cell at row 3, column 2"):
            load_matrix(p, has_header=False)

    def test_non_utf8_byte_names_file_offset(self, tmp_path):
        # past the text decoder's first chunk, so its chunk-relative offset would differ
        head = b"a,b\n" + b"1,2\n" * 3000
        p = tmp_path / "bad.csv"
        p.write_bytes(head + b"3,\xff4\n")
        with pytest.raises(ParseError, match=f"bad.csv: not UTF-8 text: byte 0xff at offset "
                                             f"{len(head) + 2}$"):
            load_matrix(p)

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3\n4,x\n", "ragged row 2 has 1 cells, expected 2"),
        ("a,b\n1,2\n3, x \n4\n", "non-numeric cell at row 2, column 2: 'x'"),
        ("a,b,c\n\n1, nan ,x\n", "non-finite cell at row 1, column 2: 'nan'"),
        ("", "empty file"),
        ("\n\r\n", "empty file"),
        ("a,b\n\n", "header only, no data rows"),
        ("a,b,c\n1,2\n", "header has 3 names for 2 columns"),
        ("a,b,c\n1,x\n", "non-numeric cell at row 1, column 2: 'x'"),
    ], ids=["ragged-before-cell", "cell-before-ragged", "first-bad-cell-of-row", "empty",
            "blank-lines", "header-only", "header-width", "cell-before-header-width"])
    def test_errors_and_their_order(self, tmp_path, text, message):
        p = write(tmp_path, text)
        with pytest.raises(ParseError) as got:
            load_matrix(p)
        assert str(got.value) == f"{p}: {message}"

    def test_non_utf8_byte_wins_over_an_earlier_bad_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"a,b\n1,x\n2,\xff\n")
        with pytest.raises(ParseError) as got:
            load_matrix(p)
        assert str(got.value) == f"{p}: not UTF-8 text: byte 0xff at offset 10"

    def test_non_finite_masked_cell_allowed(self):
        vals = np.array([[1.0, np.nan], [2.0, 3.0]])
        mask = np.array([[True, False], [True, True]])
        assert not DataMatrix(vals, mask).mask[0, 1]

    def test_non_finite_present_value_rejected(self):
        vals = np.array([[1.0, 2.0], [np.inf, 3.0]])
        with pytest.raises(ParseError, match="row '1', column 'a'"):
            DataMatrix(vals, None, col_ids=["a", "b"])


class TestLogReturns:
    def test_single_step(self):
        dm = DataMatrix(np.array([[100.0, 110.0], [100.0, 100.0]]), None)
        out = log_returns(dm)
        # ln(110/100), frozen from direct evaluation
        assert out.values[0, 0] == pytest.approx(0.09531017980432486, abs=1e-15)

    def test_constant_row_gives_zeros(self):
        dm = DataMatrix(np.array([[50.0, 50.0, 50.0], [1.0, 2.0, 3.0]]), None)
        out = log_returns(dm)
        np.testing.assert_allclose(out.values[0], [0.0, 0.0])

    def test_masked_price_masks_both_adjacent_returns(self):
        vals = np.array([[100.0, 0.0, 121.0], [1.0, 1.0, 1.0]])
        mask = np.array([[True, False, True], [True, True, True]])
        out = log_returns(DataMatrix(vals, mask))
        assert not out.mask[0, 0] and not out.mask[0, 1]
        assert out.mask[1].all()

    def test_width_shrinks_by_one(self):
        rng = np.random.default_rng(0)
        dm = DataMatrix(rng.uniform(1, 2, size=(4, 7)), None)
        assert log_returns(dm).n_cols == 6

    def test_nonpositive_price_rejected(self):
        dm = DataMatrix(np.array([[100.0, -1.0], [1.0, 1.0]]), None)
        with pytest.raises(DomainError, match="row 0, column 1"):
            log_returns(dm)


def overlap_reference(data: DataMatrix, min_overlap: int = 3) -> np.ndarray:
    """Per-pair loop oracle: two-pass Pearson on each pair's joint columns."""
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
    return out


@st.composite
def masked_panels(draw):
    """Random masked rows with their own offset and scale, plus a min_overlap."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = rng.choice([-1.0, 1.0], size=(n, 1)) * 10.0 ** rng.uniform(-1, 3, size=(n, 1))
    scale = 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    vals = offset + scale * rng.normal(size=(n, d))
    mask = rng.random((n, d)) >= draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    return DataMatrix(vals, mask), draw(st.integers(2, 4))


class TestOverlapCorrelation:
    @settings(max_examples=300)
    @given(masked_panels())
    def test_matches_per_pair_reference(self, case):
        data, min_overlap = case
        try:
            ref = overlap_reference(data, min_overlap)
        except InsufficientOverlapError as exc:
            with pytest.raises(InsufficientOverlapError) as got:
                pairwise_overlap_correlation(data, min_overlap)
            assert str(got.value) == str(exc)
            return
        out = pairwise_overlap_correlation(data, min_overlap).values
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-12)
        assert np.array_equal(out, out.T) and np.all(np.diag(out) == 1.0)

    @pytest.mark.parametrize("row", [[0.1, 0.1, 0.1, 5.0], [0.1, 0.1, 0.1, 0.1]],
                             ids=["window", "row"])
    def test_constant_window_rejected(self, row):
        # 0.1 * 3 / 3 rounds to 0.10000000000000002, so a two-pass mean on
        # this window leaves residuals of ~1e-17 rather than exact zeros
        vals = np.array([row, [1.0, 2.0, 4.0, 0.0]])
        mask = np.array([[True] * 4, [True, True, True, False]])
        with pytest.raises(DegeneratePairError, match=r"rows \(a, b\).*3-column overlap"):
            pairwise_overlap_correlation(DataMatrix(vals, mask, row_ids=["a", "b"]))

    def test_short_window_far_from_row_mean(self):
        # on two columns every Pearson r is +-1; row 0's window sits ~2000
        # spreads from its row mean, where one-pass sums lose ~7 digits
        vals = np.array([[1.0, 1.001, 40.0, -30.0], [2.0, 3.0, 0.0, 0.0]])
        mask = np.array([[True] * 4, [True, True, False, False]])
        out = pairwise_overlap_correlation(DataMatrix(vals, mask), min_overlap=2)
        assert out.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_first_failing_pair_in_row_major_order(self):
        # (1, 2) share no column, but (0, 3) comes first and is degenerate
        vals = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                         [1.0, 3.0, 2.0, 5.0, 4.0, 6.0],
                         [6.0, 1.0, 2.0, 3.0, 5.0, 4.0],
                         [7.0] * 6])
        mask = np.ones((4, 6), dtype=bool)
        mask[1, 3:] = False
        mask[2, :3] = False
        with pytest.raises(DegeneratePairError, match=r"\(0, 3\)"):
            pairwise_overlap_correlation(DataMatrix(vals, mask))
        vals[3] = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0]
        with pytest.raises(InsufficientOverlapError, match=r"\(1, 2\) share only 0"):
            pairwise_overlap_correlation(DataMatrix(vals, mask))

    def test_full_mask_equals_plain_pearson(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(8, 12))
        out = pairwise_overlap_correlation(DataMatrix(vals, None))
        ref = np.corrcoef(vals)
        np.testing.assert_allclose(out.values, ref, atol=1e-12)
        assert out.kind == "pearson"

    def test_short_overlap_rejected(self):
        vals = np.array([[1.0, 2.0, 3.0, 0.0], [2.0, 4.0, 0.0, 9.0]])
        mask = np.array([[True, True, True, False], [True, True, False, True]])
        with pytest.raises(InsufficientOverlapError, match=r"\(0, 1\)"):
            pairwise_overlap_correlation(DataMatrix(vals, mask))

    def test_overlap_pearson_on_joint_columns(self):
        vals = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 0.0]])
        mask = np.array([[True] * 4, [True, True, True, False]])
        out = pairwise_overlap_correlation(DataMatrix(vals, mask))
        # Pearson of [1,2,3] vs [2,4,6] on the 3-column overlap
        assert out.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_pair_rejected(self):
        vals = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        with pytest.raises(DegeneratePairError):
            pairwise_overlap_correlation(DataMatrix(vals, None))


def traced_peak(f, *args):
    """f(*args) and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the memory guards' size: N x D with 3% blank cells
GUARD_N, GUARD_D = 300, 250
NN = GUARD_N * GUARD_N * 8  # bytes of one N x N float array


def guard_panel() -> DataMatrix:
    """An N x D panel with 3% blank cells; five rows take a spike in column 0,
    which five others leave blank, so those pairs are redone two-pass."""
    rng = np.random.default_rng(11)
    vals = 10.0 + rng.normal(size=(GUARD_N, GUARD_D))
    mask = rng.random((GUARD_N, GUARD_D)) >= 0.03
    vals[:5, 0], mask[:5, 0], mask[5:10, 0] = 1e6, True, False
    return DataMatrix(vals, mask)


def overlap_before(data: DataMatrix) -> np.ndarray:
    """pairwise_overlap_correlation's values by its whole-array expressions of
    before it ran in place, on input that raises nothing: a bit oracle."""
    m = data.mask.astype(float)
    x = np.where(data.mask, data.values, 0.0)
    mean = x.sum(1, keepdims=True) / np.maximum(m.sum(1, keepdims=True), 1.0)
    x = np.where(data.mask, x - mean, 0.0)
    count, sums, squares = m @ m.T, x @ m.T, (x * x) @ m.T
    var = squares - sums * sums / count
    r = (x @ x.T - sums * sums.T / count) / np.sqrt(var * var.T)
    i, j = np.nonzero(np.triu((squares > 100 * var) | (squares > 100 * var).T, k=1))
    assert i.size, "no pair is redone two-pass"
    joint = data.mask[i] & data.mask[j]
    a, b = (np.where(joint, v - (v * joint).sum(1, keepdims=True) / count[i, j, None], 0.0)
            for v in (x[i], x[j]))
    r[i, j] = r[j, i] = (a * b).sum(1) / np.sqrt((a * a).sum(1) * (b * b).sum(1))
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r


def repair_before(values: np.ndarray, eps: float = 1e-10) -> np.ndarray:
    """make_positive_definite's values by its expressions of before it ran in place."""
    a = 0.5 * (values + values.T)
    if np.linalg.eigvalsh(a)[0] < eps or np.max(np.abs(np.diag(a) - 1.0)) > 1e-12:
        w, v = np.linalg.eigh(a)
        a = (v * np.maximum(w, 2.0 * eps * max(1.0, w[-1]))) @ v.T
        a = a / np.sqrt(np.outer(np.diag(a), np.diag(a)))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 1.0)
    return a


def load_before(path) -> tuple[np.ndarray, np.ndarray]:
    """load_matrix's values and mask, from every cell kept as a string, on valid input."""
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [[cell.strip() for cell in row] for row in csv.reader(fh) if row][1:]
    return (np.array([[float(c) if c else 0.0 for c in row] for row in cells]),
            np.array([[c != "" for c in row] for row in cells]))


class TestPreprocessBitsAndMemory:
    """Same bits as the whole-array expressions, within a bound in N x N arrays.

    Before the in-place rewrite the traced peaks read 8.7 (overlap), 4.0
    (repair) and 10.7 N x D arrays (loader).
    """

    def test_load_matrix(self, tmp_path):
        data = guard_panel()
        p = tmp_path / "panel.csv"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"d{j}" for j in range(GUARD_D)) + "\n")
            for row, seen in zip(data.values.tolist(), data.mask.tolist()):
                fh.write(",".join(f" {v!r}" if k else " " for v, k in zip(row, seen)) + "\n")
        got, peak = traced_peak(load_matrix, p)
        values, mask = load_before(p)
        assert got.values.tobytes() == values.tobytes()
        assert np.array_equal(got.mask, mask) and np.array_equal(mask, data.mask)
        assert peak <= 2.5 * GUARD_N * GUARD_D * 8

    def test_pairwise_overlap_correlation(self):
        data = guard_panel()
        got, peak = traced_peak(pairwise_overlap_correlation, data)
        assert got.values.tobytes() == overlap_before(data).tobytes()
        assert peak <= 6.5 * NN

    @pytest.mark.parametrize("skew", [0.0, 1e-13])
    def test_make_positive_definite(self, skew):
        corr = pairwise_overlap_correlation(guard_panel())
        values = corr.values + np.triu(np.full(corr.values.shape, skew), k=1)
        got, peak = traced_peak(make_positive_definite, CorrelationMatrix(values, "pearson"))
        assert np.linalg.eigvalsh(corr.values)[0] < 1e-10  # N > D: the repair runs
        assert got.values.tobytes() == repair_before(values).tobytes()
        assert peak <= 3.5 * NN


class TestMakePositiveDefinite:
    def test_identity_unchanged(self):
        c = CorrelationMatrix(np.eye(4), "pearson")
        out = make_positive_definite(c)
        np.testing.assert_array_equal(out.values, np.eye(4))

    def test_already_pd_unchanged(self):
        c = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), "pearson")
        out = make_positive_definite(c)
        np.testing.assert_array_equal(out.values, c.values)

    def test_indefinite_matrix_repaired(self):
        # eigenvalues of this matrix: one is negative
        a = np.array([[1.0, 0.9, -0.9],
                      [0.9, 1.0, 0.9],
                      [-0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(a)[0] < 0
        out = make_positive_definite(CorrelationMatrix(a, "pearson"))
        w = np.linalg.eigvalsh(out.values)
        assert w[0] >= 1e-10
        np.testing.assert_allclose(np.diag(out.values), 1.0, atol=1e-12)
        np.testing.assert_allclose(out.values, out.values.T, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_deficient_corrcoef_repaired(self, seed):
        # N > D: corrcoef has rank < D, so N - D + 1 eigenvalues are ~0
        rng = np.random.default_rng(seed)
        a = np.corrcoef(rng.normal(size=(40, 12)))
        out = make_positive_definite(CorrelationMatrix(a, "pearson"))
        assert np.linalg.eigvalsh(out.values)[0] >= 1e-10
        assert np.all(np.diag(out.values) == 1.0)
        assert np.array_equal(out.values, out.values.T)
        again = make_positive_definite(out)
        assert np.array_equal(again.values, out.values)

    def test_relative_asymmetry_rejected(self):
        # 2e-6 apart: inside numpy's default rtol, outside the absolute 1e-12
        a = np.array([[1.0, 0.5], [0.500002, 1.0]])
        with pytest.raises(DomainError, match="requires a symmetric matrix"):
            make_positive_definite(CorrelationMatrix(a, "pearson"))

    def test_unreachable_eps_raises(self):
        # a unit diagonal makes the trace N, so no eigenvalue floor above 1 holds
        a = np.array([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(DomainError, match="smallest eigenvalue"):
            make_positive_definite(CorrelationMatrix(a, "pearson"), eps=2.0)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(6, 6))
        a = 0.5 * (b + b.T)
        np.fill_diagonal(a, 1.0)
        once = make_positive_definite(CorrelationMatrix(a, "pearson"))
        twice = make_positive_definite(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-10)


class TestEnvelopes:
    def test_data_round_trip_preserves_mask(self, tmp_path):
        vals = np.array([[1.5, 2.0], [0.0, 4.25], [5.0, 6.0]])
        mask = np.array([[True, True], [False, True], [True, True]])
        dm = DataMatrix(vals, mask, row_ids=["x", "y", "z"], col_ids=["a", "b"])
        p = tmp_path / "dm.json"
        save_envelope(dm, p)
        back = load_envelope(p)
        assert isinstance(back, DataMatrix)
        np.testing.assert_array_equal(back.mask, mask)
        np.testing.assert_array_equal(back.values[mask], vals[mask])
        assert back.row_ids == ["x", "y", "z"]

    def test_data_envelope_text_matches_per_cell_form(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(9, 7)) * 10.0 ** rng.integers(-300, 300, size=(9, 7))
        vals[0, :3] = [-0.0, 0.0, 5e-324]
        mask = rng.random((9, 7)) < 0.8
        mask[0, :3] = True
        vals[~mask & (rng.random((9, 7)) < 0.5)] = np.nan  # a blank cell's value is not read
        dm = DataMatrix(vals, mask)
        per_cell = [[vals[i, j] if mask[i, j] else None for j in range(7)] for i in range(9)]
        doc = dm.to_envelope()
        assert json.dumps(doc) == json.dumps({**doc, "values": per_cell})
        assert "-0.0, 0.0, 5e-324" in json.dumps(doc["values"])

    def test_correlation_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(5, 9))
        corr = pairwise_overlap_correlation(DataMatrix(vals, None))
        p = tmp_path / "corr.json"
        save_envelope(corr, p)
        back = load_envelope(p)
        assert isinstance(back, CorrelationMatrix)
        assert back.kind == "pearson"
        np.testing.assert_array_equal(back.values, corr.values)

    def test_write_json_refuses_non_finite(self, tmp_path):
        p = tmp_path / "x.json"
        with pytest.raises(DomainError, match="x.json"):
            write_json({"values": [1.0, float("nan")]}, p)
        assert not p.exists()
        write_json({"values": [1.0, 0.5]}, p)
        assert p.read_text() == '{"values": [1.0, 0.5]}\n'

    @pytest.mark.parametrize("bad", [{"values": [1.0, float("nan")]},
                                     CorrelationMatrix(np.full((3, 3), np.inf), "pearson")
                                     .to_envelope()], ids=["list", "matrix"])
    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, bad):
        p = tmp_path / "x.json"
        write_json({"values": [1.0, 0.5]}, p)
        good = p.read_bytes()
        with pytest.raises(DomainError, match="x.json: not written"):
            write_json(bad, p)
        assert p.read_bytes() == good
        assert list(tmp_path.iterdir()) == [p]  # no temporary file left

    def test_unwritable_path_is_named(self, tmp_path):
        p = tmp_path / "missing" / "x.json"
        with pytest.raises(FileNotFoundError) as got:
            write_json({"a": 1}, p)
        assert got.value.filename == str(p)

    def test_symlink_output_is_written_through(self, tmp_path):
        """Moving a temporary file onto a link would replace the link, as it would
        /dev/stdout, so a path that is not a regular file is written in place."""
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("earlier\n")
        link.symlink_to(target)
        write_json({"a": 1}, link)
        assert link.is_symlink()
        assert target.read_text() == '{"a": 1}\n'
        assert sorted(f.name for f in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_write_json_text_is_json_dump(self, tmp_path):
        doc = {"kind": "x", "empty": [], "pair": (1, 2.5), "n": 3, "none": None,
               "name": "caf\u00e9 \"q\"", "nested": {"a": [1, {"b": [0.1, -2e-300]}]},
               "rows": [[0.1, 1e300], {"labels": [0, 1]}, "s", 7, True]}
        p = tmp_path / "doc.json"
        write_json(doc, p)
        assert p.read_text(encoding="utf-8") == json.dumps(doc) + "\n"
        with pytest.raises(DomainError, match="doc.json"):
            write_json({"ok": 1.0, "rows": [[1.0], [float("inf")]]}, p)
        assert p.read_text(encoding="utf-8") == json.dumps(doc) + "\n"  # the earlier file

    def test_write_json_unencodable_value_leaves_no_file(self, tmp_path):
        p = tmp_path / "x.json"
        with pytest.raises(TypeError, match="set"):
            write_json({"a": 1, "b": {1, 2}}, p)
        assert not p.exists()

    @staticmethod
    def envelope_text(values):
        doc = CorrelationMatrix(values, "pearson").to_envelope()
        return json.dumps({**doc, "values": doc["values"].tolist()}) + "\n"

    def test_symmetric_matrix_text_is_json_dump(self, tmp_path):
        rng = np.random.default_rng(5)
        a = np.corrcoef(rng.normal(size=(7, 12)))
        a = 0.5 * (a + a.T)
        a[1, 4] = np.nextafter(a[4, 1], 2.0)  # one bit off its mirror
        a[2, 5], a[5, 2] = -0.0, 0.0           # equal, but not the same bits
        a[3, 6] = a[6, 3] = 1e-300
        p = tmp_path / "corr.json"
        save_envelope(CorrelationMatrix(a, "pearson"), p)
        assert p.read_text(encoding="utf-8") == self.envelope_text(a)
        assert "-0.0" in p.read_text()

    def test_one_by_one_matrix_text(self, tmp_path):
        p = tmp_path / "one.json"
        save_envelope(CorrelationMatrix([[1.0]], "pearson"), p)
        assert p.read_text(encoding="utf-8") == self.envelope_text(np.ones((1, 1)))

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_cell_leaves_no_file(self, tmp_path, cell):
        a = np.eye(4)
        a[3, 1] = cell
        p = tmp_path / "bad.json"
        with pytest.raises(DomainError, match="bad.json: not written, Out of range float"):
            save_envelope(CorrelationMatrix(a, "pearson"), p)
        assert not p.exists()

    @pytest.mark.parametrize("kind", ["data", "pearson"])
    @pytest.mark.parametrize("field, value, expect", [
        ("values", [[1.0, 0.5], [0.5]], r"values\[1\] has 1 cells, values\[0\] has 2"),
        ("values", [1.0, 0.5], r"values\[0\] is 1.0, not a list"),
        ("values", [], "non-empty list of rows"),
        ("values", [["x", 1.0], [1.0, 1.0]], "non-numeric cell"),
        ("values", [[True, "0.5"], ["0.5", 1]],
         r"non-numeric cell true at row 'a', column 'a'$"),
        ("values", [[1.0, 0.5], [0.5, "2.5"]],
         r"non-numeric cell \"2.5\" at row 'b', column 'b'$"),
        ("values", [[1.0, [0.5]], [0.5, 1.0]],
         r"non-numeric cell \[0.5\] at row 'a', column 'b'$"),
        ("row_ids", 5, r"bad.json: row_ids is 5, not a list of ids$"),
        ("row_ids", "ab", r"bad.json: row_ids is 'ab', not a list of ids$"),
        ("col_ids", 5, r"bad.json: col_ids is 5, not a list of ids$"),
        ("col_ids", "ab", r"bad.json: col_ids is 'ab', not a list of ids$"),
    ], ids=["ragged", "flat", "empty", "string", "bool_first", "numeric_string", "list",
            "row_ids_number", "row_ids_string", "col_ids_number", "col_ids_string"])
    def test_malformed_values_rejected(self, tmp_path, kind, field, value, expect):
        doc = {"kind": kind, "row_ids": ["a", "b"], "col_ids": ["a", "b"],
               "values": [[1.0, 0.5], [0.5, 1.0]]}
        doc[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=expect):
            load_envelope(p)

    @pytest.mark.parametrize("col_ids", [["a", "b", "c"], ["a"], [], ["b", "a"], ["a", 2]],
                             ids=["longer", "shorter", "empty", "reordered", "number"])
    def test_correlation_col_ids_must_equal_row_ids(self, tmp_path, col_ids):
        doc = {"kind": "pearson", "row_ids": ["a", "2"], "col_ids": col_ids,
               "values": [[1.0, 0.5], [0.5, 1.0]]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"bad.json: col_ids must equal row_ids"):
            load_envelope(p)

    @pytest.mark.parametrize("field, ids", [("row_ids", ["a"]), ("col_ids", ["x", "y", "z"])])
    def test_data_id_lengths_name_the_file(self, tmp_path, field, ids):
        doc = {"kind": "data", "row_ids": ["a", "b"], "col_ids": ["x", "y"],
               "values": [[1.0, 0.5], [0.5, 1.0]]}
        doc[field] = ids
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=r"bad.json: row/col id lengths must match"):
            load_envelope(p)

    @pytest.mark.parametrize("kind", ["pearson", "denoised_rmt", "denoised_imn",
                                      "similarity_from_distance"])
    def test_diagonal_must_be_one(self, tmp_path, kind):
        c = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0 + 1e-9]])
        p = tmp_path / "c.json"
        save_envelope(CorrelationMatrix(c, kind, row_ids=["a", "b", "c"]), p)
        with pytest.raises(DomainError, match=r"diagonal entry \('c', 'c'\)"):
            load_envelope(p)
        c[2, 2] = 1.0 + 1e-13
        save_envelope(CorrelationMatrix(c, kind, row_ids=["a", "b", "c"]), p)
        assert load_envelope(p).values[2, 2] == 1.0 + 1e-13

    def test_first_skewed_pair_is_named(self, tmp_path):
        c = np.eye(5)
        c[0, 1], c[1, 0] = 0.5, 0.5 + 1e-13   # unequal, but within the tolerance
        c[1, 3], c[3, 1] = 0.2, 0.3
        c[2, 4], c[4, 2] = -0.1, 0.1
        c[4, 0] = 0.4                          # skewed below the diagonal only
        p = tmp_path / "c.json"
        save_envelope(CorrelationMatrix(c, "pearson", row_ids=list("abcde")), p)
        with pytest.raises(DomainError, match=r"not symmetric: \('a', 'e'\) is 0.0 but "
                                              r"\('e', 'a'\) is 0.4$"):
            load_envelope(p)
        c[4, 0] = 0.0
        save_envelope(CorrelationMatrix(c, "pearson", row_ids=list("abcde")), p)
        with pytest.raises(DomainError, match=r"not symmetric: \('b', 'd'\) is 0.2 but "
                                              r"\('d', 'b'\) is 0.3$"):
            load_envelope(p)

    def test_skewed_pair_is_the_first_of_the_full_comparison(self, tmp_path):
        rng = np.random.default_rng(11)
        p = tmp_path / "c.json"
        ids = [f"r{i}" for i in range(9)]
        for _ in range(30):
            c = np.eye(9)
            for _ in range(rng.integers(1, 6)):
                i, j = rng.integers(0, 9, size=2)
                if i != j:
                    c[i, j] += rng.choice([1e-13, 2e-12, 0.25])
            skew = np.argwhere(~np.isclose(c, c.T, atol=1e-12))
            save_envelope(CorrelationMatrix(c, "pearson", row_ids=ids), p)
            if not skew.size:
                load_envelope(p)
                continue
            i, j = skew[0]
            with pytest.raises(DomainError) as err:
                load_envelope(p)
            assert str(err.value).endswith(
                f"({ids[i]!r}, {ids[j]!r}) is {float(c[i, j])!r} but "
                f"({ids[j]!r}, {ids[i]!r}) is {float(c[j, i])!r}")

    @pytest.mark.parametrize("kind, bounded", [
        ("pearson", True), ("denoised_rmt", True), ("similarity_from_distance", True),
        ("denoised_imn", True)])
    def test_entries_bounded_by_one(self, tmp_path, kind, bounded):
        c = np.array([[1.0, -1.0 - 1e-9], [-1.0 - 1e-9, 1.0]])
        p = tmp_path / "c.json"
        save_envelope(CorrelationMatrix(c, kind, row_ids=["a", "b"]), p)
        if bounded:
            with pytest.raises(DomainError, match=r"\('a', 'b'\) is -1.000000001"):
                load_envelope(p)
        else:
            assert load_envelope(p).values[0, 1] == -1.0 - 1e-9
        c[0, 1] = c[1, 0] = -1.0 - 1e-13
        save_envelope(CorrelationMatrix(c, kind, row_ids=["a", "b"]), p)
        assert load_envelope(p).kind == kind

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "data",')
        with pytest.raises(ParseError, match="bad.json: invalid JSON"):
            read_json(p)
        with pytest.raises(ParseError, match="bad.json: invalid JSON"):
            load_envelope(p)

    def test_non_utf8_json_names_file_offset(self, tmp_path):
        head = b'{"kind": "data", "pad": "' + b"x" * 20000
        p = tmp_path / "bad.json"
        p.write_bytes(head + b'\xff"}')
        for reader in (read_json, load_envelope):
            with pytest.raises(ParseError, match=f"bad.json: not UTF-8 text: byte 0xff at "
                                                 f"offset {len(head)}$"):
                reader(p)

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "data", "values": []}))
        with pytest.raises(ParseError, match="row_ids"):
            load_envelope(p)


def _sidecar_cases():
    rng = np.random.default_rng(3)
    a = np.corrcoef(rng.normal(size=(6, 9)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 1.0)
    a[0, 2], a[2, 0] = -0.0, 0.0
    a[1, 3] = a[3, 1] = -0.0
    skewed, diagonal, above_one = a.copy(), a.copy(), a.copy()
    skewed[4, 1] += 0.25
    diagonal[5, 5] = 1.0 + 1e-9
    above_one[2, 4] = above_one[4, 2] = -1.5
    ids = [f"s{i}" for i in range(6)]
    return {"valid": (a, ids), "fortran_order": (np.asfortranarray(a), ids),
            "skewed": (skewed, ids), "diagonal": (diagonal, ids),
            "above_one": (above_one, ids), "short_ids": (a, ids[:5]),
            "one_by_one": (np.ones((1, 1)), ["x"])}


SIDECAR_CASES = _sidecar_cases()


class TestSidecar:
    """A correlation envelope's npz sidecar, with the JSON path as the oracle."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths whose JSON text load_envelope parses."""
        calls = []
        read = dataset.read_json

        def spy(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(dataset, "read_json", spy)
        return calls

    @staticmethod
    def load(path):
        """load_envelope's correlation, or the type and text of the error it raises."""
        try:
            return load_envelope(path)
        except (ParseError, DomainError) as exc:
            return type(exc), str(exc)

    @staticmethod
    def assert_same(fast, slow):
        if isinstance(slow, tuple):
            assert fast == slow
            return
        for corr in (fast, slow):
            assert corr.values.dtype == np.float64 and corr.values.flags.c_contiguous
        assert fast.values.tobytes() == slow.values.tobytes()
        assert (fast.kind, fast.row_ids) == (slow.kind, slow.row_ids)

    @pytest.mark.parametrize("kind", CORRELATION_KINDS)
    @pytest.mark.parametrize("case", SIDECAR_CASES)
    def test_sidecar_load_equals_json_load(self, tmp_path, parses, case, kind):
        values, ids = SIDECAR_CASES[case]
        p = tmp_path / "c.json"
        save_envelope(CorrelationMatrix(values, kind, row_ids=ids), p)
        fast = self.load(p)
        assert parses == []
        (tmp_path / "c.json.npz").unlink()
        slow = self.load(p)
        assert parses == [p]
        self.assert_same(fast, slow)
        if case == "valid":
            assert np.signbit(fast.values[[0, 1, 3], [2, 3, 1]]).all()
        elif case in ("skewed", "diagonal", "above_one", "short_ids"):
            assert isinstance(fast, tuple)

    @pytest.mark.parametrize("ids", [[0, 1, 2], ["a", "b\0", "c"]], ids=["int", "nul_suffix"])
    def test_ids_a_str_array_would_change_get_no_sidecar(self, tmp_path, parses, ids):
        p = tmp_path / "c.json"
        save_envelope(CorrelationMatrix(np.eye(3), "pearson", row_ids=ids), p)
        assert not (tmp_path / "c.json.npz").exists()
        assert load_envelope(p).row_ids == [str(r) for r in ids]
        assert parses == [p]

    def test_json_is_parsed_when_the_sidecar_does_not_match(self, tmp_path, parses):
        c = np.eye(3)
        c[0, 1] = c[1, 0] = 0.25
        p, sidecar = tmp_path / "c.json", tmp_path / "c.json.npz"
        save_envelope(CorrelationMatrix(np.eye(3), "pearson"), tmp_path / "other.json")
        spoils = {
            "edited_json": lambda: p.write_text(p.read_text().replace("0.25", "0.75")),
            "truncated": lambda: sidecar.write_bytes(
                sidecar.read_bytes()[:sidecar.stat().st_size // 2]),
            "another_envelopes": lambda: sidecar.write_bytes(
                (tmp_path / "other.json.npz").read_bytes()),
            "pickled": lambda: sidecar.write_bytes(
                pickle.dumps({"values": np.zeros((3, 3)), "kind": "pearson"})),
            "empty": lambda: sidecar.write_bytes(b""),
        }
        for name, spoil in spoils.items():
            save_envelope(CorrelationMatrix(c, "pearson"), p)
            size = p.stat().st_size
            spoil()
            assert p.stat().st_size == size  # an edit of the same length
            parses.clear()
            got = load_envelope(p)
            assert parses == [p], name
            expect = np.asarray(json.loads(p.read_text())["values"])
            assert got.values.tobytes() == expect.tobytes(), name

    def test_data_envelope_gets_no_sidecar_and_removes_a_stale_one(self, tmp_path, parses):
        p = tmp_path / "e.json"
        save_envelope(CorrelationMatrix(np.eye(3), "pearson"), p)
        assert (tmp_path / "e.json.npz").is_file()
        save_envelope(DataMatrix(np.ones((3, 2)), None), p)
        assert not (tmp_path / "e.json.npz").exists()
        assert isinstance(load_envelope(p), DataMatrix)
        assert parses == [p]

    def test_failed_sidecar_write_leaves_no_file(self, tmp_path, monkeypatch):
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", full)
        p = tmp_path / "c.json"
        with pytest.raises(OSError, match="No space left"):
            save_envelope(CorrelationMatrix(np.eye(3), "pearson"), p)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["c.json"]
        assert load_envelope(p).values.tolist() == np.eye(3).tolist()
