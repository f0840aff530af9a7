import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclust.dataset import (
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

    def test_write_json_text_is_json_dump(self, tmp_path):
        doc = {"kind": "x", "empty": [], "pair": (1, 2.5), "n": 3, "none": None,
               "name": "caf\u00e9 \"q\"", "nested": {"a": [1, {"b": [0.1, -2e-300]}]},
               "rows": [[0.1, 1e300], {"labels": [0, 1]}, "s", 7, True]}
        p = tmp_path / "doc.json"
        write_json(doc, p)
        assert p.read_text(encoding="utf-8") == json.dumps(doc) + "\n"
        with pytest.raises(DomainError, match="doc.json"):
            write_json({"ok": 1.0, "rows": [[1.0], [float("inf")]]}, p)
        assert not p.exists()

    @pytest.mark.parametrize("kind", ["data", "pearson"])
    @pytest.mark.parametrize("values, expect", [
        ([[1.0, 0.5], [0.5]], r"values\[1\] has 1 cells, values\[0\] has 2"),
        ([1.0, 0.5], r"values\[0\] is 1.0, not a list"),
        ([], "non-empty list of rows"),
        ([["x", 1.0], [1.0, 1.0]], "non-numeric cell"),
    ], ids=["ragged", "flat", "empty", "string"])
    def test_malformed_values_rejected(self, tmp_path, kind, values, expect):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": kind, "row_ids": ["a", "b"],
                                 "col_ids": ["a", "b"], "values": values}))
        with pytest.raises(ParseError, match=expect):
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

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "data", "values": []}))
        with pytest.raises(ParseError, match="row_ids"):
            load_envelope(p)
