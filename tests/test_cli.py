import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from spinclust.cli import build_parser, main, parse_trange
from spinclust.dataset import (
    load_envelope,
    load_matrix,
    log_returns,
    make_positive_definite,
    pairwise_overlap_correlation,
)
from spinclust.errors import DomainError
from spinclust.preprocess import imn_denoise

README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv):
    return main(list(argv))


def write_price_panel(path, seed=0, series=18, days=60, sectors=3, blank=0.05):
    """Sector-factor price panel (rows are series) with blank cells after day 2."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(sectors, days))
    returns = 0.01 * (0.6 * factors[np.arange(series) % sectors]
                      + 0.8 * rng.normal(size=(series, days)))
    prices = 100.0 * np.exp(np.cumsum(returns, axis=1))
    holes = rng.random((series, days)) < blank
    holes[:, :2] = False
    assert holes.any()
    lines = [",".join(f"d{j}" for j in range(days))]
    lines += [",".join("" if gap else repr(float(v)) for v, gap in zip(row, gaps))
              for row, gaps in zip(prices, holes)]
    Path(path).write_text("\n".join(lines) + "\n")


def readme_commands():
    """Every `spinclust ...` command in README's fenced blocks, as argv without the name."""
    blocks = re.findall(r"^```\w*\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("spinclust ")]


class TestParseTrange:
    def test_basic_grid(self):
        grid = parse_trange("0.005:0.25:0.005")
        assert len(grid) == 50
        assert grid[0] == 0.005
        assert grid[-1] == 0.25

    def test_single_point(self):
        assert parse_trange("0.1:0.1:0.05") == [0.1]

    def test_bad_formats(self):
        for bad in ("0.1:0.2", "a:b:c", "0.1:0.05:0.01", "-0.1:0.2:0.1", "0.1:0.2:0"):
            with pytest.raises(DomainError):
                parse_trange(bad)


class TestGenerate:
    def test_circles_writes_csv_and_labels(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run("generate", "circles", "--n", "40", "--seed", "3",
                   "--output", str(out))
        assert code == 0
        assert out.exists()
        labels = (tmp_path / "c.csv.labels.csv").read_text().splitlines()
        assert len(labels) == 40
        assert set(labels) == {"0", "1"}

    def test_blobs_respects_sigmas(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run("generate", "blobs", "--n", "30", "--dims", "3",
                   "--sigmas", "0.1,0.2", "--seed", "4", "--output", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 31  # header + 30

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("generate", "blobs", "--n", "24", "--seed", "9", "--output", str(a))
        run("generate", "blobs", "--n", "24", "--seed", "9", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestPreprocess:
    def make_csv(self, tmp_path, n=24, dims=3, seed=5):
        out = tmp_path / "data.csv"
        run("generate", "blobs", "--n", str(n), "--dims", str(dims),
            "--sigmas", "0.3,0.6", "--seed", str(seed), "--output", str(out))
        return out

    def test_scale_only_emits_data_envelope(self, tmp_path):
        src = self.make_csv(tmp_path)
        out = tmp_path / "scaled.json"
        assert run("preprocess", "--input", str(src), "--scale",
                   "--output", str(out)) == 0
        obj = load_envelope(out)
        assert obj.values.min() >= 0.0 and obj.values.max() <= 1.0

    def test_similarity_envelope(self, tmp_path):
        src = self.make_csv(tmp_path)
        out = tmp_path / "sim.json"
        assert run("preprocess", "--input", str(src), "--corr", "similarity",
                   "--output", str(out)) == 0
        obj = load_envelope(out)
        assert obj.kind == "similarity_from_distance"
        np.testing.assert_allclose(np.diag(obj.values), 1.0)

    def test_pearson_with_pd_repair(self, tmp_path):
        src = self.make_csv(tmp_path)
        out = tmp_path / "corr.json"
        assert run("preprocess", "--input", str(src), "--corr", "pearson",
                   "--pd", "--output", str(out)) == 0
        obj = load_envelope(out)
        assert np.linalg.eigvalsh(obj.values)[0] >= 1e-10 - 1e-15

    def test_imn_denoise_path(self, tmp_path):
        src = self.make_csv(tmp_path, n=16, dims=40)
        out = tmp_path / "imn.json"
        assert run("preprocess", "--input", str(src), "--denoise", "imn",
                   "--output", str(out)) == 0
        assert load_envelope(out).kind == "denoised_imn"

    def test_imn_options_reach_the_denoiser(self, tmp_path):
        src = self.make_csv(tmp_path, n=16, dims=40)
        out = tmp_path / "imn.json"
        assert run("preprocess", "--input", str(src), "--denoise", "imn",
                   "--imn-iters", "1000", "--imn-tol", "1e-10", "--output", str(out)) == 0
        want = imn_denoise(load_matrix(src), max_iters=1000, tol=1e-10)
        np.testing.assert_array_equal(load_envelope(out).values, want.values)

    def test_order_rows_keeps_ids(self, tmp_path):
        src = self.make_csv(tmp_path)
        out = tmp_path / "ordered.json"
        assert run("preprocess", "--input", str(src), "--order-rows",
                   "--output", str(out)) == 0
        obj = load_envelope(out)
        assert sorted(int(r) for r in obj.row_ids) == list(range(24))
        assert [int(r) for r in obj.row_ids] != list(range(24))

    def test_missing_file_exit_1(self, tmp_path):
        assert run("preprocess", "--input", str(tmp_path / "nope.csv"),
                   "--output", str(tmp_path / "x.json")) == 1

    def test_stages_run_transforms_corr_denoise_pd(self, tmp_path):
        # the flags' order on the command line does not matter; imn denoises
        # the overlap Pearson matrix, so blank cells are no obstacle
        src = tmp_path / "prices.csv"
        write_price_panel(src)
        out = tmp_path / "corr.json"
        assert run("preprocess", "--input", str(src), "--pd", "--denoise", "imn",
                   "--corr", "pearson", "--returns", "--output", str(out)) == 0
        want = make_positive_definite(imn_denoise(
            pairwise_overlap_correlation(log_returns(load_matrix(src)))))
        got = load_envelope(out)
        assert got.kind == "denoised_imn"
        np.testing.assert_array_equal(got.values, want.values)

    def test_rmt_after_corr_exit_1(self, tmp_path, capsys):
        src = self.make_csv(tmp_path, n=16, dims=40)
        out = tmp_path / "rmt.json"
        assert run("preprocess", "--input", str(src), "--corr", "pearson",
                   "--denoise", "rmt", "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert "--denoise rmt" in err and "--corr pearson" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--imn-iters", "5"], "--imn-iters"),
        (["--imn-tol", "1e-6"], "--imn-tol"),
        (["--denoise", "rmt", "--imn-tol", "1e-6"], "--imn-tol"),
    ], ids=["iters", "tol", "tol_with_rmt"])
    def test_imn_option_without_imn_exit_1(self, tmp_path, capsys, flags, named):
        src = self.make_csv(tmp_path, n=16, dims=40)
        out = tmp_path / "out.json"
        assert run("preprocess", "--input", str(src), *flags, "--output", str(out)) == 1
        assert f"{named} needs --denoise imn" in capsys.readouterr().err
        assert not out.exists()

    def test_pd_without_correlation_exit_1(self, tmp_path, capsys):
        src = self.make_csv(tmp_path)
        out = tmp_path / "pd.json"
        assert run("preprocess", "--input", str(src), "--scale", "--pd",
                   "--output", str(out)) == 1
        assert "--pd" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--returns"], "--returns"),
        (["--corr", "similarity"], "--corr similarity"),
        (["--denoise", "rmt"], "correlation envelope input"),
        (["--denoise", "imn", "--rmt-upper-only"], "--rmt-upper-only"),
    ], ids=["returns", "corr", "rmt", "upper_only"])
    def test_flag_without_its_input_exit_1(self, tmp_path, capsys, flags, named):
        src = self.make_csv(tmp_path)
        sim = tmp_path / "sim.json"
        assert run("preprocess", "--input", str(src), "--corr", "similarity",
                   "--output", str(sim)) == 0
        out = tmp_path / "out.json"
        assert run("preprocess", "--input", str(sim), *flags, "--output", str(out)) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end artifact chain shared by the subcommand tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "blobs.csv"
    assert run("generate", "blobs", "--n", "36", "--dims", "2",
               "--sigmas", "0.2,0.2,0.2", "--seed", "6",
               "--output", str(data)) == 0
    sim = root / "sim.json"
    assert run("preprocess", "--input", str(data), "--corr", "similarity",
               "--output", str(sim)) == 0
    sweep = root / "sweep.json"
    assert run("spc", "--input", str(data), "--k", "4", "--q", "20",
               "--t", "0.01:0.15:0.02", "--steps", "300", "--burn-in", "60",
               "--seed", "7", "--output", str(sweep)) == 0
    result = root / "fspc.json"
    assert run("fspc", "--corr", str(sim), "--pop", "20", "--gens", "400",
               "--stall", "40", "--seed", "8", "--output", str(result)) == 0
    return root, data, sim, sweep, result


class TestSpcFspcValidateMst:
    def test_sweep_document_shape(self, pipeline):
        _, _, _, sweep, _ = pipeline
        doc = json.loads(sweep.read_text())
        assert doc["kind"] == "spc_sweep"
        assert len(doc["records"]) == 8
        rec = doc["records"][0]
        for key in ("T", "mean_m", "chi", "mean_H", "n_clusters",
                    "cluster_sizes", "labels", "energy_samples"):
            assert key in rec
        assert "g_edges" not in rec

    def test_fspc_document_shape(self, pipeline):
        _, _, _, _, result = pipeline
        doc = json.loads(result.read_text())
        assert doc["kind"] == "fspc_result"
        assert doc["n_clusters"] >= 1
        assert len(doc["best_labels"]) == 36
        hist = doc["history"]
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_fspc_recovers_three_blobs(self, pipeline):
        root, data, _, _, result = pipeline
        from spinclust.evaluation import adjusted_rand_index
        truth = [int(x) for x in
                 (root / "blobs.csv.labels.csv").read_text().split()]
        doc = json.loads(result.read_text())
        assert adjusted_rand_index(doc["best_labels"], truth) == 1.0

    def test_validate_outputs(self, pipeline):
        root, data, sim, sweep, result = pipeline
        rep = root / "report"
        assert run("validate", "--sweep", str(sweep), "--corr", str(sim),
                   "--reference", str(result), "--output", str(rep)) == 0
        doc = json.loads((root / "report.json").read_text())
        assert doc["kind"] == "phase_report"
        assert "free_energy" in doc and len(doc["free_energy"]) == 8
        assert "lc_curve" in doc and "ari_curve" in doc
        md = (root / "report.md").read_text()
        assert "Phase report" in md
        csv_rows = (root / "report.csv").read_text().splitlines()
        assert csv_rows[0] == "T,F,S,chi,mean_m"
        assert len(csv_rows) == 9

    def test_validate_reference_csv_labels(self, pipeline):
        root, data, sim, sweep, _ = pipeline
        rep = root / "report_csvref"
        assert run("validate", "--sweep", str(sweep),
                   "--reference", str(root / "blobs.csv.labels.csv"),
                   "--output", str(rep)) == 0
        doc = json.loads((root / "report_csvref.json").read_text())
        aris = [row["ari"] for row in doc["ari_curve"]]
        assert max(aris) > 0.9

    def test_mst_outputs(self, pipeline):
        root, data, _, _, _ = pipeline
        out = root / "mst.json"
        dot = root / "mst.dot"
        assert run("mst", "--input", str(data), "--output", str(out),
                   "--dot", str(dot)) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "mst"
        assert len(doc["edges"]) == 35
        assert dot.read_text().startswith("graph mst {")

    def test_spc_reruns_byte_identical(self, pipeline, tmp_path):
        _, data, _, _, _ = pipeline
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("spc", "--input", str(data), "--k", "4",
                       "--t", "0.05:0.1:0.05", "--steps", "100",
                       "--burn-in", "20", "--seed", "11",
                       "--output", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spc_dump_g_then_validate(self, pipeline, tmp_path):
        root, data, sim, sweep, _ = pipeline
        dumped = tmp_path / "sweep_g.json"
        assert run("spc", "--input", str(data), "--k", "4", "--q", "20",
                   "--t", "0.01:0.15:0.02", "--steps", "300", "--burn-in", "60",
                   "--seed", "7", "--dump-g", "--output", str(dumped)) == 0
        doc = json.loads(dumped.read_text())
        plain = json.loads(sweep.read_text())
        for rec, ref in zip(doc["records"], plain["records"]):
            triples = rec.pop("g_edges")
            assert rec == ref
            assert all(i < j and 0.05 - 1e-15 <= g <= 1.0 + 1e-15 for i, j, g in triples)
            assert [(i, j) for i, j, _ in triples] == sorted({(i, j) for i, j, _ in triples})
        for name, src in (("rep_g", dumped), ("rep_plain", sweep)):
            assert run("validate", "--sweep", str(src), "--corr", str(sim),
                       "--output", str(tmp_path / name)) == 0
        for ext in (".json", ".md", ".csv"):
            assert ((tmp_path / ("rep_g" + ext)).read_bytes()
                    == (tmp_path / ("rep_plain" + ext)).read_bytes())

    def test_sweep_round_trips_through_validate_reader(self, pipeline):
        _, _, _, sweep, _ = pipeline
        from spinclust.spc import sweep_from_json, sweep_to_json
        doc = json.loads(sweep.read_text())
        back = sweep_to_json(sweep_from_json(doc), params=doc["params"])
        assert back["records"] == doc["records"]


class TestUsageErrors:
    def test_unknown_subcommand_exit_2(self):
        assert run("explode") == 2

    @pytest.mark.parametrize("var", ["SPINCLUST_THREADS", "SPINCLUST_SEED"])
    def test_malformed_env_var_exit_2(self, var, monkeypatch, capsys, tmp_path):
        data = tmp_path / "d.csv"
        run("generate", "blobs", "--n", "12", "--dims", "2",
            "--sigmas", "0.2,0.2", "--seed", "1", "--output", str(data))
        monkeypatch.setenv(var, "abc")
        capsys.readouterr()
        assert run("spc", "--input", str(data), "--k", "3", "--t", "0.1:0.1:0.1",
                   "--steps", "20", "--burn-in", "5",
                   "--output", str(tmp_path / "s.json")) == 2
        assert var in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_exit_1(self, cell, capsys, tmp_path):
        data = tmp_path / "d.csv"
        rows = ["x,y"] + [f"{i},{2 * i + 1}" for i in range(6)]
        rows[3] = f"3,{cell}"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "sim.json"
        assert run("preprocess", "--input", str(data), "--corr", "similarity",
                   "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert "row 3, column 2" in err
        assert not out.exists()

    def test_non_finite_envelope_value_exit_1(self, capsys, tmp_path):
        env = tmp_path / "data.json"
        env.write_text('{"kind": "data", "row_ids": ["a", "b"], "col_ids": ["x"], '
                       '"values": [[1.0], [NaN]]}')
        assert run("preprocess", "--input", str(env), "--corr", "similarity",
                   "--output", str(tmp_path / "sim.json")) == 1
        assert "row 'b', column 'x'" in capsys.readouterr().err

    def test_generate_bad_sigma_exit_1(self, capsys, tmp_path):
        out = tmp_path / "b.csv"
        assert run("generate", "blobs", "--sigmas", "0.1,abc",
                   "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: --sigmas item 'abc' is not a number"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "0")])
    def test_threads_below_one_exit_2(self, flag, env, monkeypatch, capsys, tmp_path):
        data = tmp_path / "d.csv"
        run("generate", "blobs", "--n", "12", "--dims", "2",
            "--sigmas", "0.2,0.2", "--seed", "1", "--output", str(data))
        if env is not None:
            monkeypatch.setenv("SPINCLUST_THREADS", env)
        argv = ["spc", "--input", str(data), "--k", "3", "--t", "0.1:0.1:0.1",
                "--steps", "20", "--burn-in", "5", "--output", str(tmp_path / "s.json")]
        if flag is not None:
            argv += ["--threads", flag]
        capsys.readouterr()
        assert run(*argv) == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("ids, upper, lower, expect", [
        ("abcd", float("nan"), float("nan"), "non-finite value nan at row 'a', column 'd'"),
        ("abcd", 5.0, -3.0, "('a', 'd') is 5.0 but ('d', 'a') is -3.0"),
        ("abc", 0.0, 0.0, "3 row ids for a 4 x 4 matrix"),
        ("abcd", 3.0, 3.0, "pearson entry ('a', 'd') is 3.0, outside [-1, 1]"),
    ], ids=["nan", "asymmetric", "short_ids", "above_one"])
    def test_bad_correlation_envelope_exit_1(self, ids, upper, lower, expect, capsys, tmp_path):
        c = np.eye(4)
        c[0, 3], c[3, 0] = upper, lower
        env = tmp_path / "corr.json"
        env.write_text(json.dumps({"kind": "pearson", "row_ids": list(ids),
                                   "col_ids": list(ids), "values": c.tolist()}))
        out = tmp_path / "r.json"
        assert run("fspc", "--corr", str(env), "--pop", "4", "--gens", "3",
                   "--output", str(out)) == 1
        assert expect in capsys.readouterr().err
        assert not out.exists()

    def test_non_unit_diagonal_exit_1(self, capsys, tmp_path):
        c = np.eye(3)
        c[1, 1] = 7.0
        env = tmp_path / "corr.json"
        env.write_text(json.dumps({"kind": "pearson", "row_ids": list("abc"),
                                   "col_ids": list("abc"), "values": c.tolist()}))
        out = tmp_path / "r.json"
        assert run("fspc", "--corr", str(env), "--pop", "4", "--gens", "3",
                   "--output", str(out)) == 1
        assert "diagonal entry ('b', 'b') is 7.0, not 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["data", "pearson"])
    @pytest.mark.parametrize("values, expect", [
        ([[1.0, 0.5], [0.5]], "values[1] has 1 cells, values[0] has 2"),
        ([1.0, 0.5], "values[0] is 1.0, not a list of cells"),
    ], ids=["ragged", "flat"])
    def test_malformed_envelope_values_exit_1(self, kind, values, expect, capsys, tmp_path):
        env = tmp_path / "in.json"
        env.write_text(json.dumps({"kind": kind, "row_ids": ["a", "b"],
                                   "col_ids": ["a", "b"], "values": values}))
        out = tmp_path / "out.json"
        assert run("preprocess", "--input", str(env), "--denoise", "imn",
                   "--output", str(out)) == 1
        assert expect in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, flag", [("validate", "--sweep"), ("fspc", "--corr")])
    def test_invalid_json_input_exit_1(self, sub, flag, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "spc_sweep", "records": [')
        assert run(sub, flag, str(bad), "--output", str(tmp_path / "out")) == 1
        assert "bad.json: invalid JSON" in capsys.readouterr().err

    def test_missing_required_flag_exit_2(self):
        assert run("fspc") == 2

    def test_bad_trange_exit_1(self, tmp_path):
        data = tmp_path / "d.csv"
        run("generate", "blobs", "--n", "12", "--dims", "2",
            "--sigmas", "0.2,0.2", "--seed", "1", "--output", str(data))
        assert run("spc", "--input", str(data), "--t", "nope",
                   "--output", str(tmp_path / "s.json")) == 1

    def test_fspc_on_data_envelope_exit_1(self, tmp_path):
        data = tmp_path / "d.csv"
        run("generate", "blobs", "--n", "12", "--dims", "2",
            "--sigmas", "0.2,0.2", "--seed", "1", "--output", str(data))
        env = tmp_path / "data.json"
        run("preprocess", "--input", str(data), "--output", str(env))
        assert run("fspc", "--corr", str(env),
                   "--output", str(tmp_path / "r.json")) == 1


class TestReadmeCommands:
    def test_every_command_parses(self):
        commands = readme_commands()
        assert len(commands) >= 9  # six walkthrough steps, three price-panel steps
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: spinclust {shlex.join(argv)}")

    def test_price_panel_preprocess_then_fspc(self, tmp_path, monkeypatch):
        commands = readme_commands()
        preprocess = next(a for a in commands if a[0] == "preprocess" and "prices.csv" in a)
        fspc = next(a for a in commands if a[0] == "fspc" and "corr.json" in a)
        monkeypatch.chdir(tmp_path)
        write_price_panel("prices.csv")
        assert main(preprocess) == 0
        assert main(fspc) == 0
        assert json.loads(Path("result.json").read_text())["best_labels"]
