import ast
import hashlib
import inspect
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinclust
from spinclust import cli, dataset
from spinclust.cli import build_parser, main, parse_trange
from spinclust.dataset import (
    load_envelope,
    load_matrix,
    log_returns,
    make_positive_definite,
    pairwise_overlap_correlation,
)
from spinclust.errors import DomainError, InsufficientGridError, prefixed
from spinclust.preprocess import imn_denoise
from spinclust.similarity import correlation_to_distance, mutual_knn_graph, strength_matrix

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


DROP = object()


def edited(doc, path, value):
    """``doc`` with the item at ``path`` (keys and indices) set to ``value``, or dropped."""
    if not path:
        return value
    *head, last = path
    target = doc
    for step in head:
        target = target[step]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc


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

    def test_validate_one_node_sweep(self, pipeline, tmp_path):
        # labelings of one item agree trivially: ARI 1.0, not a division by zero
        doc = json.loads(pipeline[3].read_text())
        doc["records"] = [{**record, "labels": [0]} for record in doc["records"][:3]]
        sweep, corr, ref = tmp_path / "one.json", tmp_path / "c.json", tmp_path / "ref.csv"
        sweep.write_text(json.dumps(doc))
        corr.write_text(json.dumps({"kind": "pearson", "row_ids": ["a"], "col_ids": ["a"],
                                    "values": [[1.0]]}))
        ref.write_text("7\n")
        assert run("validate", "--sweep", str(sweep), "--corr", str(corr), "--reference",
                   str(ref), "--output", str(tmp_path / "rep")) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert [row["ari"] for row in report["ari_curve"]] == [1.0] * 3

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

    @pytest.mark.parametrize("kind, bad, expect", [
        ("csv", "inf", "on line 3: inf is not an int64 integer"),
        ("csv", "1.7", "on line 3: 1.7 is not an int64 integer"),
        ("csv", str(2**63), f"on line 3: {2**63} is not an int64 integer"),
        ("json", "a", "at best_labels[2]: 'a' is not an int64 integer"),
        ("json", 0.5, "at best_labels[2]: 0.5 is not an int64 integer"),
    ], ids=["csv_inf", "csv_fraction", "csv_beyond_int64", "json_string", "json_fraction"])
    def test_bad_reference_label_exit_1(self, pipeline, kind, bad, expect, capsys, tmp_path):
        _, _, _, sweep, _ = pipeline
        labels = [0] * 36
        labels[2] = bad
        ref = tmp_path / f"ref.{kind}"
        ref.write_text("".join(f"{v}\n" for v in labels) if kind == "csv"
                       else json.dumps({"best_labels": labels}))
        capsys.readouterr()
        assert run("validate", "--sweep", str(sweep), "--reference", str(ref),
                   "--output", str(tmp_path / "rep")) == 1
        assert expect in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_non_utf8_reference_labels_exit_1(self, pipeline, capsys, tmp_path):
        _, _, _, sweep, _ = pipeline
        ref = tmp_path / "ref.csv"
        ref.write_bytes(b"0\n1\n\xfe\n" + b"0\n" * 33)
        capsys.readouterr()
        assert run("validate", "--sweep", str(sweep), "--reference", str(ref),
                   "--output", str(tmp_path / "rep")) == 1
        assert capsys.readouterr().err == (f"error: {ref}: not UTF-8 text: "
                                           "byte 0xfe at offset 4\n")
        assert not (tmp_path / "rep.json").exists()

    def test_reference_labels_read_exactly(self, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text(f"{2**53 + 1}\n{2**53}\n-3\n4.0\n\n")
        np.testing.assert_array_equal(cli._read_labels(str(ref)), [2**53 + 1, 2**53, -3, 4])

    def test_library_chain_matches_spc_strengths(self, pipeline, monkeypatch, tmp_path):
        _, _, sim, _, _ = pipeline
        built = []

        def recording(graph):
            built.append(strength_matrix(graph))
            return built[-1]

        monkeypatch.setattr(cli, "strength_matrix", recording)
        assert run("spc", "--input", str(sim), "--k", "4", "--t", "0.1:0.1:0.1",
                   "--steps", "20", "--burn-in", "5", "--output", str(tmp_path / "s.json")) == 0
        (spc,) = built
        lib = strength_matrix(mutual_knn_graph(correlation_to_distance(load_envelope(str(sim))), 4))
        np.testing.assert_array_equal(lib.graph.edge_i, spc.graph.edge_i)
        np.testing.assert_array_equal(lib.graph.edge_j, spc.graph.edge_j)
        np.testing.assert_array_equal(lib.j, spc.j)
        assert lib.h_max == spc.h_max

    # sha256 of the spc and mst outputs on the pipeline's sim.json, recorded
    # while cli.py still held its own similarity-envelope distance rule
    SIM_GOLDEN = {
        "sweep.json": "d2ae45e8295a51859f76fcc2ba0adb1cdc6c98a6a5547c0b94a39c9d402645b8",
        "mst.json": "d9703d2658ad24a324c7c9b355cf9976dc16f116dbce4ee2589eb1adcae94e0b",
        "mst.dot": "9c1bcf528fc6be863890360dcc005fe223a96a21d6631f8460e956088bdc4a50",
    }
    # sha256 of every file the pipeline writes (its envelope sidecar has its
    # own load check), and of a validate report and an mst on those files:
    # the walkthrough's bytes, which a refactor must keep
    WALKTHROUGH_GOLDEN = {
        "blobs.csv": "fbc39482bcff1559b1976cb0c09f6eb56c3520470257c48a9cc7ce00298045f2",
        "blobs.csv.labels.csv": "dde34a1c540efa52eec3d2480074311d424395e242fb93a2ecb8461c2178ca07",
        "sim.json": "a5b89adf967efa701c45d00e0965d8759ccf1fd851f63bf1c2d17ede2c77640a",
        "sweep.json": "4b480998b86b1b912c2902c127202c968b1af01a31c62a8658d10bec52325117",
        "fspc.json": "3570617371c993e4d7abc7ddafba5317992224713f1ff7b987f19a85d648ac4c",
        "report.json": "4def1ce8442805ff6ccc3195d22eb36049cfc27572936b55f3e23c28122af6eb",
        "report.md": "e041a1702fb078941700fb4f01d4c85180dfd3e2f34bfef6aec17663bea119ec",
        "report.csv": "0255468866aa91ff9da633b14439f30cc1f7b11d8a255e383556cd6706c2563d",
        "mst.json": "3e582e1cc5bd85392c8c1bdf88d24bb881c0ed1932072f4200b9f530c8bb122a",
        "mst.dot": "991df370b9fd12aa4964a4457ac6ad5d0246d29fd8dc9c8744bd41db87f653c0",
    }

    def test_similarity_envelope_outputs_golden(self, pipeline, tmp_path):
        root, data, sim, sweep, result = pipeline
        assert run("spc", "--input", str(sim), "--k", "4", "--q", "20",
                   "--t", "0.01:0.15:0.02", "--steps", "300", "--burn-in", "60",
                   "--seed", "7", "--output", str(tmp_path / "sweep.json")) == 0
        assert run("mst", "--input", str(sim), "--output", str(tmp_path / "mst.json"),
                   "--dot", str(tmp_path / "mst.dot")) == 0
        for name, digest in self.SIM_GOLDEN.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

        walk = tmp_path / "walk"
        walk.mkdir()
        assert run("validate", "--sweep", str(sweep), "--corr", str(sim), "--reference",
                   str(result), "--output", str(walk / "report")) == 0
        assert run("mst", "--input", str(data), "--output", str(walk / "mst.json"),
                   "--dot", str(walk / "mst.dot")) == 0
        written = [root / name for name in ("blobs.csv", "blobs.csv.labels.csv", "sim.json",
                                            "sweep.json", "fspc.json")]
        written += sorted(walk.iterdir())
        assert sorted(p.name for p in written) == sorted(self.WALKTHROUGH_GOLDEN)
        for path in written:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == self.WALKTHROUGH_GOLDEN[path.name], path.name

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


class TestPrefixed:
    def test_keeps_the_type_and_leads_with_the_label(self):
        with pytest.raises(InsufficientGridError) as info:
            with prefixed("a.json"), prefixed("record 2"):
                raise InsufficientGridError("key 'T' is bad")
        assert type(info.value) is InsufficientGridError
        assert str(info.value) == "a.json: record 2: key 'T' is bad"

    def test_other_errors_pass_unchanged(self):
        with pytest.raises(ValueError, match="^boom$"):
            with prefixed("a.json"):
                raise ValueError("boom")


class TestUsageErrors:
    def test_unknown_subcommand_exit_2(self):
        assert run("explode") == 2

    def test_outputs_ignore_spinclust_environment(self, monkeypatch, tmp_path):
        """Defaults come from the parser alone: --seed is 0 and --threads 1 whatever
        SPINCLUST_SEED or SPINCLUST_THREADS hold."""
        outputs = []
        for name, env in (("plain", {}),
                          ("env", {"SPINCLUST_SEED": "9", "SPINCLUST_THREADS": "abc"})):
            for var, value in env.items():
                monkeypatch.setenv(var, value)
            out = tmp_path / name
            out.mkdir()
            assert run("generate", "blobs", "--n", "24", "--dims", "2",
                       "--sigmas", "0.2,0.2,0.2", "--output", str(out / "d.csv")) == 0
            assert run("preprocess", "--input", str(out / "d.csv"), "--corr", "similarity",
                       "--output", str(out / "sim.json")) == 0
            assert run("spc", "--input", str(out / "sim.json"), "--k", "4",
                       "--t", "0.05:0.15:0.05", "--steps", "30", "--burn-in", "5",
                       "--output", str(out / "sweep.json")) == 0
            assert run("fspc", "--corr", str(out / "sim.json"), "--pop", "10",
                       "--gens", "20", "--output", str(out / "r.json")) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["d.csv", "d.csv.labels.csv", "r.json", "sim.json",
                                      "sim.json.npz", "sweep.json"]
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("argv, expect", [
        (["blobs", "--sigmas", "nan"], "sigmas must be finite numbers >= 0, got nan"),
        (["blobs", "--sigmas", "0.5,-1"], "sigmas must be finite numbers >= 0, got -1.0"),
        (["blobs", "--sigmas", "1e308,1"],
         "sigmas must keep 20 * max(sigmas) finite, got 1e+308"),
        (["circles", "--noise", "-1"], "noise must be a finite number >= 0, got -1.0"),
        (["circles", "--noise", "inf"], "noise must be a finite number >= 0, got inf"),
        (["circles", "--n", "-4"], "n must be even and >= 2, got -4"),
        (["circles", "--n", "0"], "n must be even and >= 2, got 0"),
        (["circles", "--n", "7"], "n must be even and >= 2, got 7"),
    ], ids=["nan_sigma", "negative_sigma", "overflowing_sigma", "negative_noise",
            "infinite_noise", "negative_n", "zero_n", "odd_n"])
    def test_generate_bad_number_exit_1(self, argv, expect, capsys, tmp_path):
        out = tmp_path / "g.csv"
        capsys.readouterr()
        assert run("generate", *argv, "--output", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {expect}"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["0", "-3"], ids=["0-None", "-3-None"])
    def test_threads_below_one_exit_2(self, flag, capsys, tmp_path):
        data = tmp_path / "d.csv"
        run("generate", "blobs", "--n", "12", "--dims", "2",
            "--sigmas", "0.2,0.2", "--seed", "1", "--output", str(data))
        capsys.readouterr()
        assert run("spc", "--input", str(data), "--k", "3", "--t", "0.1:0.1:0.1",
                   "--steps", "20", "--burn-in", "5", "--threads", flag,
                   "--output", str(tmp_path / "s.json")) == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("ids, upper, lower, expect", [
        ("abcd", float("nan"), float("nan"), "non-finite value nan at row 'a', column 'd'"),
        ("abcd", 5.0, -3.0, "('a', 'd') is 5.0 but ('d', 'a') is -3.0"),
        ("abc", 0.0, 0.0, "3 row ids for a 4 x 4 matrix"),
        ("abcd", 3.0, 3.0, "pearson entry ('a', 'd') is 3.0, outside [-1, 1]"),
        ("abcd", 0.5, 0.500002, "('a', 'd') is 0.5 but ('d', 'a') is 0.500002"),
    ], ids=["nan", "asymmetric", "short_ids", "above_one", "asymmetric_relative"])
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
    @pytest.mark.parametrize("field, value, expect", [
        ("values", [[1.0, 0.5], [0.5]], "values[1] has 1 cells, values[0] has 2"),
        ("values", [1.0, 0.5], "values[0] is 1.0, not a list of cells"),
        ("values", [[True, "0.5"], ["0.5", 1]],
         "non-numeric cell true at row 'a', column 'a'"),
        ("row_ids", 5, "in.json: row_ids is 5, not a list of ids"),
        ("row_ids", "ab", "in.json: row_ids is 'ab', not a list of ids"),
        ("col_ids", 5, "in.json: col_ids is 5, not a list of ids"),
        ("col_ids", "ab", "in.json: col_ids is 'ab', not a list of ids"),
    ], ids=["ragged", "flat", "bool_and_string", "row_ids_number", "row_ids_string",
            "col_ids_number", "col_ids_string"])
    def test_malformed_envelope_values_exit_1(self, kind, field, value, expect,
                                              capsys, tmp_path):
        doc = {"kind": kind, "row_ids": ["a", "b"], "col_ids": ["a", "b"],
               "values": [[1.0, 0.5], [0.5, 1.0]]}
        doc[field] = value
        env = tmp_path / "in.json"
        env.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert run("preprocess", "--input", str(env), "--denoise", "imn",
                   "--output", str(out)) == 1
        assert expect in capsys.readouterr().err
        assert not out.exists()

    def test_correlation_col_ids_not_row_ids_exit_1(self, capsys, tmp_path):
        env = tmp_path / "corr.json"
        env.write_text(json.dumps({"kind": "pearson", "row_ids": ["a", "b"],
                                   "col_ids": ["x", "y", "z"],
                                   "values": [[1.0, 0.5], [0.5, 1.0]]}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run("fspc", "--corr", str(env), "--pop", "4", "--gens", "3",
                   "--output", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {env}: col_ids must equal row_ids in a correlation envelope"]
        assert not out.exists()

    def test_data_envelope_id_lengths_name_the_file(self, capsys, tmp_path):
        env = tmp_path / "data.json"
        env.write_text(json.dumps({"kind": "data", "row_ids": ["a", "b"], "col_ids": ["x"],
                                   "values": [[1.0, 0.5], [0.5, 1.0]]}))
        out = tmp_path / "sim.json"
        capsys.readouterr()
        assert run("preprocess", "--input", str(env), "--corr", "similarity",
                   "--output", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {env}: row/col id lengths must match the value shape"]
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["fspc", "validate"])
    def test_non_square_envelope_names_the_file(self, sub, pipeline, capsys, tmp_path):
        env = tmp_path / "corr.json"
        env.write_text(json.dumps({"kind": "pearson", "row_ids": ["a", "b"],
                                   "col_ids": ["a", "b"],
                                   "values": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]]}))
        sweep = ["--sweep", str(pipeline[3])] if sub == "validate" else []
        capsys.readouterr()
        assert run(sub, *sweep, "--corr", str(env), "--output", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {env}: correlation matrix must be square"]
        assert [p.name for p in tmp_path.iterdir()] == ["corr.json"]

    @pytest.mark.parametrize("sub", ["preprocess", "spc", "mst"])
    def test_one_row_csv_names_the_file(self, sub, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x,y,z\n1,2,3\n")
        capsys.readouterr()
        assert run(sub, "--input", str(data), "--output", str(tmp_path / "out.json")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data}: DataMatrix needs N >= 2 and D >= 1, got 1 x 3"]
        assert not (tmp_path / "out.json").exists()

    def test_validate_corr_size_names_both(self, pipeline, capsys, tmp_path):
        env = tmp_path / "corr.json"
        env.write_text(json.dumps({"kind": "pearson", "row_ids": list("abc"),
                                   "col_ids": list("abc"), "values": np.eye(3).tolist()}))
        capsys.readouterr()
        assert run("validate", "--sweep", str(pipeline[3]), "--corr", str(env),
                   "--output", str(tmp_path / "rep")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {env}: correlation matrix is 3 x 3, sweep labelings have 36 nodes"]
        assert not list(tmp_path.glob("rep*"))

    @pytest.mark.parametrize("labels", [35, 0])
    def test_validate_reference_length_names_both(self, labels, pipeline, capsys, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("0\n" * labels)
        capsys.readouterr()
        assert run("validate", "--sweep", str(pipeline[3]), "--reference", str(ref),
                   "--output", str(tmp_path / "rep")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ref}: reference labeling has {labels} labels, sweep labelings have 36"]
        assert not list(tmp_path.glob("rep*"))

    @pytest.mark.parametrize("sub, flag", [("validate", "--sweep"), ("fspc", "--corr")])
    def test_invalid_json_input_exit_1(self, sub, flag, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "spc_sweep", "records": [')
        assert run(sub, flag, str(bad), "--output", str(tmp_path / "out")) == 1
        assert "bad.json: invalid JSON" in capsys.readouterr().err

    def test_one_node_fspc_exit_1(self, capsys, tmp_path):
        env = tmp_path / "corr.json"
        env.write_text(json.dumps({"kind": "pearson", "row_ids": ["a"], "col_ids": ["a"],
                                   "values": [[1.0]]}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run("fspc", "--corr", str(env), "--pop", "4", "--gens", "5",
                   "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {env}: the search needs at least 2 nodes, got 1"]
        assert not out.exists()

    @pytest.mark.parametrize("k", ["10", "0"])
    def test_spc_k_out_of_range_names_flag_and_file(self, k, capsys, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("x,y\n0,1\n1,0\n2,2\n")
        capsys.readouterr()
        assert run("spc", "--input", str(data), "--k", k,
                   "--output", str(tmp_path / "s.json")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --k {k}: needs 1 <= k < N, and {data} has N = 3 rows"]
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("argv, text, expect", [
        (["preprocess", "--corr", "pearson"], "x,y\n1,2\n3,4\n5,7\n",
         "rows (0, 1) share only 2 columns, need >= 3"),
        (["preprocess", "--returns"], "a,b,c\n1,2,3\n4,-3,5\n",
         "nonpositive price -3.0 at row 1, column 1"),
        (["spc", "--k", "2"], "x,y\n1,2\n3,\n5,7\n",
         "euclidean_distances requires fully observed data"),
        (["mst"], "x,y\n1,2\n3,\n5,7\n", "euclidean_distances requires fully observed data"),
    ], ids=["overlap", "price", "spc_blank", "mst_blank"])
    def test_content_errors_after_the_load_name_the_file(self, argv, text, expect, capsys,
                                                          tmp_path):
        data = tmp_path / "in.csv"
        data.write_text(text)
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run(*argv, "--input", str(data), "--output", str(out)) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {data}: {expect}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, expect", [
        (["preprocess", "--input", "{csv}", "--scale", "--pd"], "--pd repairs"),
        (["fspc", "--corr", "{env}", "--pop", "1"], "pop_size must be >= 2"),
    ], ids=["pd", "pop"])
    def test_flag_errors_name_no_file(self, argv, expect, capsys, tmp_path):
        csv, env = tmp_path / "d.csv", tmp_path / "corr.json"
        csv.write_text("x,y\n1,2\n3,4\n5,7\n")
        env.write_text(json.dumps({"kind": "pearson", "row_ids": list("ab"),
                                   "col_ids": list("ab"), "values": np.eye(2).tolist()}))
        capsys.readouterr()
        argv = [a.format(csv=csv, env=env) for a in argv]
        assert run(*argv, "--output", str(tmp_path / "out.json")) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {expect}")

    def test_degenerate_kmeans_cluster_names_file(self, capsys, tmp_path):
        env = tmp_path / "c.json"
        env.write_text(json.dumps({"kind": "pearson", "row_ids": list("abc"),
                                   "col_ids": list("abc"),
                                   "values": [[1, -1, 0], [-1, 1, 0], [0, 0, 1]]}))
        capsys.readouterr()
        assert run("fspc", "--corr", str(env), "--objective", "kmeans",
                   "--output", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {env}: cluster 0 has zero intra-cluster sum"]

    @pytest.mark.parametrize("stall", ["0", "-5"])
    def test_stall_below_one_exit_1(self, stall, capsys, tmp_path):
        env = tmp_path / "corr.json"
        env.write_text(json.dumps({"kind": "pearson", "row_ids": list("abcd"),
                                   "col_ids": list("abcd"), "values": np.eye(4).tolist()}))
        out = tmp_path / "r.json"
        assert run("fspc", "--corr", str(env), "--pop", "4", "--gens", "3",
                   "--stall", stall, "--output", str(out)) == 1
        assert "stall_generations must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, flag", [("fspc", "--corr"), ("spc", "--input")])
    def test_directory_input_exit_1(self, sub, flag, capsys, tmp_path):
        capsys.readouterr()
        assert run(sub, flag, str(tmp_path), "--output", str(tmp_path / "out.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path, value, expect", [
        ((), [], "sweep document is not a JSON object"),
        (("records",), DROP, "key 'records' is missing or not a list"),
        (("records",), {"0": {}}, "key 'records' is missing or not a list"),
        (("records", 2), 5, "record 2: record is not a JSON object"),
        (("records", 1, "mean_m"), DROP, "record 1: missing key 'mean_m'"),
        (("records", 0, "T"), "0.01", "record 0: key 'T' is '0.01', not a finite number"),
        (("records", 0, "chi"), True, "record 0: key 'chi' is True, not a finite number"),
        (("records", 3, "mean_H"), float("nan"),
         "record 3: key 'mean_H' is nan, not a finite number"),
        (("records", 4, "q"), 20.0, "record 4: key 'q' is 20.0, not an integer"),
        (("records", 3, "labels", 5), -1,
         "record 3: key 'labels': item 5 is -1, not an integer in [0, 36)"),
        (("records", 3, "labels", 5), 1.0,
         "record 3: key 'labels': item 5 is 1.0, not an integer in [0, 36)"),
        (("records", 0, "labels", 0), 10**12,
         "record 0: key 'labels': item 0 is 1000000000000, not an integer in [0, 36)"),
        (("records", 5, "labels"), [], "record 5: key 'labels' is [], not a non-empty list"),
        (("records", 4, "labels"), [0] * 35,
         "record 4: key 'labels' holds 35 labels, record 0 holds 36"),
        (("records", 6, "labels"), [0] * 37,
         "record 6: key 'labels' holds 37 labels, record 0 holds 36"),
        (("records", 2, "energy_samples", 1), "x",
         "record 2: key 'energy_samples': item 1 is 'x', not a finite number"),
        (("records", 2, "energy_samples", 0), float("inf"),
         "record 2: key 'energy_samples': item 0 is inf, not a finite number"),
        (("records", 1, "g_edges"), [[0, 1, 0.5], [0, 1]],
         "record 1: key 'g_edges': item 1 is [0, 1], not an [i, j, G] triple"),
        (("records", 7, "g_edges"), [[0, -1, 0.5]],
         "record 7: key 'g_edges': item 0 is [0, -1, 0.5], not an [i, j, G] triple"),
        (("records", 2, "T"), 0.07, "record 3: key 'T' is 0.07, not above record 2's 0.07"),
        (("records", 4, "T"), 0.02, "record 4: key 'T' is 0.02, not above record 3's 0.07"),
        (("records", 1, "h_max"), 0, "record 1: key 'h_max' is 0, not positive"),
        (("records", 0, "T"), 0.0, "record 0: key 'T' is 0.0, not positive"),
        (("records", 0, "T"), -1, "record 0: key 'T' is -1, not positive"),
        (("records", 5, "energy_samples"), [],
         "record 5: key 'energy_samples' is [], not a non-empty list"),
        (("records", 0, "energy_samples", 3), -0.5,
         "record 0: key 'energy_samples': item 3 is -0.5, not in [0, h_max] = [0, {h_max!r}]"),
        (("records", 6, "energy_samples", 0), 1e6,
         "record 6: key 'energy_samples': item 0 is 1000000.0, not in [0, h_max] = "
         "[0, {h_max!r}]"),
        (("kind",), "fspc_result", "not a sweep document"),
        (("records",), [], "phase_report needs at least 3 grid points"),
    ], ids=["not_object", "no_records", "records_not_list", "record_not_object",
            "missing_key", "string_number", "bool_number", "nan_number", "float_count",
            "negative_label",
            "float_label", "label_past_count", "no_labels", "short_labels", "long_labels",
            "string_energy", "infinite_energy", "pair_edge", "negative_edge_node",
            "repeated_t", "falling_t", "zero_h_max", "zero_t", "negative_t", "no_energies",
            "negative_energy", "energy_above_h_max", "wrong_kind", "empty_records"])
    def test_malformed_sweep_exit_1(self, path, value, expect, pipeline, capsys, tmp_path):
        _, _, _, sweep, _ = pipeline
        doc = json.loads(sweep.read_text())
        expect = expect.format(h_max=doc["records"][0]["h_max"])  # one graph: one h_max
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edited(doc, path, value)))
        capsys.readouterr()
        assert run("validate", "--sweep", str(bad), "--output", str(tmp_path / "rep")) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {expect}"]
        assert not list(tmp_path.glob("rep*"))

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


class TestEnvelopeSidecar:
    def test_walkthrough_outputs_same_without_sidecar(self, tmp_path, monkeypatch):
        """fspc and validate read sim.json from its sidecar, or parse it once it is gone."""
        parses = []
        read = dataset.read_json
        monkeypatch.setattr(dataset, "read_json", lambda path: parses.append(path) or read(path))
        monkeypatch.chdir(tmp_path)
        assert run("generate", "blobs", "--n", "40", "--dims", "3", "--sigmas", "0.25,0.5,1",
                   "--seed", "7", "--output", "blobs.csv") == 0
        assert run("spc", "--input", "blobs.csv", "--k", "6", "--q", "20",
                   "--t", "0.01:0.09:0.04", "--steps", "60", "--burn-in", "10",
                   "--seed", "7", "--threads", "1", "--output", "sweep.json") == 0
        assert run("preprocess", "--input", "blobs.csv", "--corr", "similarity",
                   "--output", "sim.json") == 0
        sidecar = Path("sim.json.npz")
        assert sidecar.is_file()
        outputs = {}
        for side in ("sidecar", "json"):
            assert run("fspc", "--corr", "sim.json", "--pop", "12", "--stall", "10",
                       "--gens", "30", "--seed", "7", "--output", f"{side}.json") == 0
            assert run("validate", "--sweep", "sweep.json", "--corr", "sim.json",
                       "--reference", f"{side}.json", "--output", f"{side}-report") == 0
            outputs[side] = [Path(f"{side}{end}").read_bytes() for end in
                             (".json", "-report.json", "-report.md", "-report.csv")]
            assert parses == ([] if side == "sidecar" else ["sim.json"] * 2)
            sidecar.unlink(missing_ok=True)
        assert outputs["sidecar"] == outputs["json"]

        assert run("preprocess", "--input", "blobs.csv", "--corr", "similarity",
                   "--output", "sim.json") == 0
        assert sidecar.is_file()
        assert run("preprocess", "--input", "blobs.csv", "--output", "sim.json") == 0
        assert not sidecar.exists()
        assert run("fspc", "--corr", "sim.json", "--output", "r.json") == 1


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

    def test_library_block_matches_api(self):
        """Names come from spinclust.__all__; each call binds to its function's signature."""
        (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
        tree = ast.parse(block)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "spinclust"
                    for alias in node.names}
        assert imported and imported <= set(spinclust.__all__)
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id in imported]
        assert {call.func.id for call in calls} == imported
        for call in calls:
            try:
                inspect.signature(getattr(spinclust, call.func.id)).bind(
                    *call.args, **{kw.arg: kw.value for kw in call.keywords})
            except TypeError as exc:
                pytest.fail(f"README calls {ast.unparse(call)}: {exc}")

    def test_price_panel_preprocess_then_fspc(self, tmp_path, monkeypatch):
        commands = readme_commands()
        preprocess = next(a for a in commands if a[0] == "preprocess" and "prices.csv" in a)
        fspc = next(a for a in commands if a[0] == "fspc" and "corr.json" in a)
        monkeypatch.chdir(tmp_path)
        write_price_panel("prices.csv")
        assert main(preprocess) == 0
        assert main(fspc) == 0
        assert json.loads(Path("result.json").read_text())["best_labels"]


class TestStartup:
    def test_import_loads_neither_scipy_signal_nor_stats(self):
        """scipy.signal (which loads scipy.stats) would add ~1 s to every CLI start,
        hashlib, which only envelope sidecars use, ~5 ms, and concurrent.futures with
        multiprocessing, which only a split spc grid uses, 14 modules."""
        src = str(Path(spinclust.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import spinclust.cli; "
                "print(spinclust.cli.__file__); "
                "print([m for m in ('scipy.signal', 'scipy.stats', 'hashlib', '_hashlib', "
                "'concurrent.futures', 'multiprocessing') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        where, loaded = proc.stdout.splitlines()
        assert Path(where).resolve().parents[1] == Path(src)
        assert loaded == "[]"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt")
    def test_large_arrays_are_unmapped_when_freed(self):
        """After main, a freed 32 MB array leaves resident memory where it was.

        Under glibc's default, the first such array freed raises the mmap
        threshold, and the second stays resident in the heap once freed.
        """
        src = str(Path(spinclust.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r})\n"
                "import resource, numpy as np, spinclust.cli\n"
                "def rss():\n"
                "    with open('/proc/self/statm') as fh:\n"
                "        return int(fh.read().split()[1]) * resource.getpagesize()\n"
                "spinclust.cli.main(['--version'])\n"
                "before = rss(); grown = []\n"
                "for _ in range(3):\n"
                "    a = np.ones(4_000_000); del a; grown.append(rss() - before)\n"
                "print(max(grown))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        assert int(proc.stdout.split()[-1]) < 4 << 20

    def test_import_and_spc_run_load_no_scipy(self, tmp_path):
        """numpy is the only runtime dependency; scipy is a test-only oracle.

        A fresh process imports the CLI and runs a tiny walkthrough, one
        subcommand after another, and lists the scipy modules loaded after each.
        """
        src = str(Path(spinclust.__file__).resolve().parents[1])
        data, sim, sweep, result = (str(tmp_path / name) for name in
                                    ("blobs.csv", "sim.json", "sweep.json", "fspc.json"))
        steps = [
            ["generate", "blobs", "--n", "30", "--dims", "3", "--seed", "1", "--output", data],
            ["preprocess", "--input", data, "--corr", "similarity", "--output", sim],
            ["spc", "--input", data, "--k", "5", "--t", "0.01:0.05:0.02", "--steps", "20",
             "--burn-in", "5", "--threads", "1", "--output", sweep],
            ["fspc", "--corr", sim, "--pop", "10", "--gens", "30", "--stall", "10",
             "--output", result],
            ["validate", "--sweep", sweep, "--corr", sim, "--reference", result,
             "--output", str(tmp_path / "report")],
            ["mst", "--input", data, "--output", str(tmp_path / "mst.json"),
             "--dot", str(tmp_path / "mst.dot")],
        ]
        code = (f"import json, sys; sys.path.insert(0, {src!r})\n"
                "def scipy_loaded():\n"
                "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "import spinclust; where = spinclust.__file__; loaded = [scipy_loaded()]\n"
                "import spinclust.cli; loaded.append(scipy_loaded())\n"
                f"for argv in {steps!r}:\n"
                "    assert spinclust.cli.main(argv) == 0, argv\n"
                "    loaded.append(scipy_loaded())\n"
                "print(where); print(json.dumps(loaded))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        *_, where, loaded = proc.stdout.splitlines()
        assert Path(where).resolve().parents[1] == Path(src)
        # after `import spinclust`, after `import spinclust.cli`, after each step
        assert json.loads(loaded) == [[]] * (2 + len(steps))
        assert json.loads((tmp_path / "report.json").read_text())["lc_curve"]
