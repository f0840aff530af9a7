"""Self-test of the benchmark: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
from calib import CAL_EVERY_S, Calibrator  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert report["calibration"]["samples_s"]["n"] >= 2
        assert set(report["raw"]) == {"wall_s", "setup_s", "import_s"}
    assert set(report["workload_metrics"]) == set(harness.WORKLOAD_METRICS[workload])
    prov = report["provenance"]
    for key in ("src_sha256", "python", "numpy", "scipy", "nproc", "blas_threads", "seed",
                "n", "params"):
        assert prov[key] is not None, key
    assert not (ROOT / ".bench_work").exists() or not any((ROOT / ".bench_work").iterdir())


def test_per_layer_list_matches_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for u, _ in layers.PER_LAYER.values()]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tracing_leaves_outputs_byte_identical(workload, tmp_path, monkeypatch):
    wl = workloads.build(workload, seed=5, size="tiny")
    outputs = {}
    for traced in (False, True):
        workdir = tmp_path / ("traced" if traced else "plain")
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        workloads.setup(wl)
        tracer = Tracer() if traced else None
        if tracer:
            for module, attr, span, hook in layers.WRAPS:
                assert tracer.wrap(module, attr, span, hook), f"{module}.{attr}"
        try:
            it = harness.run_iteration(wl, tracer, {})
        finally:
            if tracer:
                tracer.unwrap_all()
        assert it["failed"] == 0, it["errors"]
        if tracer:
            assert tracer.spans and not tracer.hook_errors
        outputs[traced] = {out: (workdir / out).read_bytes()
                           for op in wl.ops for out in op.outputs}
    assert outputs[False] == outputs[True]
    assert any(name in outputs[True] for name in ("sweep.json", "result.json", "report.json"))


def test_tracer_tolerates_missing_targets_and_broken_hooks():
    import spinclust.evaluation as ev

    tracer = Tracer()
    assert not tracer.wrap("spinclust.cli", "no_such_function", "x.gone")
    assert not tracer.wrap("spinclust.no_such_module", "f", "x.gone")
    assert tracer.missing == ["spinclust.cli.no_such_function", "spinclust.no_such_module.f"]

    def broken(tr, args, result):
        raise KeyError("renamed_argument")

    original = ev.adjusted_rand_index
    assert tracer.wrap("spinclust.evaluation", "adjusted_rand_index", "evaluation.ari", broken)
    try:
        assert ev.adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
        assert ev.adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    finally:
        tracer.unwrap_all()
    assert ev.adjusted_rand_index is original
    assert "KeyError" in tracer.hook_errors["spinclust.evaluation.adjusted_rand_index"]
    assert tracer.summary()["evaluation.ari"]["calls"] == 2


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    s = tracer.summary()
    assert s["inner"]["calls"] == 2
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"])


def test_calibrator_samples_while_running_and_clock_leaves_it_out():
    cal = Calibrator()
    cal.start()
    try:
        t0, c0 = time.perf_counter(), cal.clock()
        while time.perf_counter() < t0 + 5 * CAL_EVERY_S:
            pass
    finally:
        cal.stop()
    t1, c1 = time.perf_counter(), cal.clock()
    assert len(cal.samples) >= 3
    assert (t1 - t0) - (c1 - c0) == pytest.approx(cal.spent, abs=1e-4)
    assert cal.spent >= sum(cal.samples) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_timing_summary_reports_percentile_with_ten_samples_beyond():
    assert "p50" not in harness.timing_summary([1.0] * 19)
    summary = harness.timing_summary([float(i) for i in range(1, 21)])
    assert summary == {"median": 10.5, "n": 20, "p50": 10.0}
    summary = harness.timing_summary([float(i) for i in range(1, 201)])
    assert summary["p95"] == 190.0


def test_strict_json_rejects_non_finite_numbers(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"values": [NaN]}')
    with pytest.raises(ValueError):
        harness.strict_load(str(bad))


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert os.listdir(tmp_path / "bench")
