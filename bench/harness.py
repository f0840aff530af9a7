"""Measurement loop, output checks and the result lines of bench/run.py."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from spinclust.cli import main as cli_main
from spinclust.dataset import CorrelationMatrix
from spinclust.evaluation import adjusted_rand_index
from spinclust.fspc import likelihood

import layers
import workloads
from calib import CAL_EVERY_S, CAL_LOOPS, CAL_REF_S, Calibrator
from tracer import Tracer

SETUP_REPEATS = 3
# workload -> the workload-specific end-to-end metrics it reports
WORKLOAD_METRICS = {
    "sweep": ("chain_steps_per_s", "spc_best_ari"),
    "search": ("ga_generations_per_s", "fspc_fitness", "fspc_ari"),
    "walkthrough": ("chain_steps_per_s", "ga_generations_per_s", "spc_best_ari",
                    "fspc_fitness"),
    "panel": ("chain_steps_per_s", "ga_generations_per_s", "spc_best_ari", "fspc_fitness"),
}
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "chain_steps_per_s": "1/s",
         "ga_generations_per_s": "1/s", "spc_best_ari": "ARI", "fspc_fitness": "L_c",
         "fspc_ari": "ARI", "failed_ratio": "ratio"}

# -- output checks -------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-finite number {token} is not JSON")


def strict_load(path: str):
    """Parse a JSON file, refusing the NaN/Infinity tokens Python would accept."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _read_labels(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.array([int(line) for line in fh if line.strip()], dtype=int)


def check_op(op, code, wl, state: dict) -> list[str]:
    """Problems with one CLI call's outputs; fills ``state`` for later checks."""
    if code != 0:
        return [f"{op.sub} exited with code {code}"]
    errors = []
    docs = {}
    for out in op.outputs:
        if not os.path.isfile(out):
            errors.append(f"{op.sub} did not write {out}")
        elif out.endswith(".json"):
            try:
                docs[out] = strict_load(out)
            except ValueError as exc:
                errors.append(f"{op.sub} wrote invalid JSON to {out}: {exc}")
    try:
        if op.sub == "preprocess" and op.outputs[0] in docs:
            doc = docs.pop(op.outputs[0])
            state["corr"] = CorrelationMatrix(np.asarray(doc["values"], dtype=float),
                                              doc["kind"])
        elif op.sub == "spc" and "sweep.json" in docs:
            doc = docs["sweep.json"]
            records = doc["records"]
            bad = [rec["T"] for rec in records if len(rec["labels"]) != wl.n]
            if bad:
                errors.append(f"spc labels are not of length N={wl.n} at T={bad}")
            state["sweep_labels"] = [rec["labels"] for rec in records]
            state["temperatures"] = [rec["T"] for rec in records]
            state["edges"] = round(doc["params"]["k_hat"] * wl.n / 2)
        elif op.sub == "fspc" and "result.json" in docs:
            doc = docs["result.json"]
            labels = np.asarray(doc["best_labels"], dtype=int)
            if "corr" not in state:
                return errors + ["fspc fitness not checked: no valid correlation envelope"]
            recomputed = likelihood(labels, state["corr"])
            if doc["fitness"] != recomputed:
                errors.append(f"fspc fitness {doc['fitness']!r} != likelihood of its "
                              f"best labels {recomputed!r}")
            state["best_labels"] = labels
            state["fitness"] = doc["fitness"]
            state["generations"] = doc["generations_run"]
        elif op.sub == "mst" and "mst.json" in docs:
            if len(docs["mst.json"]["edges"]) != wl.n - 1:
                errors.append(f"mst has {len(docs['mst.json']['edges'])} edges, "
                              f"expected N-1={wl.n - 1}")
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"{op.sub} output is malformed: {type(exc).__name__}: {exc}")
    return errors


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


# -- one iteration -------------------------------------------------------

def run_iteration(wl, tracer: Tracer | None, reference: dict,
                  clock=time.perf_counter) -> dict:
    """Run every CLI call of the workload once, checking each output.

    ``reference`` maps output files to the digests of the first iteration;
    identical flags and seeds must give identical bytes, traced or not.
    Times are read from ``clock``.
    """
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    it = {"op_s": {}, "attempted": 0, "failed": 0, "errors": [],
          "bytes_read": 0, "bytes_written": 0, "sweep_json_bytes": 0}
    state: dict = {}
    t0 = clock()
    for op in wl.ops:
        it["attempted"] += 1
        it["bytes_read"] += sum(_size(p) for p in op.inputs)
        t = clock()
        with span(f"cli.{op.sub}"):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(op.argv)
            except Exception:  # noqa: BLE001 - a crash is one failed operation
                code = "exception: " + traceback.format_exc(limit=-1).strip()
        it["op_s"][op.sub] = clock() - t
        with span("bench.check"):
            errors = check_op(op, code, wl, state)
            for out in op.outputs:
                if code != 0 or not os.path.isfile(out):
                    continue
                it["bytes_written"] += _size(out)
                digest = _digest(out)
                if reference.setdefault(out, digest) != digest:
                    errors.append(f"{out} differs from the first iteration's bytes")
        if errors:
            it["failed"] += 1
            it["errors"].extend(errors)
    with span("bench.check"):
        _quality(wl, state, it)
    it["wall_s"] = clock() - t0
    it["sweep_json_bytes"] = _size("sweep.json") if "spc" in it["op_s"] else 0
    it["edges"] = state.get("edges")
    it["temperatures"] = state.get("temperatures")
    return it


def _quality(wl, state: dict, it: dict) -> None:
    """Throughput and clustering quality of one iteration."""
    if not os.path.isfile(wl.truth):
        return
    truth = _read_labels(wl.truth)
    if "sweep_labels" in state:
        steps = len(state["temperatures"]) * wl.params["steps"]
        it["chain_steps_per_s"] = steps / it["op_s"]["spc"]
        it["spc_best_ari"] = max(adjusted_rand_index(np.asarray(lab), truth)
                                 for lab in state["sweep_labels"])
    if "best_labels" in state:
        it["ga_generations_per_s"] = state["generations"] / it["op_s"]["fspc"]
        it["fspc_fitness"] = state["fitness"]
        it["fspc_ari"] = adjusted_rand_index(state["best_labels"], truth)
        it["generations"] = state["generations"]


# -- statistics and provenance ------------------------------------------

def timing_summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s)}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(len(s) * p / 100.0)
        if len(s) - rank >= 10:
            out[f"p{p:g}"] = s[rank - 1]
            break
    return out


def _git_rev(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_name() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        return None


def provenance(args, root: Path, blas_threads: str, wl, iters: list[dict]) -> dict:
    first = iters[0]
    return {
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": int(blas_threads),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": args.seed,
        "size": "tiny" if args.tiny else "full",
        "params": wl.params,
        "n": wl.n,
        "edges": first.get("edges"),
        "grid": first.get("temperatures"),
        "steps": wl.params.get("steps"),
        "generation_budget": wl.params.get("gens"),
        "generations_run": first.get("generations"),
    }


# -- the run -------------------------------------------------------------

def run(args, root: Path, import_s: float, blas_threads: str, cal: Calibrator) -> int:
    wl = workloads.build(args.workload, args.seed, "tiny" if args.tiny else "full")
    workdir = root / ".bench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        return _measure(args, root, import_s, blas_threads, wl, cal)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it


def _measure(args, root, import_s, blas_threads, wl, cal) -> int:
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t = cal.clock()
        workloads.setup(wl)
        setup_runs.append(cal.clock() - t)
    setup_s = import_s + statistics.median(setup_runs)
    cal.sample()  # a set-up shorter than CAL_EVERY_S still has samples
    setup_scale = CAL_REF_S / statistics.fmean(cal.samples)

    tracer = Tracer() if args.trace else None
    reference: dict = {}
    plain: list[dict] = []
    traced: list[dict] = []
    layer_rows: list[dict] = []
    recorded: set[str] = set()
    span_samples: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        use_trace = bool(tracer) and len(traced) < len(plain)
        if use_trace:
            for module, attr, span_name, hook in layers.WRAPS:
                tracer.wrap(module, attr, span_name, hook)
            tracer.reset()
            cal.stop()
            try:
                it = run_iteration(wl, tracer, reference)
            finally:
                tracer.unwrap_all()
                cal.start()
            summary = tracer.summary()
            layer_rows.append(layers.per_layer_metrics(summary, tracer.counts, it))
            recorded |= layers.recorded_sources(summary, tracer.counts)
            for sp in tracer.spans:
                span_samples.setdefault(sp.name, []).append(sp.end - sp.start)
            traced.append(it)
        else:
            first = len(cal.samples)
            plain.append(it := run_iteration(wl, None, reference, cal.clock))
            # scaled by the loop times sampled while the iteration ran
            it["scale"] = CAL_REF_S / statistics.fmean(cal.samples[first:] or cal.samples)
            for rate in ("chain_steps_per_s", "ga_generations_per_s"):
                if rate in it:
                    it[rate] /= it["scale"]
        elapsed = time.perf_counter() - start
        need_pair = bool(tracer) and len(traced) < len(plain)
        typical = statistics.median(x["wall_s"] for x in plain + traced)
        if not need_pair and elapsed + typical > args.seconds:
            break

    cal.sample()
    iters = plain + traced
    attempted = sum(x["attempted"] for x in iters)
    failed = sum(x["failed"] for x in iters)
    walls = [x["wall_s"] for x in plain]
    scaled = [x["wall_s"] * x["scale"] for x in plain]
    scale = CAL_REF_S / statistics.fmean(cal.samples)
    report = {
        "provenance": provenance(args, root, blas_threads, wl, iters),
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "failed_ratio": {"value": failed / attempted, "unit": UNITS["failed_ratio"]},
        "errors": sorted({e for x in iters for e in x["errors"]})[:20],
        "calibration": {"loops": CAL_LOOPS, "every_s": CAL_EVERY_S, "ref_s": CAL_REF_S,
                        "scale": scale, "mean_s": statistics.fmean(cal.samples),
                        "samples_s": timing_summary(cal.samples)},
        "raw": {"wall_s": statistics.median(walls), "setup_s": setup_s,
                "import_s": import_s},
        "timings": {"wall_s": timing_summary(walls),
                    "setup_s": timing_summary(setup_runs),
                    **{f"cli.{sub}_s": timing_summary([x["op_s"][sub] for x in plain])
                       for sub in plain[0]["op_s"]}},
        "workload_metrics": {
            name: {"value": statistics.median(x[name] for x in plain), "unit": UNITS[name]}
            for name in WORKLOAD_METRICS[wl.name] if all(name in x for x in plain)},
    }
    if args.trace:
        metrics = _layer_result(layer_rows, recorded, walls, traced, report, tracer)
        report["spans"] = {name: timing_summary(v) for name, v in sorted(span_samples.items())}
    else:
        values = {"wall_s": statistics.median(scaled), "setup_s": setup_s * setup_scale,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_result(rows, recorded, walls, traced, report, tracer) -> dict:
    traced_wall = statistics.median(x["wall_s"] for x in traced)
    metrics = {}
    absent = []
    for name, (unit, sources) in layers.PER_LAYER.items():
        if name == "trace.wall_s":
            value = traced_wall
        elif name == "trace.overhead_s":
            value = traced_wall - statistics.median(walls)
        else:
            value = statistics.median(row[name] for row in rows)
            spans = [src for src in sources if not src.startswith("#")]
            counters = [src for src in sources if src.startswith("#")]
            if (spans and not any(src in recorded for src in spans)
                    or not all(src in recorded for src in counters)):
                absent.append(name)
        metrics[name] = {"value": value, "unit": unit}
    report["absent"] = absent
    report["missing_targets"] = sorted(set(tracer.missing))
    report["hook_errors"] = tracer.hook_errors
    report["uncovered_called"] = sorted(n for n in layers.UNCOVERED if n in recorded)
    return metrics
