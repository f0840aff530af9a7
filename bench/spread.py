"""Run-to-run spread of the benchmark, as the acceptance check computes it.

    python3 bench/spread.py --workloads sweep,search --seeds 1-10

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for each metric its median and the distance between the first and
third quartile of the runs as a share of the median; a gated metric's
spread is shown next to a third of its bound in BENCHMARK.json. The
uncalibrated timings (``raw.*``) and the calibration loop's median time are
shown as well. ``--out
FILE`` also writes every run's report and result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,search,walkthrough,panel")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}
    summary = {}
    for workload in args.workloads.split(","):
        rows = [run_once(workload, seed, seconds) for seed in _seeds(args.seeds)]
        runs[workload] = rows
        if not all(r["result"]["correct"] for r in rows):
            raise SystemExit(f"{workload}: a run reported incorrect output")
        def values(row):
            rep = row["report"]
            return {**{k: v["value"] for k, v in row["result"]["metrics"].items()},
                    **{f"raw.{k}": v for k, v in rep["raw"].items()},
                    "calibration_s": rep["calibration"]["samples_s"]["median"],
                    **{k: v["value"] for k, v in rep["workload_metrics"].items()}}
        summary[workload] = {}
        for name in values(rows[0]):
            vals = [values(r)[name] for r in rows]
            row = {"median": statistics.median(vals), "spread": spread(vals),
                   "min": min(vals), "max": max(vals)}
            if name in bounds:
                row["third_of_bound"] = bounds[name] / 3
                row["steady"] = row["spread"] < bounds[name] / 3 or name == "setup_s"
            summary[workload][name] = row
            print(f"{workload:12s} {name:22s} median {row['median']:12.6g} "
                  f"spread {row['spread']:.3f}"
                  + (f"  (third of bound {row['third_of_bound']:.3f})"
                     if "third_of_bound" in row else ""), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": seconds, "summary": summary,
                                              "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
