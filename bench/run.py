"""spinclust benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The workload's inputs are made
from ``--seed`` in a scratch directory under ``.bench_work/``; the CLI
subcommands run in-process through ``spinclust.cli.main`` and every
output is checked. Iterations repeat until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics (see
``bench/layers.py``). The next-to-last stdout line is a JSON report with
provenance, workload-specific metrics and timing percentiles; the last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

from calib import Calibrator

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = "1"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "search", "walkthrough", "panel"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs that keep every code path (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "spinclust" / "cli.py").is_file():
        print(f"error: no spinclust sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # numpy reads the BLAS thread count once, at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    # on SIGTERM, unwind so that the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cal = Calibrator()
    cal.start()
    try:
        return _run(args, src, cal)
    finally:
        cal.stop()


def _run(args, src: Path, cal: Calibrator) -> int:
    t0 = cal.clock()
    import spinclust.cli  # noqa: F401  - timed: imports are part of set-up
    import harness
    import_s = cal.clock() - t0

    if Path(spinclust.cli.__file__).resolve().parents[1] != src.resolve():
        print(f"error: imported spinclust from {spinclust.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    return harness.run(args, ROOT, import_s, BLAS_THREADS, cal)


if __name__ == "__main__":
    sys.exit(main())
