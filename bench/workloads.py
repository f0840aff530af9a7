"""Workload definitions: seeded inputs and the CLI calls each iteration makes.

Every workload is a list of ``spinclust`` CLI invocations over files in a
work directory. ``setup`` writes the inputs the CLI calls read (derived
only from the workload seed); ``ops`` lists the calls one measured
iteration makes. File names are relative to the work directory the
benchmark runs in. All calls use one worker process.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field

import numpy as np

from spinclust.cli import main as cli_main

# Sizes per workload. "full" is what the benchmark measures; "tiny" keeps
# every code path but finishes in seconds, for the self-test.
SIZES = {
    "full": {
        "sweep": {"n": 500, "dims": 3, "sigmas": "0.25,0.5,1", "k": 10, "q": 20,
                  "grid": "0.0005:0.1805:0.036", "steps": 1000, "burn_in": 200},
        "search": {"n": 80, "pop": 100, "stall": 100, "gens": 300},
        "walkthrough": {"n": 2000, "dims": 3, "sigmas": "0.25,0.5,1", "k": 10, "q": 20,
                        "grid": "0.002:0.092:0.045", "steps": 40, "burn_in": 10,
                        "pop": 100, "gens": 5, "stall": 100},
        "panel": {"series": 300, "days": 250, "sectors": 8, "blank": 0.03,
                  "k": 10, "q": 20, "grid": "0.02:0.26:0.06", "steps": 300,
                  "burn_in": 60, "pop": 100, "gens": 30, "stall": 100},
    },
    "tiny": {
        "sweep": {"n": 60, "dims": 3, "sigmas": "0.25,0.5,1", "k": 6, "q": 10,
                  "grid": "0.0005:0.1805:0.09", "steps": 40, "burn_in": 10},
        "search": {"n": 24, "pop": 12, "stall": 10, "gens": 30},
        "walkthrough": {"n": 60, "dims": 3, "sigmas": "0.25,0.5,1", "k": 6, "q": 10,
                        "grid": "0.002:0.092:0.045", "steps": 20, "burn_in": 5,
                        "pop": 12, "gens": 3, "stall": 10},
        "panel": {"series": 32, "days": 40, "sectors": 4, "blank": 0.03,
                  "k": 6, "q": 10, "grid": "0.02:0.26:0.12", "steps": 30,
                  "burn_in": 10, "pop": 12, "gens": 4, "stall": 10},
    },
}


@dataclass
class Op:
    """One CLI call: its argv plus the files it reads and writes."""

    sub: str
    argv: list[str]
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    params: dict
    n: int                      # observations the clusterings label
    truth: str                  # ground-truth labels file
    ops: list[Op]
    setup_calls: list[list[str]] = field(default_factory=list)
    panel: dict | None = None   # panel generator arguments, when any


def _spc(p: dict, inp: str, seed: int) -> Op:
    return Op("spc", ["spc", "--input", inp, "--k", str(p["k"]), "--q", str(p["q"]),
                      "--t", p["grid"], "--steps", str(p["steps"]),
                      "--burn-in", str(p["burn_in"]), "--seed", str(seed),
                      "--threads", "1", "--output", "sweep.json"],
              [inp], ["sweep.json"])


def _fspc(p: dict, corr: str, seed: int) -> Op:
    return Op("fspc", ["fspc", "--corr", corr, "--pop", str(p["pop"]),
                       "--gens", str(p["gens"]), "--stall", str(p["stall"]),
                       "--seed", str(seed), "--output", "result.json"],
              [corr], ["result.json"])


def _blobs(p: dict, dims: int, seed: int) -> list[str]:
    return ["generate", "blobs", "--n", str(p["n"]), "--dims", str(dims),
            "--sigmas", p.get("sigmas", "0.25,0.5,1"), "--seed", str(seed),
            "--output", "data.csv"]


def build(name: str, seed: int, size: str = "full") -> Workload:
    p = dict(SIZES[size][name])
    if name == "sweep":
        ops = [Op("preprocess", ["preprocess", "--input", "data.csv", "--corr", "similarity",
                                 "--output", "sim.json"], ["data.csv"], ["sim.json"]),
               _spc(p, "data.csv", seed),
               Op("validate", ["validate", "--sweep", "sweep.json", "--corr", "sim.json",
                               "--reference", "data.csv.labels.csv", "--output", "report"],
                  ["sweep.json", "sim.json", "data.csv.labels.csv"],
                  ["report.json", "report.md", "report.csv"])]
        return Workload(name, p, p["n"], "data.csv.labels.csv", ops,
                        setup_calls=[_blobs(p, p["dims"], seed)])
    if name == "search":
        ops = [Op("preprocess", ["preprocess", "--input", "data.csv", "--corr", "similarity",
                                 "--output", "sim.json"], ["data.csv"], ["sim.json"]),
               _fspc(p, "sim.json", seed)]
        # dims = N, as in acceptance criterion 3 (which uses seed 13)
        return Workload(name, p, p["n"], "data.csv.labels.csv", ops,
                        setup_calls=[_blobs(p, p["n"], seed)])
    if name == "walkthrough":
        ops = [Op("generate", _blobs(p, p["dims"], seed), [],
                  ["data.csv", "data.csv.labels.csv"]),
               Op("preprocess", ["preprocess", "--input", "data.csv", "--corr", "similarity",
                                 "--output", "sim.json"], ["data.csv"], ["sim.json"]),
               _spc(p, "data.csv", seed),
               _fspc(p, "sim.json", seed),
               Op("validate", ["validate", "--sweep", "sweep.json", "--corr", "sim.json",
                               "--reference", "result.json", "--output", "report"],
                  ["sweep.json", "sim.json", "result.json"],
                  ["report.json", "report.md", "report.csv"]),
               Op("mst", ["mst", "--input", "data.csv", "--output", "mst.json",
                          "--dot", "mst.dot"], ["data.csv"], ["mst.json", "mst.dot"])]
        return Workload(name, p, p["n"], "data.csv.labels.csv", ops)
    if name == "panel":
        ops = [Op("preprocess", ["preprocess", "--input", "prices.csv", "--returns",
                                 "--corr", "pearson", "--pd", "--output", "corr.json"],
                  ["prices.csv"], ["corr.json"]),
               _spc(p, "corr.json", seed),
               _fspc(p, "corr.json", seed),
               Op("validate", ["validate", "--sweep", "sweep.json", "--corr", "corr.json",
                               "--reference", "sectors.csv", "--output", "report"],
                  ["sweep.json", "corr.json", "sectors.csv"],
                  ["report.json", "report.md", "report.csv"])]
        return Workload(name, p, p["series"], "sectors.csv", ops,
                        panel={"seed": seed, **{k: p[k] for k in
                                                ("series", "days", "sectors", "blank")}})
    raise ValueError(f"unknown workload {name!r}")


def write_panel(seed: int, series: int, days: int, sectors: int, blank: float) -> None:
    """Sector-factor price panel with blank cells, plus its sector labels.

    Daily log returns are 0.3 market + 0.6 sector + 0.75 idiosyncratic
    unit-variance factors at 1% volatility; prices start at 100. A ``blank``
    share of price cells, never in the first two days, is left empty.
    """
    rng = np.random.default_rng(seed)
    sector = np.arange(series) % sectors
    market = rng.normal(size=days)
    factors = rng.normal(size=(sectors, days))
    noise = rng.normal(size=(series, days))
    returns = 0.01 * (0.3 * market + 0.6 * factors[sector] + 0.75 * noise)
    prices = 100.0 * np.exp(np.cumsum(returns, axis=1))
    holes = rng.random((series, days)) < blank
    holes[:, :2] = False
    with open("prices.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(f"d{j}" for j in range(days)) + "\n")
        for row, gaps in zip(prices, holes):
            fh.write(",".join("" if gap else repr(float(v))
                              for v, gap in zip(row, gaps)) + "\n")
    with open("sectors.csv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(s)}\n" for s in sector)


def setup(wl: Workload) -> None:
    """Write the workload's input files into the current directory."""
    for argv in wl.setup_calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"input generation {argv[:2]} exited with {code}")
    if wl.panel is not None:
        write_panel(**wl.panel)
