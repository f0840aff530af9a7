"""Potts-model cluster Monte Carlo over a strength graph.

One Swendsen-Wang kernel advances a block of temperatures in lockstep as an
R x N spin array, each temperature (replica) with its own random stream.
Every step, bonds between aligned spins activate with probability
1 - exp(-J/T); one numpy union-find pass labels the active bonds of all R
replicas at once, on the block-diagonal union of their bond graphs, whose
flat edge arrays also serve every per-edge gather; and every component draws
a fresh spin. After burn-in the kernel accumulates magnetization, energy, and
co-membership counts on the graph edges; the latter become the per-edge pair
correlation

    G_ij = ((q - 1) * c_ij + 1) / q

from which the final clusters are read by thresholding at theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, ParseError, prefixed
from .similarity import NeighborGraph, StrengthGraph


@dataclass
class BondConfiguration:
    """Activation flags for every edge of a strength graph."""

    n: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    active: np.ndarray


@dataclass
class TemperatureStats:
    """Thermodynamic summary of one chain at a fixed temperature.

    ``edge_g[k]`` is the pair correlation G on graph edge
    (``edge_i[k]``, ``edge_j[k]``); all three are empty when the summary was
    read back from a record written without them.
    """

    temperature: float
    mean_magnetization: float
    susceptibility: float
    mean_energy: float
    energy_samples: np.ndarray
    n_samples: int
    labeling: np.ndarray
    q: int
    h_max: float
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_g: np.ndarray

    @property
    def cluster_sizes(self) -> list[int]:
        return sorted(np.bincount(self.labeling).tolist(), reverse=True)

    def to_record(self, with_g: bool = False) -> dict:
        rec = {"T": self.temperature,
               "mean_m": self.mean_magnetization,
               "chi": self.susceptibility,
               "mean_H": self.mean_energy,
               "n_clusters": int(self.labeling.max()) + 1,
               "cluster_sizes": self.cluster_sizes,
               "labels": self.labeling.tolist(),
               "energy_samples": self.energy_samples.tolist(),
               "q": self.q,
               "h_max": self.h_max,
               "n_samples": self.n_samples}
        if with_g:
            rec["g_edges"] = [list(e) for e in zip(self.edge_i.tolist(), self.edge_j.tolist(),
                                                   self.edge_g.tolist())]
        return rec


# JSON numbers parse to int or float (a sweep built in memory may also hold
# float subclasses such as np.float64); a bool is neither
def _is_number(value) -> bool:
    return (type(value) is int or isinstance(value, float)) and math.isfinite(value)


def _is_index(value) -> bool:
    return type(value) is int and value >= 0


def _is_edge(value) -> bool:
    return (isinstance(value, list) and len(value) == 3 and _is_index(value[0])
            and _is_index(value[1]) and _is_number(value[2]))


def _record_value(rec: dict, key: str, ok, what: str):
    """``rec[key]``, or a ParseError naming the key when it is missing or not ``ok``."""
    if key not in rec:
        raise ParseError(f"missing key {key!r}")
    value = rec[key]
    if not ok(value):
        raise ParseError(f"key {key!r} is {value!r}, not {what}")
    return value


def _record_list(rec: dict, key: str, ok, what: str) -> list:
    """``rec[key]`` as a list of ``ok`` items; a ParseError names the first other item."""
    items = _record_value(rec, key, lambda v: isinstance(v, list), "a list")
    bad = next((k for k, item in enumerate(items) if not ok(item)), None)
    if bad is not None:
        raise ParseError(f"key {key!r}: item {bad} is {items[bad]!r}, not {what}")
    return items


def stats_from_record(rec: dict) -> TemperatureStats:
    """Rebuild TemperatureStats from its JSON record (edge G defaults to empty).

    A record that is not an object, lacks a key read here or holds a value of
    the wrong JSON type is a ParseError naming the key. Numbers are finite,
    ``T`` and ``h_max`` are positive, ``energy_samples`` is non-empty and in [0, h_max],
    labels are JSON integers in [0, N), N the label count, and ``g_edges``,
    when present, holds ``[i, j, G]`` triples of two node indices and a number.
    """
    if not isinstance(rec, dict):
        raise ParseError("record is not a JSON object")
    scalars = {key: float(_record_value(rec, key, _is_number, "a finite number"))
               for key in ("T", "mean_m", "chi", "mean_H", "h_max")}
    for key in ("T", "h_max"):
        if scalars[key] <= 0:
            raise ParseError(f"key {key!r} is {rec[key]!r}, not positive")
    h_max = scalars["h_max"]
    counts = {key: _record_value(rec, key, lambda v: type(v) is int, "an integer")
              for key in ("n_samples", "q")}
    n = len(_record_value(rec, "labels", lambda v: isinstance(v, list) and v, "a non-empty list"))
    labels = _record_list(rec, "labels", lambda v: _is_index(v) and v < n,
                          f"an integer in [0, {n})")
    energies = _record_list(rec, "energy_samples", _is_number, "a finite number")
    if not energies:
        raise ParseError("key 'energy_samples' is [], not a non-empty list")
    _record_list(rec, "energy_samples", lambda v: 0 <= v <= h_max,
                 f"in [0, h_max] = [0, {h_max!r}]")
    edges = []
    if "g_edges" in rec:
        edges = _record_list(rec, "g_edges", _is_edge, "an [i, j, G] triple")
    g_edges = np.asarray(edges, dtype=float).reshape(-1, 3)
    return TemperatureStats(
        temperature=scalars["T"],
        mean_magnetization=scalars["mean_m"],
        susceptibility=scalars["chi"],
        mean_energy=scalars["mean_H"],
        energy_samples=np.asarray(energies, dtype=float),
        n_samples=counts["n_samples"],
        labeling=np.asarray(labels, dtype=np.int64),
        q=counts["q"],
        h_max=h_max,
        edge_i=g_edges[:, 0].astype(np.int64),
        edge_j=g_edges[:, 1].astype(np.int64),
        edge_g=g_edges[:, 2].copy(),
    )


def bond_probability(j, t) -> np.ndarray:
    """Activation probability of a bond of strength J between aligned spins at T.

    Elementwise over broadcasting arrays; bonds between unlike spins never
    activate (the kernel masks them out).
    """
    j, t = np.asarray(j, dtype=float), np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("temperature must be positive")
    if np.any(j < 0.0):
        raise DomainError("bond strength must be nonnegative")
    return 1.0 - np.exp(-j / t)


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on n nodes with edges (rows, cols).

    Returns (count, labels); labels run 0..count-1 in first-visit (ascending
    node index) order. A numpy union-find: each round hooks the larger root of
    every edge that still joins two trees onto the smaller one, jumps pointers
    until every node points at its root, and drops the edges inside one tree.
    A root is thus always the smallest node of its tree, and numbering the
    roots in node order gives the first-visit labels.
    """
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    parent = np.arange(n)
    hi, lo = np.maximum(rows, cols), np.minimum(rows, cols)
    while hi.size:
        np.minimum.at(parent, hi, lo)
        while True:
            up = parent.take(parent)
            if np.array_equal(up, parent):
                break
            parent = up
        hi, lo = parent.take(hi), parent.take(lo)
        cross = np.flatnonzero(hi != lo)
        hi, lo = hi.take(cross), lo.take(cross)
        hi, lo = np.maximum(hi, lo), np.minimum(hi, lo)
    roots = parent == np.arange(n)
    return int(np.count_nonzero(roots)), (np.cumsum(roots) - 1).take(parent)


def _block_edges(ei: np.ndarray, ej: np.ndarray, n: int, r: int):
    """Edge endpoints in the block-diagonal union of r copies: node v of copy k is k*n + v."""
    shift = n * np.arange(r)[:, None]
    return ei + shift, ej + shift


def extended_hoshen_kopelman(bonds: BondConfiguration) -> np.ndarray:
    """Connected components of the active bonds, labels 0..k-1 in first-visit order."""
    act = np.asarray(bonds.active, dtype=bool)
    rows, cols = np.asarray(bonds.edge_i)[act], np.asarray(bonds.edge_j)[act]
    return _components(bonds.n, rows, cols)[1]


def _sw_move(same: np.ndarray, p_edge: np.ndarray, rows: np.ndarray, cols: np.ndarray,
             n: int, q: int, rngs: list) -> tuple[np.ndarray, np.ndarray]:
    """One Swendsen-Wang move of R replicas.

    ``same`` (R x E) flags the bonds whose spins agree, ``p_edge`` (R x E)
    their activation probabilities, ``rows``/``cols`` the block-diagonal
    endpoints from ``_block_edges``. Each replica draws ``random(E)`` for its
    bonds, then one new spin per cluster. Returns (new_spins, labels), both
    R x N; replica r's labels are offset by the clusters of replicas before it.
    """
    u = np.empty(p_edge.shape)
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    active = np.flatnonzero(same & (u < p_edge))
    r = len(rngs)
    n_clusters, labels = _components(r * n, rows.take(active), cols.take(active))
    starts = np.append(labels[::n], n_clusters)
    cluster_spins = np.empty(n_clusters, dtype=np.int64)
    for k, rng in enumerate(rngs):
        lo, hi = starts[k], starts[k + 1]
        cluster_spins[lo:hi] = rng.integers(1, q + 1, size=hi - lo)
    labels = labels.reshape(r, n)
    return cluster_spins.take(labels), labels


def magnetization(values: np.ndarray, q: int):
    """Dominance of the most frequent value along the last axis of a 1-D or R x N array.

    (q * N_max - N) / ((q - 1) * N), with N_max the largest value population;
    ``values`` are integers (spins or cluster labels).
    """
    if q < 2:
        raise DomainError("q must be >= 2")
    values = np.asarray(values)
    n = values.shape[-1]
    ordered = np.sort(values.reshape(-1, n), axis=1)
    new = np.ones(ordered.shape, dtype=bool)
    new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    # runs of equal sorted values, rows in turn: N per row at most, whatever q is
    starts = np.flatnonzero(new)
    runs = np.diff(starts, append=ordered.size)
    n_max = np.maximum.reduceat(runs, np.searchsorted(starts, np.arange(0, ordered.size, n)))
    return ((q * n_max - n) / ((q - 1.0) * n)).reshape(values.shape[:-1])[()]


def _energies(unsatisfied, j: np.ndarray, n: int) -> np.ndarray:
    """Mean-field energy per row of an R x E unsatisfied-bond mask."""
    return np.array([j[row].sum() / n for row in unsatisfied])


def hamiltonian(spins: np.ndarray, strengths: StrengthGraph) -> float:
    """Mean-field energy of one spin array: (1/N) * sum of J over unsatisfied bonds."""
    g = strengths.graph
    spins = np.asarray(spins)
    return float(_energies([spins[g.edge_i] != spins[g.edge_j]], strengths.j, g.n)[0])


def spin_spin_correlation(two_point: np.ndarray, samples: int, q: int) -> np.ndarray:
    """Pair correlation from co-membership counts: ((q-1)*c + 1) / q, elementwise."""
    if samples < 1:
        raise DomainError("need at least one sample")
    c = np.asarray(two_point, dtype=float) / samples
    return ((q - 1.0) * c + 1.0) / q


def extract_clusters(edge_g: np.ndarray, theta: float, graph: NeighborGraph) -> np.ndarray:
    """Threshold the per-edge pair correlations and take components.

    ``edge_g[k]`` is G on edge (``graph.edge_i[k]``, ``graph.edge_j[k]``). A
    node whose incident edges all fall below theta is attached to its
    highest-correlation neighbor (ties to the lowest neighbor index), so no
    node is left isolated.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError("theta must lie in (0, 1)")
    ei, ej = graph.edge_i, graph.edge_j
    edge_g = np.asarray(edge_g, dtype=float)
    keep = edge_g > theta
    lone = np.ones(graph.n, dtype=bool)
    lone[ei[keep]] = False
    lone[ej[keep]] = False
    # every edge seen from both ends; per lone end: highest G first, then lowest neighbor
    ends = np.concatenate([ei, ej])
    nbrs = np.concatenate([ej, ei])
    gs = np.concatenate([edge_g, edge_g])
    at = lone[ends]
    ends, nbrs, gs = ends[at], nbrs[at], gs[at]
    order = np.lexsort((nbrs, -gs, ends))
    first = order[np.unique(ends[order], return_index=True)[1]]
    rows = np.concatenate([ei[keep], ends[first]])
    cols = np.concatenate([ej[keep], nbrs[first]])
    return _components(graph.n, rows, cols)[1]


def _run_block(strengths: StrengthGraph, temps: list[float], seeds: list, m_steps: int,
               burn_in: int, q: int, theta: float) -> list[TemperatureStats]:
    """The chain kernel: one chain per temperature, all advanced in lockstep.

    Chain r starts from ``default_rng(seeds[r])`` with a uniform-random spin
    state; after ``burn_in`` steps it accumulates magnetization (largest
    spin-value population), mean-field energy of the updated state, and
    co-membership counts of the bond clusters on every graph edge. A chain's
    results do not depend on which other chains share its block.
    """
    if not m_steps > burn_in >= 0:
        raise DomainError("need m_steps > burn_in >= 0")
    if q < 2:
        raise DomainError("q must be >= 2")
    if not 0.0 < theta < 1.0:  # checked before the chain runs, not after
        raise DomainError("theta must lie in (0, 1)")
    g = strengths.graph
    n, ei, ej, jv = g.n, g.edge_i, g.edge_j, strengths.j
    r = len(temps)
    rngs = [np.random.default_rng(s) for s in seeds]
    rows, cols = _block_edges(ei, ej, n, r)
    p_edge = bond_probability(jv, np.asarray(temps)[:, None])

    spins = np.stack([rng.integers(1, q + 1, size=n) for rng in rngs])
    same = spins.take(rows) == spins.take(cols)
    samples = m_steps - burn_in
    co = np.zeros((r, ei.size), dtype=np.int64)
    m_sum = np.zeros(r)
    m2_sum = np.zeros(r)
    energies = np.empty((r, samples))

    for step in range(m_steps):
        spins, labels = _sw_move(same, p_edge, rows, cols, n, q, rngs)
        same = spins.take(rows) == spins.take(cols)
        if step < burn_in:
            continue
        m = magnetization(spins, q)
        m_sum += m
        m2_sum += m * m
        energies[:, step - burn_in] = _energies(~same, jv, n)
        co += labels.take(rows) == labels.take(cols)

    out = []
    for k, t in enumerate(temps):
        mean_m = float(m_sum[k]) / samples
        var_m = max(float(m2_sum[k]) / samples - mean_m * mean_m, 0.0)
        edge_g = spin_spin_correlation(co[k], samples, q)
        out.append(TemperatureStats(
            temperature=float(t),
            mean_magnetization=mean_m,
            susceptibility=n / t * var_m,
            mean_energy=float(energies[k].mean()),
            energy_samples=energies[k],
            n_samples=samples,
            labeling=extract_clusters(edge_g, theta, g),
            q=q,
            h_max=strengths.h_max,
            edge_i=ei,
            edge_j=ej,
            edge_g=edge_g,
        ))
    return out


def run_temperature(strengths: StrengthGraph, t: float, m_steps: int = 2000,
                    burn_in: int = 400, q: int = 20, seed=0,
                    theta: float = 0.5) -> TemperatureStats:
    """Run one chain at temperature t and summarize it (the kernel with one replica)."""
    return _run_block(strengths, [float(t)], [seed], m_steps, burn_in, q, theta)[0]


def temperature_sweep(strengths: StrengthGraph, grid, m_steps: int = 2000,
                      burn_in: int = 400, q: int = 20, theta: float = 0.5,
                      seed: int = 0, workers: int = 1) -> list[TemperatureStats]:
    """Independent chains over an increasing temperature grid.

    Each temperature derives its own stream from (seed, grid index), so
    results are reproducible and identical whether the grid runs as one
    kernel block or split into ``workers`` contiguous blocks, one process each.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise DomainError("temperature grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("temperature grid must be strictly increasing")
    seeds = [np.random.SeedSequence((seed, idx)) for idx in range(len(grid))]
    blocks = np.array_split(np.arange(len(grid)), max(1, min(workers, len(grid))))
    if len(blocks) == 1:
        return _run_block(strengths, grid, seeds, m_steps, burn_in, q, theta)
    temps = [[grid[i] for i in b] for b in blocks]
    block_seeds = [[seeds[i] for i in b] for b in blocks]
    from concurrent.futures import ProcessPoolExecutor  # not at the top: only this path uses it

    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        parts = pool.map(_run_block, repeat(strengths), temps, block_seeds, repeat(m_steps),
                         repeat(burn_in), repeat(q), repeat(theta))
        return [st for part in parts for st in part]


def sweep_to_json(sweep: list[TemperatureStats], params: dict | None = None,
                  with_g: bool = False) -> dict:
    return {"kind": "spc_sweep", "params": params or {},
            "records": [s.to_record(with_g=with_g) for s in sweep]}


def sweep_from_json(doc: dict) -> list[TemperatureStats]:
    """The sweep of an ``spc_sweep`` document.

    A malformed document is a ParseError naming the record (0-based) and the
    key; every record must hold as many labels as record 0, and a higher
    ``T`` than the record before it.
    """
    if not isinstance(doc, dict):
        raise ParseError("sweep document is not a JSON object")
    if doc.get("kind") != "spc_sweep":
        raise DomainError("not a sweep document")
    records = doc.get("records")
    if not isinstance(records, list):
        raise ParseError("key 'records' is missing or not a list")
    sweep = []
    for index, rec in enumerate(records):
        with prefixed(f"record {index}"):
            st = stats_from_record(rec)
            if sweep and st.labeling.size != sweep[0].labeling.size:
                raise ParseError(f"key 'labels' holds {st.labeling.size} labels, "
                                 f"record 0 holds {sweep[0].labeling.size}")
            if sweep and st.temperature <= sweep[-1].temperature:
                raise ParseError(f"key 'T' is {st.temperature!r}, not above record "
                                 f"{index - 1}'s {sweep[-1].temperature!r}")
        sweep.append(st)
    return sweep
