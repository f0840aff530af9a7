"""Entropy and Helmholtz free energy from per-temperature energy samples.

Chain energies at a fixed temperature are histogrammed with a low-bias bin
count; the bin centers act as discrete energy levels whose Boltzmann
weights give the partition function and hence the free energy by two
routes (U - T*S and -T ln Z) that must agree to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spc import TemperatureStats


@dataclass
class EnergyHistogram:
    """Binned energy distribution on [0, h_max]."""

    bin_count: int
    bin_edges: np.ndarray
    bin_centers: np.ndarray
    probabilities: np.ndarray


def bin_count(n_samples: int) -> int:
    """Low-bias histogram bin count for n samples."""
    if n_samples < 1:
        raise DomainError("need at least one sample")
    n = float(n_samples)
    eps = (8.0 + 324.0 * n + 12.0 * math.sqrt(36.0 * n + 729.0 * n * n)) ** (1.0 / 3.0)
    return int(math.floor(eps / 6.0 + 2.0 / (3.0 * eps) + 1.0 / 3.0 + 0.5))


def energy_histogram(samples, h_max: float) -> EnergyHistogram:
    """Equal-width histogram over [0, h_max] with data-driven bin centers.

    Nonempty bins are centered on the mean of their samples; empty bins
    keep the geometric bin midpoint so the level set stays complete.
    """
    samples = np.asarray(samples, dtype=float)
    if h_max <= 0.0:
        raise DomainError("h_max must be positive")
    if samples.size < 1:
        raise DomainError("need at least one sample")
    if samples.min() < 0.0 or samples.max() > h_max:
        raise DomainError(
            f"sample outside [0, {h_max}]: range is "
            f"[{samples.min()}, {samples.max()}]")
    k = bin_count(samples.size)
    edges = np.linspace(0.0, h_max, k + 1)
    idx = np.minimum((samples / h_max * k).astype(int), k - 1)
    counts = np.bincount(idx, minlength=k).astype(float)
    probs = counts / samples.size
    centers = 0.5 * (edges[:-1] + edges[1:])
    sums = np.bincount(idx, weights=samples, minlength=k)
    nonempty = counts > 0
    centers[nonempty] = sums[nonempty] / counts[nonempty]
    return EnergyHistogram(k, edges, centers, probs)


def entropy(probabilities) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0."""
    p = np.asarray(probabilities, dtype=float)
    if p.size == 0 or p.min() < 0.0:
        raise DomainError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {p.sum()}, expected 1")
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _free_energy_terms(histogram: EnergyHistogram, t: float) -> tuple[float, float, float]:
    """(f_direct, f_partition, S) of the Boltzmann distribution over the bin centers."""
    if t <= 0.0:
        raise DomainError("temperature must be positive")
    e = np.asarray(histogram.bin_centers, dtype=float)
    e0 = float(e.min())
    w = np.exp(-(e - e0) / t)
    z = float(w.sum())
    p = w / z
    u = float((p * e).sum())
    s = entropy(p)
    return u - t * s, e0 - t * math.log(z), s


def free_energy(histogram: EnergyHistogram, t: float) -> tuple[float, float]:
    """Helmholtz free energy of the Boltzmann distribution over bin centers.

    Returns (f_direct, f_partition): the U - T*S route and the -T ln Z
    route. Weights are shifted by the minimum level so both stay finite at
    small T.
    """
    return _free_energy_terms(histogram, t)[:2]


def free_energy_curve(sweep: list[TemperatureStats]) -> list[tuple[float, float, float, float]]:
    """(T, F, S, chi) per sweep point, from each chain's energy histogram."""
    if not sweep:
        raise DomainError("sweep is empty")
    out = []
    for st in sweep:
        hist = energy_histogram(st.energy_samples, st.h_max)
        f_direct, _, s = _free_energy_terms(hist, st.temperature)
        out.append((st.temperature, f_direct, s, st.susceptibility))
    return out
