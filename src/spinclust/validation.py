"""Cross-validation of sweep results: likelihood curves, ARI curves, phases.

The temperature axis is segmented by reading the susceptibility: every
chi peak (see ``phase_report``) marks a transition, the window between the
first and last peak is the super-paramagnetic regime, and the report
tabulates cluster sizes per segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import CorrelationMatrix
from .errors import DomainError, InsufficientGridError
from .evaluation import adjusted_rand_index
from .fspc import likelihood
from .spc import TemperatureStats

PEAK_FRACTION = 0.1  # a peak counts if it reaches 10% of the global chi maximum


def lc_vs_temperature(sweep: list[TemperatureStats],
                      corr: CorrelationMatrix) -> list[tuple[float, float]]:
    """Likelihood of each temperature's extracted labeling."""
    if not sweep:
        raise DomainError("sweep is empty")
    n = corr.values.shape[0]
    if sweep[0].labeling.size != n:
        raise DomainError(f"correlation matrix is {n} x {n}, sweep labelings have "
                          f"{sweep[0].labeling.size} nodes")
    lcs = likelihood(np.stack([st.labeling for st in sweep]), corr)  # C rounded once
    return [(st.temperature, float(lc)) for st, lc in zip(sweep, lcs)]


def ari_vs_temperature(sweep: list[TemperatureStats],
                       reference) -> list[tuple[float, float]]:
    """ARI of each temperature's labeling against a reference labeling."""
    reference = np.asarray(reference)
    if not sweep:
        raise DomainError("sweep is empty")
    if sweep[0].labeling.size != reference.size:
        raise DomainError(f"reference labeling has {reference.size} labels, sweep labelings "
                          f"have {sweep[0].labeling.size}")
    return [(st.temperature, adjusted_rand_index(st.labeling, reference))
            for st in sweep]


def _peaks(x: np.ndarray, height: float) -> np.ndarray:
    """Indices of the peaks of ``x`` that reach ``height``, in ascending order.

    A peak is a run of equal values whose neighbouring runs are both strictly
    lower; it is reported at the middle of its run (rounded down), and a run
    that touches either end of ``x`` is never a peak. The tests check this
    rule against a reference peak finder.
    """
    b = np.flatnonzero(x[1:] != x[:-1]) + 1  # start of every run but the first
    lo, hi = b[:-1], b[1:]                    # each inner run is x[lo:hi]
    peak = (x[lo - 1] < x[lo]) & (x[hi] < x[lo])
    mid = (lo + hi - 1)[peak] // 2
    return mid[x[mid] >= height]


@dataclass
class PhaseReport:
    """Chi peaks and the induced ferro / super-paramagnetic / para segments."""

    temperatures: list[float]
    chi: list[float]
    peaks: list[tuple[float, float]]            # (T, chi) at each chi peak
    sp_window: tuple[float, float] | None       # first to last peak temperature
    segments: dict[str, list[float]]            # phase name -> grid temperatures
    cluster_sizes: dict[str, list[tuple[float, list[int]]]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": "phase_report",
                "temperatures": self.temperatures,
                "chi": self.chi,
                "peaks": [{"T": t, "chi": c} for t, c in self.peaks],
                "sp_window": list(self.sp_window) if self.sp_window else None,
                "segments": self.segments,
                "cluster_sizes": {seg: [{"T": t, "sizes": sizes} for t, sizes in rows]
                                  for seg, rows in self.cluster_sizes.items()}}

    def to_markdown(self) -> str:
        lines = ["# Phase report", ""]
        if not self.peaks:
            lines.append("No prominent susceptibility peaks; no transitions detected.")
            lines.append("")
        else:
            lines.append(f"Susceptibility peaks at: "
                         + ", ".join(f"T={t:g} (chi={c:.4g})" for t, c in self.peaks))
            lo, hi = self.sp_window
            lines.append(f"Super-paramagnetic window: [{lo:g}, {hi:g}]")
            lines.append("")
        for seg in ("ferromagnetic", "super_paramagnetic", "paramagnetic"):
            ts = self.segments.get(seg, [])
            lines.append(f"## {seg} ({len(ts)} grid points)")
            lines.append("")
            if ts:
                lines.append("| T | cluster sizes (top 8) |")
                lines.append("|---|---|")
                for t, sizes in self.cluster_sizes.get(seg, []):
                    head = ", ".join(str(s) for s in sizes[:8])
                    more = " ..." if len(sizes) > 8 else ""
                    lines.append(f"| {t:g} | {head}{more} |")
            lines.append("")
        return "\n".join(lines)


def phase_report(sweep: list[TemperatureStats]) -> PhaseReport:
    """Locate chi peaks and split the grid into the three phases.

    A peak is a strict local maximum of chi, a plateau of equal chi counted
    once at its middle point (the left one of two); a maximum that touches
    either end of the grid is no peak, and a peak must reach 10% of the
    largest chi (``PEAK_FRACTION``); no prominence is applied.

    The ferromagnetic segment runs up to (not including) the first peak,
    the super-paramagnetic segment spans first to last peak inclusive, and
    the paramagnetic segment follows. Without any peak the whole
    grid is reported as a single unsegmented span.
    """
    if len(sweep) < 3:
        raise InsufficientGridError("phase_report needs at least 3 grid points")
    ts = [st.temperature for st in sweep]
    chi = np.array([st.susceptibility for st in sweep])
    height = PEAK_FRACTION * chi.max() if chi.max() > 0 else np.inf
    peaks = [(ts[i], float(chi[i])) for i in _peaks(chi, height)]

    segments: dict[str, list[float]] = {"ferromagnetic": [], "super_paramagnetic": [],
                                        "paramagnetic": []}
    sizes: dict[str, list[tuple[float, list[int]]]] = {seg: [] for seg in segments}
    sp_window = (peaks[0][0], peaks[-1][0]) if peaks else None
    for t, st in zip(ts, sweep):
        if sp_window is None or t > sp_window[1]:
            seg = "paramagnetic"
        elif t < sp_window[0]:
            seg = "ferromagnetic"
        else:
            seg = "super_paramagnetic"
        segments[seg].append(t)
        sizes[seg].append((t, st.cluster_sizes))
    return PhaseReport(list(ts), chi.tolist(), peaks, sp_window, segments, sizes)
