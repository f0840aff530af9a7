"""Spin-model clustering toolkit.

Potts-model cluster Monte Carlo over mutual-KNN graphs (temperature sweeps,
susceptibility/phase analysis) and genetic maximization of the
Giada-Marsili-style configuration likelihood over correlation matrices,
with the preprocessing and validation pipeline to connect them.
"""

__version__ = "0.1.0"

from .dataset import (
    CorrelationMatrix,
    DataMatrix,
    load_envelope,
    load_matrix,
    log_returns,
    make_positive_definite,
    pairwise_overlap_correlation,
    save_envelope,
)
from .errors import SpinclustError
from .evaluation import (
    adjusted_rand_index,
    generate_blobs,
    generate_circles,
    minimum_spanning_tree,
)
from .fspc import cluster_stats, ga_run, kmeans_hamiltonian, likelihood, mutate
from .preprocess import (
    imn_denoise,
    min_max_scale,
    rmt_denoise,
    wishart_bounds,
    wishart_pdf,
)
from .similarity import (
    correlation_to_distance,
    euclidean_distances,
    mutual_knn_graph,
    similarity_from_distance,
    strength_matrix,
)
from .spc import (
    bond_probability,
    extended_hoshen_kopelman,
    extract_clusters,
    hamiltonian,
    magnetization,
    run_temperature,
    spin_spin_correlation,
    temperature_sweep,
)
from .thermo import bin_count, energy_histogram, entropy, free_energy, free_energy_curve
from .validation import ari_vs_temperature, lc_vs_temperature, phase_report

__all__ = [
    "CorrelationMatrix",
    "DataMatrix",
    "SpinclustError",
    "adjusted_rand_index",
    "ari_vs_temperature",
    "bin_count",
    "bond_probability",
    "cluster_stats",
    "correlation_to_distance",
    "energy_histogram",
    "entropy",
    "euclidean_distances",
    "extended_hoshen_kopelman",
    "extract_clusters",
    "free_energy",
    "free_energy_curve",
    "ga_run",
    "generate_blobs",
    "generate_circles",
    "hamiltonian",
    "imn_denoise",
    "kmeans_hamiltonian",
    "lc_vs_temperature",
    "likelihood",
    "load_envelope",
    "load_matrix",
    "log_returns",
    "magnetization",
    "make_positive_definite",
    "min_max_scale",
    "minimum_spanning_tree",
    "mutate",
    "mutual_knn_graph",
    "pairwise_overlap_correlation",
    "phase_report",
    "rmt_denoise",
    "run_temperature",
    "save_envelope",
    "similarity_from_distance",
    "spin_spin_correlation",
    "strength_matrix",
    "temperature_sweep",
    "wishart_bounds",
    "wishart_pdf",
]
