"""What the traced run wraps, and how spans become per-layer metrics.

Layers are the spinclust modules. Each entry of ``WRAPS`` names a public
function at the module attribute its caller looks it up under, the span
it records, and an optional hook that turns the call's arguments and
result into counts. ``per_layer_metrics`` folds one traced iteration into
the metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import numpy as np


def _chain_counts(tr, a, result):
    temps = len(a["grid"])
    tr.count("spc.temperatures", temps)
    tr.count("spc.steps", temps * a["m_steps"])
    tr.count("spc.retained_bytes", sum(v.nbytes for st in result for v in vars(st).values()
                                       if isinstance(v, np.ndarray)))


def _graph_counts(tr, a, result):
    tr.count("similarity.edges", len(result.edge_i))


def _ga_counts(tr, a, result):
    gens = result.generations_run
    hist = list(result.history)
    tr.count("fspc.generations", gens)
    tr.count("fspc.evaluations", a["pop_size"] * (gens + 1))
    tr.count("fspc.improving", sum(1 for x, y in zip(hist, hist[1:]) if y > x))


def _overlap_counts(tr, a, result):
    n = a["data"].n_rows
    tr.count("dataset.overlap_pairs", n * (n - 1) // 2)


# (module, attribute, span, hook). The same function may be looked up
# under several modules; each lookup site is wrapped.
WRAPS = [
    ("spinclust.cli", "load_matrix", "dataset.load_matrix", None),
    ("spinclust.cli", "load_envelope", "dataset.envelope_load", None),
    ("spinclust.cli", "save_envelope", "dataset.envelope_save", None),
    ("spinclust.cli", "log_returns", "dataset.log_returns", None),
    ("spinclust.cli", "pairwise_overlap_correlation", "dataset.overlap_corr", _overlap_counts),
    ("spinclust.cli", "make_positive_definite", "dataset.pd_repair", None),
    ("spinclust.cli", "min_max_scale", "preprocess.min_max_scale", None),
    ("spinclust.cli", "rmt_denoise", "preprocess.rmt_denoise", None),
    ("spinclust.cli", "imn_denoise", "preprocess.imn_denoise", None),
    ("spinclust.cli", "generate_blobs", "evaluation.generate", None),
    ("spinclust.cli", "generate_circles", "evaluation.generate", None),
    ("spinclust.cli", "minimum_spanning_tree", "evaluation.mst", None),
    ("spinclust.similarity", "minimum_spanning_tree", "evaluation.mst", None),
    ("spinclust.validation", "adjusted_rand_index", "evaluation.ari", None),
    ("spinclust.cli", "euclidean_distances", "similarity.distances", None),
    ("spinclust.cli", "correlation_to_distance", "similarity.distances", None),
    ("spinclust.cli", "similarity_from_distance", "similarity.distances", None),
    ("spinclust.cli", "mutual_knn_graph", "similarity.knn_graph", _graph_counts),
    ("spinclust.cli", "strength_matrix", "similarity.strengths", None),
    ("spinclust.cli", "temperature_sweep", "spc.chain", _chain_counts),
    ("spinclust.spc", "extract_clusters", "spc.extract", None),
    ("spinclust.cli", "ga_run", "fspc.ga", _ga_counts),
    ("spinclust.fspc", "mutate", "fspc.mutate", None),
    ("spinclust.validation", "likelihood", "fspc.likelihood", None),
    ("spinclust.cli", "phase_report", "validation.phase_report", None),
    ("spinclust.cli", "lc_vs_temperature", "validation.lc_curve", None),
    ("spinclust.cli", "ari_vs_temperature", "validation.ari_curve", None),
    ("spinclust.cli", "free_energy_curve", "thermo.free_energy", None),
]

# Denoisers and scaling: no workload calls them (they need fully observed
# data, and the panel has blanks). Their calls are reported, not measured.
UNCOVERED = ("preprocess.min_max_scale", "preprocess.rmt_denoise", "preprocess.imn_denoise")

SUBCOMMANDS = ("generate", "preprocess", "spc", "fspc", "validate", "mst")

# metric -> (unit, spans or counters it is read from)
PER_LAYER = {
    "spc.chain_s": ("s", ["spc.chain"]),
    "spc.us_per_step": ("us", ["spc.chain", "#spc.steps"]),
    "spc.temperatures": ("count", ["#spc.temperatures"]),
    "spc.steps": ("count", ["#spc.steps"]),
    "spc.retained_bytes": ("B", ["#spc.retained_bytes"]),
    "spc.sweep_json_bytes": ("B", ["cli.spc"]),
    "spc.extract_s": ("s", ["spc.extract"]),
    "evaluation.mst_s": ("s", ["evaluation.mst"]),
    "evaluation.mst_calls": ("count", ["evaluation.mst"]),
    "evaluation.ari_s": ("s", ["evaluation.ari"]),
    "similarity.knn_graph_s": ("s", ["similarity.knn_graph"]),
    "similarity.distances_s": ("s", ["similarity.distances"]),
    "similarity.strengths_s": ("s", ["similarity.strengths"]),
    "similarity.edges": ("count", ["#similarity.edges"]),
    "fspc.ga_s": ("s", ["fspc.ga"]),
    "fspc.fitness_select_s": ("s", ["fspc.ga"]),
    "fspc.mutate_s": ("s", ["fspc.mutate"]),
    "fspc.mutate_calls": ("count", ["fspc.mutate"]),
    "fspc.generations": ("count", ["#fspc.generations"]),
    "fspc.evaluations": ("count", ["#fspc.evaluations"]),
    "fspc.us_per_eval": ("us", ["fspc.ga", "#fspc.evaluations"]),
    "fspc.improving_ratio": ("ratio", ["#fspc.improving", "#fspc.generations"]),
    "fspc.likelihood_s": ("s", ["fspc.likelihood"]),
    "dataset.overlap_corr_s": ("s", ["dataset.overlap_corr"]),
    "dataset.overlap_pairs": ("count", ["#dataset.overlap_pairs"]),
    "dataset.log_returns_s": ("s", ["dataset.log_returns"]),
    "dataset.pd_repair_s": ("s", ["dataset.pd_repair"]),
    "dataset.load_matrix_s": ("s", ["dataset.load_matrix"]),
    "dataset.envelope_save_s": ("s", ["dataset.envelope_save"]),
    "dataset.envelope_load_s": ("s", ["dataset.envelope_load"]),
    "validation.lc_curve_s": ("s", ["validation.lc_curve"]),
    "validation.ari_curve_s": ("s", ["validation.ari_curve"]),
    "validation.phase_report_s": ("s", ["validation.phase_report"]),
    "thermo.free_energy_s": ("s", ["thermo.free_energy"]),
    "cli.self_s": ("s", [f"cli.{c}" for c in SUBCOMMANDS]),
    "cli.bytes_written": ("B", [f"cli.{c}" for c in SUBCOMMANDS]),
    "cli.bytes_read": ("B", [f"cli.{c}" for c in SUBCOMMANDS]),
    **{f"cli.{c}_s": ("s", [f"cli.{c}"]) for c in SUBCOMMANDS},
    "bench.check_s": ("s", ["bench.check"]),
    "trace.wall_s": ("s", []),
    "trace.overhead_s": ("s", []),
}


def per_layer_metrics(summary: dict, counts: dict, io: dict) -> dict[str, float]:
    """One traced iteration's per-layer values (0 where nothing was recorded).

    ``summary`` is ``Tracer.summary()``, ``counts`` the hook counters and
    ``io`` the byte counts the harness measured around each CLI call.
    """
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counts.get("spc.steps", 0)
    gens = counts.get("fspc.generations", 0)
    evals = counts.get("fspc.evaluations", 0)
    out = {
        "spc.chain_s": own("spc.chain"),
        "spc.us_per_step": ratio(own("spc.chain") * 1e6, steps),
        "spc.temperatures": counts.get("spc.temperatures", 0),
        "spc.steps": steps,
        "spc.retained_bytes": counts.get("spc.retained_bytes", 0),
        "spc.sweep_json_bytes": io.get("sweep_json_bytes", 0),
        "spc.extract_s": total("spc.extract"),
        "evaluation.mst_s": ratio(total("evaluation.mst"), calls("evaluation.mst")),
        "evaluation.mst_calls": calls("evaluation.mst"),
        "evaluation.ari_s": total("evaluation.ari"),
        "similarity.knn_graph_s": own("similarity.knn_graph"),
        "similarity.distances_s": total("similarity.distances"),
        "similarity.strengths_s": total("similarity.strengths"),
        "similarity.edges": counts.get("similarity.edges", 0),
        "fspc.ga_s": total("fspc.ga"),
        "fspc.fitness_select_s": own("fspc.ga"),
        "fspc.mutate_s": total("fspc.mutate"),
        "fspc.mutate_calls": calls("fspc.mutate"),
        "fspc.generations": gens,
        "fspc.evaluations": evals,
        "fspc.us_per_eval": ratio(own("fspc.ga") * 1e6, evals),
        "fspc.improving_ratio": ratio(counts.get("fspc.improving", 0), gens),
        "fspc.likelihood_s": total("fspc.likelihood"),
        "dataset.overlap_corr_s": total("dataset.overlap_corr"),
        "dataset.overlap_pairs": counts.get("dataset.overlap_pairs", 0),
        "dataset.log_returns_s": total("dataset.log_returns"),
        "dataset.pd_repair_s": total("dataset.pd_repair"),
        "dataset.load_matrix_s": total("dataset.load_matrix"),
        "dataset.envelope_save_s": total("dataset.envelope_save"),
        "dataset.envelope_load_s": total("dataset.envelope_load"),
        "validation.lc_curve_s": total("validation.lc_curve"),
        "validation.ari_curve_s": total("validation.ari_curve"),
        "validation.phase_report_s": total("validation.phase_report"),
        "thermo.free_energy_s": total("thermo.free_energy"),
        "cli.self_s": sum(own(f"cli.{c}") for c in SUBCOMMANDS),
        "cli.bytes_written": io.get("bytes_written", 0),
        "cli.bytes_read": io.get("bytes_read", 0),
        "bench.check_s": total("bench.check"),
    }
    for c in SUBCOMMANDS:
        out[f"cli.{c}_s"] = total(f"cli.{c}")
    return out


def recorded_sources(summary: dict, counts: dict) -> set[str]:
    """Span names and '#counter' names that hold data in this iteration."""
    return set(summary) | {f"#{k}" for k in counts}
