"""Batch command-line interface.

Subcommands chain through JSON envelopes (see FORMATS.md):

    generate   write a synthetic dataset CSV plus ground-truth labels
    preprocess scale / returns / correlation construction / denoising
    spc        temperature sweep of the cluster Monte Carlo engine
    fspc       genetic maximization of the configuration likelihood
    validate   phase report, likelihood/ARI curves, free-energy table
    mst        minimum-spanning-tree export (JSON and DOT)

Exit codes: 0 success, 1 data/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .dataset import (
    CorrelationMatrix,
    DataMatrix,
    load_envelope,
    load_matrix,
    make_positive_definite,
    log_returns,
    open_text,
    pairwise_overlap_correlation,
    read_json,
    save_envelope,
    write_json,
)
from .errors import DegenerateClusterError, DomainError, ParseError, SpinclustError, prefixed
from .evaluation import generate_blobs, generate_circles, minimum_spanning_tree
from .fspc import ga_run
from .preprocess import imn_denoise, min_max_scale, rmt_denoise
from .similarity import (
    correlation_to_distance,
    euclidean_distances,
    mutual_knn_graph,
    nearest_neighbor_order,
    similarity_from_distance,
    strength_matrix,
)
from .spc import sweep_from_json, sweep_to_json, temperature_sweep
from .thermo import free_energy_curve
from .validation import ari_vs_temperature, lc_vs_temperature, phase_report


def _worker_count(raw: str) -> int:
    """argparse type for --threads: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_trange(spec: str) -> list[float]:
    """Parse 'start:stop:step' into an inclusive increasing grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"temperature range must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"non-numeric temperature range {spec!r}") from None
    if step <= 0 or start <= 0 or stop < start:
        raise DomainError(f"bad temperature range {spec!r}")
    grid = []
    i = 0
    while True:
        t = round(start + i * step, 12)
        if t > stop + 1e-12:
            break
        grid.append(t)
        i += 1
    return grid


def _load_table(path: str, has_header: bool) -> DataMatrix | CorrelationMatrix:
    if path.endswith(".json"):
        return load_envelope(path)
    return load_matrix(path, has_header=has_header)


def _load_correlation(path: str) -> CorrelationMatrix:
    obj = load_envelope(path)
    if not isinstance(obj, CorrelationMatrix):
        raise DomainError(f"{path} is not a correlation envelope")
    return obj


def _distances_from_input(obj: DataMatrix | CorrelationMatrix) -> np.ndarray:
    """Distance matrix for graph construction, from data or a correlation envelope."""
    if isinstance(obj, DataMatrix):
        return euclidean_distances(obj)
    return correlation_to_distance(obj)


def _read_labels(path: str) -> np.ndarray:
    """Labels from a one-per-line CSV or an fspc result's ``best_labels``.

    Each label must be a finite number equal to an integer that fits int64;
    anything else is a ParseError naming the CSV line or the JSON index.
    """
    doc = read_json(path) if path.endswith(".json") else None
    with prefixed(path):
        if path.endswith(".json"):
            labels = doc.get("best_labels") if isinstance(doc, dict) else None
            if not isinstance(labels, list):
                raise ParseError("no labels found in JSON document")
            entries = [(f"at best_labels[{k}]", value) for k, value in enumerate(labels)]
        else:
            entries = []
            with open_text(path) as fh:
                for line_no, line in enumerate(fh, 1):
                    text = line.strip()
                    if text:
                        try:  # digits alone parse as int: no rounding above 2**53
                            value = int(text) if text.lstrip("+-").isdigit() else float(text)
                        except ValueError:
                            value = text
                        entries.append((f"on line {line_no}", value))
        out = []
        for where, value in entries:
            if type(value) is float and value.is_integer():
                value = int(value)
            if type(value) is not int or not -2**63 <= value < 2**63:
                raise ParseError(f"bad label {where}: {value!r} is not an int64 integer")
            out.append(value)
    return np.asarray(out, dtype=np.int64)


def cmd_generate(args) -> int:
    if args.dataset == "circles":
        data, labels = generate_circles(args.n, noise=args.noise, seed=args.seed)
    else:
        sigmas = []
        for item in args.sigmas.split(","):
            try:
                sigmas.append(float(item))
            except ValueError:
                raise DomainError(f"--sigmas item {item!r} is not a number") from None
        data, labels = generate_blobs(args.n, args.dims, sigmas, seed=args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(",".join(data.col_ids) + "\n")
        for row in data.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    labels_path = args.labels or (args.output + ".labels.csv")
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(lab)}\n" for lab in labels)
    print(f"wrote {args.output} ({data.n_rows} x {data.n_cols}) and {labels_path}")
    return 0


def cmd_preprocess(args) -> int:
    """Stages in a fixed order: data transforms, --corr, --denoise, --pd.

    A flag whose stage has nothing to act on is an error naming it, found
    before any stage runs; an error a stage finds in the input names the file.
    """
    obj = _load_table(args.input, args.has_header)
    is_corr = isinstance(obj, CorrelationMatrix)
    data_flags = [flag for flag, on in (("--transpose", args.transpose),
                                        ("--returns", args.returns), ("--scale", args.scale),
                                        ("--order-rows", args.order_rows),
                                        (f"--corr {args.corr}", args.corr != "none")) if on]
    if is_corr and data_flags:
        raise DomainError(f"{', '.join(data_flags)}: needs a data matrix, but "
                          f"{args.input} is a correlation envelope")
    if args.rmt_upper_only and args.denoise != "rmt":
        raise DomainError("--rmt-upper-only needs --denoise rmt")
    imn_options = {key: value for key, value in (("max_iters", args.imn_iters),
                                                 ("tol", args.imn_tol)) if value is not None}
    if imn_options and args.denoise != "imn":
        flag = "--imn-iters" if args.imn_iters is not None else "--imn-tol"
        raise DomainError(f"{flag} needs --denoise imn")
    if args.denoise == "rmt" and (is_corr or args.corr != "none"):
        source = "a correlation envelope input" if is_corr else f"--corr {args.corr}"
        raise DomainError(f"--denoise rmt builds its correlation from the data matrix; "
                          f"it cannot follow {source}")
    if args.pd and not is_corr and args.corr == args.denoise == "none":
        raise DomainError("--pd repairs a correlation matrix: add --corr or --denoise, "
                          "or pass a correlation envelope")

    with prefixed(args.input):
        data, corr = (None, obj) if is_corr else (obj, None)
        if args.transpose:
            data = data.transposed()
        if args.returns:
            data = log_returns(data)
        if args.scale:
            data = min_max_scale(data)
        if args.order_rows:
            order = nearest_neighbor_order(euclidean_distances(data))
            data = DataMatrix(data.values[order], data.mask[order],
                              row_ids=[data.row_ids[i] for i in order],
                              col_ids=list(data.col_ids))
        if args.corr == "pearson":
            corr = pairwise_overlap_correlation(data)
        elif args.corr == "similarity":
            corr = similarity_from_distance(euclidean_distances(data), row_ids=data.row_ids)
        if args.denoise == "imn":
            corr = imn_denoise(data if corr is None else corr, **imn_options)
        elif args.denoise == "rmt":
            corr = rmt_denoise(data, upper_only=args.rmt_upper_only)
        if args.pd:
            corr = make_positive_definite(corr)
    if corr is None:
        save_envelope(data, args.output)
        print(f"wrote data envelope {args.output}")
        return 0
    save_envelope(corr, args.output)
    print(f"wrote {corr.kind} correlation envelope {args.output}")
    return 0


def cmd_spc(args) -> int:
    grid = parse_trange(args.t)
    obj = _load_table(args.input, args.has_header)
    n = obj.values.shape[0]
    if not 1 <= args.k < n:
        raise DomainError(f"--k {args.k}: needs 1 <= k < N, and {args.input} has N = {n} rows")
    with prefixed(args.input):
        graph = mutual_knn_graph(_distances_from_input(obj), k=args.k)
        strengths = strength_matrix(graph)
    sweep = temperature_sweep(strengths, grid, m_steps=args.steps,
                              burn_in=args.burn_in, q=args.q, theta=args.theta,
                              seed=args.seed, workers=args.threads)
    params = {"k": args.k, "q": args.q, "theta": args.theta, "steps": args.steps,
              "burn_in": args.burn_in, "seed": args.seed, "t": args.t,
              "k_hat": graph.k_hat, "length_scale_a": graph.length_scale_a}
    write_json(sweep_to_json(sweep, params=params, with_g=args.dump_g), args.output)
    print(f"wrote sweep with {len(sweep)} temperatures to {args.output}")
    return 0


def cmd_fspc(args) -> int:
    corr = _load_correlation(args.corr)
    if corr.n < 2:
        raise DomainError(f"{args.corr}: the search needs at least 2 nodes, got {corr.n}")
    try:
        res = ga_run(corr, pop_size=args.pop, max_generations=args.gens,
                     stall_generations=args.stall, seed=args.seed, objective=args.objective)
    except DegenerateClusterError as exc:  # the matrix's fault; a bad flag names no file
        raise DegenerateClusterError(f"{args.corr}: {exc}") from None
    write_json(res.to_dict(), args.output)
    print(f"wrote result (fitness {res.fitness:.6g}, "
          f"{res.generations_run} generations) to {args.output}")
    return 0


def cmd_validate(args) -> int:
    sweep_doc = read_json(args.sweep)
    with prefixed(args.sweep):
        sweep = sweep_from_json(sweep_doc)
        report = phase_report(sweep)
        fec = free_energy_curve(sweep)
    doc = report.to_dict()
    md = [report.to_markdown()]
    doc["free_energy"] = [{"T": t, "F": f, "S": s, "chi": c} for t, f, s, c in fec]

    if args.corr:
        corr = _load_correlation(args.corr)
        with prefixed(args.corr):
            curve = lc_vs_temperature(sweep, corr)
        doc["lc_curve"] = [{"T": t, "lc": v} for t, v in curve]
        best_t, best_lc = max(curve, key=lambda tv: tv[1])
        md.append(f"\nLikelihood argmax: T={best_t:g} (L_c={best_lc:.4f})\n")

    if args.reference:
        ref = _read_labels(args.reference)
        with prefixed(args.reference):
            curve = ari_vs_temperature(sweep, ref)
        doc["ari_curve"] = [{"T": t, "ari": v} for t, v in curve]
        best_t, best_ari = max(curve, key=lambda tv: tv[1])
        md.append(f"\nARI maximum vs reference: T={best_t:g} (ARI={best_ari:.4f})\n")

    write_json(doc, args.output + ".json")
    with open(args.output + ".md", "w", encoding="utf-8") as fh:
        fh.write("".join(md))
    with open(args.output + ".csv", "w", encoding="utf-8") as fh:
        fh.write("T,F,S,chi,mean_m\n")
        for (t, f, s, c), st in zip(fec, sweep):
            fh.write(f"{t!r},{f!r},{s!r},{c!r},{st.mean_magnetization!r}\n")
    print(f"wrote {args.output}.json, {args.output}.md, {args.output}.csv")
    return 0


def cmd_mst(args) -> int:
    obj = _load_table(args.input, args.has_header)
    with prefixed(args.input):
        mst = minimum_spanning_tree(_distances_from_input(obj))
    write_json(mst.to_dict(), args.output)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(mst.to_dot(obj.row_ids))
    print(f"wrote MST ({mst.i.size} edges, total weight "
          f"{mst.total_weight:.6g}) to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinclust",
        description="Spin-model clustering toolkit: Monte Carlo sweeps and "
                    "likelihood-maximizing genetic search.")
    parser.add_argument("--version", action="version", version=f"spinclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("dataset", choices=["circles", "blobs"])
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--noise", type=float, default=0.5, help="circles: radial noise factor")
    p.add_argument("--dims", type=int, default=3, help="blobs: feature count")
    p.add_argument("--sigmas", default="0.25,0.5,1",
                   help="blobs: comma-separated per-cluster spreads")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--labels", default=None,
                   help="ground-truth labels path (default: <output>.labels.csv)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="scaling, returns, correlations, denoising")
    p.add_argument("--input", required=True, help="CSV or JSON envelope")
    p.add_argument("--no-header", dest="has_header", action="store_false",
                   help="CSV input has no header row")
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--returns", action="store_true", help="log returns of price rows")
    p.add_argument("--scale", action="store_true", help="min-max scale each column")
    p.add_argument("--order-rows", action="store_true",
                   help="reorder rows by nearest-neighbor chaining (row_ids keep "
                        "identity; positional label files no longer align)")
    p.add_argument("--corr", choices=["none", "pearson", "similarity"], default="none")
    p.add_argument("--pd", action="store_true", help="repair to positive definite")
    p.add_argument("--denoise", choices=["none", "imn", "rmt"], default="none")
    p.add_argument("--imn-iters", type=int, default=None,
                   help="--denoise imn: iteration cap (default 500)")
    p.add_argument("--imn-tol", type=float, default=None,
                   help="--denoise imn: convergence tolerance (default 1e-8)")
    p.add_argument("--rmt-upper-only", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("spc", help="temperature sweep")
    p.add_argument("--input", required=True, help="data CSV/JSON or correlation JSON")
    p.add_argument("--no-header", dest="has_header", action="store_false")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--q", type=int, default=20)
    p.add_argument("--t", default="0.005:0.25:0.005", help="grid start:stop:step")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=400)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_worker_count, default=1)
    p.add_argument("--dump-g", action="store_true",
                   help="include the pair correlation G of every graph edge per "
                        "temperature, as [i, j, G] triples")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_spc)

    p = sub.add_parser("fspc", help="genetic likelihood maximization")
    p.add_argument("--corr", required=True, help="correlation JSON envelope")
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--gens", type=int, default=25000)
    p.add_argument("--stall", type=int, default=100)
    p.add_argument("--objective", choices=["lc", "kmeans"], default="lc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fspc)

    p = sub.add_parser("validate", help="phase report and validation curves")
    p.add_argument("--sweep", required=True, help="sweep JSON from the spc subcommand")
    p.add_argument("--corr", default=None, help="correlation envelope for the L_c curve")
    p.add_argument("--reference", default=None,
                   help="labels CSV or fspc result JSON for the ARI curve")
    p.add_argument("--output", required=True, help="basename for .json/.md/.csv outputs")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mst", help="minimum spanning tree export")
    p.add_argument("--input", required=True, help="data CSV/JSON or correlation JSON")
    p.add_argument("--no-header", dest="has_header", action="store_false")
    p.add_argument("--output", required=True)
    p.add_argument("--dot", default=None, help="also write Graphviz DOT here")
    p.set_defaults(func=cmd_mst)

    return parser


def _map_large_blocks() -> None:
    """Have glibc give every block of 4 MiB or more a mapping of its own.

    By default glibc raises that threshold to the size of each mapped block
    that is freed, up to 32 MiB, so the N x N arrays of a large input then
    come from the heap. Whether a freed one is reused there depends on the
    small allocations made in between, and two identical runs at N = 2000
    peaked 31 MB apart (one such array). With a fixed threshold each large
    array is unmapped when it is freed. A fixed threshold also keeps the
    heap-trim threshold at 128 KiB, where the heap shrank and grew again
    around mid-sized arrays (bench search 6% slower), so that one is 2 MiB.
    Other C libraries are left as they are.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes  # here, not at the top: only main needs it

    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 2 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    _map_large_blocks()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (SpinclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
