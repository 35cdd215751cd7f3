"""Command-line front end.

Subcommands: ``generate`` (synthesize a benchmark network), ``cluster``
(estimate memberships from an edge list; every requested method runs on
one shared eigendecomposition), ``evaluate`` (score an
estimate against ground truth), ``sweep`` (run a JSON-configured
parameter sweep), and ``stats`` (summary statistics of a network).

Data goes to files or standard output; human-readable progress goes to
standard error (silenced by --quiet). Exit codes: 0 success, 1 usage
error, 2 data/format error, 3 numerical failure, a sweep trial process
that died, or memory that could not be allocated (``MemoryError``).
Identical arguments, files, and seeds produce byte-identical outputs.
Every text file read, an edge list, a membership CSV or a sweep config,
is UTF-8 with lines ending in LF or CR LF; a fault exits 2 naming
``path:line``. ``sweep --workers`` sets how many sweep trials run at
once, each in its own worker process (default: the number of cores this
process may run on); ``cluster`` and each sweep trial run on one BLAS
thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from .evaluation import mixed_hamming_error, network_stats
from .exceptions import DataFormatError, NumericalError
from .io_formats import (
    read_edge_list,
    read_memberships,
    text_lines,
    write_edge_blocks,
    write_edge_list,  # noqa: F401 (benchmarks/spans.py wraps this name here)
    write_matrix_csv,
    write_memberships,
    write_text,
)
from .model import (
    BlockModel,
    PROFILES,
    build_population_matrix,
    planted_memberships,
    sample_adjacency,  # noqa: F401 (benchmarks/spans.py wraps this name here)
    sample_edge_blocks,
)
from .recovery import EMPIRICAL_METHODS, run_methods
from .sweep import SweepConfig, diag_off_block, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_INT64 = np.iinfo(np.int64)

#: ``cluster --method`` names; each is the lower-case form of the
#: recovery method tag.
_CLUSTER_METHODS = tuple(sorted(m.lower() for m in EMPIRICAL_METHODS))


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Raised for usage errors so main() can exit with code 1."""


def _tau_value(text: str):
    """``--tau``: ``None`` for ``auto``, else a finite nonnegative float,
    with ``-0`` read as ``0.0`` so that both spellings write the same
    summary."""
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"tau must be a finite number or 'auto', got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("tau must be nonnegative")
    return value + 0.0  # -0.0 + 0.0 is +0.0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmsbkit", description="Mixed-membership spectral clustering toolkit")
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a benchmark network")
    gen.add_argument("--n", type=int, required=True, help="node count")
    gen.add_argument("--k", type=int, required=True, help="community count")
    gen.add_argument("--n0", type=int, required=True, help="pure nodes per community")
    gen.add_argument("--profile", choices=PROFILES, required=True, help="mixed-row layout")
    gen.add_argument("--p-diag", type=float, default=1.0, help="connectivity diagonal (default 1.0)")
    gen.add_argument("--p-off", type=float, default=0.5, help="connectivity off-diagonal (default 0.5)")
    gen.add_argument("--rho", type=float, default=1.0, help="sparsity scale in (0, 1]")
    gen.add_argument("--seed", type=int, default=0, help="sampling seed")
    gen.add_argument("--out", required=True, help="output prefix: <out>.edgelist and <out>.memberships.csv")

    clu = sub.add_parser("cluster", help="estimate memberships from an edge list")
    clu.add_argument("--edges", required=True, help="edge-list file")
    clu.add_argument("--n", type=int, default=None, help="node count override")
    clu.add_argument("--k", type=int, required=True, help="number of communities")
    clu.add_argument("--tau", type=_tau_value, default=None, help="regularizer, or 'auto' for 0.1*ln(n)")
    clu.add_argument(
        "--method",
        action="append",
        choices=_CLUSTER_METHODS,
        required=True,
        help="method to run (repeatable)",
    )
    clu.add_argument("--seed", type=int, default=0, help="k-means seed for the cone methods")
    clu.add_argument("--out", required=True, help="output prefix: <out>.<method>.pihat.csv and .summary.json")

    ev = sub.add_parser("evaluate", help="score an estimate against ground truth")
    ev.add_argument("--estimate", required=True, help="estimated membership CSV")
    ev.add_argument("--truth", required=True, help="ground-truth membership CSV")
    ev.add_argument("--normalize-truth", action="store_true", help="row-normalize the truth file (0/1 labels)")

    sw = sub.add_parser("sweep", help="run a JSON-configured parameter sweep")
    sw.add_argument("--config", required=True, help="sweep config JSON file")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.add_argument("--seed", type=int, default=None, help="override the config base seed")
    sw.add_argument("--reps", type=int, default=None, help="override the config repetition count")
    sw.add_argument("--workers", type=int, default=None, help="trial parallelism (default: usable cores)")

    st = sub.add_parser("stats", help="summary statistics of a network")
    st.add_argument("--edges", required=True, help="edge-list file")
    st.add_argument("--n", type=int, default=None, help="node count override")
    st.add_argument("--memberships", default=None, help="optional membership CSV")
    st.add_argument("--normalize", action="store_true", help="row-normalize the membership file")
    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _check_int64(option: str, value: int | None) -> None:
    """A value of ``option`` beyond int64 is a usage error naming it."""
    if value is not None and not _INT64.min <= value <= _INT64.max:
        raise SystemExit2(f"{option} must fit in int64, got {value}")


def _cmd_generate(args) -> int:
    _check_int64("--n", args.n)
    _check_int64("--k", args.k)
    pi = planted_memberships(args.n, args.k, args.n0, args.profile, seed=args.seed)
    block = BlockModel(diag_off_block(args.k, args.p_diag, args.p_off), rho=args.rho)
    omega = build_population_matrix(pi, block)
    del pi  # Omega holds its own copy, written out below
    edge_path = Path(f"{args.out}.edgelist")
    pi_path = Path(f"{args.out}.memberships.csv")
    # each block of the sampler's row-major pairs is written as it is
    # drawn, with no graph built and no array of all the edges
    edges = write_edge_blocks(args.n, sample_edge_blocks(omega, args.seed), edge_path)
    write_matrix_csv(omega.pi, pi_path)
    _say(args, f"wrote {edge_path} ({edges} edges) and {pi_path}")
    return EXIT_OK


def _read_graph(args):
    """The ``--edges`` graph; a negative ``--n``, or one beyond int64, is a
    usage error."""
    if args.n is not None and args.n < 0:
        raise SystemExit2(f"--n must be nonnegative, got {args.n}")
    _check_int64("--n", args.n)
    return read_edge_list(args.edges, n=args.n)


def _cmd_cluster(args) -> int:
    graph = _read_graph(args)
    methods = list(dict.fromkeys(args.method))
    results = run_methods(
        graph, args.k, [m.upper() for m in methods], tau=args.tau, corner_seed=args.seed
    )
    for method, result in zip(methods, results):
        pihat_path = Path(f"{args.out}.{method}.pihat.csv")
        summary_path = Path(f"{args.out}.{method}.summary.json")
        write_memberships(result.pi_hat, pihat_path)
        summary = {
            "method": result.method,
            "n": graph.n,
            "k": args.k,
            "tau": result.tau,
            "corners": list(result.corners.indices),
            "clipped_rows": result.clipped_rows,
            "fallback_rows": result.fallback_rows,
        }
        write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", summary_path)
        _say(args, f"{method}: wrote {pihat_path} and {summary_path} (tau={result.tau:.6g})")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    estimate = read_memberships(args.estimate)
    truth = read_memberships(args.truth, normalize=args.normalize_truth)
    if (estimate.n, estimate.K) != (truth.n, truth.K):
        shapes = f"{args.estimate} is {estimate.n}x{estimate.K}, {args.truth} is {truth.n}x{truth.K}"
        raise DataFormatError(f"shape mismatch: {shapes}")
    report = mixed_hamming_error(estimate, truth)
    print("mixed_hamming_error,permutation")
    print(f"{report.error:.17g},{' '.join(str(p) for p in report.permutation)}")
    return EXIT_OK


def _sweep_workers(args) -> int:
    """``--workers``, where a count below 1 is a usage error, else the
    cores this process may run on: its CPU affinity where the platform
    reports one, else the logical core count."""
    if args.workers is not None:
        if args.workers < 1:
            raise SystemExit2(f"--workers must be positive, got {args.workers}")
        return args.workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_sweep(args) -> int:
    if args.reps is not None and args.reps < 1:
        raise SystemExit2(f"--reps must be positive, got {args.reps}")
    try:
        text = "\n".join(line for _, line in text_lines(Path(args.config)))
    except OSError as exc:
        raise DataFormatError(f"cannot read config: {exc}") from exc
    config = SweepConfig.from_json(text)
    overrides = {"base_seed": args.seed, "reps": args.reps}
    config = replace(config, **{key: value for key, value in overrides.items() if value is not None})
    # imported here, as sweep._trial_pool imports the pool: only sweep needs it
    from concurrent.futures.process import BrokenProcessPool

    try:
        result = run_sweep(config, workers=_sweep_workers(args))
    except BrokenProcessPool as exc:  # killed for memory, say
        print(f"a sweep trial process died: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_text(result.to_csv(), args.out)
    for failure in result.failures:
        _say(args, f"skipped {failure['method']} at point {failure['point']} ({failure['stage']}): {failure['error']}")
    _say(args, f"wrote {args.out} ({len(result.rows)} rows)")
    return EXIT_OK


def _cmd_stats(args) -> int:
    graph = _read_graph(args)
    pi = read_memberships(args.memberships, normalize=args.normalize) if args.memberships else None
    if pi is not None and pi.n != graph.n:
        raise DataFormatError(f"{args.memberships} covers {pi.n} nodes but the graph of {args.edges} has {graph.n}")
    print("n,K,mean_degree,density,overlap")
    # the counts as integers, the measures to 17 digits, an unknown K or overlap empty
    cells = astuple(network_stats(graph, pi))
    print(",".join("" if v is None else str(v) if isinstance(v, int) else format(v, ".17g") for v in cells))
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "cluster": _cmd_cluster,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
}


def run_cli(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a valid size too large to allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
