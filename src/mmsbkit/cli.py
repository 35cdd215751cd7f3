"""Command-line front end.

Subcommands: ``generate`` (synthesize a benchmark network), ``cluster``
(estimate memberships from an edge list; every requested method runs on
one shared eigendecomposition), ``evaluate`` (score an
estimate against ground truth), ``sweep`` (run a JSON-configured
parameter sweep), and ``stats`` (summary statistics of a network).

Data goes to files or standard output; human-readable progress goes to
standard error (silenced by --quiet). Exit codes: 0 success, 1 usage
error, 2 data/format error, 3 numerical failure or a sweep trial process
that died. Identical arguments, files, and seeds produce byte-identical
outputs. The environment variable ``MMSBKIT_THREADS`` sets how many
sweep trials run at once, each in its own worker process (default: the
number of cores this process may run on); ``cluster`` and each sweep
trial run on one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from .evaluation import mixed_hamming_error, network_stats
from .exceptions import DataFormatError, NumericalError
from .io_formats import (
    read_edge_list,
    read_memberships,
    write_edge_list,
    write_memberships,
)
from .model import (
    BlockModel,
    PROFILES,
    build_population_matrix,
    planted_memberships,
    sample_adjacency,
)
from .recovery import EMPIRICAL_METHODS, run_methods
from .sweep import SweepConfig, diag_off_block, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

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
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tau must be a number or 'auto', got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("tau must be nonnegative")
    return value


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
    sw.add_argument("--workers", type=int, default=None, help="trial parallelism (default: MMSBKIT_THREADS or usable cores)")

    st = sub.add_parser("stats", help="summary statistics of a network")
    st.add_argument("--edges", required=True, help="edge-list file")
    st.add_argument("--n", type=int, default=None, help="node count override")
    st.add_argument("--memberships", default=None, help="optional membership CSV")
    st.add_argument("--normalize", action="store_true", help="row-normalize the membership file")
    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _cmd_generate(args) -> int:
    pi = planted_memberships(args.n, args.k, args.n0, args.profile, seed=args.seed)
    block = BlockModel(diag_off_block(args.k, args.p_diag, args.p_off), rho=args.rho)
    omega = build_population_matrix(pi, block)
    graph = sample_adjacency(omega, args.seed)
    edge_path = Path(f"{args.out}.edgelist")
    pi_path = Path(f"{args.out}.memberships.csv")
    write_edge_list(graph, edge_path)
    write_memberships(pi, pi_path)
    _say(args, f"wrote {edge_path} ({graph.edge_count()} edges) and {pi_path}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    graph = read_edge_list(args.edges, n=args.n)
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
        summary_path.write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
        )
        _say(args, f"{method}: wrote {pihat_path} and {summary_path} (tau={result.tau:.6g})")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    estimate = read_memberships(args.estimate)
    truth = read_memberships(args.truth, normalize=args.normalize_truth)
    report = mixed_hamming_error(estimate, truth)
    print("mixed_hamming_error,permutation")
    print(f"{report.error:.17g},{' '.join(str(p) for p in report.permutation)}")
    return EXIT_OK


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the logical core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read config: {exc}") from exc
    config = SweepConfig.from_json(text)
    if args.seed is not None or args.reps is not None:
        config = SweepConfig(
            base_seed=args.seed if args.seed is not None else config.base_seed,
            reps=args.reps if args.reps is not None else config.reps,
            methods=config.methods,
            grid=config.grid,
        )
    workers = args.workers
    if workers is None:
        env = os.environ.get("MMSBKIT_THREADS")
        workers = int(env) if env else _usable_cores()
    if workers < 1:
        raise SystemExit2(f"worker count must be positive, got {workers}")
    result = run_sweep(config, workers=workers)
    Path(args.out).write_text(result.to_csv(), encoding="utf-8", newline="\n")
    for failure in result.failures:
        _say(args, f"skipped {failure['method']} at point {failure['point']} ({failure['stage']}): {failure['error']}")
    _say(args, f"wrote {args.out} ({len(result.rows)} rows)")
    return EXIT_OK


def _cmd_stats(args) -> int:
    graph = read_edge_list(args.edges, n=args.n)
    pi = None
    if args.memberships:
        pi = read_memberships(args.memberships, normalize=args.normalize)
    stats = network_stats(graph, pi)
    print("n,K,mean_degree,density,overlap")
    print(
        ",".join(
            [
                str(stats.n),
                "" if stats.K is None else str(stats.K),
                format(stats.mean_degree, ".17g"),
                format(stats.density, ".17g"),
                "" if stats.overlap is None else format(stats.overlap, ".17g"),
            ]
        )
    )
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
    except BrokenProcessPool as exc:  # killed for memory, say
        print(f"a sweep trial process died: {exc}", file=sys.stderr)
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
