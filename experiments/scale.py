"""Scale run: ``mmsbkit generate``, then ``mmsbkit cluster`` with SRSC and
CRSC, each command in a fresh process, at n = 10^5 (dense and sparse) and
10^6.

    python3 experiments/scale.py [--point N,RHO ...] [--work DIR]

The graphs follow one recipe: K = 3, ``random-half`` memberships with
n0 = n / 5 pure nodes per community, connectivity 0.8 on the diagonal
and 0.1 off it, and the sparsity ``rho`` of the point, seed 1. Each
command runs in its own interpreter, on the package in this checkout's
``src/``, with the benchmark's span recorder
(``benchmarks/spans.py``, imported as it stands) installed, and reports
its wall time, its peak RSS (``ru_maxrss``, the whole process) and the
self time of each traced stage. The output is one markdown table, a row
per command, labelled by its point; ``--work DIR`` keeps each point's
graph and outputs as ``DIR/scale-N-RHO.*``. An n = 10^6 point takes
about a minute and a half on a 2-core VM; ``cluster`` peaks near
0.53 GB, ``generate`` near 0.17 GB.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: (n, rho) of the default points; 10^6 at rho 5e-5 has about 8.45M edges,
#: and 10^5 at rho 1e-4 (mean degree about 3.4) has thousands of
#: isolated nodes.
POINTS = ((100_000, 2e-3), (100_000, 1e-4), (1_000_000, 5e-5))
SEED = 1
#: Stages of ``generate`` that the recorder's targets miss, timed by this
#: script itself: the writer's span, and the ``next`` calls of the
#: sampler's block iterator, which the writer makes, summed into one stage
#: and taken out of the writer's self time.
WRITER, SAMPLER = "io_formats.write_edge_blocks", "model.sample_edge_blocks"
#: Stages shown per row, by self time: everything else is summed into "rest".
SHOWN = 5


def _argv(command: str, n: int, rho: float, prefix: Path) -> list[str]:
    if command == "generate":
        return [
            "--quiet", "generate", "--n", str(n), "--k", "3", "--n0", str(n // 5),
            "--profile", "random-half", "--p-diag", "0.8", "--p-off", "0.1",
            "--rho", repr(rho), "--seed", str(SEED), "--out", str(prefix),
        ]
    return [
        "--quiet", "cluster", "--edges", f"{prefix}.edgelist", "--k", "3", "--tau", "auto",
        "--method", "srsc", "--method", "crsc", "--seed", str(SEED), "--out", str(prefix),
    ]


def run_one(command: str, n: int, rho: float, prefix: Path) -> dict:
    """Run one command in this process under the span recorder and return
    its wall time, peak RSS and per-stage self times."""
    sys.dont_write_bytecode = True  # leave no bytecode beside the benchmark's files
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from spans import Recorder

    from mmsbkit import cli

    recorder = Recorder()
    recorder.install()
    blocks = _TimedBlocks()
    cli.write_edge_blocks = functools.partial(recorder.call, WRITER, cli.write_edge_blocks)
    cli.sample_edge_blocks = functools.partial(blocks.draw, cli.sample_edge_blocks)
    start = time.perf_counter()
    code = recorder.call("run_cli", cli.run_cli, _argv(command, n, rho, prefix))
    wall = time.perf_counter() - start
    stages = recorder.op_summary(0)
    if blocks.seconds:
        stages[SAMPLER + ".s"] = blocks.seconds
        stages[WRITER + ".s"] -= blocks.seconds
    return {
        "code": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stages": stages,
    }


class _TimedBlocks:
    """Sums into ``seconds`` the time the ``next`` calls of the sampler's
    block iterator take, which ``draw`` wraps: one stage, with no span
    per block."""

    def __init__(self):
        self.seconds = 0.0

    def draw(self, sample, *args):
        blocks = sample(*args)
        while True:
            start = time.perf_counter()
            try:
                block = next(blocks)
            except StopIteration:
                return
            finally:
                self.seconds += time.perf_counter() - start
            yield block


def _row(n: int, rho: float, command: str, report: dict) -> str:
    stages = {k[:-2]: v for k, v in report["stages"].items() if k.endswith(".s")}
    top = sorted(stages.items(), key=lambda kv: -kv[1])
    shown = [f"{name} {s:.2f}" for name, s in top[:SHOWN]]
    if len(top) > SHOWN:
        shown.append(f"rest {sum(s for _, s in top[SHOWN:]):.2f}")
    edges = report["stages"].get("io_formats.read_edge_list.edges")
    return (
        f"| {n:,}, {rho:g} | {command} | {'' if edges is None else f'{int(edges):,}'} "
        f"| {report['wall_s']:.2f} | {report['peak_rss_mb']:.1f} | {'; '.join(shown)} |"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--point", action="append", default=None, metavar="N,RHO", help="node count and sparsity; repeatable")
    parser.add_argument("--work", type=Path, default=None, help="directory for the graphs (default: a temporary one)")
    parser.add_argument("--one", nargs=4, default=None, help=argparse.SUPPRESS)  # command n rho prefix, in the child
    args = parser.parse_args(argv)
    if args.one is not None:
        command, n, rho, prefix = args.one
        report = run_one(command, int(n), float(rho), Path(prefix))
        print(json.dumps(report))
        return report["code"]

    points = POINTS if args.point is None else [(int(p.split(",")[0]), float(p.split(",")[1])) for p in args.point]
    with tempfile.TemporaryDirectory() as scratch:
        work = args.work or Path(scratch)
        work.mkdir(parents=True, exist_ok=True)
        print("| n, rho | command | edges | wall s | peak RSS MB | self time of the longest stages, s |")
        print("| --- | --- | --- | --- | --- | --- |")
        for n, rho in points:
            prefix = work / f"scale-{n}-{rho:g}"
            for command in ("generate", "cluster"):
                proc = subprocess.run(
                    [sys.executable, __file__, "--one", command, str(n), repr(rho), str(prefix)],
                    capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    print(f"{command} at n={n}, rho={rho:g} exited with {proc.returncode}", file=sys.stderr)
                    return 1
                print(_row(n, rho, command, json.loads(proc.stdout.splitlines()[-1])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
