"""One benchmark process: set up a workload, run it in a closed loop, check it.

Started by ``run.py`` as a fresh interpreter, so its set-up time includes
the imports and its peak RSS belongs to this workload alone. It imports
``mmsbkit`` from the checkout's ``src/`` and refuses any other copy.

Set-up is the imports, writing the inputs and one warm-up operation. The
loop then runs one operation at a time, each starting after the previous
one ends, until ``--seconds`` have passed. With ``--trace 1`` operations
alternate between untraced and traced, so the tracing overhead is the
difference of their medians. Every operation must exit 0 and leave output
files byte-identical to the warm-up's. The report goes to ``--report`` as
JSON; traced spans go to ``--spans`` as JSON lines.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mmsbkit  # noqa: E402
from mmsbkit.cli import run_cli  # noqa: E402

from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, CheckFailed, accuracy_probe  # noqa: E402

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "MMSBKIT_THREADS")


def environment(seed: int) -> dict:
    """What the timings depend on besides the code. BLAS threading is left
    at the environment's default and only recorded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "commit": commit,
        "seed": seed,
    }


def digest(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    if Path(mmsbkit.__file__).resolve().parent != SRC / "mmsbkit":
        sys.exit(f"imported mmsbkit from {mmsbkit.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    argv, outputs = workload.prepare(args.work, args.seed, args.tiny)
    warm_code = run_cli(argv)
    report: dict = {"setup_s": time.perf_counter() - T0, "env": environment(args.seed), "problems": []}
    if warm_code != 0:
        report["problems"].append(f"warm-up exited with {warm_code}")
    if warm_code != 0 or args.seconds <= 0:
        args.report.write_text(json.dumps(report), encoding="utf-8")
        return 0
    reference = digest(outputs)

    recorder = Recorder()
    ops = []
    start = time.perf_counter()
    # A traced run needs at least one untraced and one traced operation.
    while len(ops) < 1 + args.trace or time.perf_counter() - start < args.seconds:
        traced = args.trace == 1 and len(ops) % 2 == 1
        if traced:
            recorder.op = len(ops)
            recorder.install()
        t = time.perf_counter()
        try:
            code = recorder.call("cli.run_cli", run_cli, argv) if traced else run_cli(argv)
        finally:
            wall = time.perf_counter() - t
            recorder.uninstall()
        same = digest(outputs) == reference
        ops.append({"wall_s": wall, "code": code, "traced": traced, "same_bytes": same})
        if code != 0:
            report["problems"].append(f"operation {len(ops) - 1} exited with {code}")
        elif not same:
            report["problems"].append(f"operation {len(ops) - 1} wrote different bytes than the warm-up")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["ops"] = ops

    try:
        report["check"] = workload.check(args.work, outputs)
        if args.trace == 0:
            report["check"].update(accuracy_probe(args.work, args.seed, args.tiny))
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        report["problems"].append(f"output check failed: {exc}")

    if args.trace == 1:
        report["layers"] = []
        for i, op in enumerate(ops):
            if op["traced"]:
                layer = recorder.op_summary(i)
                layer["sweep.busy_frac"] = layer.get("sweep.busy_s", 0.0) / (op["wall_s"] * workload.workers)
                report["layers"].append(layer)
        if args.spans is not None:
            recorder.write_jsonl(args.spans)
    args.report.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
