"""mmsbkit benchmark: one command for every workload, metric and output check.

    python3 benchmarks/run.py --workload cluster-dense --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout that has ``src/mmsbkit``; it builds
nothing and reads the package from that ``src/``. Each run starts fresh
worker processes (``worker.py``): with ``--trace 0`` three, each setting up
the workload from scratch, so ``setup_s`` is a median; the last one also
runs the timed closed loop. With ``--trace 1`` one worker runs the loop
with every other operation traced (see ``spans.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The full record, with the environment stamp, every
operation's time and the per-operation work counts, goes to
``benchmarks/results/<workload>-seed<seed>-trace<t>.json``; traced spans go
beside it as ``.spans.jsonl``. The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
DEADLINE_S = 170.0


def run_workers(args, work: Path, results: Path) -> list[dict]:
    """Start the workers one after another and return their reports."""
    deadline = time.monotonic() + DEADLINE_S
    runs = 1 if args.trace else SETUP_RUNS
    reports = []
    for i in range(runs):
        last = i == runs - 1
        sub = work / f"w{i}"
        sub.mkdir(parents=True)
        report = sub / "report.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds if last else 0), "--trace", str(args.trace),
            "--work", str(sub), "--report", str(report),
        ]
        if args.tiny:
            cmd.append("--tiny")
        if last and args.trace:
            cmd += ["--spans", str(results.with_suffix(".spans.jsonl"))]
        # Worker output goes to stderr so the result stays the last stdout line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        reports.append(json.loads(report.read_text(encoding="utf-8")))
    return reports


def end_to_end(reports: list[dict]) -> dict[str, float]:
    main = reports[-1]
    ops = main["ops"]
    check = main.get("check", {})
    return {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": check.get("ok_frac", sum(op["code"] == 0 for op in ops) / len(ops)),
        "err_srsc": check.get("err_srsc"),
        "err_crsc": check.get("err_crsc"),
    }


def per_layer(report: dict, specs: list[dict], problems: list[str]) -> dict[str, float]:
    """Median over traced operations of each layer's per-operation total.
    Counts must repeat exactly from one operation to the next."""
    layers = report["layers"]
    walls = {t: [op["wall_s"] for op in report["ops"] if op["traced"] == t] for t in (False, True)}
    out = {
        "trace.overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
        "sweep.failed_pairs": report.get("check", {}).get("sweep.failed_pairs", 0),
    }
    for spec in specs:
        name = spec["name"]
        if name in out:
            continue
        values = [layer.get(name, 0.0) for layer in layers]
        if spec["unit"] == "count" and len(set(values)) > 1:
            problems.append(f"count {name} differs between operations: {values}")
        out[name] = statistics.median(values)
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "mmsbkit" / "__init__.py").is_file():
        print(f"error: no mmsbkit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = bench["per_layer" if args.trace else "end_to_end"]

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    work = HERE / "work" / record.stem
    shutil.rmtree(work, ignore_errors=True)
    try:
        reports = run_workers(args, work, record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    main_report = reports[-1]
    problems = [p for r in reports for p in r["problems"]]
    ops = main_report.get("ops")  # absent when the warm-up failed
    if ops is not None:
        values = per_layer(main_report, specs, problems) if args.trace else end_to_end(reports)
        missing = [s["name"] for s in specs if values.get(s["name"]) is None]
        if missing:
            problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if ops is None:
        return 1
    metrics = {s["name"]: {"value": values.get(s["name"]), "unit": s["unit"]} for s in specs}
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op["code"] != 0 or not op["same_bytes"] for op in ops),
        "metrics": metrics,
    }
    record.write_text(
        json.dumps({"args": vars(args), "env": main_report["env"], "problems": problems,
                    "result": result, "reports": reports}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
