"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Checks that every workload, traced and untraced, passes and emits exactly
the metrics ``BENCHMARK.json`` names with their units; that the trace sees
two eigensolves per cluster operation and the failed sweep pairs; that a
corrupted output of each workload trips its check; and that the benchmark
fails without printing a result where there is no ``src/mmsbkit``. Exits 0
when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from mmsbkit.cli import run_cli  # noqa: E402

from workloads import WORKLOADS, CheckFailed  # noqa: E402

SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def check_metrics(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
                              "--trace", str(trace), "--tiny")
            result = json.loads(out.strip().splitlines()[-1])
            assert code == 0 and result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1 + trace, (workload, trace, result)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            if kind == "end_to_end":
                assert all(v > 0 for v in metrics.values()), (workload, metrics)
            elif workload == "cluster-dense":
                assert metrics["spectral.leading_eigenpairs.calls"] == 2, metrics
            elif workload == "sweep-grid":
                assert metrics["sweep.failed_pairs"] > 0, metrics
        print(f"ok: {workload} emits every metric")


def _set_line(path: Path, index: int, text: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _swap_lines(path: Path, i: int, j: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[i], lines[j] = lines[j], lines[i]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _nudge_twin(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[4] == "SRSC-EQ" and float(cells[2]) == 1.0:
            cells[5] = repr(float(cells[5]) + 1e-6)
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CORRUPTIONS = {
    "cluster-dense": lambda outputs: _set_line(outputs[0], 0, "0.5,0.5,0.5"),
    "generate-sparse": lambda outputs: _swap_lines(outputs[0], 1, 2),
    "sweep-grid": lambda outputs: _nudge_twin(outputs[0]),
}


def check_corruption(scratch: Path) -> None:
    for name, workload in WORKLOADS.items():
        work = scratch / name
        work.mkdir(parents=True)
        argv, outputs = workload.prepare(work, SEED, True)
        assert run_cli(argv) == 0, name
        workload.check(work, outputs)
        CORRUPTIONS[name](outputs)
        try:
            workload.check(work, outputs)
        except CheckFailed as exc:
            print(f"ok: corrupted {name} output trips the check ({exc})")
        else:
            raise AssertionError(f"corrupted {name} output passed the check")


def check_refuses_without_source(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench("--workload", "cluster-dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert code != 0 and not out.strip(), (code, out)
    print("ok: refuses to run without src/mmsbkit")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch = HERE / "work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_metrics(spec)
        check_corruption(scratch)
        check_refuses_without_source(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
