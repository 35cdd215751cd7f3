"""The benchmark's workloads and the checks on their outputs.

Every workload is one ``mmsbkit`` command line, run in a closed loop through
``mmsbkit.cli.run_cli``. ``prepare`` writes the inputs the command reads;
``check`` verifies the files the command wrote. All generator seeds come
from the benchmark's ``--seed``.

- ``cluster-dense``: ``mmsbkit cluster`` with SRSC and CRSC on a dense
  2000-node graph (about 675k edges). The dense eigensolve (two per
  operation, one per method) and edge-list parsing dominate.
- ``generate-sparse``: ``mmsbkit generate`` of a sparse 6000-node graph
  (about 121k edges). The n x n Omega, the sampler and the edge-list
  writer dominate, and Omega sets the peak memory. No eigensolve.
- ``sweep-grid``: ``mmsbkit sweep`` over the criterion-7 grid with four
  sparsity levels and all four methods, trials on one thread per core.
  Many small graphs; a small-n eigensolver regression or worker/BLAS
  contention shows here. At rho 0.01 every trial has isolated nodes and
  CRSC fails, so that grid point has no rows: a known defect kept visible.

``err_srsc`` and ``err_crsc`` come from :func:`accuracy_probe`, not from one
workload's graph: the error of a single graph moves by a fifth from seed to
seed, too much to hold a bound, so the probe averages many small graphs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mmsbkit.cli import run_cli
from mmsbkit.evaluation import mixed_hamming_error
from mmsbkit.io_formats import read_memberships

ROW_SUM_TOL = 1e-12
TWIN_TOL = 1e-10
SWEEP_METHODS = ("srsc", "crsc", "srsc-eq", "crsc-eq")
SWEEP_RHOS = (0.01, 0.2, 0.5, 1.0)
PROBE_GRAPHS = 24


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    """``prepare(work, seed, tiny)`` writes the inputs and returns the
    operation's argument list and the paths it writes; ``check(work,
    outputs)`` raises :class:`CheckFailed` on a wrong output and returns
    the figures it read from the outputs."""

    prepare: Callable[[Path, int, bool], tuple[list[str], list[Path]]]
    check: Callable[[Path, list[Path]], dict[str, float]]
    workers: int = 1


def _run(argv: list[str]) -> None:
    code = run_cli(argv)
    if code != 0:
        raise CheckFailed(f"mmsbkit {' '.join(argv)} exited with {code}")


def _generate(prefix: Path, n: int, n0: int, rho: float, seed: int) -> list[str]:
    return [
        "--quiet", "generate", "--n", str(n), "--k", "3", "--n0", str(n0),
        "--profile", "random-half", "--p-diag", "0.8", "--p-off", "0.1",
        "--rho", str(rho), "--seed", str(seed), "--out", str(prefix),
    ]


def _cluster(edges: Path, prefix: Path, seed: int) -> tuple[list[str], list[Path]]:
    argv = [
        "--quiet", "cluster", "--edges", str(edges), "--k", "3", "--tau", "auto",
        "--method", "srsc", "--method", "crsc", "--seed", str(seed), "--out", str(prefix),
    ]
    outputs = [Path(f"{prefix}.{m}.{kind}") for m in ("srsc", "crsc") for kind in ("pihat.csv", "summary.json")]
    return argv, outputs


def check_row_sums(path: Path) -> None:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    worst = float(np.abs(rows.sum(axis=1) - 1.0).max())
    if not worst <= ROW_SUM_TOL or (rows < 0).any():
        raise CheckFailed(f"{path.name}: rows are not probability vectors (worst row-sum error {worst:.3e})")


def _errors(prefix: Path, truth: Path) -> dict[str, float]:
    """Row-sum check and mixed-Hamming error of ``<prefix>.{srsc,crsc}``
    estimates against the planted memberships."""
    out = {}
    for method in ("srsc", "crsc"):
        pihat = Path(f"{prefix}.{method}.pihat.csv")
        check_row_sums(pihat)
        summary = json.loads(Path(f"{prefix}.{method}.summary.json").read_text(encoding="utf-8"))
        if summary["method"] != method.upper() or len(summary["corners"]) != 3:
            raise CheckFailed(f"{prefix.name}.{method}.summary.json: unexpected summary {summary}")
        out[f"err_{method}"] = mixed_hamming_error(read_memberships(pihat), read_memberships(truth)).error
    return out


def accuracy_probe(work: Path, seed: int, tiny: bool) -> dict[str, float]:
    """Mean SRSC and CRSC error of ``mmsbkit generate`` then ``mmsbkit
    cluster`` over many 300-node graphs of the cluster-dense recipe, the
    i-th seeded ``seed * PROBE_GRAPHS + i``. Runs untimed."""
    graphs = 2 if tiny else PROBE_GRAPHS
    errors = []
    for i in range(graphs):
        s = seed * PROBE_GRAPHS + i
        prefix = work / f"probe{i}"
        _run(_generate(prefix, 300, 60, 1.0, s))
        _run(_cluster(Path(f"{prefix}.edgelist"), prefix, s)[0])
        errors.append(_errors(prefix, Path(f"{prefix}.memberships.csv")))
    return {name: sum(e[name] for e in errors) / graphs for name in errors[0]}


# cluster-dense ------------------------------------------------------------


def prepare_cluster(work: Path, seed: int, tiny: bool):
    n, n0 = (300, 60) if tiny else (2000, 400)
    _run(_generate(work / "graph", n, n0, 1.0, seed))
    return _cluster(work / "graph.edgelist", work / "est", seed)


def check_cluster(work: Path, outputs: list[Path]) -> dict[str, float]:
    return {f"own_{k}": v for k, v in _errors(work / "est", work / "graph.memberships.csv").items()}


# generate-sparse ----------------------------------------------------------


def prepare_generate(work: Path, seed: int, tiny: bool):
    n, n0 = (600, 120) if tiny else (6000, 1200)
    prefix = work / "gen"
    return _generate(prefix, n, n0, 0.02, seed), [Path(f"{prefix}.edgelist"), Path(f"{prefix}.memberships.csv")]


def check_generate(work: Path, outputs: list[Path]) -> dict[str, float]:
    edges_path, pi_path = outputs
    check_row_sums(pi_path)
    n = np.loadtxt(pi_path, delimiter=",", ndmin=2).shape[0]
    lines = edges_path.read_text(encoding="utf-8").splitlines()
    if lines[0] != f"# n={n}":
        raise CheckFailed(f"{edges_path.name}: header {lines[0]!r} does not declare n={n}")
    pairs = np.array([line.split() for line in lines[1:]], dtype=np.int64).reshape(-1, 2)
    keys = pairs[:, 0] * n + pairs[:, 1]
    if pairs.size and not (
        (pairs[:, 0] >= 0).all() and (pairs[:, 0] < pairs[:, 1]).all()
        and (pairs[:, 1] < n).all() and (np.diff(keys) > 0).all()
    ):
        raise CheckFailed(f"{edges_path.name}: edges are not sorted distinct pairs i < j < n")
    return {"edges": len(pairs)}


# sweep-grid ---------------------------------------------------------------


def _sweep_workers() -> int:
    return len(os.sched_getaffinity(0))


def prepare_sweep(work: Path, seed: int, tiny: bool):
    n, n0, reps = (120, 24, 2) if tiny else (500, 100, 10)
    config = {
        "base_seed": seed,
        "reps": reps,
        "methods": list(SWEEP_METHODS),
        "grid": {
            "n": [n], "k": [3], "n0": [n0], "rho": list(SWEEP_RHOS), "tau": ["auto"],
            "profile": ["four-profiles"], "block": [{"diag": 1.0, "off": 0.5}],
        },
    }
    path = work / "grid.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = work / "sweep.csv"
    argv = [
        "--quiet", "sweep", "--config", str(path), "--out", str(out),
        "--seed", str(seed), "--workers", str(_sweep_workers()),
    ]
    return argv, [out]


def check_sweep(work: Path, outputs: list[Path]) -> dict[str, float]:
    with outputs[0].open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    err = {(float(r["rho"]), r["method"]): float(r["mean_err"]) for r in rows}
    if len(err) != len(rows):
        raise CheckFailed("sweep.csv repeats a (rho, method) pair")
    for rho in SWEEP_RHOS:
        for plain in ("SRSC", "CRSC"):
            a, b = err.get((rho, plain)), err.get((rho, f"{plain}-EQ"))
            if a is not None and b is not None and abs(a - b) > TWIN_TOL:
                raise CheckFailed(f"sweep.csv: {plain} and {plain}-EQ differ by {abs(a - b):.3e} at rho={rho}")
    pairs = len(SWEEP_RHOS) * len(SWEEP_METHODS)
    return {"ok_frac": len(rows) / pairs, "sweep.failed_pairs": pairs - len(rows)}


WORKLOADS = {
    "cluster-dense": Workload(prepare_cluster, check_cluster),
    "generate-sparse": Workload(prepare_generate, check_generate),
    "sweep-grid": Workload(prepare_sweep, check_sweep, workers=_sweep_workers()),
}
