"""Seeded parameter-sweep harness over synthetic benchmark networks.

A sweep is the Cartesian product of parameter lists (n, K, pure count,
sparsity, regularizer, mixing profile, connectivity template). At every
grid point each trial plants memberships, samples a graph, runs the
requested methods on one shared eigendecomposition, and scores the
permutation-minimized l1 error; trials aggregate into mean and sample
standard deviation.

Reproducibility contract: trial ``t`` derives its seed as
``base_seed XOR t``. Within a trial the membership stream uses the trial
seed directly and the edge stream uses ``trial_seed XOR STREAM_SPLIT``
so the two draws are decoupled. Aggregation order is fixed by trial
index, so results do not depend on execution order or worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .evaluation import mixed_hamming_error
from .exceptions import DataFormatError, NumericalError
from .model import BlockModel, build_population_matrix, planted_memberships, sample_adjacency
from .recovery import run_methods
from .spectral import default_tau

# Unused here: benchmarks/spans.py times a sweep by wrapping these names in
# this module.
from .recovery import recover_from_basis  # noqa: F401
from .spectral import leading_eigenpairs, regularized_laplacian  # noqa: F401

#: 64-bit odd constant separating the edge-sampling stream from the
#: membership stream inside one trial.
STREAM_SPLIT = 0x9E3779B97F4A7C15

SWEEP_CSV_HEADER = "n,K,rho,tau,method,mean_err,sd_err,reps"

_METHOD_ALIASES = {
    "srsc": "SRSC",
    "crsc": "CRSC",
    "srsc-eq": "SRSC-EQ",
    "crsc-eq": "CRSC-EQ",
}

_GRID_KEYS = ("n", "k", "n0", "rho", "tau", "profile", "block")


def block_from_spec(spec: dict, K: int) -> BlockModel:
    """Build a connectivity model from one grid entry.

    Accepted forms: ``{"diag": d, "off": o}`` for a constant-diagonal
    template, ``{"matrix": [[...]]}`` for an explicit symmetric matrix,
    and ``{"preset": "negative-eig", "index": i}`` for the 3x3 family
    whose smallest eigenvalue grows more negative with ``index``. An
    optional ``"rho"`` key is ignored here (sparsity is its own axis).
    """
    if not isinstance(spec, dict):
        raise DataFormatError(f"block spec must be an object, got {type(spec).__name__}")
    known = {"diag", "off", "matrix", "preset", "index"}
    extra = set(spec) - known
    if extra:
        raise DataFormatError(f"unknown block spec keys: {sorted(extra)}")
    if "matrix" in spec:
        m = np.asarray(spec["matrix"], dtype=np.float64)
        if m.shape != (K, K):
            raise DataFormatError(f"block matrix must be {K}x{K}, got {m.shape}")
        return BlockModel(m)
    if spec.get("preset") == "negative-eig":
        if K != 3:
            raise DataFormatError("the negative-eig preset is a 3x3 template")
        return negative_eig_block(int(spec["index"]))
    if "diag" in spec and "off" in spec:
        return BlockModel(diag_off_block(K, float(spec["diag"]), float(spec["off"])))
    raise DataFormatError(f"cannot interpret block spec {spec!r}")


def diag_off_block(K: int, diag: float, off: float) -> np.ndarray:
    """Connectivity template with constant diagonal and off-diagonal."""
    m = np.full((K, K), off)
    np.fill_diagonal(m, diag)
    return m


def negative_eig_block(index: int) -> BlockModel:
    """3x3 connectivity template whose smallest eigenvalue is negative and
    grows more negative as ``index`` increases (valid for 1 <= index <= 12)."""
    if not 1 <= index <= 12:
        raise ValueError(f"index must lie in 1..12, got {index}")
    c = 0.075 * index
    m = np.array(
        [
            [0.8, 0.2, 0.1],
            [0.2, 0.5, c],
            [0.1, c, 0.8],
        ]
    )
    return BlockModel(m)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description (see module docstring for semantics)."""

    base_seed: int
    reps: int
    methods: tuple[str, ...]
    grid: dict

    def __post_init__(self):
        if self.reps < 1:
            raise DataFormatError(f"reps must be at least 1, got {self.reps}")
        canonical = []
        for m in self.methods:
            key = str(m).lower()
            if key not in _METHOD_ALIASES:
                raise DataFormatError(
                    f"unknown method {m!r}; choose from {sorted(_METHOD_ALIASES)}"
                )
            canonical.append(_METHOD_ALIASES[key])
        if not canonical:
            raise DataFormatError("at least one method is required")
        object.__setattr__(self, "methods", tuple(canonical))
        extra = set(self.grid) - set(_GRID_KEYS)
        if extra:
            raise DataFormatError(f"unknown grid keys: {sorted(extra)}")
        missing = set(_GRID_KEYS) - set(self.grid)
        if missing:
            raise DataFormatError(f"missing grid keys: {sorted(missing)}")
        for key in _GRID_KEYS:
            if not isinstance(self.grid[key], (list, tuple)) or not self.grid[key]:
                raise DataFormatError(f"grid entry {key!r} must be a nonempty list")

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepConfig":
        known = {"base_seed", "reps", "methods", "grid"}
        extra = set(payload) - known
        if extra:
            raise DataFormatError(f"unknown config keys: {sorted(extra)}")
        try:
            return cls(
                base_seed=int(payload["base_seed"]),
                reps=int(payload["reps"]),
                methods=tuple(payload["methods"]),
                grid=dict(payload["grid"]),
            )
        except KeyError as exc:
            raise DataFormatError(f"missing config key: {exc.args[0]!r}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataFormatError("sweep config must be a JSON object")
        return cls.from_dict(payload)

    def points(self) -> list[dict]:
        """Grid points in deterministic product order."""
        axes = [self.grid[key] for key in _GRID_KEYS]
        return [dict(zip(_GRID_KEYS, combo)) for combo in product(*axes)]


@dataclass(frozen=True)
class SweepRow:
    """Aggregated statistics for one (grid point, method) pair."""

    n: int
    k: int
    n0: int
    rho: float
    tau: float
    profile: str
    block: dict
    method: str
    mean_err: float
    sd_err: float
    reps: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    failures: tuple[dict, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        """Render the pinned CSV schema; one row per (point, method)."""
        lines = [SWEEP_CSV_HEADER]
        for row in self.rows:
            lines.append(
                ",".join(
                    [
                        str(row.n),
                        str(row.k),
                        format(row.rho, ".17g"),
                        format(row.tau, ".17g"),
                        row.method,
                        format(row.mean_err, ".17g"),
                        format(row.sd_err, ".17g"),
                        str(row.reps),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _resolve_tau(tau_spec, n: int) -> float:
    if isinstance(tau_spec, str):
        if tau_spec != "auto":
            raise DataFormatError(f"tau must be a number or 'auto', got {tau_spec!r}")
        return default_tau(n)
    value = float(tau_spec)
    if value < 0:
        raise DataFormatError(f"tau must be nonnegative, got {value}")
    return value


def _validate_point(point: dict) -> str | None:
    n, k, n0 = int(point["n"]), int(point["k"]), int(point["n0"])
    if k < 1 or n < 2 or n0 < 0:
        return f"invalid sizes n={n}, K={k}, n0={n0}"
    if k * n0 > n:
        return f"K*n0 = {k * n0} exceeds n = {n}"
    if point["profile"] == "four-profiles" and k != 3:
        return "four-profiles requires K = 3"
    return None


def _run_trial(point: dict, trial: int, base_seed: int, methods: tuple[str, ...]) -> dict[str, float]:
    n, k, n0 = int(point["n"]), int(point["k"]), int(point["n0"])
    trial_seed = (int(base_seed) ^ trial) & 0xFFFFFFFFFFFFFFFF
    pi = planted_memberships(n, k, n0, point["profile"], seed=trial_seed)
    block = block_from_spec(point["block"], k)
    block = BlockModel(block.tilde_p, rho=float(point["rho"]))
    omega = build_population_matrix(pi, block)
    graph = sample_adjacency(omega, trial_seed ^ STREAM_SPLIT)
    results = run_methods(graph, k, list(methods), _resolve_tau(point["tau"], n))
    return {m: mixed_hamming_error(result.pi_hat, pi).error for m, result in zip(methods, results)}


def run_sweep(config: SweepConfig, workers: int | None = None) -> SweepResult:
    """Execute the sweep and aggregate per-point, per-method error
    statistics (sample standard deviation; 0 when reps == 1).

    ``workers`` > 1 runs trials in a thread pool. Results are keyed and
    reduced by (point, trial) index, so the outcome is identical for any
    worker count. A grid point that fails validation or raises a
    numerical error is recorded in ``failures`` and skipped; remaining
    points still run.
    """
    points = config.points()
    failures: list[dict] = []
    tasks: list[tuple[int, int]] = []
    for idx, point in enumerate(points):
        problem = _validate_point(point)
        if problem is not None:
            failures.append({"point": point, "error": problem})
        else:
            tasks.append(idx)

    outcomes: dict[tuple[int, int], dict[str, float] | Exception] = {}

    def run_one(idx: int, trial: int):
        try:
            return _run_trial(points[idx], trial, config.base_seed, config.methods)
        except (NumericalError, DataFormatError, ValueError, np.linalg.LinAlgError) as exc:
            return exc

    jobs = [(idx, trial) for idx in tasks for trial in range(config.reps)]
    if workers is not None and workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for (idx, trial), outcome in zip(jobs, pool.map(lambda j: run_one(*j), jobs)):
                outcomes[(idx, trial)] = outcome
    else:
        for idx, trial in jobs:
            outcomes[(idx, trial)] = run_one(idx, trial)

    rows: list[SweepRow] = []
    for idx in tasks:
        point = points[idx]
        trial_results = [outcomes[(idx, trial)] for trial in range(config.reps)]
        failed = [r for r in trial_results if isinstance(r, Exception)]
        if failed:
            failures.append({"point": point, "error": str(failed[0])})
            continue
        tau = _resolve_tau(point["tau"], int(point["n"]))
        for method in config.methods:
            values = np.array([r[method] for r in trial_results])
            sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
            rows.append(
                SweepRow(
                    n=int(point["n"]),
                    k=int(point["k"]),
                    n0=int(point["n0"]),
                    rho=float(point["rho"]),
                    tau=tau,
                    profile=str(point["profile"]),
                    block=dict(point["block"]),
                    method=method,
                    mean_err=float(values.mean()),
                    sd_err=sd,
                    reps=config.reps,
                )
            )
    return SweepResult(rows=tuple(rows), failures=tuple(failures))
