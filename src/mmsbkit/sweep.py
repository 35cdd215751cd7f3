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
index, and trials run on one BLAS thread each, so results do not depend
on execution order, worker count or the BLAS thread setting.

Parallel trials run in worker processes forked from the caller, each with
its own interpreter, so the Python-level loops of ARPACK's reverse
communication, k-means and NNLS do not contend for one interpreter lock.
Where ``fork`` is missing (Windows) or unsafe (macOS), trials run on a
thread pool instead.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import product
from numbers import Real

import numpy as np

from ._blas import one_blas_thread
from .evaluation import mixed_hamming_error
from .exceptions import DataFormatError
from .model import PROFILES, BlockModel, build_population_matrix, planted_memberships, sample_adjacency
from .recovery import EMPIRICAL_METHODS, STAGE_ERRORS, recover_each, stage
from .spectral import default_tau
from .recovery import recover_from_basis  # noqa: F401 (benchmarks/spans.py wraps this name here)
from .spectral import leading_eigenpairs, regularized_laplacian  # noqa: F401 (benchmarks/spans.py wraps these names here)

#: 64-bit odd constant separating the edge-sampling stream from the
#: membership stream inside one trial.
STREAM_SPLIT = 0x9E3779B97F4A7C15

SWEEP_CSV_HEADER = "n,K,rho,tau,method,mean_err,sd_err,reps"

#: Whether parallel trials run in forked processes. Windows has no
#: ``fork``, and on macOS system frameworks are not fork-safe (Python
#: spawns there by default), so both run trials on threads.
_FORK_TRIALS = hasattr(os, "fork") and sys.platform != "darwin"


@dataclass(frozen=True)
class _Failure:
    """Stage and message of a failed trial. The exception itself is not
    kept: its traceback would hold the trial's arrays alive."""

    stage: str | None
    error: str

    @classmethod
    def of(cls, exc: Exception) -> "_Failure":
        return cls(getattr(exc, "stage", None), str(exc))

_METHOD_ALIASES = {m.lower(): m for m in EMPIRICAL_METHODS}

_GRID_KEYS = ("n", "k", "n0", "rho", "tau", "profile", "block")


def block_from_spec(spec: dict, K: int) -> BlockModel:
    """Build a connectivity model from one grid entry.

    Accepted forms: ``{"diag": d, "off": o}`` for a constant-diagonal
    template, ``{"matrix": [[...]]}`` for an explicit symmetric matrix,
    and ``{"preset": "negative-eig", "index": i}`` for the 3x3 family
    whose smallest eigenvalue decreases with ``index``, turning negative
    from ``index`` 9 on. A spec that takes none of these forms raises
    :class:`DataFormatError` whatever ``K`` is (see :func:`_block_form`).
    A well-formed spec that does not fit ``K`` raises ``ValueError``: a
    matrix that is not K x K, the preset at K != 3, an index outside
    1..12, or a template :class:`BlockModel` rejects.
    """
    form = _block_form(spec)
    if form == "matrix":
        m = np.array(spec["matrix"], dtype=np.float64)
        if m.shape != (K, K):
            raise ValueError(f"block matrix must be {K}x{K}, got {m.shape}")
        return BlockModel(m)
    if form == "preset":
        if K != 3:
            raise ValueError("the negative-eig preset is a 3x3 template")
        return negative_eig_block(int(spec["index"]))
    return BlockModel(diag_off_block(K, float(spec["diag"]), float(spec["off"])))


def _block_form(spec) -> str:
    """Which form a block spec takes: ``"diag"``, ``"matrix"`` or
    ``"preset"``. A spec with keys outside one form's (``"rho"`` included:
    sparsity is the grid's own axis), a non-number, a matrix that is not
    square, or another preset raises :class:`DataFormatError`."""
    if not isinstance(spec, dict):
        raise DataFormatError(f"block spec must be an object, got {type(spec).__name__}")
    extra = set(spec) - {"diag", "off", "matrix", "preset", "index"}
    if extra:
        raise DataFormatError(f"unknown block spec keys: {sorted(extra)}")
    if set(spec) == {"diag", "off"}:
        _grid_number(spec, "diag"), _grid_number(spec, "off")
        return "diag"
    rows = spec.get("matrix")
    if set(spec) == {"matrix"} and isinstance(rows, list) and rows and all(
        isinstance(row, list) and len(row) == len(rows) and all(map(_finite_number, row)) for row in rows
    ):
        return "matrix"
    if set(spec) == {"preset", "index"} and spec["preset"] == "negative-eig":
        _grid_number(spec, "index", whole=True)
        return "preset"
    raise DataFormatError(f"cannot interpret block spec {spec!r}")


def diag_off_block(K: int, diag: float, off: float) -> np.ndarray:
    """Connectivity template with constant diagonal and off-diagonal."""
    m = np.full((K, K), off)
    np.fill_diagonal(m, diag)
    return m


def negative_eig_block(index: int) -> BlockModel:
    """3x3 connectivity template whose smallest eigenvalue decreases as
    ``index`` increases (valid for 1 <= index <= 12). It is positive for
    indices 1..8 (0.399 at 1, 0.019 at 8) and negative from 9 on (-0.052
    at 9, -0.270 at 12)."""
    if not 1 <= index <= 12:
        raise ValueError(f"index must lie in 1..12, got {index}")
    c = 0.075 * index
    return BlockModel(np.array([[0.8, 0.2, 0.1], [0.2, 0.5, c], [0.1, c, 0.8]]))


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
                raise DataFormatError(f"unknown method {m!r}; choose from {sorted(_METHOD_ALIASES)}")
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
            base_seed, reps = (int(_grid_number(payload, key, whole=True)) for key in ("base_seed", "reps"))
            methods, grid = payload["methods"], payload["grid"]
        except KeyError as exc:
            raise DataFormatError(f"missing config key: {exc.args[0]!r}") from exc
        if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
            raise DataFormatError(f"methods must be a list of strings, got {methods!r}")
        if not isinstance(grid, dict):
            raise DataFormatError(f"grid must be an object, got {grid!r}")
        return cls(base_seed=base_seed, reps=reps, methods=tuple(methods), grid=dict(grid))

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
        lines = [SWEEP_CSV_HEADER] + [
            f"{r.n},{r.k},{r.rho:.17g},{r.tau:.17g},{r.method},{r.mean_err:.17g},{r.sd_err:.17g},{r.reps}"
            for r in self.rows
        ]
        return "\n".join(lines) + "\n"


def _finite_number(value) -> bool:
    """Whether a config value is a finite real number other than a ``bool``."""
    return not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)


def _grid_number(point: dict, key: str, whole: bool = False) -> float:
    """A numeric entry of a grid point or of the config itself: a finite
    number, a whole one when ``whole`` is set. Anything else is a
    malformed config and raises :class:`DataFormatError`."""
    value = point[key]
    if not _finite_number(value) or (whole and value != int(value)):
        kind = "an integer" if whole else "a finite number"
        raise DataFormatError(f"{key} must be {kind}, got {value!r}")
    return value


def _read_point(point: dict) -> dict | str:
    """What a grid point means, read once before any trial: the values
    its trials and rows use, with ``tau`` resolved (``-0.0`` read as
    ``0.0``) and ``model`` the :class:`BlockModel` at the point's ``rho``,
    or the reason the point is skipped at ``validate``. An entry of the
    wrong kind or form raises :class:`DataFormatError` at every point,
    also at one that would be skipped (see :func:`run_sweep`)."""
    n, k, n0 = (int(_grid_number(point, key, whole=True)) for key in ("n", "k", "n0"))
    rho, tau, profile = float(_grid_number(point, "rho")), point["tau"], point["profile"]
    if tau != "auto" and not _finite_number(tau):
        raise DataFormatError(f"tau must be a finite number or 'auto', got {tau!r}")
    if profile not in PROFILES:
        raise DataFormatError(f"unknown profile {profile!r}; choose from {list(PROFILES)}")
    _block_form(point["block"])
    if k < 1 or n < 2 or n0 < 0:
        return f"invalid sizes n={n}, K={k}, n0={n0}"
    if k * n0 > n:
        return f"K*n0 = {k * n0} exceeds n = {n}"
    if profile == "four-profiles" and k != 3:
        return "four-profiles requires K = 3"
    tau = default_tau(n) if tau == "auto" else float(tau) + 0.0  # -0.0 + 0.0 is +0.0
    if tau < 0:
        return f"tau must be nonnegative, got {tau}"
    try:
        model = BlockModel(block_from_spec(point["block"], k).tilde_p, rho=rho)
    except ValueError as exc:
        return str(exc)
    return dict(n=n, k=k, n0=n0, rho=rho, tau=tau, profile=profile, block=dict(point["block"]), model=model)


def _run_trial(point: dict, trial: int, base_seed: int, methods: tuple[str, ...]) -> dict[str, float | _Failure]:
    """Each method's error on one trial graph, or its failure. ``point``
    holds the values :func:`_read_point` read. The trial plants and
    samples its graph (the ``model`` stage), runs the methods through
    :func:`recovery.recover_each`, the pipeline every caller shares, and
    scores each result. A failure in a stage the methods share (model,
    laplacian, eigensolve) raises."""
    with stage("model"):
        trial_seed = (int(base_seed) ^ trial) & 0xFFFFFFFFFFFFFFFF
        pi = planted_memberships(point["n"], point["k"], point["n0"], point["profile"], seed=trial_seed)
        omega = build_population_matrix(pi, point["model"])
        graph = sample_adjacency(omega, trial_seed ^ STREAM_SPLIT)
    outcomes = recover_each(graph, point["k"], list(methods), tau=point["tau"])
    return {
        method: _Failure.of(out) if isinstance(out, Exception) else mixed_hamming_error(out.pi_hat, pi).error
        for method, out in zip(methods, outcomes)
    }


def _run_one(point: dict, trial: int, base_seed: int, methods: tuple[str, ...]) -> dict[str, float | _Failure] | _Failure:
    """:func:`_run_trial`, with a failure of a shared stage returned as
    one :class:`_Failure`. It lives at module level so that a process pool
    can send it by name."""
    try:
        return _run_trial(point, trial, base_seed, methods)
    except STAGE_ERRORS as exc:
        return _Failure.of(exc)


def _trial_pool(workers: int):
    """An executor of ``workers`` forked processes, or of threads where
    :data:`_FORK_TRIALS` is false. The children inherit the modules the
    trials would otherwise import lazily, so those are loaded first. A
    fork-context pool forks all of its workers at the first submit,
    before it starts its manager thread, so no thread of the pool is
    running at a fork."""
    # imported here: the pool modules cost every process ~25 ms, and only
    # a pooled sweep needs them
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    if not _FORK_TRIALS:
        return ThreadPoolExecutor(max_workers=workers)
    import multiprocessing

    import scipy.cluster.vq  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))


def run_sweep(config: SweepConfig, workers: int | None = None) -> SweepResult:
    """Execute the sweep and aggregate per-point, per-method error
    statistics (sample standard deviation; 0 when reps == 1).

    ``workers`` > 1 runs trials in up to that many worker processes,
    forked from the caller inside the sweep and joined before it
    returns or raises (threads where ``fork`` is missing or unsafe, see
    the module docstring). The workers supply all of the parallelism:
    every trial, in-process or pooled, runs with each loaded OpenBLAS
    set to one thread, and the caller's previous counts come back when
    the sweep returns or raises. Results are keyed and reduced by
    (point, trial) index, so on OpenBLAS builds the outcome is
    byte-identical for any worker count and any BLAS thread setting;
    under another BLAS the threads are left as they are. A worker
    process that dies, killed for memory say, raises
    ``concurrent.futures.process.BrokenProcessPool``. A (point,
    method) pair with a failed trial gets no row and one ``failures``
    entry: the point, the method, the stage
    (``validate``, ``model``, ``laplacian``, ``eigensolve``, ``corners``
    or ``reconstruct``) and the error of its first failed trial. The
    stages up to the eigensolve are shared, so their failure fails every
    method at the point; a corner or reconstruction failure fails that
    method only. Remaining pairs still run. Each grid point is read once,
    by :func:`_read_point`, before any trial runs: an entry of the wrong
    kind or form (an ``n``, ``k`` or ``n0`` that is not an integer, a
    ``rho`` that is not a finite number, a ``tau`` that is neither a
    finite number nor ``"auto"``, an unknown profile, a malformed block
    spec) raises :class:`DataFormatError`, at any point. A well-formed
    value the point cannot take (bad sizes, K*n0 > n, four-profiles at
    K != 3, a negative ``tau``, ``rho`` outside (0, 1], a block spec
    that does not fit K) skips the point at ``validate``.
    """
    points = config.points()
    read = [_read_point(point) for point in points]
    jobs = [(idx, trial) for idx, values in enumerate(read) if isinstance(values, dict) for trial in range(config.reps)]
    args = [(read[idx], trial, config.base_seed, config.methods) for idx, trial in jobs]
    # a process pool forks its workers here, so they inherit one BLAS thread
    with one_blas_thread():
        if workers is not None and workers > 1 and len(jobs) > 1:
            with _trial_pool(min(workers, len(jobs))) as pool:
                outcomes = dict(zip(jobs, pool.map(_run_one, *zip(*args))))
        else:
            outcomes = {job: _run_one(*a) for job, a in zip(jobs, args)}

    rows: list[SweepRow] = []
    failures: list[dict] = []
    for idx, (point, values) in enumerate(zip(points, read)):
        if isinstance(values, str):
            trials = [_Failure("validate", values)]
        else:
            trials = [outcomes[(idx, trial)] for trial in range(config.reps)]
        for method in config.methods:
            per_trial = [t if isinstance(t, _Failure) else t[method] for t in trials]
            failed = next((v for v in per_trial if isinstance(v, _Failure)), None)
            if failed is not None:
                failures.append({"point": point, "method": method, "stage": failed.stage, "error": failed.error})
                continue
            errors = np.array(per_trial)
            sd = float(errors.std(ddof=1)) if errors.size > 1 else 0.0
            fields = {key: values[key] for key in ("n", "k", "n0", "rho", "tau", "profile", "block")}
            rows.append(SweepRow(**fields, method=method, mean_err=float(errors.mean()), sd_err=sd, reps=config.reps))
    return SweepResult(rows=tuple(rows), failures=tuple(failures))
