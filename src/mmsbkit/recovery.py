"""Membership recovery pipelines.

Every pipeline walks the same three stages: build the regularized
Laplacian and its leading K eigenvectors ``V``, hunt a set C of K corner
rows, and reconstruct memberships. The methods differ only in the
geometry that picks C. ``srsc`` runs successive projection on the
degree-scaled rows ``Dtau^{1/2} V``, which form a simplex; ``crsc`` runs
the SVM cone selection on the row-normalized ``N V``, which form a cone.
Both see only the live rows, of norm above ``spectral.ZERO_ROW_TOL``.
Given C, every method reconstructs ``Z = V V_C^{-1} D_C^{-1/2}`` (the
cone's ``N_C`` rescale cancels) on them, clips it at zero and
l1-normalizes its rows; the other nodes get the uniform row. The two
``*_equivalence`` variants run the same geometry on the n x n projector
``V @ V.T`` instead of ``V`` and must reproduce the plain variants
exactly; they exist as an independent route for cross-checking.
The two ``ideal_*`` functions run the plain pipelines on the expected
adjacency instead of a sampled graph and recover the planted memberships
exactly (up to column order).

:func:`recover_each` runs this chain for ``cluster``, sweep trials and
the single-method functions, on one shared eigendecomposition; the
oracles run its stages on the K x K population solve, with a rank check.

Pipeline runs are pure; the one state they share is the process-wide
BLAS thread count, held at one while any run is in progress, so
concurrent invocations on different graphs are safe.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from ._blas import one_blas_thread
from .corners import CornerSet, sp_select, svm_cone_select
from .exceptions import MmsbkitError, NumericalError
from .model import RANK_SV_TOL, Graph, MembershipMatrix, PopulationMatrix, _readonly
from .spectral import (
    ZERO_ROW_TOL,
    SpectralBasis,
    default_tau,
    leading_eigenpairs,
    population_eigenpairs,
    regularized_laplacian,
)

#: Tags of the four pipelines that run on a sampled graph.
EMPIRICAL_METHODS = ("SRSC", "CRSC", "SRSC-EQ", "CRSC-EQ")

METHODS = (*EMPIRICAL_METHODS, "IDEAL-SRSC", "IDEAL-CRSC")

CORNER_COND_LIMIT = 1e12

#: A reconstruction entry counts as clipped only below ``-CLIP_TOL``;
#: entries nearer zero are rounding noise that moves with the eigensolver.
CLIP_TOL = 1e-12


@dataclass(frozen=True)
class RecoveryResult:
    """Output of one pipeline run.

    ``clipped_rows`` counts rows that contained an entry below
    ``-CLIP_TOL`` before the max(0, .) step (smaller negatives are
    rounding noise, still zeroed by that step but not counted);
    ``fallback_rows`` counts rows replaced by the uniform vector 1/K:
    rows that clipped to all zeros, and rows of nodes whose eigenvector
    row is numerically zero (norm at most ``spectral.ZERO_ROW_TOL``).
    ``z`` is the reconstruction matrix right before row normalization.
    """

    pi_hat: MembershipMatrix
    corners: CornerSet
    basis: SpectralBasis
    tau: float
    method: str
    clipped_rows: int
    fallback_rows: int
    z: np.ndarray

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        object.__setattr__(self, "z", _readonly(self.z))


#: Errors that :func:`stage` labels and :func:`recover_each` returns in a method's place.
STAGE_ERRORS = (MmsbkitError, ValueError)  # LinAlgError is a ValueError


@contextmanager
def stage(name: str):
    """Label a package, value or linear-algebra error raised inside the
    block with the pipeline stage ``name`` (the sweep adds ``model`` to
    this module's four) as its ``stage`` attribute; a label set further
    in is kept."""
    try:
        yield
    except STAGE_ERRORS as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise


def _solve_right_inverse(rows: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """``rows @ pinv(corner)``, from the thin SVD of the corner.

    The plain routes pass the square corner ``V_C`` and get
    ``rows @ inv(V_C)``. The projector routes pass the wide corner
    ``V_C @ V.T``, whose singular values are those of ``V_C``, so both
    routes reject a corner at the same conditioning. (``lstsq(corner.T,
    rows.T)`` gives the same result but takes ~100x longer on the n
    right-hand sides of a projector route.)
    """
    u, sv, vt = np.linalg.svd(corner, full_matrices=False)
    if sv[-1] <= 0.0 or sv[0] / sv[-1] > CORNER_COND_LIMIT:
        raise NumericalError("corner matrix is numerically singular")
    return (rows @ vt.T / sv) @ u.T


def _memberships_from_z(z: np.ndarray) -> tuple[MembershipMatrix, np.ndarray, int, int]:
    """Clip the reconstruction matrix at zero and row-l1-normalize it.

    Rows with an entry below ``-CLIP_TOL`` are counted as clipped (on the
    oracles' inputs every negative entry is rounding dust above it); rows
    that clip to all zeros fall back to the uniform vector (tracked by
    the second counter).
    """
    clipped = int((z < -CLIP_TOL).any(axis=1).sum())
    z = np.maximum(z, 0.0)
    sums = z.sum(axis=1)
    dead = sums == 0.0
    fallback = int(dead.sum())
    if fallback:
        z[dead] = 1.0 / z.shape[1]
        sums = z.sum(axis=1)
    return MembershipMatrix(z / sums[:, None]), z, clipped, fallback


def recover_from_basis(
    basis: SpectralBasis,
    dtau: np.ndarray,
    method: str,
    corner_seed: int = 0,
    *,
    tau: float,
) -> RecoveryResult:
    """Run the corner-hunting and reconstruction stages of one pipeline on
    an already-computed eigenbasis and its regularized degrees ``dtau``.

    This is the entry point for callers that reuse one eigendecomposition
    across several methods (:func:`recover_each`) or that need to perturb
    the basis, e.g. to check sign-flip invariance. ``method`` is one of
    ``SRSC``, ``CRSC``, ``SRSC-EQ``, ``CRSC-EQ``: a geometry run on the
    rows of ``V``, or of ``V @ V.T`` (``basis.projector``, formed once per
    basis) for the ``-EQ`` twins, that only
    picks the corner set C (simplex: successive projection on the
    ``sqrt(dtau)``-scaled rows; cone: the SVM cone selection on the unit
    rows). Every method then reconstructs ``Z = rows @ pinv(rows_C) /
    sqrt(dtau_C)``. Both stages see only the live rows, of nodes whose
    row of ``V`` has norm above ``ZERO_ROW_TOL``: a node at or below it
    (isolated, or off the giant component, where the row is rounding
    noise) is never a corner and keeps a zero reconstruction row, hence
    the uniform fallback. ``corners`` index all n nodes.
    """
    if method not in EMPIRICAL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    # V has K orthonormal columns, so at least K of its rows are live
    live = np.flatnonzero(np.linalg.norm(basis.vectors, axis=1) > ZERO_ROW_TOL)
    rows = basis.projector if method.endswith("-EQ") else basis.vectors
    root_d = np.sqrt(dtau)
    if live.size < basis.n:
        rows, root_d = rows[live], root_d[live]
    with stage("corners"):
        if method.startswith("SRSC"):
            found = sp_select(root_d[:, None] * rows, basis.K)
        else:
            unit = rows * (1.0 / np.linalg.norm(rows, axis=1))[:, None]
            found = svm_cone_select(unit, basis.K, seed=corner_seed)
    idx = list(found.indices)
    corners = replace(found, indices=live[idx])
    with stage("reconstruct"):
        z = np.zeros((basis.n, basis.K))
        z[live] = _solve_right_inverse(rows, rows[idx]) / root_d[idx]
        pi_hat, z_final, clipped, fallback = _memberships_from_z(z)
    return RecoveryResult(
        pi_hat=pi_hat,
        corners=corners,
        basis=basis,
        tau=tau,
        method=method,
        clipped_rows=clipped,
        fallback_rows=fallback,
        z=z_final,
    )


def recover_each(
    graph: Graph,
    K: int,
    methods: list[str],
    tau: float | None = None,
    corner_seed: int = 0,
) -> list[RecoveryResult | Exception]:
    """Run several empirical pipelines on one regularized Laplacian and
    one eigendecomposition of it.

    Each of ``methods`` (tags of :func:`recover_from_basis`) gets, in order, its
    result or the error of its own ``corners`` or ``reconstruct`` stage; a
    ``laplacian`` or ``eigensolve`` failure raises. ``tau`` defaults to
    ``0.1 * ln(n)``; ``corner_seed`` feeds the k-means restarts of the
    cone methods. The run holds each loaded OpenBLAS to one thread, so on
    OpenBLAS builds the results do not depend on the BLAS thread setting.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    tau = default_tau(graph.n) if tau is None else float(tau)
    with one_blas_thread():
        with stage("laplacian"):
            dtau, lap = regularized_laplacian(graph, tau)
        with stage("eigensolve"):
            basis = leading_eigenpairs(lap, K)
        # lap lives until the methods return: freed before them, glibc's
        # malloc hands its pages back, and a process that clusters again
        # faults them in anew (about 2.7k faults a call at n=2000)
        return [_recover_or_error(basis, dtau, tau, m, corner_seed) for m in methods]


def _recover_or_error(basis, dtau, tau: float, method: str, corner_seed: int) -> RecoveryResult | Exception:
    """:func:`recover_from_basis`, or its error. Caught in a loop of the
    caller, the error's traceback would hold the caller's frame, whose
    list holds the error: a cycle that keeps the run's arrays alive."""
    try:
        return recover_from_basis(basis, dtau, method, corner_seed=corner_seed, tau=tau)
    except STAGE_ERRORS as exc:
        return exc


def run_methods(
    graph: Graph, K: int, methods: list[str], tau: float | None = None, corner_seed: int = 0
) -> list[RecoveryResult]:
    """:func:`recover_each`, raising the first failure in method order, so
    that a caller such as ``mmsbkit cluster`` writes nothing on one."""
    outcomes = recover_each(graph, K, methods, tau, corner_seed)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def srsc(graph: Graph, K: int, tau: float | None = None) -> RecoveryResult:
    """Simplex pipeline on a sampled graph.

    ``tau`` defaults to ``0.1 * ln(n)``. Corners come from successive
    projection on the eigenvectors scaled by ``sqrt(tau + degree)``, and
    ``Z = V V_C^{-1} D_C^{-1/2}`` is clipped at zero and row-normalized.
    """
    return run_methods(graph, K, ["SRSC"], tau)[0]


def crsc(graph: Graph, K: int, tau: float | None = None, corner_seed: int = 0) -> RecoveryResult:
    """Cone pipeline on a sampled graph.

    Corners come from the one-class SVM plus k-means selection on the
    eigenvector rows normalized to unit length; the reconstruction is the
    one :func:`srsc` uses, from these corners. ``corner_seed`` feeds the
    k-means restarts and fixes the run deterministically.
    """
    return run_methods(graph, K, ["CRSC"], tau, corner_seed)[0]


def srsc_equivalence(graph: Graph, K: int, tau: float | None = None) -> RecoveryResult:
    """Simplex pipeline run on the projector ``V @ V.T``; must match
    :func:`srsc` exactly. Materializes an n x n dense matrix."""
    return run_methods(graph, K, ["SRSC-EQ"], tau)[0]


def crsc_equivalence(graph: Graph, K: int, tau: float | None = None, corner_seed: int = 0) -> RecoveryResult:
    """Cone pipeline run on the projector ``V @ V.T``; must match
    :func:`crsc` exactly. Materializes an n x n dense matrix."""
    return run_methods(graph, K, ["CRSC-EQ"], tau, corner_seed)[0]


def _run_ideal(omega: PopulationMatrix, K: int, tau: float | None, method: str) -> RecoveryResult:
    resolved = default_tau(omega.n) if tau is None else float(tau)
    with one_blas_thread():
        dtau, basis = population_eigenpairs(omega, K, resolved)
        top, last = np.abs(basis.eigenvalues[[0, -1]])
        if last <= RANK_SV_TOL * top:
            raise NumericalError(
                f"expected adjacency is not rank {K}: |lambda_{K}| / |lambda_1| = {last:.3e} / {top:.3e}"
            )
        result = recover_from_basis(basis, dtau, method, tau=resolved)
    return replace(result, method=f"IDEAL-{method}")


def ideal_srsc(omega: PopulationMatrix, K: int, tau: float | None = None) -> RecoveryResult:
    """Simplex pipeline on the expected adjacency; recovers the planted
    memberships exactly up to column permutation. A rank below K, read as
    ``|lambda_K| <= 1e-10 |lambda_1|`` on the population eigenvalues, or a
    K above the factors' width, raises :class:`NumericalError` naming K."""
    return _run_ideal(omega, K, tau, "SRSC")


def ideal_crsc(omega: PopulationMatrix, K: int, tau: float | None = None) -> RecoveryResult:
    """Cone pipeline on the expected adjacency; recovers the planted
    memberships exactly up to column permutation. The rank is checked as
    in :func:`ideal_srsc`."""
    return _run_ideal(omega, K, tau, "CRSC")
