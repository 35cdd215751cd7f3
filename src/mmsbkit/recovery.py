"""Membership recovery pipelines.

Every pipeline walks the same three stages: build the regularized
Laplacian and its leading K eigenvectors, hunt K corner rows in a scaled
or normalized version of the eigenvector matrix, and reconstruct
memberships by expressing all rows in the corner basis followed by a row
l1 normalization.

Four empirical variants are provided. ``srsc`` works on the
degree-scaled eigenvectors whose rows form a simplex; ``crsc`` works on
the row-normalized eigenvectors whose rows form a cone. The two
``*_equivalence`` variants run the same geometry on the n x n projector
``V @ V.T`` instead of ``V`` and must reproduce the plain variants
exactly; they exist as an independent route for cross-checking. The two
``ideal_*`` functions consume the expected adjacency instead of a
sampled graph and recover the planted memberships exactly (up to column
order).

:func:`run_methods` runs any of the four empirical variants on one
shared eigendecomposition; the single-method functions are one-method
calls of it.

Pipeline runs are pure and hold no shared state; concurrent invocations
on different graphs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corners import CornerSet, sp_select, svm_cone_select
from .exceptions import NumericalError
from .model import Graph, MembershipMatrix, PopulationMatrix, check_population_rank
from .spectral import (
    RegularizedLaplacian,
    SpectralBasis,
    default_tau,
    leading_eigenpairs,
    normalize_rows,
    regularized_laplacian,
    scale_rows_by_degree,
)

METHODS = (
    "SRSC",
    "CRSC",
    "SRSC-EQ",
    "CRSC-EQ",
    "IDEAL-SRSC",
    "IDEAL-CRSC",
    # oracle runs of the equivalence routes, used for cross-checking
    "IDEAL-SRSC-EQ",
    "IDEAL-CRSC-EQ",
)

CORNER_COND_LIMIT = 1e12


@dataclass(frozen=True)
class RecoveryResult:
    """Output of one pipeline run.

    ``clipped_rows`` counts rows that contained negative entries before
    the max(0, .) step; ``fallback_rows`` counts rows that clipped to all
    zeros and were replaced by the uniform vector 1/K. ``z`` is the
    reconstruction matrix right before row normalization.
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
        z = np.ascontiguousarray(self.z, dtype=np.float64)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


def _solve_right_inverse(rows: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """``rows @ inv(corner)`` via a partial-pivot solve."""
    if np.linalg.cond(corner) > CORNER_COND_LIMIT:
        raise NumericalError("corner matrix is numerically singular")
    return np.linalg.solve(corner.T, rows.T).T


def _solve_gram(rows: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """``rows @ corner.T @ inv(corner @ corner.T)`` for wide corner matrices."""
    gram = corner @ corner.T
    if np.linalg.cond(gram) > CORNER_COND_LIMIT:
        raise NumericalError("corner Gram matrix is numerically singular")
    return np.linalg.solve(gram, (rows @ corner.T).T).T


def _memberships_from_z(z: np.ndarray, clip: bool) -> tuple[MembershipMatrix, np.ndarray, int, int]:
    """Row-l1-normalize the reconstruction matrix into memberships.

    With ``clip`` set, negative entries are zeroed first; rows that clip
    to all zeros fall back to the uniform vector (tracked by the second
    counter). Without clipping (the ideal pipelines, where negativity is
    only floating-point dust) rows are normalized by their absolute sum
    and clamped into [0, 1].
    """
    clipped = 0
    fallback = 0
    if clip:
        clipped = int((z < 0.0).any(axis=1).sum())
        z = np.maximum(z, 0.0)
        sums = z.sum(axis=1)
        dead = sums == 0.0
        if dead.any():
            fallback = int(dead.sum())
            z = z.copy()
            z[dead] = 1.0 / z.shape[1]
            sums = z.sum(axis=1)
        pi = z / sums[:, None]
    else:
        sums = np.abs(z).sum(axis=1)
        if sums.min() <= 0.0:
            raise NumericalError("reconstruction produced an all-zero row")
        pi = np.clip(z / sums[:, None], 0.0, 1.0)
    return MembershipMatrix(pi), z, clipped, fallback


def recover_from_basis(
    basis: SpectralBasis,
    lap: RegularizedLaplacian,
    method: str,
    clip: bool = True,
    corner_seed: int = 0,
) -> RecoveryResult:
    """Run the corner-hunting and reconstruction stages of one pipeline on
    an already-computed eigenbasis.

    This is the entry point for callers that reuse one eigendecomposition
    across several methods (the sweep harness) or that need to perturb
    the basis, e.g. to check sign-flip invariance. ``method`` is one of
    ``SRSC``, ``CRSC``, ``SRSC-EQ``, ``CRSC-EQ``.
    """
    v = basis.vectors
    if method == "SRSC":
        scaled = scale_rows_by_degree(basis, lap)
        corners = sp_select(scaled, basis.K)
        z = _solve_right_inverse(v, scaled[list(corners.indices)])
    elif method == "CRSC":
        normalized, factors = normalize_rows(v)
        corners = svm_cone_select(normalized, basis.K, seed=corner_seed)
        idx = list(corners.indices)
        y = _solve_right_inverse(v, normalized[idx])
        z = y * (factors[idx] / np.sqrt(lap.dtau[idx]))[None, :]
    elif method == "SRSC-EQ":
        v2 = v @ v.T
        scaled2 = np.sqrt(lap.dtau)[:, None] * v2
        corners = sp_select(scaled2, basis.K)
        z = _solve_gram(v2, scaled2[list(corners.indices)])
    elif method == "CRSC-EQ":
        v2 = v @ v.T
        normalized2, factors2 = normalize_rows(v2)
        corners = svm_cone_select(normalized2, basis.K, seed=corner_seed)
        idx = list(corners.indices)
        y = _solve_gram(v2, normalized2[idx])
        z = y * (factors2[idx] / np.sqrt(lap.dtau[idx]))[None, :]
    else:
        raise ValueError(f"unknown method {method!r}")
    pi_hat, z_final, clipped, fallback = _memberships_from_z(z, clip)
    tag = method if clip else f"IDEAL-{method}"
    return RecoveryResult(
        pi_hat=pi_hat,
        corners=corners,
        basis=basis,
        tau=lap.tau,
        method=tag,
        clipped_rows=clipped,
        fallback_rows=fallback,
        z=z_final,
    )


def run_methods(
    graph: Graph,
    K: int,
    methods: list[str],
    tau: float | None = None,
    corner_seed: int = 0,
) -> list[RecoveryResult]:
    """Run several empirical pipelines on one regularized Laplacian and
    one eigendecomposition of it.

    ``methods`` are tags accepted by :func:`recover_from_basis`; results
    come back in the same order. ``tau`` defaults to ``0.1 * ln(n)``;
    ``corner_seed`` feeds the k-means restarts of the cone methods.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    resolved = default_tau(graph.n) if tau is None else float(tau)
    lap = regularized_laplacian(graph, resolved)
    basis = leading_eigenpairs(lap, K)
    return [recover_from_basis(basis, lap, m, clip=True, corner_seed=corner_seed) for m in methods]


def srsc(graph: Graph, K: int, tau: float | None = None) -> RecoveryResult:
    """Simplex pipeline on a sampled graph.

    ``tau`` defaults to ``0.1 * ln(n)``. Eigenvectors are scaled by
    ``sqrt(tau + degree)``, corners come from successive projection, and
    ``Z = V @ inv(corner)`` is clipped at zero and row-normalized.
    """
    return run_methods(graph, K, ["SRSC"], tau)[0]


def crsc(graph: Graph, K: int, tau: float | None = None, corner_seed: int = 0) -> RecoveryResult:
    """Cone pipeline on a sampled graph.

    Eigenvector rows are normalized to unit length, corners come from the
    one-class SVM plus k-means selection, and the reconstruction is
    rescaled by the stored row norms and degrees before clipping and
    normalization. ``corner_seed`` feeds the k-means restarts and fixes
    the run deterministically.
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
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    check_population_rank(omega, K)
    resolved = default_tau(omega.n) if tau is None else float(tau)
    lap = regularized_laplacian(omega, resolved)
    basis = leading_eigenpairs(lap, K)
    return recover_from_basis(basis, lap, method, clip=False)


def ideal_srsc(omega: PopulationMatrix, K: int, tau: float | None = None) -> RecoveryResult:
    """Simplex pipeline on the expected adjacency; recovers the planted
    memberships exactly up to column permutation."""
    return _run_ideal(omega, K, tau, "SRSC")


def ideal_crsc(omega: PopulationMatrix, K: int, tau: float | None = None) -> RecoveryResult:
    """Cone pipeline on the expected adjacency; recovers the planted
    memberships exactly up to column permutation."""
    return _run_ideal(omega, K, tau, "CRSC")
