"""Regularized Laplacian construction and its leading eigenstructure.

Both clustering pipelines start from the same object: the symmetric
matrix ``L = Dtau^{-1/2} M Dtau^{-1/2}`` where ``M`` is either a sampled
adjacency matrix or an expected one, and ``Dtau = D + tau*I`` adds a
ridge ``tau`` to the degrees. A sampled graph's Laplacian is a CSR
matrix, returned with ``dtau`` by :func:`regularized_laplacian`; the
expected one, of rank K, is never formed: its eigenpairs come from a
K x K problem on the factors of ``Omega``. "Leading" eigenpairs are ranked by
eigenvalue magnitude, not signed value, because block structure with
disassortative connectivity puts informative eigenvalues on the negative
side of the spectrum.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import NumericalError
from .model import Graph, PopulationMatrix, _readonly

if TYPE_CHECKING:
    import scipy.sparse as sp

UNIT_NORM_TOL = 1e-10
ORTHONORMAL_TOL = 1e-8
RESIDUAL_TOL = 1e-8
ZERO_ROW_TOL = 1e-14
TIE_TOL = 1e-12
LANCZOS_SEED = 0
# The stages of the cut certificate as (tol, ncv): a short screen, then
# ARPACK's default basis size (ncv None) at three tighter tolerances.
DEFLATION_STAGES = ((0.1, 6), (1e-2, None), (1e-4, None), (1e-6, None))
#: Most entries of a sampled graph's Laplacian computed at once, beyond
#: the one row that may exceed it.
LAPLACIAN_CHUNK = 1 << 16


@dataclass(frozen=True)
class SpectralBasis:
    """The K eigenpairs of largest magnitude, eigenvectors unit-norm."""

    eigenvalues: np.ndarray  # (K,), |lambda_1| >= ... >= |lambda_K|
    vectors: np.ndarray  # (n, K), orthonormal columns

    def __post_init__(self):
        vals = _readonly(self.eigenvalues)
        vecs = _readonly(self.vectors)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != vals.size:
            raise ValueError("eigenvalues and eigenvector columns must match")
        mags = np.abs(vals)
        if (np.diff(mags) > TIE_TOL).any():
            raise ValueError("eigenvalues must be ordered by decreasing magnitude")
        norms = np.linalg.norm(vecs, axis=0)
        if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
            raise ValueError("eigenvectors must have unit norm")
        gram_err = np.abs(vecs.T @ vecs - np.eye(vals.size)).max()
        if gram_err > ORTHONORMAL_TOL:
            raise ValueError(f"eigenvectors must be orthonormal (deviation {gram_err:.3e})")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "vectors", vecs)

    @property
    def K(self) -> int:
        return self.eigenvalues.size

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def projector(self) -> np.ndarray:
        """``V @ V.T``, the read-only (n, n) projector onto the basis,
        formed on first access and kept."""
        p = self.vectors @ self.vectors.T
        p.setflags(write=False)
        return p


def default_tau(n: int) -> float:
    """The default ridge regularizer ``0.1 * ln(n)``."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes for the default regularizer, got n={n}")
    return 0.1 * math.log(n)


def _regularized_degrees(degrees: np.ndarray, tau: float) -> np.ndarray:
    """``degrees + tau`` for a finite and nonnegative ``tau``; with ``tau = 0``
    every node needs a strictly positive degree, otherwise a
    :class:`NumericalError` is raised (an isolated node makes the
    unregularized scaling undefined)."""
    if not math.isfinite(tau):
        raise ValueError(f"regularizer tau must be finite, got {tau}")
    if tau < 0:
        raise ValueError(f"regularizer tau must be nonnegative, got {tau}")
    dtau = degrees + tau
    if dtau.min() <= 0.0:
        raise NumericalError(
            "zero regularized degree: tau = 0 requires every node to have positive degree"
        )
    return dtau


def regularized_laplacian(graph: Graph, tau: float) -> tuple[np.ndarray, sp.csr_matrix]:
    """The regularized degrees ``dtau`` of a sampled graph and its CSR
    Laplacian ``L = Dtau^{-1/2} A Dtau^{-1/2}``, both read-only.

    ``L`` is over the graph's own read-only ``indptr`` and ``indices``,
    read from its pattern with no adjacency built: its degrees are the row
    counts ``np.diff(indptr)`` and entry (i, j) is ``scale_i * scale_j``
    with ``scale = Dtau^{-1/2}``, the same bits as scaling the adjacency,
    whose entries are exactly 1. Its one new nnz-sized array is the
    float64 values, frozen in place with ``dtau``. ``L`` is symmetric bit
    for bit, so it is not checked. ``tau`` is checked by
    :func:`_regularized_degrees`.
    """
    import scipy.sparse as sp  # loaded with the graph

    dtau = _regularized_degrees(graph.degrees(), tau)
    scale = 1.0 / np.sqrt(dtau)
    indptr, indices = graph.indptr, graph.indices
    # scale_i * scale_j is symmetric bit for bit: no averaging needed.
    # The entries are filled a run of rows at a time, with temporaries
    # of at most LAPLACIAN_CHUNK entries plus one row, and the index
    # arrays are the graph's own, which are read-only.
    data = np.empty(indices.size)
    r0 = 0
    while r0 < graph.n:
        r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + LAPLACIAN_CHUNK, side="right")) - 1)
        s, e = indptr[r0], indptr[r1]
        rows = np.repeat(scale[r0:r1], np.diff(indptr[r0:r1 + 1]))
        np.multiply(rows, scale[indices[s:e]], out=data[s:e])
        r0 = r1
    dtau.setflags(write=False)
    data.setflags(write=False)
    return dtau, sp.csr_matrix((data, indices, indptr), shape=(graph.n, graph.n))


def population_eigenpairs(omega: PopulationMatrix, K: int, tau: float) -> tuple[np.ndarray, SpectralBasis]:
    """The regularized degrees ``dtau`` of the expected adjacency and the K
    pairs of largest |eigenvalue| of ``L = Dtau^{-1/2} Omega Dtau^{-1/2}``,
    in O(n K^2) time and memory O(n K), ``tau`` checked as for a graph.

    With ``X = Dtau^{-1/2} Pi = Q R`` (thin QR) and ``Y = Dtau^{-1/2} B =
    X P``, ``L = Q M Q^T`` for ``M = (Q^T Y R^T + R Y^T Q) / 2``, so each
    eigenpair ``(mu, w)`` of ``M`` is ``(mu, Q w)`` of ``L``; the others
    are 0. The pairs are ranked and verified as :func:`leading_eigenpairs`
    does, ``L`` applied through the factors. A K above the factors' rank
    raises :class:`NumericalError`.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    dtau = _regularized_degrees(omega.degrees(), tau)
    width = min(omega.pi.shape)
    if K > width:
        raise NumericalError(f"expected adjacency is not rank {K}: its factors have rank at most {width}")
    scale = 1.0 / np.sqrt(dtau)
    x, y = scale[:, None] * omega.pi, scale[:, None] * omega.b
    q, r = np.linalg.qr(x)
    m = q.T @ y @ r.T
    vals, w = np.linalg.eigh((m + m.T) / 2.0)
    take = _leading_positions(vals, K)
    vals, vecs = vals[take], q @ w[:, take]
    residual = np.linalg.norm((y @ (x.T @ vecs) + x @ (y.T @ vecs)) / 2.0 - vecs * vals, axis=0)
    if residual.max() > RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {residual.max():.3e} exceeds {RESIDUAL_TOL}")
    return dtau, SpectralBasis(eigenvalues=vals, vectors=vecs)


def leading_eigenpairs(lap: sp.csr_matrix, K: int) -> SpectralBasis:
    """The K eigenpairs of largest |eigenvalue| of the symmetric CSR
    matrix ``lap``, such as :func:`regularized_laplacian` returns; a
    matrix that is not square raises ``ValueError``.

    It is solved by ARPACK's implicitly restarted Lanczos method for the
    K pairs; only K+1 >= n (where the Krylov space would be the whole
    space) or all-zero values take a full LAPACK eigendecomposition of
    ``lap.toarray()``. The found pairs are deflated and a second
    Lanczos run measures the largest |eigenvalue| left, which certifies
    the cut. It sees an eigenvalue whose magnitude meets the K-th (such
    as -lambda beside +lambda), and a repeated eigenvalue that Lanczos
    from one start vector reported once (with ``tau = 0`` every connected
    component has eigenvalue 1). The certificate runs the stages of
    ``DEFLATION_STAGES``: a screen to 0.1 relative on a 6-vector basis
    clears a cut with a wide gap, and a cut it cannot clear is measured
    to 1e-2, 1e-4 and then 1e-6, each stage started from the last one's
    Ritz vector. If what is left reaches the K-th magnitude at every
    stage, or the runs fail, the dense decomposition is used instead, as
    for any K above the rank. A Laplacian whose n x n dense form (8 n^2
    bytes) exceeds the machine's physical memory then raises
    :class:`NumericalError` naming n and the bytes needed, before
    anything is allocated.

    Magnitudes within ``TIE_TOL`` (1e-12) of each other count as tied, because the
    solvers return an exact tie such as ``+-lambda`` only to rounding.
    Ties are broken toward the positive eigenvalue, then toward the lower
    position in the solver's output, so the selection is deterministic.
    Each returned pair is verified to satisfy ``||L v - lambda v|| <= 1e-8``.
    """
    n = lap.shape[0]
    if lap.shape != (n, n):
        raise ValueError(f"the Laplacian must be square, got shape {lap.shape}")
    if not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= n, got K={K}, n={n}")
    # imported here: scipy.sparse.linalg adds about 0.13 s and 10 MB to the
    # start of every command, and only this solve needs it
    from scipy.sparse.linalg import ArpackError

    try:
        # an all-zero matrix leaves Lanczos no Krylov space to build,
        # whether its zeros are stored or not
        pairs = _lanczos_pairs(lap, K) if K + 1 < n and lap.data.any() else None
        if pairs is None:
            _check_dense_fits(n)
        vals, vecs = pairs if pairs is not None else np.linalg.eigh(lap.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    except ArpackError as exc:
        raise NumericalError(f"Lanczos eigensolver failed: {exc}") from exc
    take = _leading_positions(vals, K)
    sel_vals = vals[take]
    sel_vecs = vecs[:, take]
    # one matvec per column: scipy's sparse multi-vector product is slower
    # than K single ones
    residual = np.array([np.linalg.norm(lap @ v - v * val) for val, v in zip(sel_vals, sel_vecs.T)])
    if residual.max() > RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {residual.max():.3e} exceeds {RESIDUAL_TOL}")
    return SpectralBasis(eigenvalues=sel_vals, vectors=sel_vecs)


def _lanczos_pairs(op: sp.csr_matrix, K: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The K eigenpairs of largest magnitude by Lanczos, or ``None`` when
    they cannot be certified to be the leading K. ``op`` is a symmetric
    CSR matrix; the runs only multiply by it.

    The found pairs are deflated and a second Lanczos run measures the
    largest |eigenvalue| left: the one certificate of the cut. That value
    sits at the edge of a random bulk with no gap, where tight convergence
    is slow, so the run is sized to the gap by the ``(tol, ncv)`` stages
    of ``DEFLATION_STAGES``: a 0.1 screen on 6 Lanczos vectors clears a
    wide gap in a few matvecs, and a cut it cannot clear is measured to
    1e-2, 1e-4 and then 1e-6 on ARPACK's default basis. Each later stage
    starts from the Ritz vector of the stage before, so it keeps what that
    stage found, and every stage draws the same restart vectors. A stage
    clears the cut when its Ritz value, grown by its tolerance, stays
    below the K-th magnitude. ``None`` means that what is left reaches
    the K-th magnitude at every stage (a tie at the cut, or an eigenvalue
    seen once that is repeated), or that the runs fail, which happens
    when the deflated operator vanishes; a failed stage passes its start
    vector on to the next.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = op.shape[0]
    # A seeded generator draws the start vectors and any restart vectors,
    # so runs are reproducible. Unlike the all-ones vector, a random start
    # is not orthogonal to the antisymmetric eigenvectors of a
    # mirror-symmetric graph such as a path.
    rng = np.random.default_rng(LANCZOS_SEED)
    vals, vecs = eigsh(op, k=K, which="LM", v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    rest = LinearOperator(
        (n, n),
        matvec=lambda x: op @ x.ravel() - vecs @ (vals * (vecs.T @ x.ravel())),
        dtype=np.float64,
    )
    v0 = rng.uniform(-1.0, 1.0, n)
    restarts = rng.bit_generator.state  # each stage draws the same restart vectors
    for tol, ncv in DEFLATION_STAGES:
        rng.bit_generator.state = restarts
        ncv = None if ncv is None else min(ncv, n)
        try:
            left, ritz = eigsh(rest, k=1, which="LM", v0=v0, ncv=ncv, rng=rng, tol=tol)
        except ArpackError:
            continue
        # the Ritz value is within tol (relative) of an eigenvalue
        if abs(left[0]) * (1.0 + tol) < np.abs(vals).min() - TIE_TOL:
            return vals, vecs
        v0 = ritz[:, 0]
    return None


def _physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where the platform does not
    report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_dense_fits(n: int) -> None:
    """Raise :class:`NumericalError` when an n x n float64 array exceeds
    the physical memory."""
    need = 8 * n * n
    have = _physical_memory()
    if have is not None and need > have:
        raise NumericalError(
            f"the dense eigensolver fallback for n={n} needs {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


def _leading_positions(vals: np.ndarray, K: int) -> list[int]:
    """Positions of the K entries of ``vals`` ranked first by decreasing
    magnitude, a run of magnitudes within ``TIE_TOL`` of its largest
    counting as one tie."""
    by_size = sorted(range(vals.size), key=lambda i: (-abs(vals[i]), i))
    taken: list[int] = []
    start = 0
    while len(taken) < K:
        top = abs(vals[by_size[start]])
        end = start + 1
        while end < len(by_size) and top - abs(vals[by_size[end]]) <= TIE_TOL:
            end += 1
        taken += sorted(by_size[start:end], key=lambda i: (vals[i] < 0, i))
        start = end
    return taken[:K]

