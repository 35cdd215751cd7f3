"""Regularized Laplacian construction and its leading eigenstructure.

Both clustering pipelines start from the same object: the symmetric
matrix ``L = Dtau^{-1/2} M Dtau^{-1/2}`` where ``M`` is either a sampled
adjacency matrix or an expected one, and ``Dtau = D + tau*I`` adds a
ridge ``tau`` to the degrees. "Leading" eigenpairs are ranked by
eigenvalue magnitude, not signed value, because block structure with
disassortative connectivity puts informative eigenvalues on the negative
side of the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import NumericalError
from .model import Graph, PopulationMatrix

UNIT_NORM_TOL = 1e-10
ORTHONORMAL_TOL = 1e-8
RESIDUAL_TOL = 1e-8
ZERO_ROW_TOL = 1e-14
TIE_TOL = 1e-12
LANCZOS_SEED = 0
DEFLATION_TOL = 1e-4


@dataclass(frozen=True, init=False)
class RegularizedLaplacian:
    """Symmetric ``Dtau^{-1/2} M Dtau^{-1/2}`` with its inputs.

    ``operator`` keeps the storage it was built with: CSR for a sampled
    graph, a dense array for an expected adjacency. ``matrix`` is always
    a dense read-only array; a CSR operator is densified on each access.
    """

    tau: float
    dtau: np.ndarray  # regularized degrees D(i,i) + tau, shape (n,)
    operator: np.ndarray | sp.csr_matrix  # (n, n) symmetric

    def __init__(self, tau: float, dtau: np.ndarray, matrix: np.ndarray | sp.spmatrix):
        if sp.issparse(matrix):
            m = sp.csr_matrix(matrix, dtype=np.float64)
            entries = m.data
        else:
            m = np.asarray(matrix, dtype=np.float64)
            entries = m
        d = np.asarray(dtau, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or d.shape != (m.shape[0],):
            raise ValueError("laplacian matrix must be square with one regularized degree per node")
        if not (np.isfinite(entries).all() and np.isfinite(d).all()):
            raise ValueError("laplacian contains non-finite entries")
        if abs(m - m.T).max() > 1e-12:
            raise ValueError("laplacian must be symmetric within 1e-12")
        if sp.issparse(m):
            for part in (m.data, m.indices, m.indptr):
                part.setflags(write=False)
        else:
            m = np.ascontiguousarray(m)
            m.setflags(write=False)
        d = np.ascontiguousarray(d)
        d.setflags(write=False)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "operator", m)
        object.__setattr__(self, "dtau", d)

    @property
    def matrix(self) -> np.ndarray:
        """The Laplacian as a dense read-only (n, n) array."""
        if not sp.issparse(self.operator):
            return self.operator
        dense = self.operator.toarray()
        dense.setflags(write=False)
        return dense

    @property
    def n(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class SpectralBasis:
    """The K eigenpairs of largest magnitude, eigenvectors unit-norm."""

    eigenvalues: np.ndarray  # (K,), |lambda_1| >= ... >= |lambda_K|
    vectors: np.ndarray  # (n, K), orthonormal columns

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != vals.size:
            raise ValueError("eigenvalues and eigenvector columns must match")
        mags = np.abs(vals)
        if (np.diff(mags) > 1e-12).any():
            raise ValueError("eigenvalues must be ordered by decreasing magnitude")
        norms = np.linalg.norm(vecs, axis=0)
        if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
            raise ValueError("eigenvectors must have unit norm")
        gram_err = np.abs(vecs.T @ vecs - np.eye(vals.size)).max()
        if gram_err > ORTHONORMAL_TOL:
            raise ValueError(f"eigenvectors must be orthonormal (deviation {gram_err:.3e})")
        vals = np.ascontiguousarray(vals)
        vecs = np.ascontiguousarray(vecs)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "vectors", vecs)

    @property
    def K(self) -> int:
        return self.eigenvalues.size

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def default_tau(n: int) -> float:
    """The default ridge regularizer ``0.1 * ln(n)``."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes for the default regularizer, got n={n}")
    return 0.1 * math.log(n)


def regularized_laplacian(source: Graph | PopulationMatrix, tau: float) -> RegularizedLaplacian:
    """Build ``Dtau^{-1/2} M Dtau^{-1/2}`` from a graph or expected adjacency.

    A sampled graph gives a CSR Laplacian with the graph's sparsity
    pattern; the expected adjacency gives a dense one. ``tau`` must be
    nonnegative; with ``tau = 0`` every node needs a strictly positive
    degree, otherwise a :class:`NumericalError` is raised (an isolated
    node makes the unregularized scaling undefined).
    """
    if tau < 0:
        raise ValueError(f"regularizer tau must be nonnegative, got {tau}")
    if not isinstance(source, (Graph, PopulationMatrix)):
        raise TypeError(f"cannot build a laplacian from {type(source).__name__}")
    dtau = source.degrees() + tau
    if dtau.min() <= 0.0:
        raise NumericalError(
            "zero regularized degree: tau = 0 requires every node to have positive degree"
        )
    scale = 1.0 / np.sqrt(dtau)
    if isinstance(source, Graph):
        a = source.adjacency
        rows = np.repeat(np.arange(source.n), np.diff(a.indptr))
        # scale_i * a_ij * scale_j is symmetric bit for bit: no averaging
        # needed. The index arrays are copied because the Laplacian makes
        # its arrays read-only and the graph's must stay as they are.
        data = scale[rows] * a.data * scale[a.indices]
        lap = sp.csr_matrix((data, a.indices.copy(), a.indptr.copy()), shape=a.shape)
    else:
        lap = scale[:, None] * source.matrix * scale[None, :]
        lap = (lap + lap.T) / 2.0
    return RegularizedLaplacian(tau=float(tau), dtau=dtau, matrix=lap)


def leading_eigenpairs(lap: RegularizedLaplacian, K: int) -> SpectralBasis:
    """The K eigenpairs of largest |eigenvalue|.

    A CSR Laplacian is solved by ARPACK's implicitly restarted Lanczos
    method for K+1 pairs, so that a magnitude tie at the cut is seen; a
    dense or all-zero Laplacian, or K+1 >= n (ARPACK needs fewer pairs
    than rows), takes a full LAPACK eigendecomposition. Lanczos from one
    start vector sees one vector per eigenspace, so it can report a
    repeated eigenvalue once (with ``tau = 0`` every connected component
    has eigenvalue 1). The found pairs are therefore deflated and a second
    Lanczos run measures the largest |eigenvalue| left; if that reaches
    the weakest selected one, or the run fails, the dense decomposition
    is used instead.

    Magnitudes within 1e-12 of each other count as tied, because the
    solvers return an exact tie such as ``+-lambda`` only to rounding.
    Ties are broken toward the positive eigenvalue, then toward the lower
    position in the solver's output, so the selection is deterministic.
    Each returned pair is verified to satisfy ``||L v - lambda v|| <= 1e-8``.
    """
    n = lap.n
    if not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= n, got K={K}, n={n}")
    # imported here: scipy.sparse.linalg adds about 0.13 s and 10 MB to the
    # start of every command, and only this solve needs it
    from scipy.sparse.linalg import ArpackError

    op = lap.operator
    try:
        pairs = None
        # an all-zero operator leaves Lanczos no Krylov space to build
        if sp.issparse(op) and op.nnz and K + 1 < n:
            pairs = _lanczos_pairs(op, K)
        vals, vecs = pairs if pairs is not None else np.linalg.eigh(lap.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    except ArpackError as exc:
        raise NumericalError(f"Lanczos eigensolver failed: {exc}") from exc
    take = _leading_positions(vals, K)
    sel_vals = vals[take]
    sel_vecs = vecs[:, take]
    residual = np.linalg.norm(op @ sel_vecs - sel_vecs * sel_vals, axis=0)
    if residual.max() > RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {residual.max():.3e} exceeds {RESIDUAL_TOL}")
    return SpectralBasis(eigenvalues=sel_vals, vectors=sel_vecs)


def _lanczos_pairs(op: sp.csr_matrix, K: int) -> tuple[np.ndarray, np.ndarray] | None:
    """K+1 eigenpairs of largest magnitude by Lanczos, or ``None`` when
    they cannot be certified to contain the leading K.

    The found pairs are deflated and a second Lanczos run measures the
    largest |eigenvalue| left. ``None`` means that it reaches the weakest
    selected magnitude (an eigenvalue seen once that is repeated), or that
    the run fails, which happens when the deflated operator vanishes.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = op.shape[0]
    # A seeded generator draws the start vectors and any restart vectors,
    # so runs are reproducible. Unlike the all-ones vector, a random start
    # is not orthogonal to the antisymmetric eigenvectors of a
    # mirror-symmetric graph such as a path.
    rng = np.random.default_rng(LANCZOS_SEED)
    vals, vecs = eigsh(op, k=K + 1, which="LM", v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    rest = LinearOperator(
        (n, n),
        matvec=lambda x: op @ x.ravel() - vecs @ (vals * (vecs.T @ x.ravel())),
        dtype=np.float64,
    )
    try:
        left = eigsh(
            rest, k=1, which="LM", v0=rng.uniform(-1.0, 1.0, n), rng=rng,
            tol=DEFLATION_TOL, return_eigenvectors=False,
        )
    except ArpackError:
        return None
    # the Ritz value is within DEFLATION_TOL (relative) of an eigenvalue
    weakest = abs(vals[_leading_positions(vals, K)[-1]])
    if abs(left[0]) * (1.0 + DEFLATION_TOL) >= weakest - TIE_TOL:
        return None
    return vals, vecs


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


def scale_rows_by_degree(basis: SpectralBasis, lap: RegularizedLaplacian) -> np.ndarray:
    """Row i of the result is ``sqrt(tau + D(i,i)) * V(i,:)``."""
    if basis.n != lap.n:
        raise ValueError(f"basis has {basis.n} rows but laplacian has {lap.n}")
    return np.sqrt(lap.dtau)[:, None] * basis.vectors


def normalize_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to unit Euclidean norm.

    Returns the normalized matrix and the scaling factors ``1/||row||``.
    A (numerically) zero row aborts with :class:`NumericalError`; for
    eigenvector inputs that is the symptom of an isolated node.
    """
    m = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    if norms.min() <= ZERO_ROW_TOL:
        bad = int(norms.argmin())
        raise NumericalError(f"row {bad} has numerically zero norm ({norms[bad]:.3e})")
    factors = 1.0 / norms
    return m * factors[:, None], factors
