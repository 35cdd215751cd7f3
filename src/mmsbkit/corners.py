"""Corner hunting: pick the K rows that generate the point cloud.

Two geometries arise from the degree-scaled and row-normalized
eigenvector matrices. In the simplex case every row is a convex
combination of K vertex rows and successive projection (greedy max-norm
selection with orthogonal deflation) recovers them. In the cone case
every row is a nonnegative scaled combination of K generator rows lying
on a supporting hyperplane; a one-class SVM finds that hyperplane and
``scipy.cluster.vq.kmeans`` groups the rows sitting on it.

The one-class SVM ``max b s.t. w.S(i,:) >= b, ||w|| <= 1`` is solved
through its dual, the minimum-norm point ``p`` of the convex hull of the
rows: ``w = p/||p||`` and ``b = ||p||``. That point is found as the
least-distance program ``min ||x|| s.t. S x >= 1``, which
``scipy.optimize.nnls`` solves exactly by the Lawson-Hanson reduction.
The point is unique, so the program is solved on a working set of rows
that grows by the rows violating the margin until none does; the KKT
check over every row certifies the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .model import _readonly

UNIT_ROW_TOL = 1e-8
KKT_TOL = 1e-8
ORIGIN_TOL = 1e-10
#: Rows in the first working set of :func:`one_class_svm`, and the most
#: violating rows each later round adds.
WORKING_SET = 64
#: Share of the initial squared row norm below which :func:`sp_select`
#: recomputes its downdated squared norms. Each downdate rounds by about
#: eps times the initial value, so below sqrt(eps) of it the relative
#: error exceeds sqrt(eps) and could reorder near-equal candidates.
_DOWNDATE_FLOOR = float(np.sqrt(np.finfo(np.float64).eps))

#: Margin schedule for :func:`svm_cone_select`: step size as a fraction of
#: the SVM offset, and the number of enlargements attempted.
MARGIN_STEP = 0.05
MARGIN_MAX_STEPS = 40

KMEANS_RESTARTS = 10
#: Cluster members whose squared distance to the centre is within this
#: much of the smallest tie, and the lowest index is picked: equidistant
#: rows differ only by rounding, which changes with the basis.
CORNER_TIE_TOL = 1e-12


@dataclass(frozen=True)
class CornerSet:
    """K distinct row indices chosen as simplex vertices or cone generators."""

    indices: tuple[int, ...]
    method: str  # "sp" or "svm-cone"

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("corner indices must be distinct")
        if any(i < 0 for i in self.indices):
            raise ValueError("corner indices must be nonnegative")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    @property
    def K(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SvmSolution:
    """Solution of the one-class SVM over unit-norm rows.

    ``weights`` are the dual simplex coefficients over all rows; the
    minimum-norm hull point is ``weights @ S`` and equals ``b * w``.
    """

    w: np.ndarray
    b: float
    weights: np.ndarray
    support: tuple[int, ...]

    def __post_init__(self):
        w = _readonly(self.w)
        al = _readonly(self.weights)
        if np.linalg.norm(w) > 1.0 + 1e-10:
            raise ValueError("svm normal vector must satisfy ||w|| <= 1")
        if al.min() < -1e-12 or abs(al.sum() - 1.0) > 1e-10:
            raise ValueError("dual weights must be a probability vector")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "weights", al)
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))


def sp_select(matrix: np.ndarray, K: int) -> CornerSet:
    """Successive projection: greedily take the row of largest norm, then
    project every row onto the orthogonal complement of the pick.

    The residual rows are never formed. The squared row norms are
    downdated by ``(M q)**2`` for each new unit vector ``q`` of an
    orthonormal basis of the picks, and picked rows drop out of later
    argmaxes. The products go through ``einsum``, which computes every
    row alike wherever it sits, so exact duplicate rows keep exactly
    equal norms. Once every remaining squared norm is below
    ``_DOWNDATE_FLOOR`` of the initial one, where rounding could reorder
    the candidates, the norms are recomputed against the basis before
    each pick. The picked row's residual is always recomputed, with two
    Gram-Schmidt passes, and that value carries the rank check.

    Ties on the row norm resolve to the lowest index. Raises
    :class:`NumericalError` when the residual is numerically zero before
    K picks (the input has rank below K).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("input must be a 2-d matrix")
    n, width = m.shape
    if not 1 <= K <= min(n, width):
        raise ValueError(f"need 1 <= K <= min(n, m) = {min(n, width)}, got K={K}")
    sq = np.einsum("ij,ij->i", m, m)
    initial_sq = sq.max()
    if initial_sq == 0.0:
        raise NumericalError("cannot select corners from an all-zero matrix")
    initial_scale = np.sqrt(initial_sq)
    basis = np.empty((K, width))
    picks = []
    for k in range(K):
        q = basis[:k]
        if k:
            sq -= np.einsum("ij,j->i", m, q[-1]) ** 2
            sq[picks] = -np.inf
            if sq.max() < _DOWNDATE_FLOOR * initial_sq:
                residual = m - np.einsum("ik,kj->ij", np.einsum("ij,kj->ik", m, q), q)
                sq = np.einsum("ij,ij->i", residual, residual)
                sq[picks] = -np.inf
        pick = int(sq.argmax())  # argmax returns the first max: lowest index on ties
        v = m[pick].copy()
        for _ in range(2):
            v -= q.T @ (q @ v)
        norm = np.linalg.norm(v)
        if norm <= 1e-12 * initial_scale:
            raise NumericalError(
                f"residual vanished after {len(picks)} picks; matrix rank is below K={K}"
            )
        basis[k] = v / norm
        picks.append(pick)
    return CornerSet(indices=tuple(picks), method="sp")


def _check_unit_rows(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] < 1:
        raise ValueError("input must be a nonempty 2-d matrix")
    norms = np.linalg.norm(s, axis=1)
    if np.abs(norms - 1.0).max() > UNIT_ROW_TOL:
        raise ValueError("rows must have unit Euclidean norm")
    return s


def one_class_svm(s: np.ndarray) -> SvmSolution:
    """Solve ``max b s.t. w.S(i,:) >= b, ||w|| <= 1`` for unit-norm rows.

    The dual, the minimum-norm point of the convex hull of the rows, is
    the least-distance program ``min ||x|| s.t. S x >= 1`` up to scale.
    Lawson & Hanson (*Solving Least Squares Problems*, 1974, ch. 23)
    reduce it to the nonnegative least squares problem
    ``min ||E u - e_{m+1}||, u >= 0`` with ``E = [S'; 1']``; ``u / sum(u)``
    are the dual weights and ``weights @ S`` is the hull point ``b * w``.

    The hull's minimum-norm point is unique, so ``E`` spans only a
    working set of rows: first the ``WORKING_SET`` rows of smallest
    margin along the mean row (every row when there are no more), then,
    each round, up to ``WORKING_SET`` more of the rows whose margin
    ``S(i,:).w`` falls below ``b - KKT_TOL``, most violating first, until
    no row outside the set does. The weights of the other rows are 0.

    Raises :class:`NumericalError` when the hull contains the origin
    (``b`` below 1e-10, so the rows do not form a cone), when the NNLS
    solver hits its iteration cap, or when the KKT conditions over all
    rows cannot be certified to 1e-8.
    """
    s = _check_unit_rows(s)
    # scipy.optimize costs every process that imports it ~0.16 s and
    # ~17 MB; only the cone methods need it
    from scipy.optimize import nnls

    n, width = s.shape
    f = np.zeros(width + 1)
    f[width] = 1.0
    rows = np.sort(np.argpartition(s @ s.mean(axis=0), min(n, WORKING_SET) - 1)[:WORKING_SET])
    while True:
        try:
            u, _ = nnls(np.vstack([s[rows].T, np.ones((1, rows.size))]), f)
        except RuntimeError as exc:
            raise NumericalError(f"one-class svm failed to converge: {exc}") from exc
        weights = np.zeros(n)
        weights[rows] = u / u.sum()
        x = weights @ s

        b = float(np.linalg.norm(x))
        if b <= ORIGIN_TOL:
            raise NumericalError(
                "the convex hull of the rows contains the origin; the rows do not form a cone"
            )
        w = x / b
        margins = s @ w
        violators = np.setdiff1d(np.nonzero(margins < b - KKT_TOL)[0], rows, assume_unique=True)
        if not violators.size:
            break
        rows = np.union1d(rows, violators[np.argsort(margins[violators], kind="stable")[:WORKING_SET]])
    # at the optimum the support rows meet the hyperplane, so min margin == b
    if abs(float(margins.min()) - b) > KKT_TOL:
        raise NumericalError(
            f"one-class svm failed to converge: margin residual {abs(margins.min() - b):.3e}"
        )
    support = tuple(int(i) for i in np.nonzero(weights > 1e-12)[0])
    return SvmSolution(w=w, b=b, weights=weights, support=support)


def cone_closed_form(corner_rows: np.ndarray) -> SvmSolution:
    """Exact one-class SVM solution when the input is the K generator rows.

    With ``G = S_C @ S_C.T`` and ``y = G^{-1} 1`` (all components must be
    positive for the cone geometry to hold), the offset is
    ``b = 1/sqrt(1'y)`` and the normal is ``w = S_C' y / (b * 1'y)``.
    """
    sc = _check_unit_rows(corner_rows)
    k = sc.shape[0]
    gram = sc @ sc.T
    if np.linalg.cond(gram) > 1e12:
        raise NumericalError("corner Gram matrix is numerically singular")
    y = np.linalg.solve(gram, np.ones(k))
    if y.min() <= 0.0:
        raise NumericalError(
            "cone condition violated: the Gram inverse row sums must be positive"
        )
    total = y.sum()
    b = 1.0 / np.sqrt(total)
    w = sc.T @ y / (b * total)
    return SvmSolution(w=w, b=b, weights=y / total, support=tuple(range(k)))


def svm_cone_select(s: np.ndarray, K: int, seed: int = 0) -> CornerSet:
    """Pick K generator rows of a cone-shaped unit-row matrix.

    Runs the one-class SVM to locate the supporting hyperplane, then
    grows a margin ``gamma`` from 0 in steps of ``MARGIN_STEP * b`` until
    the rows within ``b + gamma`` of the hyperplane split into K
    non-empty clusters; the row nearest each cluster center is returned.
    ``scipy.cluster.vq.kmeans`` keeps the best of ``KMEANS_RESTARTS``
    runs started from rows drawn with ``seed``, and ``vq`` assigns the
    rows. With exactly K rows it runs once: every run would start from
    the same rows and reach distortion 0, and the first is kept anyway.
    A codebook short of K centers or an empty cluster moves on to the
    next margin step. Rows within ``CORNER_TIE_TOL`` of the nearest
    squared distance to a center tie, and the lowest index wins. A K
    outside 1..n raises ``ValueError`` before the SVM runs. Raises
    :class:`NumericalError` when the margin schedule is exhausted without
    finding K clusters.
    """
    # ~0.03 s once scipy.optimize is loaded; only the cone methods need it
    from scipy.cluster.vq import kmeans, vq

    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0] if s.ndim else 0
    if not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= n, got K={K}, n={n}")
    solution = one_class_svm(s)  # checks the unit rows
    margins = s @ solution.w
    # rows meeting the margin with equality are certified only to the
    # solver's KKT tolerance, so the threshold carries that much slack
    slack = KKT_TOL * max(solution.b, 1.0)
    for step in range(MARGIN_MAX_STEPS + 1):
        gamma = step * MARGIN_STEP * solution.b
        candidates = np.nonzero(margins <= solution.b + gamma + slack)[0]
        if candidates.size < K:
            continue
        points = s[candidates]
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        restarts = 1 if candidates.size == K else KMEANS_RESTARTS
        centers, _ = kmeans(points, K, iter=restarts, rng=rng)
        if centers.shape[0] < K:
            continue
        labels, _ = vq(points, centers)
        if (np.bincount(labels, minlength=K) == 0).any():
            continue
        picks = []
        for j in range(K):
            members = np.nonzero(labels == j)[0]
            offsets = ((points[members] - centers[j]) ** 2).sum(axis=1)
            nearest = members[offsets <= offsets.min() + CORNER_TIE_TOL][0]
            picks.append(int(candidates[nearest]))
        if len(set(picks)) == K:
            return CornerSet(indices=tuple(picks), method="svm-cone")
    raise NumericalError(
        f"margin schedule exhausted without K={K} distinct clusters; "
        "K may be too large for this geometry"
    )
