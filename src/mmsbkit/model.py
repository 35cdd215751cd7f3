"""Mixed membership block model: memberships, connectivity, expected and
sampled adjacency.

A network with ``n`` nodes and ``K`` overlapping communities is described
by a row-stochastic membership matrix ``Pi`` (n x K) and a symmetric
connectivity matrix ``P = rho * tilde_p`` (K x K) whose entries are edge
probabilities between communities. The expected adjacency is
``Omega = Pi @ P @ Pi.T``; it is held only as its factors ``Pi`` and
``B = Pi @ P``, and its entries are computed a block of rows at a time,
so generating a graph needs O(nK) memory rather than an n x n array.
Observed graphs draw each upper-triangular entry independently as
Bernoulli(Omega[i, j]), in blocks of rows. A block first bounds all of
its rates by ``r``. When ``r`` is small (sparse graphs) it draws only
candidate pairs, one Bernoulli(r) process over its pairs by geometric
skips, and keeps a candidate with probability ``Omega[i, j] / r``; so it
costs time in the number of candidates, not of pairs. Otherwise it draws
one uniform per pair.

The bound ``r`` of a block is the smaller of two. One
replaces each factor column by its maximum over the block. The other is
Hölder's inequality: the factors are nonnegative, so
``sum_k B[i,k] Pi[j,k] <= (max_k B[i,k]) (sum_k Pi[j,k])``, and the
mirrored sum likewise. A row of ``Pi`` sums to 1, so this bound stays
near the block's largest rate, where the first may take each
community's largest factor entry from a different node. The Hölder
bound is grown by ``HOLDER_SLACK * K`` eps, which covers the rounding of
the entries' sums and of its own, so either bound holds exactly.

All containers are frozen dataclasses over read-only numpy arrays, so
instances can be shared freely across threads. A graph holds only its
sparsity pattern, the CSR index arrays: its adjacency values are all 1,
so none is stored.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import NumericalError

if TYPE_CHECKING:
    import scipy.sparse as sp

ROW_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12
RANK_SV_TOL = 1e-10
PURITY_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_SMALLEST_NORMAL = float(np.finfo(np.float64).smallest_normal)

#: Most entries of ``Omega`` computed at once per block of rows in
#: :func:`sample_edge_blocks`.
SAMPLE_BLOCK = 1 << 20

#: Eps per community by which the Hölder rate bound is grown. The entry's
#: sums and the bound's own sums and products move the two apart by at
#: most (K + 1) eps relative, and 4K eps covers that and the rounding of
#: the growth itself for every K >= 1.
HOLDER_SLACK = 4

#: Rate bound above which a sampler block draws one uniform per pair and
#: computes all of its rates at once; a block at or below it draws only
#: its candidate pairs, by geometric skips.
GATHER_SHARE = 0.25

#: Mixed-row layouts understood by :func:`planted_memberships`.
PROFILES = ("four-profiles", "uniform", "random-half")

_FOUR_PROFILES = np.array(
    [
        [0.4, 0.4, 0.2],
        [0.4, 0.2, 0.4],
        [0.2, 0.4, 0.4],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    ]
)


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``a``; the copy leaves the caller's
    array writable and keeps its later writes out of the object."""
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MembershipMatrix:
    """Row-stochastic n x K matrix of community weights, one row per node.

    A node is *pure* when its row is (numerically) a unit vector and
    *mixed* otherwise; the row maximum is the node's purity.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"memberships must be a 2-d matrix, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("memberships contain non-finite entries")
        if w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("membership weights must lie in [0, 1]")
        row_err = np.abs(w.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"membership rows must sum to 1 (max deviation {row_err:.3e})")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def K(self) -> int:
        return self.weights.shape[1]

    def pure_mask(self) -> np.ndarray:
        """Boolean mask of rows whose maximum weight reaches 1 - 1e-12."""
        return self.weights.max(axis=1) >= 1.0 - PURITY_TOL


@dataclass(frozen=True)
class BlockModel:
    """Community connectivity ``P = rho * tilde_p``.

    ``tilde_p`` is symmetric, nonnegative, full rank, with entries in
    [0, 1]; the canonical scaling places its maximum entry at 1 so that
    ``rho`` alone carries the sparsity level, but benchmark connectivity
    templates with maximum below 1 are accepted as-is.
    """

    tilde_p: np.ndarray
    rho: float = 1.0

    def __post_init__(self):
        p = np.asarray(self.tilde_p, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ValueError(f"connectivity must be square, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("connectivity contains non-finite entries")
        if np.abs(p - p.T).max() > SYMMETRY_TOL:
            raise ValueError("connectivity must be symmetric within 1e-12")
        if p.min() < 0.0:
            raise ValueError("connectivity entries must be nonnegative")
        if p.max() > 1.0 + SYMMETRY_TOL:
            raise ValueError("connectivity entries must not exceed 1")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"sparsity rho must lie in (0, 1], got {self.rho}")
        smallest_sv = np.linalg.svd(p, compute_uv=False)[-1]
        if smallest_sv <= RANK_SV_TOL:
            raise ValueError(
                f"connectivity is rank deficient (smallest singular value {smallest_sv:.3e})"
            )
        object.__setattr__(self, "tilde_p", _readonly(p))

    @property
    def K(self) -> int:
        return self.tilde_p.shape[0]

    @property
    def p(self) -> np.ndarray:
        """The scaled connectivity ``rho * tilde_p``."""
        return self.rho * self.tilde_p


@dataclass(frozen=True, init=False)
class PopulationMatrix:
    """Expected adjacency ``Omega``, held as the memberships ``pi`` and
    ``b = Pi @ P`` (n x K each, nonnegative, n and K at least 1), as
    :func:`build_population_matrix` returns them; :meth:`entries` computes
    blocks or single entries of ``Omega`` from them. Each factor is stored
    once, as a contiguous (K, n) copy of its columns; ``pi`` and ``b`` are
    (n, K) views of those copies. A symmetric ``m`` with entries in [0, 1]
    is ``PopulationMatrix(pi=np.eye(n), b=m)``. Factors whose products
    exceed 1 are accepted: :meth:`entries`, and so the sampler, clip
    Omega to [0, 1], while :meth:`degrees`, ``population_eigenpairs`` and
    ``laplacian_concentration`` read the unclipped factors. Factors from
    a :class:`BlockModel` never exceed 1.
    """

    _pi_cols: np.ndarray  # (K, n) memberships
    _b_cols: np.ndarray  # (K, n) Pi @ P

    def __init__(self, *, pi: np.ndarray, b: np.ndarray):
        pi, b = np.asarray(pi), np.asarray(b)
        if pi.ndim != 2 or pi.shape != b.shape or min(pi.shape) < 1:
            raise ValueError(f"factors must share one (n, K) shape with n, K >= 1, got {pi.shape} and {b.shape}")
        pi, b = _readonly(pi.T), _readonly(b.T)
        if not (np.isfinite(pi).all() and np.isfinite(b).all()):
            raise ValueError("expected adjacency factors contain non-finite entries")
        if pi.min() < 0.0 or b.min() < 0.0:
            raise ValueError("expected adjacency factors must be nonnegative")
        object.__setattr__(self, "_pi_cols", pi)
        object.__setattr__(self, "_b_cols", b)

    @property
    def pi(self) -> np.ndarray:
        """(n, K) memberships."""
        return self._pi_cols.T

    @property
    def b(self) -> np.ndarray:
        """(n, K) ``Pi @ P``."""
        return self._b_cols.T

    @property
    def n(self) -> int:
        return self._pi_cols.shape[1]

    def entries(self, rows: slice | np.ndarray, cols: slice | np.ndarray) -> np.ndarray:
        """``Omega[rows, cols]`` as numpy indexes it: two slices give a
        block, two broadcastable integer arrays give the entries at the
        pairs ``(rows, cols)``. Either is computed from the factors with
        one kernel, so an entry has the same value whichever way it is
        asked for."""
        if isinstance(rows, slice):
            index = np.arange(self.n)
            rows, cols = index[rows][:, None], index[cols][None, :]
        return _factored_entries(self._pi_cols, self._b_cols, rows, cols)

    def bound(self, rows: slice, cols: slice) -> float:
        """A number at least every entry of the block ``Omega[rows, cols]``.

        It is the smaller of two bounds, each capped at 1. The column
        bound replaces each factor column by its maximum over the block's
        rows or columns and takes the sums as in
        :func:`_factored_entries`; the factors are nonnegative and
        rounding is monotone, so it holds exactly. The Hölder bound is
        ``((max_i max_k b_ik)(max_j sum_k pi_jk) + (max_i sum_k pi_ik)
        (max_j max_k b_jk)) / 2``, since ``sum_k b_ik pi_jk <= (max_k
        b_ik)(sum_k pi_jk)`` for nonnegative factors. Its sums round
        differently from the entry's, so it is grown by ``HOLDER_SLACK * K``
        eps, which covers both roundings, plus ``K`` times the smallest
        normal double, which covers products that underflow.
        """
        pi, b = self._pi_cols, self._b_cols
        return float(
            _bound_from_maxima(
                _bound_terms(pi[:, rows], b[:, rows]).max(axis=1),
                _bound_terms(pi[:, cols], b[:, cols]).max(axis=1),
            )
        )

    def degrees(self) -> np.ndarray:
        """Expected degree vector (full row sums, diagonal included) from the
        factors, ``(B (Pi^T 1) + Pi (B^T 1)) / 2`` summed in increasing k."""
        pi, b = self._pi_cols, self._b_cols
        pi_sums, b_sums = pi.sum(axis=1), b.sum(axis=1)
        left, right = b[0] * pi_sums[0], pi[0] * b_sums[0]
        for k in range(1, pi.shape[0]):
            left += b[k] * pi_sums[k]
            right += pi[k] * b_sums[k]
        return (left + right) / 2.0


def _bound_terms(pi_cols: np.ndarray, b_cols: np.ndarray) -> np.ndarray:
    """The per-node values whose maxima :meth:`PopulationMatrix.bound`
    takes, for the nodes of the (K, m) factor columns: a (2K + 2, m) array
    of the K ``pi`` entries, the K ``b`` entries, ``max_k b`` and ``sum_k
    pi`` summed in increasing k. Each column depends on its node alone, so
    a node's values do not depend on which other nodes are passed with
    it."""
    return np.vstack([pi_cols, b_cols, b_cols.max(axis=0), pi_cols.sum(axis=0)])


def _bound_from_maxima(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """:meth:`PopulationMatrix.bound` from the maxima of :func:`_bound_terms`
    over a block's rows and over its columns, (2K + 2,) arrays, or of many
    blocks at once, as (2K + 2, blocks) arrays: each block's bound is
    computed elementwise, with the same operations either way. The
    column bound sums in increasing k as :func:`_factored_entries` sums
    an entry."""
    K = (rows.shape[0] - 2) // 2
    pi_i, b_i, top_i, sum_i = rows[:K], rows[K:2 * K], rows[2 * K], rows[2 * K + 1]
    pi_j, b_j, top_j, sum_j = cols[:K], cols[K:2 * K], cols[2 * K], cols[2 * K + 1]
    left, right = b_i[0] * pi_j[0], pi_i[0] * b_j[0]
    for k in range(1, K):
        left += b_i[k] * pi_j[k]
        right += pi_i[k] * b_j[k]
    holder = (top_i * sum_j + sum_i * top_j) / 2.0
    holder = holder * (1.0 + HOLDER_SLACK * K * _EPS) + K * _SMALLEST_NORMAL
    return np.minimum(np.minimum((left + right) / 2.0, holder), 1.0)


def _factored_entries(pi_cols: np.ndarray, b_cols: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``Omega[i, j]`` from the factors ``Pi`` and ``B = Pi @ P``, given as
    their transposes ``pi_cols`` and ``b_cols`` (K x n, C order), for
    broadcastable integer index arrays ``i`` and ``j``: a block passes
    ``rows[:, None]`` and ``cols[None, :]``, a list of pairs two 1-d arrays.

    Entry (i, j) is ``(sum_k B[i,k] Pi[j,k] + sum_k Pi[i,k] B[j,k]) / 2``
    clipped to [0, 1], each sum taken in increasing k with elementwise
    products and no BLAS. The value is therefore exactly symmetric in
    (i, j), and does not depend on the shape of the index arrays, the BLAS
    build or its thread count. Each factor value is a ``take`` from one
    contiguous column, which for a list of pairs is a plain 1-d gather
    rather than a strided 2-d fancy index.
    """
    left = b_cols[0].take(i) * pi_cols[0].take(j)
    right = pi_cols[0].take(i) * b_cols[0].take(j)
    term = np.empty_like(left)
    for k in range(1, pi_cols.shape[0]):
        left += np.multiply(b_cols[k].take(i), pi_cols[k].take(j), out=term)
        right += np.multiply(pi_cols[k].take(i), b_cols[k].take(j), out=term)
    left += right
    left /= 2.0
    return np.clip(left, 0.0, 1.0, out=left)


@dataclass(frozen=True, init=False)
class Graph:
    """Undirected simple graph, kept as its sparsity pattern: the
    read-only ``indptr`` and ``indices`` of its symmetric 0/1 adjacency in
    canonical CSR (sorted column indices, no duplicates, no diagonal).

    A stored entry costs one index, and no value: every value is 1.
    A graph enters only from its edges: :meth:`from_edges` is the checked
    way in, and :meth:`from_upper` the unchecked half that the edge-list
    reader and the sampler call once their pairs are freed.
    """

    indptr: np.ndarray = field(repr=False)  # (n + 1,) row starts
    indices: np.ndarray = field(repr=False)  # (2m,) column of each stored entry

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def degrees(self) -> np.ndarray:
        """Row counts of the pattern as floats: every entry is 1."""
        return np.diff(self.indptr).astype(np.float64)

    def edge_count(self) -> int:
        return self.indices.size // 2

    def edges(self) -> np.ndarray:
        """Edges as a sorted (m, 2) array with i < j per row."""
        # the pattern is canonical CSR, so its upper entries already come
        # in row-major order
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = self.indices > rows
        return np.column_stack([rows[upper], self.indices[upper].astype(np.int64)])

    @classmethod
    def from_edges(cls, n: int, pairs: np.ndarray) -> "Graph":
        """Build from an (m, 2) array of undirected edges (either order):
        :meth:`from_upper` of :func:`upper_triangle`. A caller that owns
        its pairs frees them between the two steps instead, as
        :func:`sample_adjacency` and ``io_formats.read_edge_list`` do, so
        that the pairs and the assembly are never held at once."""
        return cls.from_upper(upper_triangle(n, pairs))

    @classmethod
    def from_upper(cls, upper: sp.csr_matrix) -> "Graph":
        """The graph whose strict upper triangle is ``upper``, a canonical
        boolean CSR matrix such as :func:`upper_triangle` returns, with no
        checks: the pattern is symmetric and loop-free by construction.

        The pattern is the upper triangle plus its transpose, summed on
        boolean data: scipy merges the two sorted operands row by row,
        with no sort of the result, and picks the index dtypes. The graph
        keeps fresh copies of the sum's two index arrays, made after the
        transposed operand is freed; the sum and its boolean values go
        once the copies exist. Where the long-lived arrays are allocated
        matters: keeping the sum's own index arrays instead leaves
        ``mmsbkit cluster`` about 10 MB more peak RSS on a 2000-node
        graph with 1.35M stored entries.
        """
        pattern = upper + upper.T
        graph = object.__new__(cls)
        for name in ("indptr", "indices"):
            part = getattr(pattern, name).copy()
            part.setflags(write=False)
            object.__setattr__(graph, name, part)
        return graph


def upper_triangle(n: int, pairs: np.ndarray) -> sp.csr_matrix:
    """The strict upper triangle of the n-node graph of the (m, 2) array
    of undirected edges ``pairs`` (either order), as a canonical CSR
    matrix of booleans: the pattern step of :meth:`Graph.from_edges`.

    The pairs are folded to i < j; when every pair already has i < j,
    the columns are used as they are, with no folded copy. When the
    folded pairs strictly increase in row-major order, as the sampler's
    and the writer's do, they already are the upper triangle in
    canonical CSR: ``indptr`` comes from the row counts and ``indices``
    is the j column. Pairs in any other order go through scipy's COO ->
    CSR conversion, which sorts them and ORs the booleans of duplicate
    mentions together. Either way scipy picks the index dtype, and when
    that is int32 (n and m below 2^31) the result holds int32 copies of
    the columns and none of the pairs.
    """
    # scipy.sparse costs every process that imports it ~0.2 s and ~22 MB;
    # generate writes its edges without building a graph
    import scipy.sparse as sp

    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("edge endpoint out of range")
    lo, hi = pairs[:, 0], pairs[:, 1]
    # i < j throughout rules self-loops out and needs no fold
    if not (lo < hi).all():
        if (lo == hi).any():
            raise ValueError("self-loops are not allowed")
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    mentions = np.ones(lo.size, dtype=bool)
    if _row_major(lo, hi):
        indptr = np.concatenate(([0], np.cumsum(np.bincount(lo, minlength=n))))
        return sp.csr_matrix((mentions, hi, indptr), shape=(n, n))
    return sp.csr_matrix((mentions, (lo, hi)), shape=(n, n))


def _row_major(lo: np.ndarray, hi: np.ndarray) -> bool:
    """True when the pairs ``(lo[k], hi[k])`` strictly increase in
    lexicographic order. The columns are compared one after the other,
    never as keys ``lo * n + hi``, which overflow int64 once n passes
    about 3.04e9. Shifted views are compared, so no array of
    differences is built."""
    return bool((lo[:-1] <= lo[1:]).all() and ((lo[:-1] < lo[1:]) | (hi[:-1] < hi[1:])).all())


def build_population_matrix(pi: MembershipMatrix, block: BlockModel) -> PopulationMatrix:
    """Expected adjacency ``Omega = Pi @ (rho * tilde_p) @ Pi.T``, factored.

    The result keeps ``Pi`` and ``B = Pi @ P`` (n x K), with ``B`` summed
    in increasing k without BLAS; no n x n array is built. Raises ``ValueError`` when the community counts of
    ``pi`` and ``block`` disagree.
    """
    if pi.K != block.K:
        raise ValueError(f"community count mismatch: memberships have K={pi.K}, block model K={block.K}")
    w, p = pi.weights, block.p
    b = w[:, :1] * p[0]
    for k in range(1, pi.K):
        b += w[:, k:k + 1] * p[k]
    return PopulationMatrix(pi=w, b=b)


def _block_starts(n: int) -> np.ndarray:
    """The sampler's blocks of rows as one int64 array: block k is the rows
    ``starts[k] .. starts[k+1] - 1``, and the last entry is n - 1, so the
    blocks cover rows 0 .. n-2 once. A block's rates ``Omega[r0:r1, r0+1:]``
    number at most ``SAMPLE_BLOCK`` (or it is one row); at least half of
    them are pairs i < j."""

    def starts():
        r0 = 0
        while r0 < n - 1:
            yield r0
            r0 = min(n - 1, r0 + max(1, SAMPLE_BLOCK // (n - 1 - r0)))
        yield r0

    return np.fromiter(starts(), dtype=np.int64)


def sample_adjacency(omega: PopulationMatrix, seed: int) -> Graph:
    """The graph of the edges :func:`sample_edge_blocks` draws. Its blocks
    are concatenated into one (m, 2) array of pairs in row-major order,
    freed once their upper triangle is built, before the graph is
    assembled."""
    pairs = np.concatenate([np.empty((0, 2), dtype=np.int64), *sample_edge_blocks(omega, seed)])
    upper = upper_triangle(omega.n, pairs)
    del pairs  # before the graph is assembled
    return Graph.from_upper(upper)


def sample_edge_blocks(omega: PopulationMatrix, seed: int) -> Iterator[np.ndarray]:
    """Draw independent Bernoulli(Omega[i, j]) edges for i < j, one block
    of rows at a time: yields each block's edges as a (b, 2) int64 array
    of pairs in strictly increasing row-major order, the blocks in
    increasing row order, so that the pairs of all blocks strictly
    increase too.

    Sampling is deterministic given ``seed``: one PCG64 generator serves
    the blocks of whole rows (up to ``SAMPLE_BLOCK`` pairs each, rows in
    increasing order) in turn. A block's pairs are numbered in row-major
    order (row i covers columns i+1 .. n-1), and its rates are bounded by
    ``r``, :meth:`PopulationMatrix.bound` of the block. Then the block
    takes one of two routes:

    - ``r > GATHER_SHARE``: one uniform per pair, in pair order; the pair
      is an edge when its uniform is below ``Omega[i, j]``.
    - otherwise: candidate pairs by geometric skips, the gap to the next
      candidate being ``floor(log1p(-u) / log1p(-r)) + 1`` for a uniform
      ``u``, so each pair is a candidate with probability ``r``,
      independently. Then one uniform ``u`` per candidate, and the
      candidate is an edge when ``u * r < Omega[i, j]``.

    Either way each pair is an edge with probability ``Omega[i, j]``,
    independently of every other pair. The skip route draws as many
    gaps as its candidates need, plus a batch margin, so the graph
    depends on the block partition (through ``r``) but its law does not.
    The bounds of all blocks take O(nK) work, computed before the first
    block is drawn (see :func:`_block_bounds`). Beside the factors of
    ``Omega`` the generator holds the blocks' starts and bounds, one
    number each, and one block of uniforms, rates and edges at a time, so
    ``Omega`` is never built as an n x n array and the drawn edges are
    never all held at once. The diagonal is never sampled.
    """
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    starts = _block_starts(omega.n)
    bounds = _block_bounds(omega, starts)
    for k in range(bounds.size):
        yield _sample_rows(omega, rng, int(starts[k]), int(starts[k + 1]), float(bounds[k]))


def _block_bounds(omega: PopulationMatrix, starts: np.ndarray) -> np.ndarray:
    """:meth:`PopulationMatrix.bound` of the rates ``Omega[r0:r1, r0+1:]``
    of each block of ``starts`` (see :func:`_block_starts`), bit for bit,
    as one float64 array, in O(nK) work for all blocks.

    A block needs the maxima of :func:`_bound_terms` over its rows and
    over its columns, the nodes from r0 + 1 on. The nodes r0 + 1 .. r1 of
    the blocks tile 1 .. n-1, so a block's column maxima are the maxima
    over its own such run and the column maxima of the next block. The
    terms are computed for runs of whole blocks of about ``SAMPLE_BLOCK``
    entries, from the last run back, and only the maxima at each block's
    start are carried, never terms of all n nodes at once."""
    blocks = starts.size - 1
    bounds = np.empty(blocks)
    pi, b = omega._pi_cols, omega._b_cols
    nodes = max(1, SAMPLE_BLOCK // (2 * pi.shape[0] + 2))
    # a run starts at each block whose first row opens a new stretch of
    # `nodes` rows; np.unique would import numpy.ma, about 1 MB
    cuts = np.append(np.flatnonzero(np.diff(starts[:-1] // nodes, prepend=-1)), blocks)
    tail = None  # column maxima of the block after the run
    for b0, b1 in zip(cuts[-2::-1].tolist(), cuts[:0:-1].tolist()):
        lo, hi = int(starts[b0]), int(starts[b1]) + 1
        terms = _bound_terms(pi[:, lo:hi], b[:, lo:hi])
        local = starts[b0:b1] - lo
        rows = np.maximum.reduceat(terms[:, :-1], local, axis=1)  # nodes r0 .. r1-1
        cols = np.maximum.reduceat(terms[:, 1:], local, axis=1)  # nodes r0+1 .. r1
        cols = np.maximum.accumulate(cols[:, ::-1], axis=1)[:, ::-1]
        if tail is not None:
            np.maximum(cols, tail[:, None], out=cols)
        tail = cols[:, 0]
        bounds[b0:b1] = _bound_from_maxima(rows, cols)
    return bounds


def _sample_rows(omega: PopulationMatrix, rng: np.random.Generator, r0: int, r1: int, bound: float) -> np.ndarray:
    """Edges (i, j), i < j, drawn for rows ``r0 .. r1-1`` whose rates are
    at most ``bound``, by the route :func:`sample_edge_blocks` describes. A
    function of its own, so that one block's arrays are freed before the
    next block's are made."""
    n = omega.n
    # pairs of row r0 + r start at flat position starts[r] of the block
    lengths = np.arange(n - 1 - r0, n - 1 - r1, -1)
    starts = np.cumsum(lengths) - lengths
    m = int(lengths.sum())
    if bound > GATHER_SHARE:
        hits = _block_hits(omega, rng.random(m), r0, r1)
        return np.column_stack(_pair_index(hits, starts, r0))
    i, j = _pair_index(_skip_candidates(rng, m, bound), starts, r0)
    # kept by index, not by mask: a mask whose bits fall at random
    # compresses several times slower
    keep = np.flatnonzero(rng.random(i.size) * bound < omega.entries(i, j))
    return np.column_stack([i[keep], j[keep]])


def _skip_candidates(rng: np.random.Generator, m: int, r: float) -> np.ndarray:
    """Sorted positions in ``[0, m)`` of a Bernoulli(r) process, from
    geometric gaps drawn by inversion. The gaps come in batches of the
    expected count of the pairs still ahead plus 4 standard deviations
    plus 16, and another batch is drawn only while pairs remain after the
    last position."""
    if r <= 0.0:
        return np.empty(0, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-r)  # -inf at r = 1, where every gap is 1
    found = []
    last = -1
    while last < m - 1:
        ahead = m - 1 - last
        mean = ahead * r
        batch = int(mean + 4.0 * np.sqrt(mean * (1.0 - r))) + 16
        gaps = np.floor(np.log1p(-rng.random(batch)) / log_q)
        # a gap of `ahead` already leaves the block; the cap keeps int64 exact
        np.minimum(gaps, ahead, out=gaps)
        positions = np.cumsum(gaps.astype(np.int64) + 1) + last
        found.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(found)
    return positions[:np.searchsorted(positions, m)]


def _pair_index(flat: np.ndarray, starts: np.ndarray, r0: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (i, j) of the pairs at sorted flat positions ``flat`` of the
    block of rows from ``r0`` whose row pairs start at ``starts``. The
    positions are sorted, so one search per row finds the row's run of
    them, rather than one search per position."""
    counts = np.diff(np.searchsorted(flat, starts), append=flat.size)
    rows = np.arange(r0, r0 + starts.size)
    # row i's pairs start at column i + 1
    return np.repeat(rows, counts), flat - np.repeat(starts - rows - 1, counts)


def _block_hits(omega: PopulationMatrix, u: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Flat positions of the block's edges, from all of its rates at once."""
    n = omega.n
    rates = omega.entries(slice(r0, r1), slice(r0 + 1, n))
    # block row r is node r0 + r; its pairs start at block column r
    upper = np.arange(n - r0 - 1) >= np.arange(r1 - r0)[:, None]
    return np.flatnonzero(u < rates[upper])


def _layout_fault(n: int, K: int, n0: int, profile: str) -> str | None:
    """Why ``n`` nodes cannot take ``K`` pure blocks of ``n0`` and
    ``profile``'s mixed rows, or None when they can."""
    if K < 1 or n < 1 or n0 < 0:
        return f"invalid sizes n={n}, K={K}, n0={n0}"
    if K * n0 > n:
        return f"K*n0 = {K * n0} exceeds n = {n}"
    if profile == "four-profiles" and K != 3:
        return "four-profiles requires K = 3"
    return None


def planted_memberships(n: int, K: int, n0: int, mixed_profile: str, seed: int = 0) -> MembershipMatrix:
    """Benchmark membership layout: pure blocks first, then mixed rows.

    The first ``K * n0`` rows are pure, in ``K`` contiguous blocks of
    ``n0`` (community k owns rows ``k*n0 .. (k+1)*n0 - 1``). Remaining
    rows follow ``mixed_profile``:

    - ``"four-profiles"`` (K=3 only): the four rows (0.4, 0.4, 0.2),
      (0.4, 0.2, 0.4), (0.2, 0.4, 0.4) and (1/3, 1/3, 1/3) in equal
      counts; when the mixed count is not divisible by 4 the uniform
      profile absorbs the remainder.
    - ``"uniform"``: every mixed row equals 1/K in each community.
    - ``"random-half"``: seeded; the first K-1 entries are independent
      draws from (0, 1/(K-1)] and the last entry takes the remainder.
      For K=3 this is two entries in (0, 0.5] plus the remainder; for K=1
      every mixed row is 1.

    ``ValueError`` names an unknown profile or the :func:`_layout_fault`
    of the sizes (four-profiles at K != 3 even when every row is pure),
    in the words of the sweep's ``validate`` skips.
    """
    if fault := _layout_fault(n, K, n0, mixed_profile):
        raise ValueError(fault)
    if mixed_profile not in PROFILES:
        raise ValueError(f"unknown profile {mixed_profile!r}; choose from {PROFILES}")

    lo = K * n0
    n_mixed = n - lo
    w = np.zeros((n, K))
    for k in range(K):
        w[k * n0:(k + 1) * n0, k] = 1.0
    if mixed_profile == "four-profiles":
        count = n_mixed // 4
        w[lo:] = np.repeat(_FOUR_PROFILES, [count, count, count, n_mixed - 3 * count], axis=0)
    elif mixed_profile == "uniform":
        w[lo:] = 1.0 / K
    else:  # random-half
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        # (1 - u) maps [0, 1) onto (0, 1], keeping entries strictly positive
        head = (1.0 - rng.random((n_mixed, K - 1))) / (K - 1)
        w[lo:, :K - 1] = head
        w[lo:, K - 1] = 1.0 - head.sum(axis=1)
    return MembershipMatrix(w)
