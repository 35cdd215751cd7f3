"""Error metrics, network summary statistics, and a concentration
diagnostic for the regularized Laplacian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Graph, MembershipMatrix, PopulationMatrix, _readonly
from .spectral import _regularized_degrees, regularized_laplacian


@dataclass(frozen=True)
class ErrorReport:
    """Permutation-minimized l1 membership error.

    ``error`` is ``min_perm (1/n) * sum_i ||PiHat[:, perm](i,:) - Pi(i,:)||_1``
    and lies in [0, 2]. ``permutation`` is the minimizing column order
    (column k of the aligned estimate is ``pi_hat[:, permutation[k]]``)
    and ``per_node`` holds each node's l1 deviation under it.
    """

    error: float
    permutation: tuple[int, ...]
    per_node: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_node", _readonly(self.per_node))
        object.__setattr__(self, "permutation", tuple(int(k) for k in self.permutation))


@dataclass(frozen=True)
class NetworkStats:
    """Summary row: node count, community count if known, mean degree,
    edge density, and the proportion of mixed-membership nodes."""

    n: int
    K: int | None
    mean_degree: float
    density: float
    overlap: float | None


def mixed_hamming_error(pi_hat: MembershipMatrix, pi: MembershipMatrix) -> ErrorReport:
    """Smallest mean row-l1 difference between estimate and truth over
    all column permutations.

    The search is exact: the total l1 difference decomposes into a sum of
    per-column-pair distances, so the best permutation is the linear
    assignment on a precomputed K x K table, which
    ``scipy.optimize.linear_sum_assignment`` solves in O(K^3).
    """
    # imported here, as in corners.py: generate never scores an estimate
    from scipy.optimize import linear_sum_assignment

    if pi_hat.n != pi.n or pi_hat.K != pi.K:
        raise ValueError(
            f"shape mismatch: estimate is {pi_hat.n}x{pi_hat.K}, truth is {pi.n}x{pi.K}"
        )
    a = pi_hat.weights
    b = pi.weights
    # pair_cost[j, k] = sum_i |a[i, j] - b[i, k]|, one estimate column at a
    # time in O(nK) scratch. Each sum runs over i in the order numpy reduces
    # the K x K x n broadcast (whose i axis it lays out outermost), so the
    # table is the same to the bit
    pair_cost = np.empty((pi.K, pi.K))
    diff = np.empty_like(b)
    for j in range(pi.K):
        np.subtract(a[:, j:j + 1], b, out=diff)
        pair_cost[j] = np.abs(diff, out=diff).sum(axis=0)
    truth_cols, perm = linear_sum_assignment(pair_cost.T)
    best_cost = pair_cost[perm, truth_cols].sum()
    np.subtract(a[:, perm], b, out=diff)
    per_node = np.abs(diff, out=diff).sum(axis=1)
    return ErrorReport(error=float(best_cost / pi.n), permutation=perm, per_node=per_node)


def network_stats(graph: Graph, pi: MembershipMatrix | None = None) -> NetworkStats:
    """Node count, mean degree, density, and overlap proportion.

    A node counts as mixed when :meth:`MembershipMatrix.pure_mask` is
    false for it. ``K`` and ``overlap`` are None without memberships.
    """
    n = graph.n
    degrees = graph.degrees()
    mean_degree = float(degrees.mean()) if n else 0.0
    density = float(degrees.sum() / (n * (n - 1))) if n > 1 else 0.0
    k = overlap = None
    if pi is not None:
        if pi.n != n:
            raise ValueError(f"memberships cover {pi.n} nodes but the graph has {n}")
        k = pi.K
        overlap = float((~pi.pure_mask()).mean())
    return NetworkStats(n=n, K=k, mean_degree=mean_degree, density=density, overlap=overlap)


def laplacian_concentration(graph: Graph, omega: PopulationMatrix, tau: float) -> float:
    """Spectral norm of the difference between the sampled and expected
    regularized Laplacians, both dense (the sampled CSR Laplacian through
    ``toarray``), via a symmetric eigendecomposition."""
    if graph.n != omega.n:
        raise ValueError(f"graph has {graph.n} nodes but the expected adjacency has {omega.n}")
    sampled = regularized_laplacian(graph, tau)[1].toarray()
    scale = 1.0 / np.sqrt(_regularized_degrees(omega.degrees(), tau))
    expected = scale[:, None] * omega.matrix * scale[None, :]
    eigenvalues = np.linalg.eigvalsh(sampled - (expected + expected.T) / 2.0)
    return float(np.abs(eigenvalues).max())
