import math

import numpy as np
import pytest
import scipy.sparse as sp

from mmsbkit import (
    Graph,
    NumericalError,
    PopulationMatrix,
    RegularizedLaplacian,
    default_tau,
    leading_eigenpairs,
    normalize_rows,
    regularized_laplacian,
    sample_adjacency,
    scale_rows_by_degree,
)
from mmsbkit.spectral import _leading_positions
from conftest import pure_corner_indices, three_block_setup


def two_path_graph():
    return Graph.from_edges(2, np.array([[0, 1]]))


class TestDefaultTau:
    def test_log_identity(self):
        n = round(math.e ** 10)
        assert default_tau(n) == pytest.approx(1.0, abs=1e-4)

    def test_frozen_values(self):
        assert default_tau(1000) == pytest.approx(0.6907755278982137, abs=1e-15)
        assert default_tau(2) == pytest.approx(0.06931471805599453, abs=1e-15)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            default_tau(1)


class TestRegularizedLaplacian:
    def test_two_node_tau_zero(self):
        lap = regularized_laplacian(two_path_graph(), 0.0)
        assert np.allclose(lap.matrix, [[0, 1], [1, 0]], atol=1e-15)

    def test_two_node_tau_two(self):
        lap = regularized_laplacian(two_path_graph(), 2.0)
        assert np.allclose(lap.matrix, [[0, 1 / 3], [1 / 3, 0]], atol=1e-15)

    def test_identity_population(self):
        lap = regularized_laplacian(PopulationMatrix(np.eye(2)), 0.0)
        assert np.allclose(lap.matrix, np.eye(2), atol=1e-15)

    def test_entry_formula(self):
        g = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
        tau = 0.7
        lap = regularized_laplacian(g, tau)
        d = g.degrees()
        a = g.dense()
        expected = a / np.sqrt(np.outer(d + tau, d + tau))
        assert np.allclose(lap.matrix, expected, atol=1e-15)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="nonnegative"):
            regularized_laplacian(two_path_graph(), -0.5)

    def test_rejects_isolated_node_at_tau_zero(self):
        g = Graph.from_edges(3, np.array([[0, 1]]))
        with pytest.raises(NumericalError, match="zero regularized degree"):
            regularized_laplacian(g, 0.0)


class TestLeadingEigenpairs:
    def diag_lap(self, values):
        return RegularizedLaplacian(tau=0.0, dtau=np.ones(len(values)), matrix=np.diag(values))

    def test_diagonal_case_orders_by_magnitude(self):
        basis = leading_eigenpairs(self.diag_lap([0.9, -0.5, 0.1]), 2)
        assert np.allclose(basis.eigenvalues, [0.9, -0.5])
        assert np.allclose(np.abs(basis.vectors), np.eye(3)[:, :2], atol=1e-12)

    def test_magnitude_tie_prefers_positive(self):
        basis = leading_eigenpairs(self.diag_lap([-0.5, 0.5]), 1)
        assert basis.eigenvalues[0] == pytest.approx(0.5)

    def test_rounding_tie_prefers_positive(self):
        basis = leading_eigenpairs(self.diag_lap([-0.5000000000000004, 0.5]), 1)
        assert basis.eigenvalues[0] == 0.5

    def test_population_rank_three(self, small_omega):
        # exactly K = 3 eigenvalues carry magnitude above the rank cutoff
        lap = regularized_laplacian(small_omega, default_tau(small_omega.n))
        basis = leading_eigenpairs(lap, 4)
        assert abs(basis.eigenvalues[2]) > 1e-10
        assert abs(basis.eigenvalues[3]) < 1e-10

    def test_graph_spectrum_within_unit_interval(self, small_graph):
        for tau in (0.0, default_tau(small_graph.n)):
            lap = regularized_laplacian(small_graph, tau)
            basis = leading_eigenpairs(lap, small_graph.n)
            assert np.abs(basis.eigenvalues).max() <= 1.0 + 1e-10

    def test_population_top_eigenvalue_bound(self, small_omega):
        dmax = small_omega.degrees().max()
        for tau in (0.0, 2.0, 20.0):
            lap = regularized_laplacian(small_omega, tau)
            basis = leading_eigenpairs(lap, 1)
            assert basis.eigenvalues[0] <= dmax / (tau + dmax) + 1e-10

    def test_residuals_and_orthonormality(self, small_graph):
        lap = regularized_laplacian(small_graph, 1.0)
        basis = leading_eigenpairs(lap, 5)
        residual = np.linalg.norm(
            lap.matrix @ basis.vectors - basis.vectors * basis.eigenvalues, axis=0
        )
        assert residual.max() <= 1e-8
        assert np.abs(basis.vectors.T @ basis.vectors - np.eye(5)).max() <= 1e-8

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            leading_eigenpairs(self.diag_lap([0.1, 0.2]), 3)


class TestScaleRowsByDegree:
    def test_identity_scaling(self):
        lap = RegularizedLaplacian(tau=0.0, dtau=np.ones(2), matrix=np.zeros((2, 2)))
        from mmsbkit.spectral import SpectralBasis

        basis = SpectralBasis(eigenvalues=np.array([1.0, 0.5]), vectors=np.eye(2))
        assert np.array_equal(scale_rows_by_degree(basis, lap), np.eye(2))

    def test_sqrt_degree_scaling(self):
        from mmsbkit.spectral import SpectralBasis

        lap = RegularizedLaplacian(tau=0.0, dtau=np.array([4.0, 9.0]), matrix=np.zeros((2, 2)))
        basis = SpectralBasis(eigenvalues=np.array([1.0, 0.5]), vectors=np.eye(2))
        assert np.allclose(scale_rows_by_degree(basis, lap), np.diag([2.0, 3.0]))

    def test_ideal_rows_factor_through_memberships(self):
        # degree-scaled population eigenvector rows equal Pi times the
        # corner rows taken at one pure node per community
        pi, _, omega = three_block_setup(n=150, n0=30)
        lap = regularized_laplacian(omega, default_tau(150))
        basis = leading_eigenpairs(lap, 3)
        scaled = scale_rows_by_degree(basis, lap)
        corners = pure_corner_indices(pi)
        assert np.abs(scaled - pi.weights @ scaled[corners]).max() <= 1e-8


class TestNormalizeRows:
    def test_unit_rows_unchanged(self):
        m = np.eye(3)
        out, factors = normalize_rows(m)
        assert np.array_equal(out, m)
        assert np.array_equal(factors, np.ones(3))

    def test_three_four_five(self):
        out, factors = normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]])
        assert factors[0] == pytest.approx(0.2)

    def test_zero_row_raises(self):
        with pytest.raises(NumericalError, match="zero norm"):
            normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_equal_membership_rows_coincide(self):
        pi, _, omega = three_block_setup(n=90, n0=18)
        lap = regularized_laplacian(omega, default_tau(90))
        basis = leading_eigenpairs(lap, 3)
        normalized, _ = normalize_rows(basis.vectors)
        # rows 0 and 1 are pure members of the same community
        assert np.abs(normalized[0] - normalized[1]).max() <= 1e-10


class TestSampledSpectrumSweep:
    def test_bound_across_taus_and_seeds(self):
        _, _, omega = three_block_setup(n=80, n0=16, rho=0.8)
        base = default_tau(80)
        for seed in range(5):
            g = sample_adjacency(omega, seed)
            for tau in (0.0, base, 10 * base):
                lap = regularized_laplacian(g, tau)
                vals = np.linalg.eigvalsh(lap.matrix)
                assert np.abs(vals).max() <= 1.0 + 1e-10


def ranked_dense_pairs(lap, K):
    """Reference: full dense eigendecomposition under the documented
    ranking (|lambda| descending with rounding ties, positive first, then
    position)."""
    vals, vecs = np.linalg.eigh(lap.matrix)
    take = _leading_positions(vals, K)
    return vals[take], vecs[:, take]


def assert_matches_dense(lap, K):
    basis = leading_eigenpairs(lap, K)
    vals, vecs = ranked_dense_pairs(lap, K)
    assert np.abs(basis.eigenvalues - vals).max() <= 1e-12
    assert np.abs(basis.vectors @ basis.vectors.T - vecs @ vecs.T).max() <= 1e-10


class TestSparseSolverMatchesDense:
    def cases(self):
        """Seeded graphs with every regularizer they admit. The last graph
        has five isolated nodes, where tau = 0 is undefined."""
        graphs = []
        for rho in (0.05, 0.8):
            _, _, omega = three_block_setup(n=300, n0=60, rho=rho, seed=4)
            graphs.append(sample_adjacency(omega, 9))
        base = default_tau(300)
        for graph in graphs:
            for tau in (0.0, base, 10 * base):
                yield graph, tau
        isolated = Graph.from_edges(305, graphs[0].edges())
        assert (isolated.degrees() == 0).sum() >= 5
        for tau in (base, 10 * base):
            yield isolated, tau

    @pytest.mark.parametrize("K", [1, 3])
    def test_pairs_match_dense_eigh(self, K):
        for graph, tau in self.cases():
            lap = regularized_laplacian(graph, tau)
            assert sp.issparse(lap.operator)
            assert_matches_dense(lap, K)

    @pytest.mark.parametrize(
        "detached, tau, K",
        [(1, 0.0, 2), (3, 0.0, 4), (3, default_tau(300), 4), ("copies", 0.5, 2)],
    )
    def test_repeated_leading_eigenvalue_matches_dense(self, detached, tau, K):
        # With tau = 0 every connected component has eigenvalue 1, every
        # detached edge adds the pair +-1/(1 + tau), and identical
        # components repeat their spectrum; one Lanczos start vector sees
        # only one vector of each repeated eigenspace.
        if detached == "copies":
            path = [(i, i + 1) for i in range(19)] + [(0, 5)]
            graph = Graph.from_edges(40, np.array(path + [(a + 20, b + 20) for a, b in path]))
        else:
            _, _, omega = three_block_setup(n=300, n0=60, rho=0.5, profile="random-half", seed=4)
            giant = sample_adjacency(omega, 9).edges()
            pairs = 300 + np.arange(2 * detached).reshape(-1, 2)
            graph = Graph.from_edges(300 + 2 * detached, np.vstack([giant, pairs]))
        assert_matches_dense(regularized_laplacian(graph, tau), K)

    @pytest.mark.parametrize(
        "n, edges, K",
        [(4, [], 2), (5, [(2, 4)], 1), (4, [(0, 1), (0, 2), (0, 3)], 2)],
    )
    def test_low_rank_laplacian_matches_dense(self, n, edges, K):
        # an edgeless graph gives the zero operator; a detached edge or a
        # star has rank 2, so nothing is left once the pairs are deflated
        graph = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        assert_matches_dense(regularized_laplacian(graph, 0.7), K)

    def test_mirror_symmetric_path_matches_dense(self):
        # the antisymmetric eigenvector of a path is orthogonal to the
        # all-ones vector, so a Lanczos run started there misses it
        n = 38
        path = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        assert_matches_dense(regularized_laplacian(Graph.from_edges(n, path), 0.5), 2)

    @pytest.mark.parametrize("n", [20, 40])
    def test_even_cycle_tie_prefers_positive(self, n):
        # eigenvalues +-0.8 tie in magnitude; only K+1 pairs reveal both
        ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
        lap = regularized_laplacian(Graph.from_edges(n, ring), 0.5)
        basis = leading_eigenpairs(lap, 1)
        assert basis.eigenvalues[0] == pytest.approx(0.8, abs=1e-12)

    def test_arpack_failure_is_numerical_error(self, small_graph, arpack_fails):
        lap = regularized_laplacian(small_graph, 1.0)
        with pytest.raises(NumericalError, match="Lanczos"):
            leading_eigenpairs(lap, 3)
