import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from mmsbkit import (
    BlockModel,
    Graph,
    NumericalError,
    build_population_matrix,
    default_tau,
    diag_off_block,
    ideal_crsc,
    ideal_srsc,
    leading_eigenpairs,
    mixed_hamming_error,
    negative_eig_block,
    planted_memberships,
    population_eigenpairs,
    regularized_laplacian,
    sample_adjacency,
)
from mmsbkit import spectral
from mmsbkit.io_formats import read_edge_list, write_edge_blocks
from mmsbkit.spectral import _leading_positions
from mmsbkit.sweep import STREAM_SPLIT
from conftest import dense_omega, pure_corner_indices, three_block_setup


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
        _, lap = regularized_laplacian(two_path_graph(), 0.0)
        assert np.allclose(lap.toarray(), [[0, 1], [1, 0]], atol=1e-15)

    def test_two_node_tau_two(self):
        _, lap = regularized_laplacian(two_path_graph(), 2.0)
        assert np.allclose(lap.toarray(), [[0, 1 / 3], [1 / 3, 0]], atol=1e-15)

    def test_identity_population(self):
        dtau, basis = population_eigenpairs(dense_omega(np.eye(2)), 2, 0.0)
        assert np.array_equal(dtau, [1.0, 1.0])
        assert np.allclose(basis.eigenvalues, [1.0, 1.0], atol=1e-15)
        assert np.allclose(basis.projector, np.eye(2), atol=1e-15)

    def test_entry_formula(self):
        g = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
        tau = 0.7
        _, lap = regularized_laplacian(g, tau)
        d = g.degrees()
        a = g.adjacency.toarray()
        expected = a / np.sqrt(np.outer(d + tau, d + tau))
        assert np.allclose(lap.toarray(), expected, atol=1e-15)

    def test_returns_the_regularized_degrees(self):
        g = Graph.from_edges(4, np.array([[0, 1], [1, 2], [1, 3]]))
        dtau, lap = regularized_laplacian(g, 0.7)
        assert np.array_equal(dtau, g.degrees() + 0.7)
        assert lap.format == "csr" and lap.shape == (4, 4) and lap.nnz == 6
        assert not dtau.flags.writeable

    @pytest.mark.parametrize("tau", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="finite"):
            regularized_laplacian(two_path_graph(), tau)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="nonnegative"):
            regularized_laplacian(two_path_graph(), -0.5)

    def test_rejects_isolated_node_at_tau_zero(self):
        g = Graph.from_edges(3, np.array([[0, 1]]))
        with pytest.raises(NumericalError, match="zero regularized degree"):
            regularized_laplacian(g, 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_graph_laplacian_is_symmetric_bit_for_bit(self, seed):
        # nothing checks the Laplacian's symmetry, so it must hold exactly;
        # the extra nodes are isolated, which tau = 0 does not admit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        pairs = rng.integers(0, n, size=(int(rng.integers(n, 4 * n)), 2))
        graph = Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
        isolated = Graph.from_edges(n + 3, graph.edges())
        cases = [(isolated, tau) for tau in (0.1, default_tau(n + 3), 7.0)]
        if graph.degrees().min() > 0:
            cases.append((graph, 0.0))
        for g, tau in cases:
            _, op = regularized_laplacian(g, tau)
            assert sp.issparse(op) and (op != op.T).nnz == 0

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_chunked_entries_equal_the_whole_formula(self, monkeypatch, chunk):
        # chunks of rows, a row longer than a chunk included, give the bits
        # of the one-shot product; the isolated nodes make empty rows
        monkeypatch.setattr(spectral, "LAPLACIAN_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        pairs = rng.integers(0, 40, size=(300, 2))
        graph = Graph.from_edges(45, pairs[pairs[:, 0] != pairs[:, 1]])
        a = graph.adjacency
        scale = 1.0 / np.sqrt(graph.degrees() + 0.3)
        want = np.repeat(scale, np.diff(a.indptr)) * scale[a.indices]
        assert np.array_equal(regularized_laplacian(graph, 0.3)[1].data, want)

    def test_read_and_laplacian_hold_each_entry_array_once(self, tmp_path):
        # The graph holds 4 bytes per stored entry, its int32 index, and
        # its Laplacian 8 more, its float64 value, beside the graph's own
        # index arrays. Reading the writer's file and building the
        # Laplacian may trace 14 bytes per entry plus 2 MiB of O(n) arrays
        # and bounded chunks; holding the parsed pairs, a transposed copy,
        # a whole-array temporary or an array of the adjacency's ones
        # beside them exceeds it.
        n = 1500
        rng = np.random.default_rng(11)
        i, j = np.triu_indices(n, 1)
        keep = rng.random(i.size) < 0.5
        path = tmp_path / "g.edgelist"
        write_edge_blocks(n, [np.column_stack([i[keep], j[keep]])], path)
        del i, j, keep
        tracemalloc.start()
        try:
            graph = read_edge_list(path)
            dtau, op = regularized_laplacian(graph, default_tau(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nnz = graph.indices.size
        assert graph.indices.dtype == np.int32
        assert peak <= 14 * nnz + (2 << 20)
        stored = sum(v.nbytes for v in vars(graph).values() if isinstance(v, np.ndarray))
        assert stored <= 5 * nnz + 8 * (n + 1)
        assert not any(part.flags.writeable for part in (graph.indices, graph.indptr))
        assert np.shares_memory(op.indices, graph.indices) and np.shares_memory(op.indptr, graph.indptr)
        # the Laplacian's own arrays are frozen in place
        assert not any(part.flags.writeable for part in (dtau, op.data))
        # the adjacency is built on access: float64 ones over the pattern
        a = graph.adjacency
        assert a.data.dtype == np.float64 and (a.data == 1.0).all() and a.nnz == nnz
        assert not any(part.flags.writeable for part in (a.data, a.indices, a.indptr))
        assert np.shares_memory(a.indices, graph.indices) and np.shares_memory(a.indptr, graph.indptr)
        # the checked constructor copies: the caller's matrix stays writable
        mine = a.copy()
        checked = Graph(mine)
        assert all(part.flags.writeable for part in (mine.data, mine.indices, mine.indptr))
        assert not checked.indices.flags.writeable and not np.shares_memory(checked.indices, mine.indices)
        assert (checked.adjacency != a).nnz == 0


class TestLeadingEigenpairs:
    def diag_lap(self, values):
        return sp.csr_matrix(np.diag(values))

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
        # the K = 3 eigenvalues carry magnitude above the rank cutoff, and
        # the factors allow no fourth
        tau = default_tau(small_omega.n)
        _, basis = population_eigenpairs(small_omega, 3, tau)
        assert np.abs(basis.eigenvalues).min() > 1e-10
        with pytest.raises(NumericalError, match="not rank 4"):
            population_eigenpairs(small_omega, 4, tau)

    def test_graph_spectrum_within_unit_interval(self, small_graph):
        for tau in (0.0, default_tau(small_graph.n)):
            _, lap = regularized_laplacian(small_graph, tau)
            basis = leading_eigenpairs(lap, small_graph.n)
            assert np.abs(basis.eigenvalues).max() <= 1.0 + 1e-10

    def test_population_top_eigenvalue_bound(self, small_omega):
        dmax = small_omega.degrees().max()
        for tau in (0.0, 2.0, 20.0):
            _, basis = population_eigenpairs(small_omega, 1, tau)
            assert basis.eigenvalues[0] <= dmax / (tau + dmax) + 1e-10

    def test_projector_is_formed_once_and_read_only(self, small_graph):
        basis = leading_eigenpairs(regularized_laplacian(small_graph, 1.0)[1], 3)
        projector = basis.projector
        assert projector is basis.projector
        assert not projector.flags.writeable
        assert np.array_equal(projector, basis.vectors @ basis.vectors.T)

    def test_residuals_and_orthonormality(self, small_graph):
        _, lap = regularized_laplacian(small_graph, 1.0)
        basis = leading_eigenpairs(lap, 5)
        residual = np.linalg.norm(
            lap.toarray() @ basis.vectors - basis.vectors * basis.eigenvalues, axis=0
        )
        assert residual.max() <= 1e-8
        assert np.abs(basis.vectors.T @ basis.vectors - np.eye(5)).max() <= 1e-8

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            leading_eigenpairs(self.diag_lap([0.1, 0.2]), 3)
        # a matrix that is not square, on the Lanczos route (K = 1) and on
        # the dense route (K + 1 >= n)
        wide = sp.csr_matrix(np.ones((40, 39)))
        for K in (1, 39):
            with pytest.raises(ValueError, match="square"):
                leading_eigenpairs(wide, K)


class TestScaleRowsByDegree:
    def test_ideal_rows_factor_through_memberships(self):
        # degree-scaled population eigenvector rows equal Pi times the
        # corner rows taken at one pure node per community
        pi, _, omega = three_block_setup(n=150, n0=30)
        dtau, basis = population_eigenpairs(omega, 3, default_tau(150))
        scaled = np.sqrt(dtau)[:, None] * basis.vectors
        corners = pure_corner_indices(pi)
        assert np.abs(scaled - pi.weights @ scaled[corners]).max() <= 1e-8


class TestSampledSpectrumSweep:
    def test_bound_across_taus_and_seeds(self):
        _, _, omega = three_block_setup(n=80, n0=16, rho=0.8)
        base = default_tau(80)
        for seed in range(5):
            g = sample_adjacency(omega, seed)
            for tau in (0.0, base, 10 * base):
                _, lap = regularized_laplacian(g, tau)
                vals = np.linalg.eigvalsh(lap.toarray())
                assert np.abs(vals).max() <= 1.0 + 1e-10


def ranked_dense_pairs(lap, K):
    """Reference: full dense eigendecomposition under the documented
    ranking (|lambda| descending with rounding ties, positive first, then
    position)."""
    vals, vecs = np.linalg.eigh(lap.toarray())
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

    @pytest.mark.parametrize("K", [1, 3, 4])
    def test_pairs_match_dense_eigh(self, K):
        for graph, tau in self.cases():
            assert_matches_dense(regularized_laplacian(graph, tau)[1], K)

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
        assert_matches_dense(regularized_laplacian(graph, tau)[1], K)

    @pytest.mark.parametrize(
        "n, edges, K",
        [(4, [], 2), (5, [(2, 4)], 1), (4, [(0, 1), (0, 2), (0, 3)], 2)],
    )
    def test_low_rank_laplacian_matches_dense(self, n, edges, K):
        # an edgeless graph gives the zero operator; a detached edge or a
        # star has rank 2, so nothing is left once the pairs are deflated
        graph = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        assert_matches_dense(regularized_laplacian(graph, 0.7)[1], K)

    def test_stored_zeros_take_the_dense_route(self, eigsh_runs):
        # two explicitly stored zeros are an all-zero operator, as an
        # edgeless one is: no Lanczos run, zero eigenpairs
        m = sp.csr_matrix((np.zeros(2), ([0, 1], [1, 0])), shape=(6, 6))
        assert m.nnz == 2
        assert_matches_dense(m, 2)
        assert np.array_equal(leading_eigenpairs(m, 2).eigenvalues, [0.0, 0.0])
        assert eigsh_runs == []

    def test_mirror_symmetric_path_matches_dense(self):
        # the antisymmetric eigenvector of a path is orthogonal to the
        # all-ones vector, so a Lanczos run started there misses it
        n = 38
        path = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        assert_matches_dense(regularized_laplacian(Graph.from_edges(n, path), 0.5)[1], 2)

    @pytest.mark.parametrize("n", [20, 40])
    def test_even_cycle_tie_prefers_positive(self, n):
        # eigenvalues +-0.8 tie in magnitude; Lanczos for one pair finds one
        # of them and the deflation run sees the other
        ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
        _, lap = regularized_laplacian(Graph.from_edges(n, ring), 0.5)
        basis = leading_eigenpairs(lap, 1)
        assert basis.eigenvalues[0] == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("K", [2, 4])
    def test_exact_tie_at_cut_prefers_positive(self, K):
        # a 10-clique puts 9/9.5 on top; a 20-node path is bipartite, so
        # its simple eigenvalues come in exact +-mu pairs, and the pair
        # K-1 of them meets at the cut
        clique = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        path = [(i, i + 1) for i in range(10, 29)]
        _, lap = regularized_laplacian(Graph.from_edges(30, np.array(clique + path)), 0.5)
        assert_matches_dense(lap, K)
        basis = leading_eigenpairs(lap, K)
        mu = basis.eigenvalues[-1]
        assert mu > 0
        assert np.abs(np.linalg.eigvalsh(lap.toarray()) + mu).min() <= 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_tie_at_cut_matches_dense(self, sign):
        # the 3rd and 4th magnitudes are 1e-5 apart relative: a tie that
        # only the deflation run's 1e-6 stage resolves, and that the
        # ranking still sees (TIE_TOL); either sign of the pair may lead
        lap = self.rotated_spectrum(sign * 1e-5)
        assert_matches_dense(lap, 3)
        expected = 0.5 if sign > 0 else -0.5 * (1.0 + 1e-5)
        assert leading_eigenpairs(lap, 3).eigenvalues[-1] == pytest.approx(expected, abs=1e-12)

    def test_separated_graph_stays_on_lanczos(self, monkeypatch):
        # the cluster-dense recipe at n=600: a clear gap after the 3rd
        # magnitude, so the deflation run certifies the cut and the dense
        # fallback is never reached
        _, _, omega = three_block_setup(n=600, n0=120, diag=0.8, off=0.1, rho=1.0, profile="random-half", seed=5)
        _, lap = regularized_laplacian(sample_adjacency(omega, 5), default_tau(600))

        def eigh(*args, **kwargs):
            raise AssertionError("dense eigh reached")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        basis = leading_eigenpairs(lap, 3)
        residual = np.linalg.norm(lap @ basis.vectors - basis.vectors * basis.eigenvalues, axis=0)
        assert residual.max() <= 1e-8

    @pytest.fixture
    def eigsh_runs(self, monkeypatch):
        """Every Lanczos run, in order: its ``tol`` (0 is ARPACK's
        machine-precision default), ``ncv``, start vector, generator state
        on entry, and result."""
        import scipy.sparse.linalg

        seen, eigsh = [], scipy.sparse.linalg.eigsh

        def spy(*args, **kwargs):
            run = {
                "tol": kwargs.get("tol", 0),
                "ncv": kwargs.get("ncv"),
                "v0": np.array(kwargs["v0"]),
                "rng": kwargs["rng"].bit_generator.state,
            }
            run["result"] = eigsh(*args, **kwargs)
            seen.append(run)
            return run["result"]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
        return seen

    @staticmethod
    def rotated_spectrum(gap):
        """An 80 x 80 CSR Laplacian with magnitudes 0.9, 0.7, 0.5 on top,
        a 4th at ``0.5 * (1 - gap)`` and a bulk within 0.3."""
        rng = np.random.default_rng(7)
        n = 80
        values = np.concatenate([[0.9, -0.7, 0.5, -0.5 * (1.0 - gap)], rng.uniform(-0.3, 0.3, n - 4)])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * values) @ q.T
        return sp.csr_matrix((m + m.T) / 2.0)

    def test_clear_gap_is_certified_at_the_first_stage(self, eigsh_runs):
        _, _, omega = three_block_setup(n=600, n0=120, diag=0.8, off=0.1, rho=1.0, profile="random-half", seed=5)
        _, lap = regularized_laplacian(sample_adjacency(omega, 5), default_tau(600))
        assert spectral._lanczos_pairs(lap, 3) is not None
        assert [run["tol"] for run in eigsh_runs] == [0, 0.1]
        assert eigsh_runs[1]["ncv"] == 6

    def test_five_percent_gap_fails_the_screen_and_clears_at_1e_2(self, eigsh_runs):
        # 0.475 grown by 10% reaches 0.5, grown by 1% does not
        lap = self.rotated_spectrum(0.05)
        assert_matches_dense(lap, 3)
        assert [run["tol"] for run in eigsh_runs] == [0, 0.1, 1e-2]

    @pytest.mark.parametrize("gap", [1e-3, 1e-5])
    def test_near_tie_reaches_the_fine_stage_and_matches_dense(self, eigsh_runs, gap):
        # a relative gap of 1e-3 at the cut is below what the screen and
        # the 1e-2 stage resolve, and the 1e-4 stage clears it; a gap of
        # 1e-5 needs the 1e-6 stage
        lap = self.rotated_spectrum(gap)
        assert_matches_dense(lap, 3)
        fine = [1e-4] if gap >= 1e-4 else [1e-4, 1e-6]
        assert [run["tol"] for run in eigsh_runs] == [0, 0.1, 1e-2, *fine]
        assert spectral._lanczos_pairs(lap, 3) is not None

    @pytest.mark.parametrize("gap", [1e-7, 1e-9])
    def test_gap_below_the_last_stage_falls_back_to_dense(self, eigsh_runs, gap):
        lap = self.rotated_spectrum(gap)
        assert spectral._lanczos_pairs(lap, 3) is None
        assert [run["tol"] for run in eigsh_runs] == [0, 0.1, 1e-2, 1e-4, 1e-6]
        assert_matches_dense(lap, 3)

    def test_each_stage_starts_from_the_last_ritz_vector(self, eigsh_runs):
        lap = self.rotated_spectrum(1e-7)
        assert spectral._lanczos_pairs(lap, 3) is None
        main, *stages = eigsh_runs
        assert [run["ncv"] for run in stages] == [6, None, None, None]
        assert not np.array_equal(stages[0]["v0"], main["v0"])
        for before, after in zip(stages, stages[1:]):
            _, ritz = before["result"]
            assert np.array_equal(after["v0"], ritz[:, 0])
            # each stage draws the same restart vectors
            assert after["rng"] == stages[0]["rng"]

    @pytest.mark.parametrize("rho, trials", [(0.01, (0, 1)), (0.2, (0, 2))])
    def test_sweep_graphs_with_a_narrow_cut_match_dense(self, eigsh_runs, rho, trials):
        # the sweep recipe (n=500, base seed 1): every one of these graphs
        # has a relative gap at the cut below 1e-2, so the certificate runs
        # the warm-started stages before it clears on Lanczos
        for trial in trials:
            _, _, omega = three_block_setup(n=500, n0=100, rho=rho, seed=1 ^ trial)
            _, lap = regularized_laplacian(sample_adjacency(omega, (1 ^ trial) ^ STREAM_SPLIT), default_tau(500))
            eigsh_runs.clear()
            assert spectral._lanczos_pairs(lap, 3) is not None
            assert [run["tol"] for run in eigsh_runs][:3] == [0, 0.1, 1e-2]
            assert_matches_dense(lap, 3)

    def test_dense_fallback_that_cannot_fit_is_numerical_error(self, small_graph, monkeypatch):
        _, lap = regularized_laplacian(small_graph, 1.0)
        monkeypatch.setattr(spectral, "_lanczos_pairs", lambda op, K: None)
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 8 * 120 * 120 - 1)

        def toarray(*args, **kwargs):
            raise AssertionError("densified")

        monkeypatch.setattr(sp.csr_matrix, "toarray", toarray)
        with pytest.raises(NumericalError, match=f"n=120 needs {8 * 120 * 120} bytes"):
            leading_eigenpairs(lap, 3)

    def test_dense_fallback_that_fits_runs(self, small_graph, monkeypatch):
        _, lap = regularized_laplacian(small_graph, 1.0)
        monkeypatch.setattr(spectral, "_lanczos_pairs", lambda op, K: None)
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 8 * 120 * 120)
        assert_matches_dense(lap, 3)

    def test_arpack_failure_is_numerical_error(self, small_graph, arpack_fails):
        _, lap = regularized_laplacian(small_graph, 1.0)
        with pytest.raises(NumericalError, match="Lanczos"):
            leading_eigenpairs(lap, 3)


def population_case(n, K, profile="random-half", block=None):
    """Factored expected adjacency of n nodes and K communities, n0 = n/(2K)."""
    pi = planted_memberships(n, K, n // (2 * K), profile, seed=n + K)
    block = BlockModel(diag_off_block(K, 0.8, 0.1), rho=0.5) if block is None else block
    return pi, build_population_matrix(pi, block)


def dense_population_pairs(omega, K, tau):
    """Reference: the densified population Laplacian, scaled by the dense
    row sums, through dense eigh under the documented ranking."""
    scale = 1.0 / np.sqrt(omega.matrix.sum(axis=1) + tau)
    lap = scale[:, None] * omega.matrix * scale[None, :]
    vals, vecs = np.linalg.eigh((lap + lap.T) / 2.0)
    take = _leading_positions(vals, K)
    return vals[take], vecs[:, take]


class TestPopulationEigenpairs:
    @pytest.mark.parametrize("n", [60, 300])
    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    @pytest.mark.parametrize("tau", [0.0, None, 50.0])
    def test_pairs_match_dense_eigh(self, n, K, tau):
        tau = default_tau(n) if tau is None else tau
        cases = [population_case(n, K)]
        if K == 3:
            cases.append(population_case(n, K, "four-profiles", BlockModel(negative_eig_block(12).tilde_p, rho=0.9)))
        for _, omega in cases:
            dtau, basis = population_eigenpairs(omega, K, tau)
            vals, vecs = dense_population_pairs(omega, K, tau)
            assert np.abs(dtau - omega.matrix.sum(axis=1) - tau).max() <= 1e-12
            assert np.abs(basis.eigenvalues - vals).max() <= 1e-12
            assert np.abs(basis.projector - vecs @ vecs.T).max() <= 1e-10

    def test_k_above_the_factor_width_is_not_rank_k(self):
        _, omega = population_case(60, 2)
        with pytest.raises(NumericalError, match="not rank 3"):
            population_eigenpairs(omega, 3, 1.0)
        for fn in (ideal_srsc, ideal_crsc):
            with pytest.raises(NumericalError, match="not rank 3"):
                fn(omega, 3)

    def test_tau_is_checked_as_for_a_graph(self):
        _, omega = population_case(60, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            population_eigenpairs(omega, 2, -0.5)
        with pytest.raises(ValueError, match="finite"):
            population_eigenpairs(omega, 2, math.inf)
        zero = dense_omega(np.zeros((3, 3)))
        with pytest.raises(NumericalError, match="zero regularized degree"):
            population_eigenpairs(zero, 1, 0.0)

    def test_oracles_hold_no_n_by_n_array(self):
        # the oracles keep O(nK) arrays; the dense n x n population
        # Laplacian and Omega they once built traced 206 MiB at this n
        _, omega = population_case(3000, 3)
        for fn in (ideal_srsc, ideal_crsc):
            fn(population_case(90, 3)[1], 3)  # warm every import first
            tracemalloc.start()
            try:
                fn(omega, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20, f"{fn.__name__} traced {peak} bytes"

    def test_oracle_recovers_a_hundred_thousand_nodes(self):
        # a dense Omega of this size would need 80 GB
        pi, omega = population_case(100_000, 3)
        result = ideal_srsc(omega, 3)
        assert mixed_hamming_error(result.pi_hat, pi).per_node.max() <= 1e-8
