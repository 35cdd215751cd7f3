import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmsbkit

from mmsbkit import (
    BlockModel,
    Graph,
    MembershipMatrix,
    NumericalError,
    build_population_matrix,
    planted_memberships,
    crsc,
    crsc_equivalence,
    default_tau,
    ideal_crsc,
    ideal_srsc,
    leading_eigenpairs,
    mixed_hamming_error,
    population_eigenpairs,
    recover_from_basis,
    regularized_laplacian,
    sample_adjacency,
    srsc,
    srsc_equivalence,
)
from mmsbkit import spectral
from mmsbkit._blas import one_blas_thread
from mmsbkit.corners import sp_select, svm_cone_select
from mmsbkit.recovery import CLIP_TOL, EMPIRICAL_METHODS, RecoveryResult, _memberships_from_z, _solve_right_inverse, recover_each, run_methods
from mmsbkit.spectral import ZERO_ROW_TOL, SpectralBasis
from mmsbkit.sweep import STREAM_SPLIT, diag_off_block
from conftest import three_block_setup, unit_rows


def align_columns(pi_ref, corners_result):
    """Column order of a recovery, keyed by the community each corner is
    a pure member of (valid on oracle inputs)."""
    return [int(pi_ref.weights[i].argmax()) for i in corners_result.corners.indices]


class TestIdealPipelines:
    def test_identity_memberships_recover_exactly(self):
        pi = MembershipMatrix(np.eye(4))
        block = BlockModel(np.eye(4) * 0.6 + 0.4 * np.eye(4)[::-1], rho=1.0)
        omega = build_population_matrix(pi, block)
        for fn in (ideal_srsc, ideal_crsc):
            result = fn(omega, 4, tau=0.3)
            assert mixed_hamming_error(result.pi_hat, pi).per_node.max() <= 1e-12

    def test_small_planted_config_exact(self):
        pi, _, omega = three_block_setup(n=150, n0=30)
        for fn in (ideal_srsc, ideal_crsc):
            result = fn(omega, 3)
            assert mixed_hamming_error(result.pi_hat, pi).per_node.max() <= 1e-8
            assert result.clipped_rows == 0
            assert result.fallback_rows == 0

    def test_intermediate_reconstructions_coincide(self):
        # the simplex and cone routes build the same matrix before
        # normalization, up to the corner column order
        pi, _, omega = three_block_setup(n=150, n0=30)
        a = ideal_srsc(omega, 3)
        b = ideal_crsc(omega, 3)
        za = a.z[:, np.argsort(align_columns(pi, a))]
        zb = b.z[:, np.argsort(align_columns(pi, b))]
        assert np.abs(za - zb).max() <= 1e-10

    def test_relabeling_equivariance(self):
        pi, block, omega = three_block_setup(n=120, n0=24)
        sigma = [2, 0, 1]
        pi_perm = MembershipMatrix(pi.weights[:, sigma])
        block_perm = BlockModel(block.tilde_p[np.ix_(sigma, sigma)], rho=block.rho)
        omega_perm = build_population_matrix(pi_perm, block_perm)
        assert np.abs(omega.matrix - omega_perm.matrix).max() <= 1e-12
        result = ideal_srsc(omega_perm, 3)
        assert mixed_hamming_error(result.pi_hat, pi_perm).error <= 1e-10
        assert mixed_hamming_error(result.pi_hat, pi).error <= 1e-10

    def test_exact_recovery_with_negative_connectivity_eigenvalue(self):
        # the strongest disassortative template: lambda_min = -0.27, so one
        # of the three informative eigenvalues is negative and only
        # magnitude ranking keeps it ahead of the noise space
        from mmsbkit import negative_eig_block

        pi = planted_memberships(180, 3, 36, "four-profiles")
        block = negative_eig_block(12)
        omega = build_population_matrix(pi, BlockModel(block.tilde_p, rho=0.9))
        for fn in (ideal_srsc, ideal_crsc):
            result = fn(omega, 3)
            assert mixed_hamming_error(result.pi_hat, pi).per_node.max() <= 1e-8

    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_exact_recovery_across_community_counts(self, k):
        pi = planted_memberships(40 * k, k, 12, "uniform", seed=1)
        block = BlockModel(np.eye(k) * 0.5 + 0.5 * np.full((k, k), 0.4) + 0.3 * np.eye(k))
        omega = build_population_matrix(pi, block)
        for fn in (ideal_srsc, ideal_crsc):
            result = fn(omega, k)
            assert mixed_hamming_error(result.pi_hat, pi).per_node.max() <= 1e-8

    def test_cone_oracle_at_a_hundred_thousand_nodes(self):
        # n/5 identical pure rows per community; the SVM solves on a
        # working set of them
        pi = planted_memberships(100_000, 3, 20_000, "random-half", seed=1)
        omega = build_population_matrix(pi, BlockModel(diag_off_block(3, 0.8, 0.1), rho=0.05))
        result = ideal_crsc(omega, 3)
        assert mixed_hamming_error(result.pi_hat, pi).per_node.max() <= 1e-8

    def test_zero_k_is_rejected_before_the_rank_check(self):
        _, _, omega = three_block_setup(n=60, n0=12)
        for fn in (ideal_srsc, ideal_crsc):
            with pytest.raises(ValueError, match="K must be at least 1"):
                fn(omega, 0)

    def test_byte_identical_across_blas_thread_counts(self):
        # the oracles run on one BLAS thread through run_methods, as the
        # empirical pipelines do
        src = str(Path(mmsbkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import hashlib\n"
            "from mmsbkit import BlockModel, build_population_matrix, diag_off_block, "
            "ideal_crsc, ideal_srsc, planted_memberships\n"
            "pi = planted_memberships(430, 3, 86, 'four-profiles', seed=0)\n"
            "omega = build_population_matrix(pi, BlockModel(diag_off_block(3, 1.0, 0.5), rho=0.5))\n"
            "for fn in (ideal_srsc, ideal_crsc):\n"
            "    r = fn(omega, 3)\n"
            "    print(r.corners.indices, hashlib.sha256(r.pi_hat.weights.tobytes() + r.z.tobytes()).hexdigest())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("design", ["pure", "mixed"])
    def test_rank_violation_detected(self, design):
        # duplicate community columns: connectivity full rank but the
        # memberships never use community 2, so the product loses rank
        if design == "pure":
            w = np.zeros((40, 3))
            w[:20, 0] = 1.0
            w[20:, 1] = 1.0
        else:
            w = np.zeros((300, 3))
            w[:, :2] = planted_memberships(300, 2, 60, "random-half", seed=0).weights
        pi = MembershipMatrix(w)
        block = BlockModel(np.eye(3) * 0.5 + 0.5, rho=1.0)
        omega = build_population_matrix(pi, block)
        for fn in (ideal_srsc, ideal_crsc):
            with pytest.raises(NumericalError, match="not rank 3"):
                fn(omega, 3)

    @pytest.mark.parametrize("profile", ["random-half", "four-profiles"])
    @pytest.mark.parametrize("tau", [None, 0.0, 50.0])
    def test_oracles_stay_on_lanczos(self, monkeypatch, profile, tau):
        # the population Laplacian has rank K, so the certified K-pair
        # Lanczos run clears the cut, four-profiles' repeated eigenvalue
        # included, and the rank is read from its eigenvalues: no n x n
        # eigh or svd is reached
        n = 1500
        pi, _, omega = three_block_setup(n=n, n0=n // 5, diag=0.8, off=0.1, rho=0.05, profile=profile, seed=3)

        def small_only(solve):
            def guarded(a, *args, **kwargs):
                assert n not in np.shape(a), f"{solve.__name__} of an n x n matrix"
                return solve(a, *args, **kwargs)

            return guarded

        monkeypatch.setattr(np.linalg, "eigh", small_only(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "svd", small_only(np.linalg.svd))
        for fn in (ideal_srsc, ideal_crsc):
            result = fn(omega, 3, tau=tau)
            assert mixed_hamming_error(result.pi_hat, pi).per_node.max() <= 1e-8


class TestEmpiricalPipelines:
    def test_k1_gives_all_ones_column(self):
        _, _, omega = three_block_setup(n=40, n0=8, rho=0.9)
        g = sample_adjacency(omega, 2)
        for fn in (srsc, crsc, srsc_equivalence, crsc_equivalence):
            result = fn(g, 1)
            assert np.array_equal(result.pi_hat.weights, np.ones((40, 1)))

    def test_rows_sum_to_one(self, small_graph):
        for fn in (srsc, crsc):
            result = fn(small_graph, 3)
            sums = result.pi_hat.weights.sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-12
            assert result.pi_hat.weights.min() >= 0.0

    def test_default_tau_is_recorded(self, small_graph):
        result = srsc(small_graph, 3)
        assert result.tau == pytest.approx(default_tau(small_graph.n))

    def test_explicit_tau_wins(self, small_graph):
        result = srsc(small_graph, 3, tau=1.25)
        assert result.tau == 1.25

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_is_named(self, small_graph, tau):
        with pytest.raises(ValueError, match=f"regularizer tau must be finite, got {tau}"):
            run_methods(small_graph, 1, ["SRSC"], tau=tau)
        with pytest.raises(ValueError, match=f"regularizer tau must be finite, got {tau}"):
            srsc(small_graph, 3, tau=tau)

    def test_bitwise_determinism(self, small_graph):
        a = crsc(small_graph, 3)
        b = crsc(small_graph, 3)
        assert np.array_equal(a.pi_hat.weights, b.pi_hat.weights)
        assert a.corners.indices == b.corners.indices

    def test_error_beats_uniform_baseline(self):
        pi, _, omega = three_block_setup(n=300, n0=75, rho=0.8)
        g = sample_adjacency(omega, 4)
        uniform = MembershipMatrix(np.full((300, 3), 1 / 3))
        baseline = mixed_hamming_error(uniform, pi).error
        for fn in (srsc, crsc):
            err = mixed_hamming_error(fn(g, 3).pi_hat, pi).error
            assert err < baseline

    def test_reference_config_regression(self):
        # n=800 reference run (membership seed 11, graph seed 7); the
        # constants were frozen from the first verified run
        pi, _, omega = three_block_setup(
            n=800, n0=200, diag=0.8, off=0.1, rho=1.0, profile="random-half", seed=11
        )
        g = sample_adjacency(omega, 7)
        uniform = MembershipMatrix(np.full((800, 3), 1 / 3))
        baseline = mixed_hamming_error(uniform, pi).error
        err_simplex = mixed_hamming_error(srsc(g, 3).pi_hat, pi).error
        err_cone = mixed_hamming_error(crsc(g, 3).pi_hat, pi).error
        assert err_simplex < baseline and err_cone < baseline
        assert err_simplex == pytest.approx(0.10921637193130079, abs=0.02)
        assert err_cone == pytest.approx(0.15067770814903406, abs=0.02)

    def test_method_tags(self, small_graph):
        assert srsc(small_graph, 3).method == "SRSC"
        assert crsc(small_graph, 3).method == "CRSC"
        assert srsc_equivalence(small_graph, 3).method == "SRSC-EQ"
        assert crsc_equivalence(small_graph, 3).method == "CRSC-EQ"


class TestOnePipeline:
    """``recover_each`` is the chain every caller runs: a method's own
    stage failure takes that method's place, a shared stage raises."""

    def test_a_corner_failure_takes_its_method_place(self, small_graph, nnls_fails):
        srsc_out, crsc_out, twin_out = recover_each(small_graph, 3, ["SRSC", "CRSC", "SRSC-EQ"])
        assert isinstance(srsc_out, RecoveryResult) and isinstance(twin_out, RecoveryResult)
        assert isinstance(crsc_out, NumericalError)
        assert crsc_out.stage == "corners"
        assert np.array_equal(srsc_out.pi_hat.weights, srsc(small_graph, 3).pi_hat.weights)

    def test_an_eigensolve_failure_raises(self, small_graph, arpack_fails):
        with pytest.raises(NumericalError) as info:
            recover_each(small_graph, 3, ["SRSC", "CRSC"])
        assert info.value.stage == "eigensolve"

    def test_a_laplacian_failure_raises(self):
        g = Graph.from_edges(4, np.array([[0, 1], [1, 2]]))  # node 3 is isolated
        with pytest.raises(NumericalError) as info:
            recover_each(g, 1, ["SRSC"], tau=0.0)
        assert info.value.stage == "laplacian"

    def test_zero_k_is_rejected_before_the_laplacian(self):
        # this graph's Laplacian fails at tau = 0, so a K check made after
        # the Laplacian would surface as a laplacian-stage NumericalError
        g = Graph.from_edges(4, np.array([[0, 1], [1, 2]]))
        with pytest.raises(ValueError, match="K must be at least 1") as info:
            recover_each(g, 0, ["SRSC"], tau=0.0)
        assert not hasattr(info.value, "stage")

    def test_tau_defaults_to_a_tenth_of_log_n(self, small_graph):
        (implicit,) = recover_each(small_graph, 3, ["CRSC"])
        (explicit,) = recover_each(small_graph, 3, ["CRSC"], tau=default_tau(small_graph.n))
        assert implicit.tau == explicit.tau
        assert np.array_equal(implicit.pi_hat.weights, explicit.pi_hat.weights)

    def test_run_methods_raises_the_first_failure_in_method_order(self, small_graph, nnls_fails):
        with pytest.raises(NumericalError) as info:
            run_methods(small_graph, 3, ["SRSC", "CRSC", "no-such-method"])
        assert info.value.stage == "corners"
        with pytest.raises(ValueError, match="unknown method"):
            run_methods(small_graph, 3, ["SRSC", "no-such-method", "CRSC"])


class TestEquivalences:
    def test_simplex_and_cone_routes_match(self):
        _, _, omega = three_block_setup(n=150, n0=30)
        for seed in range(3):
            g = sample_adjacency(omega, seed)
            a, b = srsc(g, 3), srsc_equivalence(g, 3)
            assert a.corners.indices == b.corners.indices
            assert np.abs(a.pi_hat.weights - b.pi_hat.weights).max() <= 1e-10
            c, d = crsc(g, 3), crsc_equivalence(g, 3)
            assert c.corners.indices == d.corners.indices
            assert np.abs(c.pi_hat.weights - d.pi_hat.weights).max() <= 1e-10

    def test_row_norm_diagonals_match(self):
        # the projector's row norms equal the eigenvector row norms
        _, _, omega = three_block_setup(n=100, n0=20)
        g = sample_adjacency(omega, 1)
        _, lap = regularized_laplacian(g, default_tau(100))
        basis = leading_eigenpairs(lap, 3)
        v = basis.vectors
        n_v = np.linalg.norm(v, axis=1)
        n_v2 = np.linalg.norm(v @ v.T, axis=1)
        assert np.abs(n_v - n_v2).max() <= 1e-10

    def test_oracle_equivalence_routes_recover_exactly(self):
        pi, _, omega = three_block_setup(n=120, n0=24)
        tau = default_tau(120)
        dtau, basis = population_eigenpairs(omega, 3, tau)
        for method in ("SRSC-EQ", "CRSC-EQ"):
            result = recover_from_basis(basis, dtau, method, tau=tau)
            assert mixed_hamming_error(result.pi_hat, pi).per_node.max() <= 1e-8

    def test_cone_twins_break_an_equidistant_corner_by_index(self):
        # the sweep-grid trial seeded 1234 at rho=0.2: two rows of one
        # k-means cluster sit at the same distance from its centre up to
        # rounding, and picking the nearer by rounding alone sends CRSC to
        # corner 355 and CRSC-EQ to corner 61
        seed = 1234
        pi = planted_memberships(500, 3, 100, "four-profiles", seed=seed)
        omega = build_population_matrix(pi, BlockModel(diag_off_block(3, 1.0, 0.5), rho=0.2))
        graph = sample_adjacency(omega, seed ^ STREAM_SPLIT)
        with one_blas_thread():
            tau = default_tau(500)
            dtau, lap = regularized_laplacian(graph, tau)
            basis = leading_eigenpairs(lap, 3)
            plain, twin = (recover_from_basis(basis, dtau, m, tau=tau) for m in ("CRSC", "CRSC-EQ"))
        assert plain.corners.indices == twin.corners.indices
        errors = [mixed_hamming_error(r.pi_hat, pi).error for r in (plain, twin)]
        assert abs(errors[0] - errors[1]) <= 1e-10

    def test_corner_gram_matrices_match_across_routes(self):
        # the K x K Gram of the corner rows is the same whether corners are
        # read from the scaled eigenvectors or from the scaled projector
        _, _, omega = three_block_setup(n=150, n0=30)
        for seed in range(3):
            g = sample_adjacency(omega, seed)
            dtau, lap = regularized_laplacian(g, default_tau(150))
            basis = leading_eigenpairs(lap, 3)
            v = basis.vectors
            root_d = np.sqrt(dtau)

            idx = list(srsc(g, 3).corners.indices)
            narrow = (root_d[:, None] * v)[idx]
            wide = (root_d[:, None] * (v @ v.T))[idx]
            assert np.abs(narrow @ narrow.T - wide @ wide.T).max() <= 1e-10

            idx = list(crsc(g, 3).corners.indices)
            narrow = unit_rows(v)[idx]
            wide = unit_rows(v @ v.T)[idx]
            assert np.abs(narrow @ narrow.T - wide @ wide.T).max() <= 1e-10


def per_geometry_recovery(basis, dtau, method):
    """The reconstruction each geometry carried before the routes were
    merged: the simplex solves against its scaled corner rows, the cone
    against its unit corner rows followed by the rescale by the stored
    row-norm factors over sqrt(dtau). Returns corners, z and memberships."""
    v = basis.vectors
    rows = v @ v.T if method.endswith("-EQ") else v
    root_d = np.sqrt(dtau)
    if method.startswith("SRSC"):
        points = root_d[:, None] * rows
        corners = sp_select(points, basis.K)
    else:
        factors = 1.0 / np.linalg.norm(rows, axis=1)
        points = rows * factors[:, None]
        corners = svm_cone_select(points, basis.K)
    idx = list(corners.indices)
    z = _solve_right_inverse(rows, points[idx])
    if not method.startswith("SRSC"):
        z = z * (factors[idx] / root_d[idx])[None, :]
    z[np.linalg.norm(v, axis=1) <= ZERO_ROW_TOL] = 0.0
    pi_hat, z, _, _ = _memberships_from_z(z)
    return corners.indices, z, pi_hat.weights


class TestOneReconstruction:
    @pytest.mark.parametrize(
        "seed, recipe",
        [
            # the sweep recipe (n=500, four-profiles, 1.0/0.5) at three densities
            (1, dict(n=500, n0=100, rho=0.2)),
            (2, dict(n=500, n0=100, rho=0.5)),
            (3, dict(n=500, n0=100, rho=1.0)),
            # the cluster recipe (random-half, 0.8/0.1, rho=1) at n=600
            (5, dict(n=600, n0=120, diag=0.8, off=0.1, rho=1.0, profile="random-half")),
        ],
    )
    def test_matches_the_per_geometry_reconstructions(self, seed, recipe):
        _, _, omega = three_block_setup(seed=seed, **recipe)
        tau = default_tau(omega.n)
        dtau, lap = regularized_laplacian(sample_adjacency(omega, seed ^ STREAM_SPLIT), tau)
        basis = leading_eigenpairs(lap, 3)
        for method in ("SRSC", "CRSC", "SRSC-EQ", "CRSC-EQ"):
            result = recover_from_basis(basis, dtau, method, tau=tau)
            corners, z, weights = per_geometry_recovery(basis, dtau, method)
            assert result.corners.indices == corners
            assert np.abs(result.z - z).max() <= 1e-12
            assert np.abs(result.pi_hat.weights - weights).max() <= 1e-12


class TestSignFlipInvariance:
    def test_column_negation_leaves_memberships_unchanged(self):
        _, _, omega = three_block_setup(n=100, n0=20)
        rng = np.random.default_rng(8)
        tau = default_tau(100)
        for seed in range(3):
            g = sample_adjacency(omega, seed)
            dtau, lap = regularized_laplacian(g, tau)
            basis = leading_eigenpairs(lap, 3)
            signs = rng.choice([-1.0, 1.0], size=3)
            flipped = SpectralBasis(basis.eigenvalues, basis.vectors * signs)
            for method in ("SRSC", "CRSC", "SRSC-EQ", "CRSC-EQ"):
                ref = recover_from_basis(basis, dtau, method, tau=tau)
                out = recover_from_basis(flipped, dtau, method, tau=tau)
                assert np.abs(out.pi_hat.weights - ref.pi_hat.weights).max() <= 1e-10


def graph_with_isolated_nodes(seed: int, n: int, isolated: int) -> tuple[Graph, np.ndarray]:
    """A three-block graph (edge probability 0.7 within a block, 0.1
    across) whose ``isolated`` nodes, drawn with ``seed``, have no edges;
    and those nodes."""
    rng = np.random.default_rng(seed)
    block = rng.integers(0, 3, n)
    upper = np.triu(rng.random((n, n)) < np.where(block[:, None] == block, 0.7, 0.1), 1)
    alone = rng.choice(n, isolated, replace=False)
    upper[alone, :] = upper[:, alone] = False
    return Graph.from_edges(n, np.argwhere(upper)), alone


class TestGraphsWithIsolatedNodes:
    """Properties of every method on small three-block graphs with a few
    isolated nodes."""

    @staticmethod
    def check_every_method(graph, alone, K, tau, flip=0):
        """Every method's rows are probability vectors, its dead rows (and
        the isolated nodes among them) are 1/K, its corners are live rows,
        and a sign flip of one basis column leaves ``pi_hat`` unchanged.
        Only successive projection may fail, on a rank below K."""
        results = recover_each(graph, K, list(EMPIRICAL_METHODS), tau)
        for method, result in zip(EMPIRICAL_METHODS, results):
            if isinstance(result, Exception):
                assert method.startswith("SRSC") and result.stage == "corners"
                with pytest.raises(NumericalError, match="rank is below K"):
                    raise result
        results = [r for r in results if not isinstance(r, Exception)]
        if not results:
            return results
        basis, dtau = results[0].basis, graph.degrees() + tau
        dead = np.linalg.norm(basis.vectors, axis=1) <= ZERO_ROW_TOL
        assert dead[alone].all()
        flipped = SpectralBasis(basis.eigenvalues, basis.vectors * np.where(np.arange(K) == flip % K, -1.0, 1.0))
        for result in results:
            weights = result.pi_hat.weights
            assert weights.min() >= 0.0 and np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
            assert (weights[dead] == 1.0 / K).all()
            assert not dead[list(result.corners.indices)].any()
            out = recover_from_basis(flipped, dtau, result.method, tau=tau)
            assert np.abs(out.pi_hat.weights - weights).max() <= 1e-10
        return results

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(12, 40),
        isolated=st.integers(1, 4),
        K=st.sampled_from([1, 2, 3]),
        tau_scale=st.sampled_from([1.0, 10.0]),
        flip=st.integers(0, 2),
    )
    def test_every_method_falls_back_on_dead_rows_only(self, seed, n, isolated, K, tau_scale, flip):
        graph, alone = graph_with_isolated_nodes(seed, n, isolated)
        self.check_every_method(graph, alone, K, tau_scale * default_tau(n), flip)
        with pytest.raises(NumericalError, match="zero regularized degree") as failure:
            recover_each(graph, K, ["SRSC"], 0.0)
        assert failure.value.stage == "laplacian"

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="rows of a detached component read up to 8.9e-14 after the Lanczos "
        "solve, above ZERO_ROW_TOL, so they count as live; their unit rows point "
        "away from the giant component's and the cone routes fail",
    )
    @pytest.mark.parametrize("seed, n, isolated", [(309, 12, 2), (0, 13, 1)])
    def test_rows_of_a_detached_component_are_dead(self, seed, n, isolated):
        graph, alone = graph_with_isolated_nodes(seed, n, isolated)
        self.check_every_method(graph, alone, 1, default_tau(n))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="on rows that coincide or mirror each other, rounding decides which "
        "of them successive projection and k-means pick, and it differs between the "
        "plain route and the n x n projector route",
    )
    @pytest.mark.parametrize(
        "method, seed, n, isolated, tau_scale",
        [("SRSC", 1398, 16, 1, 10.0), ("CRSC", 223, 12, 4, 1.0)],
    )
    def test_twins_pick_their_plain_methods_corners(self, method, seed, n, isolated, tau_scale):
        graph, _ = graph_with_isolated_nodes(seed, n, isolated)
        plain, twin = recover_each(graph, 3, [method, f"{method}-EQ"], tau_scale * default_tau(n))
        assert plain.corners.indices == twin.corners.indices
        assert np.abs(plain.pi_hat.weights - twin.pi_hat.weights).max() <= 1e-10


class TestReconstructionHelpers:
    def test_clipping_counts_rows_and_falls_back_to_uniform(self):
        z = np.array([[-1.0, -2.0], [0.5, -0.1], [1.0, 1.0]])
        pi, z_out, clipped, fallback = _memberships_from_z(z)
        assert clipped == 2  # two rows carried negative entries
        assert fallback == 1  # the all-negative row clipped to zero
        assert np.allclose(pi.weights[0], [0.5, 0.5])
        assert np.allclose(pi.weights[1], [1.0, 0.0])
        assert z_out.min() >= 0.0

    def test_singular_corner_matrix_raises(self):
        with pytest.raises(NumericalError, match="singular"):
            _solve_right_inverse(np.eye(2), np.ones((2, 2)))

    def test_wide_corner_matches_square_corner(self):
        # the projector routes pass rows @ Q.T and corner @ Q.T for the
        # orthonormal eigenvector columns Q; the solve must not depend on
        # that embedding, up to the rounding floor cond(corner) * eps
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((40, 3)))
        for cond in (10.0, 1e8):
            u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            corner = u @ np.diag([1.0, cond**-0.5, 1.0 / cond]) @ v.T
            z = rng.random((40, 3))
            rows = z @ corner
            square = _solve_right_inverse(rows, corner)
            wide = _solve_right_inverse(rows @ q.T, corner @ q.T)
            tol = 100 * cond * np.finfo(float).eps
            assert np.abs(square - z).max() <= tol
            assert np.abs(wide - square).max() <= tol

    def test_singular_wide_corner_raises(self):
        q, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((5, 2)))
        with pytest.raises(NumericalError, match="singular"):
            _solve_right_inverse(q.T, np.ones((2, 2)) @ q.T)

    def test_k_must_be_positive(self, small_graph):
        with pytest.raises(ValueError):
            srsc(small_graph, 0)

    def test_isolated_node_falls_back_in_every_method(self):
        # an isolated node has a zero row in the leading eigenvectors: no
        # geometry sees it, and it gets the uniform row
        pairs = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
        g = Graph.from_edges(7, pairs)  # node 6 is isolated
        results = run_methods(g, 2, ["SRSC", "CRSC", "SRSC-EQ", "CRSC-EQ"], tau=0.5)
        for result in results:
            assert 6 not in result.corners.indices
            np.testing.assert_array_equal(result.pi_hat.weights[6], 0.5)
            assert result.fallback_rows == 1
        for plain, twin in (results[0], results[2]), (results[1], results[3]):
            assert plain.corners.indices == twin.corners.indices
            assert np.abs(plain.pi_hat.weights - twin.pi_hat.weights).max() <= 1e-10

    @pytest.mark.parametrize("method", ["SRSC", "CRSC", "SRSC-EQ", "CRSC-EQ"])
    def test_near_zero_eigenvector_rows_fall_back_to_uniform(self, monkeypatch, method):
        # sweep recipe at rho=0.01 (trial seed 9): nodes off the giant
        # component have eigenvector rows of rounding size, which change
        # with the Lanczos start vector; they carry no membership
        pi = planted_memberships(500, 3, 100, "four-profiles", seed=9)
        omega = build_population_matrix(pi, BlockModel(diag_off_block(3, 1.0, 0.5), rho=0.01))
        tau = default_tau(500)
        dtau, lap = regularized_laplacian(sample_adjacency(omega, 9 ^ STREAM_SPLIT), tau)
        results = []
        for seed in (0, 1):
            monkeypatch.setattr(spectral, "LANCZOS_SEED", seed)
            basis = leading_eigenpairs(lap, 3)
            result = recover_from_basis(basis, dtau, method, tau=tau)
            zero = np.linalg.norm(basis.vectors, axis=1) <= spectral.ZERO_ROW_TOL
            assert 0 < zero.sum() <= result.fallback_rows
            np.testing.assert_array_equal(result.pi_hat.weights[zero], 1.0 / 3)
            results.append(result.pi_hat.weights)
        np.testing.assert_allclose(results[0], results[1], rtol=0, atol=1e-10)

    def test_clipped_rows_ignore_rounding_noise_under_any_start_vector(self, monkeypatch):
        # sweep recipe at rho=0.01 (trial seed 9): counting rows whose only
        # negative entries are of order 1e-16 moves the count with the
        # Lanczos start vector (161/161/160/159 under seeds 0-3)
        pi = planted_memberships(500, 3, 100, "four-profiles", seed=9)
        omega = build_population_matrix(pi, BlockModel(diag_off_block(3, 1.0, 0.5), rho=0.01))
        graph = sample_adjacency(omega, 9 ^ STREAM_SPLIT)
        counts = []
        for seed in range(4):
            monkeypatch.setattr(spectral, "LANCZOS_SEED", seed)
            counts.append(srsc(graph, 3).clipped_rows)
        assert counts == [159] * 4

    def test_clipped_rows_count_only_entries_below_tolerance(self):
        z = np.array([[0.5, -0.1 * CLIP_TOL], [0.5, -10 * CLIP_TOL], [0.5, 0.5]])
        pi, z_out, clipped, fallback = _memberships_from_z(z)
        assert clipped == 1 and fallback == 0
        assert np.array_equal(pi.weights[:2], [[1.0, 0.0], [1.0, 0.0]])  # both still zeroed
