import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmsbkit import (
    CornerSet,
    NumericalError,
    SvmSolution,
    cone_closed_form,
    default_tau,
    one_class_svm,
    planted_memberships,
    population_eigenpairs,
    sample_adjacency,
    sp_select,
    svm_cone_select,
)
from mmsbkit.corners import KMEANS_RESTARTS
from mmsbkit.recovery import recover_each
from conftest import demo_cone_setup, pure_corner_indices, three_block_setup, unit_rows
from test_acceptance import _random_cone_instance

#: derandomized so that every run draws the same examples
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def residual_norms_by_projection(m, picked):
    """Independent residual computation: distance of every row from the
    span of the picked rows, via least squares."""
    if not picked:
        return np.linalg.norm(m, axis=1)
    basis = m[picked].T  # (cols, len(picked))
    coeffs, *_ = np.linalg.lstsq(basis, m.T, rcond=None)
    return np.linalg.norm(m.T - basis @ coeffs, axis=0)


def residual_copy_sp(m, K):
    """Reference successive projection: project a full copy of the rows
    off each pick in turn and take the largest residual norm."""
    residual = np.array(m, dtype=np.float64)
    initial_scale = np.linalg.norm(residual, axis=1).max()
    if initial_scale == 0.0:
        raise NumericalError("all-zero matrix")
    picks = []
    for _ in range(K):
        norms = np.linalg.norm(residual, axis=1)
        pick = int(norms.argmax())
        if norms[pick] <= 1e-12 * initial_scale:
            raise NumericalError("matrix rank is below K")
        u = residual[pick]
        residual = residual - np.outer(residual @ u, u) / (u @ u)
        picks.append(pick)
    return tuple(picks)


@st.composite
def sp_inputs(draw):
    """A Gaussian matrix of a drawn rank (possibly below K), with some rows
    copied exactly onto others, and a K."""
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, 12))
    K = draw(st.integers(1, min(n, width)))
    rank = draw(st.integers(0, min(n, width)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, width))
    m *= np.exp(rng.standard_normal((n, 1)))  # rows of unequal scale
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for src, dst in copies:
        m[dst] = m[src]
    return m, K


def ideal_simplex_matrix(n=150, n0=30):
    pi, _, omega = three_block_setup(n=n, n0=n0)
    dtau, basis = population_eigenpairs(omega, 3, default_tau(n))
    return pi, np.sqrt(dtau)[:, None] * basis.vectors


def ideal_cone_matrix(seed=11):
    pi, _, omega = demo_cone_setup(seed=seed)
    _, basis = population_eigenpairs(omega, 3, default_tau(omega.n))
    normalized = unit_rows(basis.vectors)
    return pi, normalized


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CornerSet((2, 2)), ValueError, "corner indices must be distinct"),
        (lambda: CornerSet((0, -1)), ValueError, "corner indices must be nonnegative"),
        (
            lambda: SvmSolution(w=np.array([0.8, 0.8]), b=0.5, weights=np.array([0.5, 0.5])),
            ValueError,
            r"svm normal vector must satisfy \|\|w\|\| <= 1",
        ),
        (
            lambda: SvmSolution(w=np.array([0.6, 0.0]), b=0.5, weights=np.array([0.7, 0.7])),
            ValueError,
            "dual weights must be a probability vector",
        ),
        (lambda: sp_select(np.ones(3), 1), ValueError, "input must be a 2-d matrix"),
        (lambda: sp_select(np.eye(3), 4), ValueError, r"need 1 <= K <= min\(n, m\) = 3, got K=4"),
        (lambda: sp_select(np.eye(3), 0), ValueError, r"need 1 <= K <= min\(n, m\) = 3, got K=0"),
        (lambda: cone_closed_form(np.array([[0.6, 0.8], [0.6, 0.8]])), NumericalError, "corner Gram matrix is numerically singular"),
    ],
    ids=[
        "duplicate-corner", "negative-corner", "svm-normal-too-long", "weights-not-probabilities", "sp-1d-input",
        "sp-k-above-width", "sp-k-zero", "singular-gram",
    ],
)
def test_input_outside_the_contract_is_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestSpSelect:
    def test_exact_two_corner_case(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert sp_select(m, 2).indices == (0, 1)

    def test_ideal_simplex_returns_pure_nodes_of_each_community(self):
        pi, scaled = ideal_simplex_matrix()
        picks = sp_select(scaled, 3).indices
        rows = pi.weights[list(picks)]
        assert (rows.max(axis=1) >= 1 - 1e-12).all()
        assert sorted(rows.argmax(axis=1)) == [0, 1, 2]

    def test_each_pick_maximizes_residual_norm(self):
        # greedy invariant cross-checked against lstsq projections
        rng = np.random.default_rng(0)
        pi, _, _ = three_block_setup(n=60, n0=12)
        w = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.1, 0.0, 1.0]])
        noise = rng.standard_normal((60, 3))
        noise *= 1e-6 / np.linalg.norm(noise, axis=1, keepdims=True)
        m = pi.weights @ w + noise
        picks = list(sp_select(m, 3).indices)
        for step in range(3):
            norms = residual_norms_by_projection(m, picks[:step])
            assert norms[picks[step]] >= norms.max() - 1e-9

    def test_noisy_corners_land_near_true_corners(self):
        rng = np.random.default_rng(1)
        pi, _, _ = three_block_setup(n=60, n0=12)
        w = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.1, 0.0, 1.0]])
        noise = rng.standard_normal((60, 3))
        noise *= 1e-6 / np.linalg.norm(noise, axis=1, keepdims=True)
        m = pi.weights @ w + noise
        picks = sp_select(m, 3).indices
        for row in m[list(picks)]:
            assert min(np.linalg.norm(row - w[k]) for k in range(3)) <= 1e-4

    def test_rank_deficient_input_raises(self):
        m = np.outer(np.arange(1.0, 5.0), [1.0, 2.0])
        with pytest.raises(NumericalError, match="rank"):
            sp_select(m, 2)

    def test_invariant_under_orthonormal_rotation(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.standard_normal((40, 5))
            q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            assert sp_select(m, 3).indices == sp_select(m @ q, 3).indices

    def test_tie_breaks_to_lowest_index(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        assert sp_select(m, 2).indices[0] == 0  # all norms equal: first wins

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=sp_inputs())
    def test_matches_residual_copy_oracle(self, case):
        m, K = case
        try:
            expected = residual_copy_sp(m, K)
        except NumericalError:
            with pytest.raises(NumericalError):
                sp_select(m, K)
            return
        assert sp_select(m, K).indices == expected

    def test_duplicate_rows_tie_to_the_lowest_index_after_a_pick(self):
        # a BLAS matrix-vector product can round a row differently by its
        # position; copies of the runner-up must stay exactly tied
        for seed in range(200):
            rng = np.random.default_rng(seed)
            width, copies = rng.integers(2, 12, size=2)
            a, b = rng.standard_normal(width) * 3, rng.standard_normal(width)
            if np.linalg.norm(a) > np.linalg.norm(b):
                assert sp_select(np.vstack([a, np.tile(b, (copies, 1))]), 2).indices == (0, 1)

    def test_tiny_residuals_are_ranked_by_recomputed_norms(self):
        # after the first pick every residual is below sqrt(eps) of the
        # initial scale: downdating 1 + d**2 by 1 cancels to 0 for each row
        m = np.array([[2.0, 0.0], [1.0, 1e-9], [1.0, 3e-9], [1.0, 2e-9]])
        assert residual_copy_sp(m, 2) == (0, 2)
        assert sp_select(m, 2).indices == (0, 2)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_wide_input_raises(self, rank):
        rng = np.random.default_rng(rank)
        m = rng.standard_normal((300, rank)) @ rng.standard_normal((rank, 300))
        with pytest.raises(NumericalError, match="rank"):
            sp_select(m, 3)


class TestOneClassSvm:
    def test_two_point_segment(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        sol = one_class_svm(s)
        root_half = 1.0 / np.sqrt(2.0)
        assert sol.b == pytest.approx(root_half, abs=1e-10)
        assert np.allclose(sol.w, [root_half, root_half], atol=1e-10)
        assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-10)

    def test_single_row(self):
        s = np.array([[0.6, 0.8]])
        sol = one_class_svm(s)
        assert sol.b == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sol.w, [0.6, 0.8], atol=1e-12)

    def test_primal_dual_consistency_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.random((30, 4)) + 0.05
            s = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            sol = one_class_svm(s)
            margins = s @ sol.w
            assert margins.min() >= sol.b - 1e-8
            assert abs(margins.min() - sol.b) <= 1e-8
            assert np.linalg.norm(sol.w) <= 1.0 + 1e-10
            assert sol.weights.sum() == pytest.approx(1.0, abs=1e-10)
            hull_point = sol.weights @ s
            assert np.allclose(hull_point, sol.b * sol.w, atol=1e-8)

    def test_origin_in_hull_raises(self):
        s = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(NumericalError, match="origin"):
            one_class_svm(s)

    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="unit"):
            one_class_svm(np.array([[2.0, 0.0]]))


class TestOneClassSvmProperties:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3, 4]))
    def test_matches_closed_form_on_exact_cones(self, seed, k):
        s, sc = _random_cone_instance(np.random.default_rng(seed), k)
        closed = cone_closed_form(sc)
        sol = one_class_svm(s)
        assert abs(closed.b - sol.b) <= 1e-8
        assert np.abs(closed.w - sol.w).max() <= 1e-8

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        width=st.integers(1, 6),
        duplicates=st.integers(0, 5),
    )
    def test_certificates_on_positive_unit_rows(self, seed, n, width, duplicates):
        rng = np.random.default_rng(seed)
        raw = rng.random((n, width)) + 1e-3
        raw = np.vstack([raw, raw[rng.integers(n, size=duplicates)]])
        s = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        sol = one_class_svm(s)
        assert sol.weights.min() >= 0.0
        assert abs(sol.weights.sum() - 1.0) <= 1e-12
        assert np.abs(sol.weights @ s - sol.b * sol.w).max() <= 1e-12
        margins = s @ sol.w
        assert abs(margins.min() - sol.b) <= 1e-8
        # complementary slackness: every row of positive weight meets the hyperplane
        assert np.abs(margins[sol.weights > 1e-12] - sol.b).max() <= 1e-8

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 40))
    def test_invariant_under_orthonormal_embedding(self, seed, extra):
        # the projector routes hand the solver the rows S @ Q.T, with Q
        # the orthonormal eigenvector columns
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        s, _ = _random_cone_instance(rng, k)
        q, _ = np.linalg.qr(rng.standard_normal((k + extra, k)))
        plain = one_class_svm(s)
        embedded = one_class_svm(s @ q.T)
        assert abs(plain.b - embedded.b) <= 1e-10
        assert np.abs(q @ plain.w - embedded.w).max() <= 1e-10

    def test_solver_iteration_cap_is_numerical_error(self, nnls_fails):
        with pytest.raises(NumericalError, match="converge"):
            one_class_svm(np.eye(2))


class TestWorkingSet:
    @pytest.fixture
    def nnls_widths(self, monkeypatch):
        """The column count of every NNLS the SVM solves."""
        import scipy.optimize

        nnls, widths = scipy.optimize.nnls, []

        def spy(e, f, *args, **kwargs):
            widths.append(e.shape[1])
            return nnls(e, f, *args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "nnls", spy)
        return widths

    def test_no_solve_takes_every_row_of_a_sampled_graph(self, nnls_widths):
        # the recipe of the benchmark's cluster-dense workload
        _, _, omega = three_block_setup(n=2000, n0=400, diag=0.8, off=0.1, rho=1.0, profile="random-half", seed=3)
        (result,) = recover_each(sample_adjacency(omega, 3), 3, ["CRSC"])
        assert result.corners.K == 3
        assert nnls_widths and max(nnls_widths) < 2000

    def test_rows_that_all_bind_converge_and_certify(self, nnls_widths):
        # the hull of the unit vectors needs every row
        sol = one_class_svm(np.eye(300))
        assert sol.b == pytest.approx(1.0 / np.sqrt(300), abs=1e-12)
        assert (sol.weights > 1e-12).all()
        assert np.allclose(sol.weights, 1.0 / 300, atol=1e-12)
        assert 1 < len(nnls_widths) and nnls_widths[-1] == 300

    def test_duplicate_heavy_cone_rows_match_the_closed_form(self):
        # the oracles' cone rows: n/5 copies of each generator and mixed
        # rows between them
        _, sc = _random_cone_instance(np.random.default_rng(7), 3)
        pi = planted_memberships(400_000, 3, 80_000, "random-half", seed=7)
        s = pi.weights @ sc
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        sol = one_class_svm(s)
        assert abs(sol.b - cone_closed_form(sc).b) <= 1e-12
        assert sol.weights.shape == (400_000,)
        assert (s[sol.weights > 1e-12] @ sol.w - sol.b).max() <= 1e-8


class TestConeClosedForm:
    def test_orthonormal_corners(self):
        for k in (2, 3, 5):
            sol = cone_closed_form(np.eye(k))
            assert sol.b == pytest.approx(1.0 / np.sqrt(k), abs=1e-12)
            assert np.allclose(sol.w, np.full(k, 1.0 / np.sqrt(k)), atol=1e-12)

    def test_two_by_two_against_adjugate_oracle(self):
        root_half = 1.0 / np.sqrt(2.0)
        sc = np.array([[1.0, 0.0], [root_half, root_half]])
        # independent 2x2 route: invert the Gram matrix by adjugate
        g = sc @ sc.T
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
        y = ginv @ np.ones(2)
        b_expected = 1.0 / np.sqrt(y.sum())
        w_expected = sc.T @ y / (b_expected * y.sum())
        sol = cone_closed_form(sc)
        assert sol.b == pytest.approx(b_expected, abs=1e-12)
        assert np.allclose(sol.w, w_expected, atol=1e-12)
        assert np.allclose(sc @ sol.w, sol.b, atol=1e-12)

    def test_cone_condition_violation_raises(self):
        u3 = np.array([1.0, 1.0, 0.15])
        sc = np.vstack([np.eye(3)[:2], u3 / np.linalg.norm(u3)])
        with pytest.raises(NumericalError, match="condition violated"):
            cone_closed_form(sc)

    def test_matches_iterative_solver_on_ideal_cone(self):
        pi, normalized = ideal_cone_matrix()
        corners = pure_corner_indices(pi)
        closed = cone_closed_form(normalized[corners])
        iterative = one_class_svm(normalized)
        assert abs(closed.b - iterative.b) <= 1e-8
        assert np.abs(closed.w - iterative.w).max() <= 1e-8

    def test_pure_rows_hit_margin_and_mixed_rows_exceed_it(self):
        pi, normalized = ideal_cone_matrix()
        corners = pure_corner_indices(pi)
        sol = cone_closed_form(normalized[corners])
        margins = normalized @ sol.w
        pure = pi.pure_mask()
        assert np.abs(margins[pure] - sol.b).max() <= 1e-8
        assert margins[~pure].min() > sol.b + 1e-4


class TestIdealConeGeometry:
    def test_equal_membership_rows_coincide(self):
        pi, _, omega = three_block_setup(n=90, n0=18)
        _, basis = population_eigenpairs(omega, 3, default_tau(90))
        normalized = unit_rows(basis.vectors)
        # rows 0 and 1 are pure members of the same community
        assert np.abs(normalized[0] - normalized[1]).max() <= 1e-10

    def test_rows_factor_through_nonnegative_combinations(self):
        # normalized population eigenvector rows are nonnegative scaled
        # combinations of the corner rows, with no zero combination
        pi, _, omega = three_block_setup(n=150, n0=30)
        _, basis = population_eigenpairs(omega, 3, default_tau(150))
        normalized = unit_rows(basis.vectors)
        corners = pure_corner_indices(pi)
        coeffs = np.linalg.solve(normalized[corners].T, normalized.T).T
        assert coeffs.min() >= -1e-10
        assert np.abs(coeffs).sum(axis=1).min() > 1e-6
        assert np.abs(coeffs @ normalized[corners] - normalized).max() <= 1e-10

    def test_projector_rows_factor_through_memberships(self):
        # the degree-scaled projector keeps the simplex structure
        pi, _, omega = three_block_setup(n=150, n0=30)
        dtau, basis = population_eigenpairs(omega, 3, default_tau(150))
        v2 = basis.vectors @ basis.vectors.T
        scaled2 = np.sqrt(dtau)[:, None] * v2
        corners = pure_corner_indices(pi)
        assert np.abs(scaled2 - pi.weights @ scaled2[corners]).max() <= 1e-8


class TestSvmConeSelect:
    def test_ideal_cone_returns_distinct_unit_membership_rows(self):
        pi, normalized = ideal_cone_matrix()
        picks = svm_cone_select(normalized, 3).indices
        rows = pi.weights[list(picks)]
        assert (rows.max(axis=1) >= 1 - 1e-12).all()
        assert sorted(rows.argmax(axis=1)) == [0, 1, 2]

    def test_duplicated_orthonormal_rows(self):
        s = np.vstack([np.eye(3)] * 4)
        picks = svm_cone_select(s, 3).indices
        assert sorted(i % 3 for i in picks) == [0, 1, 2]

    def test_perturbed_cone_matches_exhaustive_subset_oracle(self):
        from itertools import combinations, permutations

        rng = np.random.default_rng(4)
        pi, _, _ = three_block_setup(n=60, n0=12)
        base = np.array([[1.0, 0.2, 0.1], [0.1, 1.0, 0.2], [0.2, 0.1, 1.0]])
        corners_true = base / np.linalg.norm(base, axis=1, keepdims=True)
        raw = pi.weights @ corners_true
        s = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        noise = rng.standard_normal(s.shape)
        noise *= 1e-4 / np.linalg.norm(noise, axis=1, keepdims=True)
        s = s + noise
        s /= np.linalg.norm(s, axis=1, keepdims=True)

        picks = svm_cone_select(s, 3).indices

        def subset_score(idx):
            best = np.inf
            for perm in permutations(range(3)):
                score = max(
                    np.linalg.norm(s[i] - corners_true[p]) for i, p in zip(idx, perm)
                )
                best = min(best, score)
            return best

        oracle_best = min(
            (subset_score(c) for c in combinations(range(60), 3))
        )
        assert subset_score(tuple(picks)) <= max(oracle_best + 1e-3, 1e-3)
        for row in s[list(picks)]:
            assert min(np.linalg.norm(row - c) for c in corners_true) <= 1e-3

    def test_degenerate_geometry_raises(self):
        s = np.tile(np.array([[1.0, 0.0]]), (5, 1))
        with pytest.raises(NumericalError, match="margin schedule"):
            svm_cone_select(s, 2)

    def test_seeded_determinism(self):
        pi, normalized = ideal_cone_matrix()
        a = svm_cone_select(normalized, 3, seed=9)
        b = svm_cone_select(normalized, 3, seed=9)
        assert a.indices == b.indices

    def test_kmeans_runs_once_on_exactly_k_rows(self, monkeypatch):
        # a run from each spied call's generator state, with all restarts,
        # must give the same centers
        import copy

        import scipy.cluster.vq

        kmeans, calls = scipy.cluster.vq.kmeans, []

        def spy(points, k, iter, rng):
            twin = copy.deepcopy(rng)
            centers = kmeans(points, k, iter=iter, rng=rng)
            assert np.array_equal(centers[0], kmeans(points, k, iter=KMEANS_RESTARTS, rng=twin)[0])
            calls.append((len(points), iter))
            return centers

        monkeypatch.setattr(scipy.cluster.vq, "kmeans", spy)
        rows = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1], [0, 2, 1]], dtype=float)
        assert sorted(svm_cone_select(rows / np.linalg.norm(rows, axis=1, keepdims=True), 3, seed=9).indices) == [0, 2, 4]
        svm_cone_select(np.vstack([np.eye(3)] * 4), 3)
        assert calls == [(3, 1), (12, KMEANS_RESTARTS)]

    @pytest.mark.parametrize("K", [0, 4])
    def test_k_outside_one_to_n_is_rejected_before_the_solve(self, nnls_fails, K):
        with pytest.raises(ValueError, match="1 <= K <= n"):
            svm_cone_select(np.eye(3), K)

    def test_checks_the_unit_rows_once(self, monkeypatch):
        from mmsbkit import corners

        checks, check = [], corners._check_unit_rows
        monkeypatch.setattr(corners, "_check_unit_rows", lambda s: checks.append(1) or check(s))
        _, normalized = ideal_cone_matrix()
        svm_cone_select(normalized, 3)
        assert len(checks) == 1
        with pytest.raises(ValueError, match="unit Euclidean norm"):
            svm_cone_select(2.0 * normalized, 3)
