import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import mmsbkit.model as model
from mmsbkit import (
    BlockModel,
    Graph,
    MembershipMatrix,
    PopulationMatrix,
    build_population_matrix,
    diag_off_block,
    planted_memberships,
    sample_adjacency,
)
from conftest import adjacency, constant_omega, dense_omega, omega_array, same_graph, three_block_setup


class TestMembershipMatrix:
    def test_valid_rows(self):
        pi = MembershipMatrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert pi.n == 2 and pi.K == 2

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MembershipMatrix(np.array([[0.5, 0.6]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MembershipMatrix(np.array([[1.2, -0.2]]))

    def test_immutable(self):
        pi = MembershipMatrix(np.eye(2))
        with pytest.raises(ValueError):
            pi.weights[0, 0] = 0.3


@pytest.mark.parametrize(
    "build, attr",
    [
        (MembershipMatrix, "weights"),
        (BlockModel, "tilde_p"),
    ],
)
def test_constructors_leave_callers_array_writable_and_unshared(build, attr):
    mine = np.full((3, 3), 0.2)
    np.fill_diagonal(mine, 0.6)
    obj = build(mine)
    mine[0, 1] = mine[1, 0] = 0.1  # the caller's array stays writable
    assert getattr(obj, attr)[0, 1] == 0.2
    assert not getattr(obj, attr).flags.writeable


def test_factored_population_matrix_copies_its_factors():
    pi, b = np.eye(2), np.full((2, 2), 0.3)
    omega = PopulationMatrix(pi=pi, b=b)
    pi[0, 0] = b[0, 0] = 0.0
    assert omega.pi[0, 0] == 1.0 and omega.b[0, 0] == 0.3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MembershipMatrix(np.array([0.5, 0.5])), "memberships must be a 2-d matrix"),
        (lambda: MembershipMatrix(np.array([[np.nan, 1.0]])), "memberships contain non-finite entries"),
        (lambda: BlockModel(np.full((2, 3), 0.5)), "connectivity must be square"),
        (lambda: BlockModel(np.array([[1.0, np.nan], [np.nan, 1.0]])), "connectivity contains non-finite entries"),
        (lambda: BlockModel(np.array([[1.0, -0.1], [-0.1, 1.0]])), "connectivity entries must be nonnegative"),
        (lambda: PopulationMatrix(pi=np.eye(2), b=np.array([[np.nan, 0.1], [0.1, 0.5]])), "factors contain non-finite"),
        (lambda: planted_memberships(10, 2, -1, "uniform"), "invalid sizes n=10, K=2, n0=-1"),
        (lambda: Graph.from_edges(3, np.array([[0, 1], [1, 3]])), "edge endpoint out of range"),
        (lambda: Graph.from_edges(3, np.array([[-1, 2]])), "edge endpoint out of range"),
    ],
    ids=[
        "memberships-1d", "memberships-nan", "connectivity-not-square", "connectivity-nan", "connectivity-negative",
        "factors-nan", "negative-n0", "edge-id-at-n", "edge-id-negative",
    ],
)
def test_input_outside_the_contract_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestBlockModel:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            BlockModel(np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError, match="rank deficient"):
            BlockModel(np.ones((2, 2)))

    def test_rejects_bad_rho(self):
        for rho in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="rho"):
                BlockModel(np.eye(2), rho=rho)

    def test_rejects_entries_above_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            BlockModel(np.array([[1.2, 0.1], [0.1, 0.9]]))

    def test_scaled_connectivity(self):
        block = BlockModel(np.eye(3), rho=0.25)
        assert np.allclose(block.p, 0.25 * np.eye(3))


class TestBuildPopulationMatrix:
    def test_identity_case(self):
        pi = MembershipMatrix(np.eye(2))
        block = BlockModel(np.eye(2), rho=1.0)
        omega = build_population_matrix(pi, block)
        assert np.array_equal(omega_array(omega), np.eye(2))

    def test_hand_expanded_three_node_case(self):
        # rows e1, e2, (0.5, 0.5) with unit diagonal, 0.5 off-diagonal
        pi = MembershipMatrix(np.array([[1, 0], [0, 1], [0.5, 0.5]], dtype=float))
        block = BlockModel(np.array([[1.0, 0.5], [0.5, 1.0]]), rho=1.0)
        omega = omega_array(build_population_matrix(pi, block))
        assert omega[2, 2] == pytest.approx(0.75, abs=1e-15)
        assert omega[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert omega[0, 2] == pytest.approx(0.75, abs=1e-15)

    def test_rho_zero_is_rejected_by_block_model(self):
        # rho = 0 is outside the legal sparsity range; the zero expected
        # adjacency is reachable only through a direct construction
        zero = dense_omega(np.zeros((4, 4)))
        assert omega_array(zero).max() == 0.0

    def test_dimension_mismatch(self):
        pi = MembershipMatrix(np.eye(2))
        block = BlockModel(np.eye(3))
        with pytest.raises(ValueError, match="mismatch"):
            build_population_matrix(pi, block)

    def test_rank_is_exactly_k(self):
        pi, _, omega = three_block_setup(n=90, n0=20)
        svals = np.linalg.svd(omega_array(omega), compute_uv=False)
        assert svals[2] > 1e-10 * svals[0]
        assert svals[3] < 1e-10 * svals[0]


class TestSampleAdjacency:
    def test_zero_matrix_gives_empty_graph(self):
        omega = dense_omega(np.zeros((10, 10)))
        g = sample_adjacency(omega, 0)
        assert g.edge_count() == 0
        assert np.array_equal(g.degrees(), np.zeros(10))

    def test_all_ones_off_diagonal_gives_complete_graph(self):
        n = 12
        omega = dense_omega(np.ones((n, n)) - np.eye(n))
        g = sample_adjacency(omega, 5)
        assert g.edge_count() == n * (n - 1) // 2
        assert np.array_equal(g.degrees(), np.full(n, n - 1.0))

    def test_seed_determinism(self):
        _, _, omega = three_block_setup(n=60, n0=12)
        a = sample_adjacency(omega, 42)
        b = sample_adjacency(omega, 42)
        assert same_graph(a, b)

    def test_different_seeds_differ(self):
        _, _, omega = three_block_setup(n=60, n0=12)
        a = sample_adjacency(omega, 1)
        b = sample_adjacency(omega, 2)
        assert not same_graph(a, b)

    def test_density_matches_binomial_concentration(self):
        # mean density over 50 seeded draws stays within 3 standard
        # errors of the planted 0.3 edge probability
        n, p, seeds = 200, 0.3, 50
        omega = constant_omega(n, p)
        densities = []
        for seed in range(seeds):
            g = sample_adjacency(omega, seed)
            densities.append(g.degrees().sum() / (n * (n - 1)))
        pairs = n * (n - 1) / 2
        se = np.sqrt(p * (1 - p) / pairs / seeds)
        assert abs(np.mean(densities) - p) <= 3 * se

    def test_no_self_loops(self):
        _, _, omega = three_block_setup(n=40, n0=8)
        g = sample_adjacency(omega, 9)
        assert adjacency(g).diagonal().sum() == 0


def row_loop_sample(omega: PopulationMatrix, seed: int) -> Graph:
    """Reference sampler, one row or one candidate at a time.

    Within each block of rows, a block whose rate bound exceeds
    ``GATHER_SHARE`` draws one uniform per row i over columns i+1 .. n-1. Any other block walks its pairs in
    row-major order by geometric gaps, one batch at a time, then draws one
    thinning uniform per candidate."""
    n = omega.n
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    pairs = [np.empty((0, 2), dtype=np.int64)]
    starts = model._block_starts(n).tolist()
    for r0, r1 in zip(starts, starts[1:]):
        bound = omega.bound(slice(r0, r1), slice(r0 + 1, n))
        if bound > model.GATHER_SHARE:
            for i in range(r0, r1):
                rates = omega.entries(slice(i, i + 1), slice(i + 1, n))[0]
                hits = np.nonzero(rng.random(n - 1 - i) < rates)[0]
                pairs.append(np.column_stack([np.full(hits.size, i), hits + i + 1]))
            continue
        m = sum(n - 1 - i for i in range(r0, r1))
        flat, at = [], -1
        while at < m - 1:
            mean = (m - 1 - at) * bound
            batch = int(mean + 4.0 * np.sqrt(mean * (1.0 - bound))) + 16
            with np.errstate(divide="ignore"):
                gaps = np.floor(np.log1p(-rng.random(batch)) / np.log1p(-bound))
            for gap in gaps:
                at += int(min(gap, m)) + 1
                if at < m:
                    flat.append(at)
        i, row_start, row_end, cand = r0, 0, n - 1 - r0, []
        for at in flat:
            while at >= row_end:
                i += 1
                row_start, row_end = row_end, row_end + n - 1 - i
            cand.append((i, i + 1 + at - row_start))
        cand = np.array(cand, dtype=np.int64).reshape(-1, 2)
        keep = rng.random(len(cand)) * bound < omega.entries(cand[:, 0], cand[:, 1])
        pairs.append(cand[keep])
    return Graph.from_edges(n, np.concatenate(pairs))


def factored_omega(n, K=3, rho=0.5, seed=0):
    pi = planted_memberships(n, K, n // (2 * K), "random-half", seed=seed)
    return build_population_matrix(pi, BlockModel(diag_off_block(K, 0.8, 0.1), rho=rho))


class TestBlockSampler:
    @pytest.mark.parametrize("block", [1, 7, "n", None])
    @pytest.mark.parametrize("n", [1, 2, 3, 90])
    @pytest.mark.parametrize("rho", [0.01, 0.5, 1.0])
    def test_matches_row_loop_on_factored_and_dense_omega(self, monkeypatch, block, n, rho):
        if block is not None:
            monkeypatch.setattr(model, "SAMPLE_BLOCK", n if block == "n" else block)
        omega = factored_omega(n, K=1 if n < 3 else 3, rho=rho, seed=n)
        # the same Omega with K = n factors has other bounds, so other routes and draws
        dense = dense_omega(omega_array(omega))
        for seed in (0, 19):
            assert np.array_equal(sample_adjacency(omega, seed).edges(), row_loop_sample(omega, seed).edges())
            assert np.array_equal(sample_adjacency(dense, seed).edges(), row_loop_sample(dense, seed).edges())

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_factored_blocks_above_the_share_draw_every_pair_as_dense(self, rho):
        # one uniform per pair: the same graph as the same Omega held as K = n factors
        omega = factored_omega(90, rho=rho, seed=90)
        dense = dense_omega(omega_array(omega))
        for held in (omega, dense):
            assert model._block_bounds(held, model._block_starts(90)).min() > model.GATHER_SHARE
        for seed in (0, 19):
            expected = row_loop_sample(dense, seed).edges()
            assert np.array_equal(sample_adjacency(omega, seed).edges(), expected)
            assert np.array_equal(sample_adjacency(dense, seed).edges(), expected)

    def test_several_default_blocks_match_row_loop(self):
        omega = factored_omega(1600, rho=0.05, seed=4)
        assert model._block_starts(omega.n).size > 2
        edges = sample_adjacency(omega, 8).edges()
        assert np.array_equal(edges, row_loop_sample(omega, 8).edges())

    def test_blocks_cover_every_row_once(self, monkeypatch):
        for block in (1, 7, 50, 1 << 20):
            monkeypatch.setattr(model, "SAMPLE_BLOCK", block)
            starts = model._block_starts(50).tolist()
            runs = list(zip(starts, starts[1:]))
            assert runs[0][0] == 0 and runs[-1][1] == 49
            assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
            assert all((r1 - r0) * (49 - r0) <= max(block, 49 - r0) for r0, r1 in runs)

    @pytest.mark.parametrize("n, r0, r1", [(2, 0, 1), (9, 0, 8), (9, 3, 5), (12, 10, 11), (30, 4, 20)])
    def test_pair_index_numbers_pairs_in_row_major_order(self, n, r0, r1):
        # flat position k of the block is its k-th pair (i, j), i < j, in
        # row-major order; rows may hold no position, or all of theirs
        block = [(i, j) for i in range(r0, r1) for j in range(i + 1, n)]
        lengths = np.arange(n - 1 - r0, n - 1 - r1, -1)
        starts = np.cumsum(lengths) - lengths
        rng = np.random.default_rng(n + r0)
        for flat in (np.arange(len(block)), np.array([], dtype=np.int64), starts, starts + lengths - 1,
                     np.flatnonzero(rng.random(len(block)) < 0.3)):
            i, j = model._pair_index(flat, starts, r0)
            assert i.dtype == j.dtype == np.int64
            assert list(zip(i.tolist(), j.tolist())) == [block[k] for k in flat]

    def test_factored_sampling_never_builds_omega(self):
        n = 4000
        omega = factored_omega(n, rho=0.05, seed=1)
        tracemalloc.start()
        try:
            graph = sample_adjacency(omega, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edge_count() > 0
        assert peak < n * n * 8 / 4


class TestFactoredPopulationMatrix:
    def test_matrix_is_symmetric_and_matches_product(self):
        pi = planted_memberships(300, 3, 50, "random-half", seed=2)
        block = BlockModel(diag_off_block(3, 0.8, 0.1), rho=0.7)
        m = omega_array(build_population_matrix(pi, block))
        assert np.array_equal(m, m.T)
        assert np.abs(m - pi.weights @ block.p @ pi.weights.T).max() <= 1e-15

    def test_entries_match_matrix_bit_for_bit(self):
        omega = factored_omega(120, seed=3)
        blocks = [omega.entries(slice(a, b), slice(c, d)) for a, b, c, d in
                  [(0, 120, 0, 120), (5, 6, 0, 120), (17, 60, 18, 120), (119, 120, 3, 77)]]
        m = omega_array(omega)
        assert np.array_equal(blocks[0], m)
        assert np.array_equal(blocks[1], m[5:6])
        assert np.array_equal(blocks[2], m[17:60, 18:])
        assert np.array_equal(blocks[3], m[119:, 3:77])

    @pytest.mark.parametrize("K", [1, 3, 5])
    def test_degrees_match_dense_row_sums(self, K):
        rng = np.random.default_rng(K)
        for n in (2, 60, 300):
            omega = random_factored_omega(rng, n, K, rho=rng.random())
            assert np.abs(omega.degrees() - omega_array(omega).sum(axis=1)).max() <= 1e-12

    def test_dense_fixture_equals_its_array_entry_for_entry(self):
        m = omega_array(factored_omega(70, seed=6))
        assert np.array_equal(omega_array(dense_omega(m)), m)
        assert np.abs(dense_omega(m).degrees() - m.sum(axis=1)).max() <= 1e-12

    def test_entries_are_clipped_to_unit_interval(self):
        omega = PopulationMatrix(pi=np.ones((3, 1)), b=np.full((3, 1), 1.5))
        assert np.array_equal(omega_array(omega), np.ones((3, 3)))

    def test_needs_both_factors(self):
        w = np.full((3, 2), 0.5)
        with pytest.raises(TypeError):
            PopulationMatrix()
        with pytest.raises(TypeError):
            PopulationMatrix(pi=w)
        with pytest.raises(TypeError):
            PopulationMatrix(np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            PopulationMatrix(pi=w, b=w[:, :1])
        with pytest.raises(ValueError, match="nonnegative"):
            PopulationMatrix(pi=w, b=-w)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 3), (0, 0)])
    def test_rejects_empty_factors(self, shape):
        with pytest.raises(ValueError, match=r"factors must share one \(n, K\) shape"):
            PopulationMatrix(pi=np.zeros(shape), b=np.zeros(shape))


class TestPlantedMemberships:
    def test_four_profiles_counts(self):
        pi = planted_memberships(1000, 3, 100, "four-profiles")
        pure = pi.pure_mask()
        assert pure[:300].all() and not pure[300:].any()
        mixed = pi.weights[300:]
        for profile, count in [
            ((0.4, 0.4, 0.2), 175),
            ((0.4, 0.2, 0.4), 175),
            ((0.2, 0.4, 0.4), 175),
            ((1 / 3, 1 / 3, 1 / 3), 175),
        ]:
            matches = np.isclose(mixed, profile, atol=1e-12).all(axis=1).sum()
            assert matches == count

    def test_four_profiles_remainder_goes_to_uniform(self):
        pi = planted_memberships(1002, 3, 100, "four-profiles")
        mixed = pi.weights[300:]
        uniform = np.isclose(mixed, 1 / 3, atol=1e-12).all(axis=1).sum()
        assert uniform == 177  # 702 mixed rows: 175 + 175 + 175 + 177

    def test_all_pure_when_counts_exhaust_n(self):
        pi = planted_memberships(6, 3, 2, "uniform")
        expected = np.repeat(np.eye(3), 2, axis=0)
        assert np.array_equal(pi.weights, expected)

    def test_random_half_rows(self):
        pi = planted_memberships(800, 3, 200, "random-half", seed=7)
        mixed = pi.weights[600:]
        assert mixed.shape == (200, 3)
        assert np.allclose(mixed.sum(axis=1), 1.0, atol=1e-12)
        head = mixed[:, :2]
        assert (head > 0).all() and (head <= 0.5).all()

    def test_random_half_is_seeded(self):
        a = planted_memberships(40, 3, 5, "random-half", seed=3)
        b = planted_memberships(40, 3, 5, "random-half", seed=3)
        c = planted_memberships(40, 3, 5, "random-half", seed=4)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_pure_block_is_identity_at_block_heads(self):
        n0 = 25
        pi = planted_memberships(200, 4, n0, "uniform")
        heads = [k * n0 for k in range(4)]
        assert np.array_equal(pi.weights[heads], np.eye(4))

    def test_four_profiles_requires_k3(self):
        with pytest.raises(ValueError, match="K = 3"):
            planted_memberships(40, 4, 5, "four-profiles")
        # with no mixed rows too, in the words of the sweep's validate skip
        with pytest.raises(ValueError, match="^four-profiles requires K = 3$"):
            planted_memberships(6, 2, 3, "four-profiles")

    @pytest.mark.parametrize(
        "n, K, n0, profile, digest",
        [
            (7, 1, 3, "random-half", "022451970ff25a1cf57eb1602f05e6ab8a2d0edb918d8efd1574f2ef1a77898f"),
            (9, 1, 0, "random-half", "19088d37e44fec2ac250d3cc3ba2102f084acde81a46ade67312433a0a6af3e2"),
            (9, 3, 3, "uniform", "6e028ab4792b1536a45ddb84ab0399e60aed51978c378230dc4bdd01cee6101a"),
            (9, 3, 3, "random-half", "6e028ab4792b1536a45ddb84ab0399e60aed51978c378230dc4bdd01cee6101a"),
            (9, 3, 3, "four-profiles", "6e028ab4792b1536a45ddb84ab0399e60aed51978c378230dc4bdd01cee6101a"),
            (40, 3, 5, "uniform", "de2ba87a3cc6b7364dc011ce19424c844da9889f87e96112f35dfb072c101e58"),
            (40, 3, 5, "random-half", "be49021eb290e2cca657c2c7ece8e5fa9dc67ec24b83a0e40b064e5c3ddc9471"),
            (40, 3, 5, "four-profiles", "c143539dd0cc9d9b5310582994e40f8eea10e4fbbe77d5461f502ed63139546a"),
        ],
        ids=["k1-mixed", "k1-all-mixed", "uniform-all-pure", "random-half-all-pure", "four-profiles-all-pure",
             "uniform-mixed", "random-half-mixed", "four-profiles-mixed"],
    )
    def test_layout_bytes_are_pinned(self, n, K, n0, profile, digest):
        # sha256 of the float64 weights, seed 5; K=1 mixed rows are all 1
        weights = planted_memberships(n, K, n0, profile, seed=5).weights
        assert hashlib.sha256(weights.tobytes()).hexdigest() == digest

    def test_rejects_overfull_pure_blocks(self):
        with pytest.raises(ValueError, match="exceeds"):
            planted_memberships(10, 3, 4, "uniform")

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            planted_memberships(10, 2, 2, "zigzag")


class TestGraph:
    def test_degrees_equal_row_sums(self):
        g = Graph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
        assert np.array_equal(g.degrees(), [1, 2, 2, 1])
        assert np.array_equal(g.degrees(), np.asarray(adjacency(g).sum(axis=1)).ravel())

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, np.array([[1, 1]]))

    def test_duplicate_and_reversed_edges_collapse(self):
        # both go through the COO route; 300 mentions of one pair, half of
        # them reversed, would wrap an 8-bit count (300 mod 256 = 44)
        for pairs in ([[0, 1], [1, 0], [0, 1]], [[0, 1], [1, 0]] * 150):
            g = Graph.from_edges(3, np.array(pairs))
            assert g.edge_count() == 1
            assert g.indices.tolist() == [1, 0]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_from_edges_equals_concatenated_coo_build(self, data):
        # unsorted, reversed and repeated pairs; the reference is the build
        # that appended the reversed half and sorted every row
        n = data.draw(st.integers(0, 40))
        ids = st.integers(0, max(n - 1, 0))
        pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=60 if n > 1 else 0))
        pairs = np.array([p for p in pairs if p[0] != p[1]], dtype=np.int64).reshape(-1, 2)
        self._assert_same_csr(adjacency(Graph.from_edges(n, pairs)), concatenated_coo_adjacency(n, pairs))

    @pytest.mark.parametrize("order", ["sorted", "shuffled", "reversed"])
    def test_from_edges_equals_concatenated_coo_build_at_scale(self, order):
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 70_000, size=(200_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.vstack([pairs, pairs[:5000]])  # repeats
        if order == "sorted":
            pairs = np.sort(pairs, axis=1)
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        elif order == "reversed":
            pairs = pairs[:, ::-1]
        self._assert_same_csr(adjacency(Graph.from_edges(70_000, pairs)), concatenated_coo_adjacency(70_000, pairs))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_direct_build_equals_coo_route(self, data):
        # row-major and reversed pairs fold to the direct build, shuffled
        # and repeated ones take the COO route; nodes past m are isolated
        m = data.draw(st.integers(1, 40))
        n = m + data.draw(st.integers(0, 5))
        ids = st.integers(0, m - 1)
        drawn = data.draw(st.lists(st.tuples(ids, ids), max_size=60 if m > 1 else 0))
        pairs = np.array([p for p in drawn if p[0] != p[1]], dtype=np.int64).reshape(-1, 2)
        order = data.draw(st.sampled_from(["row-major", "reversed", "shuffled", "repeated"]))
        folded = np.unique(np.sort(pairs, axis=1), axis=0)  # row-major, distinct
        if order == "row-major":
            pairs = folded
        elif order == "reversed":
            pairs = folded[:, ::-1]
        elif order == "repeated":
            pairs = np.repeat(folded, 2, axis=0)
        else:
            pairs = pairs[data.draw(st.permutations(range(len(pairs))))]
        if order != "shuffled":
            lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
            assert model._row_major(lo, hi) == (order != "repeated" or len(pairs) == 0)
        mine = adjacency(Graph.from_edges(n, pairs))
        self._assert_same_csr(mine, coo_route_adjacency(n, pairs))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_edgeless_direct_build_equals_coo_route(self, n):
        pairs = np.empty((0, 2), dtype=np.int64)
        self._assert_same_csr(adjacency(Graph.from_edges(n, pairs)), coo_route_adjacency(n, pairs))

    def test_row_major_order_holds_for_ids_beyond_key_range(self):
        # keys i * n + j overflow int64 once n passes about 3.04e9: for
        # n = 3.1e9 the key of (3e9, 3e9 + 1) wraps below that of (0, 1)
        n, big = 3_100_000_000, 3_000_000_000
        lo, hi = np.array([big, 0]), np.array([big + 1, 1])
        assert (lo * n + hi)[0] < (lo * n + hi)[1]  # the keys misjudge it
        assert not model._row_major(lo, hi)
        assert model._row_major(lo[::-1], hi[::-1])
        assert not model._row_major(np.array([big, big]), np.array([big + 1, big + 1]))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_row_major_agrees_with_differences(self, data):
        # ties, repeats and descending runs, with ids small or near 2**62
        base = data.draw(st.sampled_from([0, 2**62 - 50]))
        ids = st.integers(base, base + 100)
        size = data.draw(st.integers(0, 30))
        lo = np.array(data.draw(st.lists(ids, min_size=size, max_size=size)), dtype=np.int64)
        hi = np.array(data.draw(st.lists(ids, min_size=size, max_size=size)), dtype=np.int64)
        shape = data.draw(st.sampled_from(["as drawn", "sorted", "sorted, repeated", "descending"]))
        if shape != "as drawn":
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
        if shape == "sorted, repeated" and size:
            lo, hi = np.insert(lo, size // 2, lo[size // 2]), np.insert(hi, size // 2, hi[size // 2])
        elif shape == "descending":
            lo, hi = lo[::-1], hi[::-1]
        step = np.diff(lo)
        expected = bool((step >= 0).all() and ((step > 0) | (np.diff(hi) > 0)).all())
        assert model._row_major(lo, hi) == expected

    @staticmethod
    def _assert_same_csr(mine, ref):
        assert mine.shape == ref.shape and mine.has_canonical_format
        for part in ("indptr", "indices", "data"):
            a, b = getattr(mine, part), getattr(ref, part)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_a_graph_enters_only_from_its_edges(self):
        # no constructor takes a matrix: from_edges is the checked way in
        with pytest.raises(TypeError):
            Graph(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))


def concatenated_coo_adjacency(n: int, pairs: np.ndarray) -> sp.csr_matrix:
    """Reference ``from_edges`` matrix: both orientations of every pair
    through one COO -> CSR conversion, which sorts every row."""
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    a = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    a.data[:] = 1.0
    return a


def coo_route_adjacency(n: int, pairs: np.ndarray) -> sp.csr_matrix:
    """Reference ``from_edges`` matrix by the COO route alone: the pairs
    folded to i < j, converted COO -> CSR, plus the transpose."""
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    upper = sp.csr_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
    upper.data[:] = 1.0
    return upper + upper.T


def fancy_index_entries(pi: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Reference pair entries: the same products and increasing-k sums,
    read from the (n, K) factors by 2-d fancy indexing."""
    left, right = b[i, 0] * pi[j, 0], pi[i, 0] * b[j, 0]
    for k in range(1, pi.shape[1]):
        left += b[i, k] * pi[j, k]
        right += pi[i, k] * b[j, k]
    return np.clip((left + right) / 2.0, 0.0, 1.0)


def triu_edges(graph: Graph) -> np.ndarray:
    """Reference edge list: upper triangle through COO, then sorted."""
    coo = sp.triu(adjacency(graph), k=1).tocoo()
    pairs = np.column_stack([coo.row, coo.col]).astype(np.int64)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class TestGraphEdges:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sorted_upper_triangle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        graph = Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
        edges = graph.edges()
        assert edges.dtype == np.int64 and edges.shape == (graph.edge_count(), 2)
        assert np.array_equal(edges, triu_edges(graph))

    @pytest.mark.parametrize("n", [1, 5])
    def test_edgeless_graph_has_no_edges(self, n):
        graph = Graph.from_edges(n, np.empty((0, 2)))
        assert graph.edges().shape == (0, 2)
        assert np.array_equal(graph.edges(), triu_edges(graph))


def random_factored_omega(rng, n, K, rho, rows="stochastic"):
    """Factored Omega of random memberships and connectivity; ``rho`` near
    1 drives entries to 1, so the clip in the kernel and the bound is hit.

    ``rows`` picks the factors: ``"stochastic"`` memberships and ``b = pi
    @ P``; ``"above one"`` the same with every row grown by 1e-12;
    ``"flat"`` stochastic memberships and ``b`` constant along each row,
    where the Hölder bound is met up to rounding; ``"free"`` nonnegative
    rows of any sum in both factors."""
    pi = rng.dirichlet(np.full(K, 0.5), size=n)
    pi[rng.random(n) < 0.3] = np.eye(K)[rng.integers(0, K)]
    p = rng.random((K, K))
    p = (p + p.T) / 2
    np.fill_diagonal(p, 1.0)
    b = pi @ (rho * p) * (1.0 + 1e-15)
    if rows == "above one":
        pi, b = pi * (1.0 + 1e-12), b * (1.0 + 1e-12)
    elif rows == "flat":
        b = np.repeat(rho * rng.random((n, 1)), K, axis=1)
    elif rows == "free":
        pi, b = rng.random((n, K)) * rng.uniform(0.0, 3.0, (n, 1)), rho * rng.random((n, K))
    return PopulationMatrix(pi=pi, b=b)


def column_bound(omega: PopulationMatrix, rows: slice, cols: slice) -> float:
    """The bound without its Hölder term: each factor column replaced by
    its maximum over the block's rows or columns, summed in increasing k,
    capped at 1."""
    pi, b = omega.pi, omega.b
    b_i, pi_j, pi_i, b_j = b[rows].max(axis=0), pi[cols].max(axis=0), pi[rows].max(axis=0), b[cols].max(axis=0)
    left, right = b_i[0] * pi_j[0], pi_i[0] * b_j[0]
    for k in range(1, pi.shape[1]):
        left += b_i[k] * pi_j[k]
        right += pi_i[k] * b_j[k]
    return float(min((left + right) / 2.0, 1.0))


FACTOR_ROWS = ["stochastic", "above one", "flat", "free"]


def recipe_omega(n, n0, profile, diag, off, rho):
    """Omega of a benchmark recipe: K=3, seed 5."""
    pi = planted_memberships(n, 3, n0, profile, seed=5)
    return build_population_matrix(pi, BlockModel(diag_off_block(3, diag, off), rho=rho))


class TestSamplerTileBound:
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 90])
    def test_bound_is_at_least_every_entry_of_its_tile(self, K, n):
        rng = np.random.default_rng(100 * n + K)
        for rows in FACTOR_ROWS:
            clipped = tighter = False
            for _ in range(60):
                omega = random_factored_omega(rng, n, K, rho=rng.choice([0.01, rng.random(), 1.0]), rows=rows)
                r0, r1 = np.sort(rng.choice(n + 1, 2, replace=False))
                c0, c1 = np.sort(rng.choice(n + 1, 2, replace=False))
                tile = omega.entries(slice(r0, r1), slice(c0, c1))
                bound = omega.bound(slice(r0, r1), slice(c0, c1))
                old = column_bound(omega, slice(r0, r1), slice(c0, c1))
                assert tile.max() <= bound <= old
                clipped |= bool((tile == 1.0).any())
                tighter |= bound < old
            # a flat b stays below 1; with one community the two bounds
            # take the same product, and the Hölder one is grown
            assert clipped == (rows != "flat")
            assert tighter == (K > 1)

    @pytest.mark.parametrize(
        "recipe, skips",
        [
            # the sweep grid at rho=0.2 (four-profiles, 1.0/0.5 blocks):
            # bound 0.2, candidates by geometric skips
            ((500, 100, "four-profiles", 1.0, 0.5, 0.2), True),
            # the cluster-dense graph (random-half, 0.8/0.1 blocks, rho=1):
            # every bound above GATHER_SHARE, one uniform per pair
            ((2000, 400, "random-half", 0.8, 0.1, 1.0), False),
        ],
    )
    def test_recipe_takes_its_route(self, monkeypatch, recipe, skips):
        omega = recipe_omega(*recipe)
        routes = []

        def spy(name):
            original = getattr(model, name)
            monkeypatch.setattr(model, name, lambda *args: routes.append(name) or original(*args))

        spy("_block_hits")
        spy("_skip_candidates")
        for _ in model.sample_edge_blocks(omega, 5):
            pass
        assert set(routes) == {"_skip_candidates" if skips else "_block_hits"}

    @pytest.mark.parametrize(
        "recipe",
        [(6000, 1200, "random-half", 0.8, 0.1, 0.02)]
        + [(500, 100, "four-profiles", 1.0, 0.5, rho) for rho in (0.01, 0.2, 0.5, 1.0)],
    )
    def test_no_rate_exceeds_its_block_bound(self, recipe):
        # the generate-sparse and sweep-grid recipes
        omega = recipe_omega(*recipe)
        n = omega.n
        starts = model._block_starts(n)
        for r0, r1, bound in zip(starts.tolist(), starts[1:].tolist(), model._block_bounds(omega, starts).tolist()):
            rates = omega.entries(slice(r0, r1), slice(r0 + 1, n))
            assert rates[np.arange(n - r0 - 1) >= np.arange(r1 - r0)[:, None]].max() <= bound
            assert bound == omega.bound(slice(r0, r1), slice(r0 + 1, n))

    def test_pair_entries_equal_matrix_entries_bit_for_bit(self):
        omega = factored_omega(70, seed=6)
        rng = np.random.default_rng(6)
        i, j = rng.integers(0, 70, 500), rng.integers(0, 70, 500)
        pairs = omega.entries(i, j)
        assert np.array_equal(pairs, omega_array(omega)[i, j])
        assert np.array_equal(pairs, dense_omega(omega_array(omega)).entries(i, j))

    @pytest.mark.parametrize("K", [1, 3, 5])
    def test_pair_gathers_equal_the_block_path_bit_for_bit(self, K):
        # strided and unsorted index arrays; the block path reads the same
        # factors through 2-d broadcast indices
        rng = np.random.default_rng(K)
        n = 90
        omega = random_factored_omega(rng, n, K, rho=1.0)
        full = omega.entries(slice(None), slice(None))
        i, j = rng.integers(0, n, (2, 3000))[:, ::3]
        assert not (i.flags.c_contiguous or np.all(np.diff(i) >= 0))
        for rows, cols in ((i, j), (j, i), (i[::-1], j[::-1])):
            pairs = omega.entries(rows, cols)
            assert np.array_equal(pairs, full[rows, cols])
            assert np.array_equal(pairs, fancy_index_entries(omega.pi, omega.b, rows, cols))
        assert np.array_equal(full, full.T)

    @pytest.mark.parametrize(
        "share, rho, route",
        [(1.0, 1.0, "pairs"), (1.0, 0.5, "pairs"), (0.0, 0.01, "block"), (0.0, 0.5, "block")],
    )
    @pytest.mark.parametrize("n", [2, 3, 90, 400])
    def test_either_route_matches_row_loop(self, monkeypatch, share, rho, route, n):
        # a share of 1 sends every block down the skip route, 0 sends every
        # block with a nonzero bound through all of its pairs; a small
        # block size gives many blocks
        monkeypatch.setattr(model, "GATHER_SHARE", share)
        monkeypatch.setattr(model, "SAMPLE_BLOCK", 1000)
        calls = []
        block_hits = model._block_hits
        monkeypatch.setattr(model, "_block_hits", lambda *a: calls.append(1) or block_hits(*a))
        omega = factored_omega(n, K=1 if n < 3 else 3, rho=rho, seed=n)
        # K = n factors at n = 400 take seconds per draw in the reference loop
        forms = (omega, dense_omega(omega_array(omega))) if n <= 90 else (omega,)
        for seed in (0, 19):
            for held in forms:
                assert np.array_equal(sample_adjacency(held, seed).edges(), row_loop_sample(held, seed).edges())
        assert (len(calls) > 0) == (route == "block")

    def test_factored_sampling_peak_memory(self):
        # measured 23.4 MB, most of it building the Graph; computing every
        # rate of each block of 2^20 pairs peaked at 27.1 MB
        omega = factored_omega(4000, rho=0.05, seed=1)
        tracemalloc.start()
        try:
            graph = sample_adjacency(omega, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edge_count() > 0
        assert peak < 25e6


def law_omega() -> PopulationMatrix:
    """Twelve nodes, half of them mixed, entries from 0.01 to 0.08 and a
    bound of at most 0.24 on any block: every block of the sampler takes
    the skip route, and most candidates are thinned."""
    pi = planted_memberships(12, 3, 2, "random-half", seed=3)
    return build_population_matrix(pi, BlockModel(diag_off_block(3, 0.8, 0.1), rho=0.1))


def edge_indicators(omega: PopulationMatrix, seeds: int) -> np.ndarray:
    """(seeds, pairs) 0/1 array: row s flags the edges, in row-major pair
    order, of the graph drawn with seed s."""
    upper = np.triu_indices(omega.n, 1)
    return np.array([adjacency(sample_adjacency(omega, seed)).toarray()[upper] for seed in range(seeds)], dtype=np.int64)


class TestSamplerLaw:
    """The skip route draws each pair independently as Bernoulli(Omega_ij),
    at any block size; its stream depends on the block partition through
    the bounds, so these tests check the law, not bytes."""

    SEEDS = 2000
    ALPHA = 1e-6  # chance of a false failure, split over the pairs tested

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_pair_frequencies_follow_omega(self, monkeypatch, block):
        from scipy.stats import binom

        if block is not None:
            monkeypatch.setattr(model, "SAMPLE_BLOCK", block)
        omega = law_omega()
        assert model._block_bounds(omega, model._block_starts(omega.n)).max() <= model.GATHER_SHARE
        counts = edge_indicators(omega, self.SEEDS).sum(axis=0)
        rates = omega_array(omega)[np.triu_indices(omega.n, 1)]
        lo, hi = binom.interval(1.0 - self.ALPHA / rates.size, self.SEEDS, rates)
        assert ((lo <= counts) & (counts <= hi)).all()
        # all pairs at once: a rate a few percent off everywhere shows here
        mean, sd = self.SEEDS * rates.sum(), np.sqrt(self.SEEDS * (rates * (1.0 - rates)).sum())
        assert abs(counts.sum() - mean) <= 5.0 * sd

    def test_neighbouring_pairs_co_occur_independently(self):
        # consecutive pairs of the row-major order share a gap draw or a
        # thinning batch; their joint frequency is the product of rates
        from scipy.stats import binom

        omega = law_omega()
        assert model._block_starts(omega.n).size == 2
        x = edge_indicators(omega, self.SEEDS)
        rates = omega_array(omega)[np.triu_indices(omega.n, 1)]
        both = (x[:, 1:] & x[:, :-1]).sum(axis=0)
        joint = rates[1:] * rates[:-1]
        lo, hi = binom.interval(1.0 - self.ALPHA / joint.size, self.SEEDS, joint)
        assert ((lo <= both) & (both <= hi)).all()

    @pytest.mark.parametrize("block", [1, 7, 64, None])
    def test_suffix_maxima_give_each_block_its_bound(self, monkeypatch, block):
        # 64 gives the bounds runs of 8 nodes, each of several blocks
        if block is not None:
            monkeypatch.setattr(model, "SAMPLE_BLOCK", block)
        rng = np.random.default_rng(17)
        for n in (2, 3, 90, 400):
            for K in (1, 3):
                for rows in FACTOR_ROWS:
                    omega = random_factored_omega(rng, n, K, rho=rng.choice([0.01, rng.random(), 1.0]), rows=rows)
                    starts = model._block_starts(n).tolist()
                    expected = [omega.bound(slice(r0, r1), slice(r0 + 1, n)) for r0, r1 in zip(starts, starts[1:])]
                    assert model._block_bounds(omega, model._block_starts(n)).tolist() == expected

    def test_zero_bound_draws_nothing(self):
        pi = np.full((30, 2), 0.5)
        omega = PopulationMatrix(pi=pi, b=np.zeros_like(pi))
        assert sample_adjacency(omega, 4).edge_count() == 0
