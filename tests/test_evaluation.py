import tracemalloc

import numpy as np
import pytest

from mmsbkit import (
    Graph,
    MembershipMatrix,
    default_tau,
    laplacian_concentration,
    mixed_hamming_error,
    network_stats,
    sample_adjacency,
)
from conftest import constant_omega, dense_omega, three_block_setup


class TestMixedHammingError:
    def test_identity(self):
        pi = MembershipMatrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        report = mixed_hamming_error(pi, pi)
        assert report.error == 0.0
        assert np.array_equal(report.per_node, np.zeros(2))

    def test_column_swap_absorbed(self):
        pi = MembershipMatrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        swapped = MembershipMatrix(pi.weights[:, ::-1])
        report = mixed_hamming_error(swapped, pi)
        assert report.error == 0.0
        assert report.permutation == (1, 0)

    def test_hand_computed_two_node_case(self):
        truth = MembershipMatrix(np.eye(2))
        estimate = MembershipMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
        report = mixed_hamming_error(estimate, truth)
        assert report.error == pytest.approx(0.8, abs=1e-15)
        assert report.permutation == (0, 1)

    def test_invariance_under_column_permutations(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            raw = rng.random((15, 4)) + 0.01
            a = MembershipMatrix(raw / raw.sum(axis=1, keepdims=True))
            raw = rng.random((15, 4)) + 0.01
            b = MembershipMatrix(raw / raw.sum(axis=1, keepdims=True))
            base = mixed_hamming_error(a, b).error
            perm = rng.permutation(4)
            shuffled = MembershipMatrix(a.weights[:, perm])
            assert mixed_hamming_error(shuffled, b).error == pytest.approx(base, abs=1e-12)

    def test_symmetric_under_simultaneous_column_permutation(self):
        rng = np.random.default_rng(2)
        raw = rng.random((12, 4)) + 0.01
        a = MembershipMatrix(raw / raw.sum(axis=1, keepdims=True))
        raw = rng.random((12, 4)) + 0.01
        b = MembershipMatrix(raw / raw.sum(axis=1, keepdims=True))
        base = mixed_hamming_error(a, b).error
        perm = rng.permutation(4)
        both = mixed_hamming_error(
            MembershipMatrix(a.weights[:, perm]), MembershipMatrix(b.weights[:, perm])
        ).error
        assert both == pytest.approx(base, abs=1e-12)

    def test_zero_iff_permutation_equal(self):
        rng = np.random.default_rng(1)
        raw = rng.random((10, 3)) + 0.01
        a = MembershipMatrix(raw / raw.sum(axis=1, keepdims=True))
        not_quite = raw.copy()
        not_quite[0, 0] += 0.05
        b = MembershipMatrix(not_quite / not_quite.sum(axis=1, keepdims=True))
        assert mixed_hamming_error(a, b).error > 1e-3

    def test_k_above_ten_is_scored_exactly(self):
        rng = np.random.default_rng(3)
        raw = rng.random((40, 12)) + 0.01
        truth = MembershipMatrix(raw / raw.sum(axis=1, keepdims=True))
        sigma = rng.permutation(12)
        report = mixed_hamming_error(MembershipMatrix(truth.weights[:, sigma]), truth)
        assert report.error == 0.0
        assert report.permutation == tuple(np.argsort(sigma))

    @pytest.mark.parametrize("n, K", [(1, 1), (7, 2), (632, 2), (5000, 1), (3000, 5), (400, 12)])
    def test_matches_the_broadcast_table_bit_for_bit(self, n, K):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(n + K)
        a, b = rng.dirichlet(np.ones(K), n), rng.dirichlet(np.ones(K), n)
        report = mixed_hamming_error(MembershipMatrix(a), MembershipMatrix(b))
        # the K x K x n formula the column loop replaced
        pair_cost = np.abs(a.T[:, None, :] - b.T[None, :, :]).sum(axis=2)
        truth_cols, perm = linear_sum_assignment(pair_cost.T)
        assert report.permutation == tuple(perm)
        assert report.error == pair_cost[perm, truth_cols].sum() / n
        assert np.array_equal(report.per_node, np.abs(a[:, perm] - b).sum(axis=1))

    def test_peak_memory_is_order_nk(self):
        # the K x K x n broadcast peaked at 230 MB here; two n x K arrays are 19 MB
        rng = np.random.default_rng(4)
        a = MembershipMatrix(rng.dirichlet(np.ones(12), 100_000))
        b = MembershipMatrix(rng.dirichlet(np.ones(12), 100_000))
        tracemalloc.start()
        try:
            mixed_hamming_error(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_shape_mismatch(self):
        a = MembershipMatrix(np.eye(2))
        b = MembershipMatrix(np.eye(3))
        with pytest.raises(ValueError, match="mismatch"):
            mixed_hamming_error(a, b)


class TestNetworkStats:
    def test_complete_graph(self):
        pairs = [[i, j] for i in range(4) for j in range(i + 1, 4)]
        g = Graph.from_edges(4, np.array(pairs))
        stats = network_stats(g)
        assert stats.mean_degree == 3.0
        assert stats.density == 1.0
        assert stats.K is None and stats.overlap is None

    def test_empty_graph(self):
        g = Graph.from_edges(5, np.empty((0, 2), dtype=np.int64))
        stats = network_stats(g)
        assert stats.mean_degree == 0.0
        assert stats.density == 0.0

    def test_overlap_counts_mixed_rows(self):
        pi = MembershipMatrix(np.array([[1, 0], [0, 1], [0.5, 0.5], [0.9, 0.1]], dtype=float))
        g = Graph.from_edges(4, np.array([[0, 1]]))
        stats = network_stats(g, pi)
        assert stats.K == 2
        assert stats.overlap == pytest.approx(0.5)

    def test_density_tracks_construction_target(self):
        # synthetic fixture tuned to a 0.15 edge probability
        n, target = 300, 0.15
        omega = constant_omega(n, target)
        g = sample_adjacency(omega, 123)
        stats = network_stats(g)
        assert abs(stats.density - target) < 0.01


class TestLaplacianConcentration:
    def test_deterministic_zero_one_model_gives_zero(self):
        n = 24
        omega = dense_omega(np.ones((n, n)) - np.eye(n))
        g = sample_adjacency(omega, 0)
        assert laplacian_concentration(g, omega, 0.7) == 0.0

    def test_huge_tau_sends_difference_to_zero(self):
        _, _, omega = three_block_setup(n=60, n0=12)
        g = sample_adjacency(omega, 5)
        assert laplacian_concentration(g, omega, 1e6) < 1e-4

    def test_nonnegative_and_zero_only_on_equality(self):
        _, _, omega = three_block_setup(n=40, n0=8)
        g = sample_adjacency(omega, 2)
        value = laplacian_concentration(g, omega, 0.5)
        assert value > 0.0  # sampled and expected Laplacians differ

    def test_larger_tau_shrinks_the_difference(self):
        # paired Monte-Carlo trend over 20 seeds at fixed expected degree
        n, p = 400, 0.3
        omega = constant_omega(n, p)
        tau = default_tau(n)
        small, large = [], []
        for seed in range(20):
            g = sample_adjacency(omega, seed)
            small.append(laplacian_concentration(g, omega, tau))
            large.append(laplacian_concentration(g, omega, 10 * tau))
        assert np.mean(large) < np.mean(small)

    def test_dimension_mismatch(self):
        omega = dense_omega(np.zeros((3, 3)))
        g = Graph.from_edges(4, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="nodes"):
            laplacian_concentration(g, omega, 0.1)
