"""Acceptance gate: one test per criterion, each printing a PASS or FAIL
line. Run with ``pytest tests/test_acceptance.py -v -s`` to stream the
lines; tolerances are stated inline next to each assertion.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mmsbkit import (
    MembershipMatrix,
    SweepConfig,
    cone_closed_form,
    crsc,
    crsc_equivalence,
    default_tau,
    ideal_crsc,
    ideal_srsc,
    leading_eigenpairs,
    mixed_hamming_error,
    negative_eig_block,
    one_class_svm,
    population_eigenpairs,
    read_edge_list,
    read_memberships,
    recover_from_basis,
    regularized_laplacian,
    run_sweep,
    sample_adjacency,
    sp_select,
    srsc,
    srsc_equivalence,
    svm_cone_select,
    write_edge_list,
    write_memberships,
)
from mmsbkit.spectral import SpectralBasis
from conftest import demo_cone_setup, three_block_setup

# Desk-scale regression constant for the sparsity-trend criterion: SRSC
# mean error at rho=1.0 with base_seed=314159, 10 reps (frozen after the
# first verified run; tolerance +/- 0.02).
SRSC_RHO1_REGRESSION = 0.24696853599242571


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {number:2d}: {description}")
        raise
    print(f"ACCEPTANCE PASS criterion {number:2d}: {description}")


def test_criterion_01_oracle_exactness():
    with criterion(1, "ideal pipelines recover the planted memberships exactly"):
        start = time.monotonic()
        pi, _, omega = demo_cone_setup(seed=11)  # n=800, 200 pure per community
        tau = default_tau(800)
        for fn in (ideal_srsc, ideal_crsc):
            result = fn(omega, 3, tau=tau)
            report = mixed_hamming_error(result.pi_hat, pi)
            assert report.per_node.max() < 1e-8
        assert time.monotonic() - start < 30.0


def test_criterion_02_equivalence_suite():
    with criterion(2, "plain and projector routes agree on 20 seeded graphs"):
        start = time.monotonic()
        _, _, omega = three_block_setup(n=300, n0=60, rho=0.5)
        for seed in range(20):
            graph = sample_adjacency(omega, seed)
            a, b = srsc(graph, 3), srsc_equivalence(graph, 3)
            assert a.corners.indices == b.corners.indices
            assert np.abs(a.pi_hat.weights - b.pi_hat.weights).max() <= 1e-10
            c, d = crsc(graph, 3), crsc_equivalence(graph, 3)
            assert c.corners.indices == d.corners.indices
            assert np.abs(c.pi_hat.weights - d.pi_hat.weights).max() <= 1e-10
        assert time.monotonic() - start < 120.0


def test_criterion_03_sign_flip_invariance():
    with criterion(3, "eigenvector column negation never moves any estimate"):
        _, _, omega = three_block_setup(n=200, n0=40, rho=0.8)
        rng = np.random.default_rng(77)
        tau = default_tau(200)
        for seed in range(10):
            graph = sample_adjacency(omega, seed)
            dtau, lap = regularized_laplacian(graph, tau)
            basis = leading_eigenpairs(lap, 3)
            signs = rng.choice([-1.0, 1.0], size=3)
            flipped = SpectralBasis(basis.eigenvalues, basis.vectors * signs)
            for method in ("SRSC", "CRSC", "SRSC-EQ", "CRSC-EQ"):
                ref = recover_from_basis(basis, dtau, method, tau=tau)
                out = recover_from_basis(flipped, dtau, method, tau=tau)
                assert np.abs(out.pi_hat.weights - ref.pi_hat.weights).max() <= 1e-10


def test_criterion_04_spectrum_bounds():
    with criterion(4, "sampled spectra stay in [-1, 1]; population top eigenvalue bounded"):
        _, _, omega = three_block_setup(n=150, n0=30, rho=0.8)
        base = default_tau(150)
        taus = (0.0, base, 10 * base)
        for seed in range(50):
            graph = sample_adjacency(omega, seed)
            for tau in taus:
                _, lap = regularized_laplacian(graph, tau)
                values = np.linalg.eigvalsh(lap.toarray())
                # 1e-10 slack covers eigensolver round-off, mirroring the
                # slack granted on the population bound
                assert np.abs(values).max() <= 1.0 + 1e-10
        for n, n0 in ((150, 30), (90, 18)):
            _, _, om = three_block_setup(n=n, n0=n0)
            dmax = om.degrees().max()
            for tau in taus:
                top = population_eigenpairs(om, 1, tau)[1].eigenvalues[0]
                assert top <= dmax / (tau + dmax) + 1e-10


def _random_cone_instance(rng, k):
    """Exact-cone rows with every corner planted and (Sc Sc')^-1 1 > 0."""
    while True:
        sc = np.eye(k) + 0.5 * rng.random((k, k))
        sc /= np.linalg.norm(sc, axis=1, keepdims=True)
        gram = sc @ sc.T
        if np.linalg.cond(gram) > 1e6:
            continue
        if (np.linalg.solve(gram, np.ones(k)) > 1e-3).all():
            break
    n = int(rng.integers(4 * k, 200))
    h = 0.05 + rng.random((n - k, k))
    body = h @ sc
    body /= np.linalg.norm(body, axis=1, keepdims=True)
    s = np.vstack([sc, body])
    return s, sc


def test_criterion_05_one_class_svm_correctness():
    with criterion(5, "iterative svm matches the closed form and finds true corners"):
        rng = np.random.default_rng(505)
        for trial in range(100):
            k = (2, 3, 4)[trial % 3]
            s, sc = _random_cone_instance(rng, k)
            closed = cone_closed_form(sc)
            iterative = one_class_svm(s)
            assert abs(closed.b - iterative.b) <= 1e-8
            assert np.abs(closed.w - iterative.w).max() <= 1e-8
            picks = svm_cone_select(s, k).indices
            matched = set()
            for i in picks:
                dists = np.linalg.norm(sc - s[i], axis=1)
                assert dists.min() <= 1e-9  # the selected row is a true corner row
                matched.add(int(dists.argmin()))
            assert matched == set(range(k))


def _random_simplex_instance(rng, k):
    """Rows Pi @ W with planted pure rows and well-separated corners."""
    while True:
        w = np.eye(k) + 0.25 * rng.random((k, k))
        if np.linalg.cond(w) < 20:
            break
    n = int(rng.integers(4 * k, 120))
    raw = 0.02 + rng.random((n - k, k))
    pi = np.vstack([np.eye(k), raw / raw.sum(axis=1, keepdims=True)])
    order = rng.permutation(n)
    return pi[order] @ w, pi[order]


def test_criterion_06_sp_correctness():
    with criterion(6, "successive projection recovers planted simplex corners"):
        rng = np.random.default_rng(606)
        for trial in range(100):
            k = (2, 3, 4)[trial % 3]
            m, pi = _random_simplex_instance(rng, k)
            picks = sp_select(m, k).indices
            rows = pi[list(picks)]
            assert (rows.max(axis=1) >= 1 - 1e-12).all()  # every pick is a pure row
            assert sorted(rows.argmax(axis=1)) == list(range(k))  # one per community


def test_criterion_07_sparsity_trend_regression():
    with criterion(7, "denser graphs give smaller error; rho=1 value frozen"):
        start = time.monotonic()
        config = SweepConfig.from_dict(
            {
                "base_seed": 314159,
                "reps": 10,
                "methods": ["srsc"],
                "grid": {
                    "n": [500],
                    "k": [3],
                    "n0": [100],
                    "rho": [0.2, 0.5, 1.0],
                    "tau": ["auto"],
                    "profile": ["four-profiles"],
                    "block": [{"diag": 1.0, "off": 0.5}],
                },
            }
        )
        result = run_sweep(config)
        means = {row.rho: row.mean_err for row in result.rows}
        assert means[1.0] < means[0.2]
        assert means[1.0] == pytest.approx(SRSC_RHO1_REGRESSION, abs=0.02)
        assert time.monotonic() - start < 300.0


def test_criterion_08_negative_eigenvalue_family():
    with criterion(8, "connectivity family matches the template and is negative-definite-tailed"):
        for i in range(1, 13):
            block = negative_eig_block(i)
            expected = np.array(
                [
                    [0.8, 0.2, 0.1],
                    [0.2, 0.5, 0.075 * i],
                    [0.1, 0.075 * i, 0.8],
                ]
            )
            assert np.array_equal(block.tilde_p, expected)
        # As stated, the criterion requires a negative smallest eigenvalue
        # for every index, but the pinned template is positive definite
        # for indices 1..8 (smallest eigenvalue +0.399 at index 1,
        # crossing zero between indices 8 and 9). The assertion below is
        # therefore expected to fail; see the decisions ledger.
        for i in range(1, 13):
            smallest = np.linalg.eigvalsh(negative_eig_block(i).tilde_p).min()
            assert smallest < 0.0, (
                f"smallest eigenvalue at index {i} is {smallest:+.4f}; the "
                "template enters the negative regime only at index 9"
            )


def test_criterion_09_mixed_hamming_against_brute_force():
    with criterion(9, "metric agrees with an independent brute-force scorer"):

        def brute_force(a, b):
            n, k = len(a), len(a[0])
            best = float("inf")
            for perm in itertools.permutations(range(k)):
                total = 0.0
                for i in range(n):
                    row = 0.0
                    for col in range(k):
                        row += abs(a[i][perm[col]] - b[i][col])
                    total += row
                best = min(best, total / n)
            return best

        rng = np.random.default_rng(909)
        for trial in range(200):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(2, 30))
            raw = rng.random((n, k)) + 0.01
            truth = MembershipMatrix(raw / raw.sum(axis=1, keepdims=True))
            raw = rng.random((n, k)) + 0.01
            estimate = MembershipMatrix(raw / raw.sum(axis=1, keepdims=True))
            fast = mixed_hamming_error(estimate, truth).error
            slow = brute_force(estimate.weights.tolist(), truth.weights.tolist())
            # agreement up to float summation order
            assert abs(fast - slow) <= 1e-12


def test_criterion_10_io_round_trips(tmp_path):
    with criterion(10, "graph and membership files survive round trips"):
        pi, _, omega = three_block_setup(n=120, n0=24, profile="random-half", seed=3)
        graph = sample_adjacency(omega, 8)

        edge_path = tmp_path / "graph.edgelist"
        write_edge_list(graph, edge_path)
        back = read_edge_list(edge_path)
        assert back.n == graph.n
        assert (back.adjacency != graph.adjacency).nnz == 0

        pi_path = tmp_path / "pi.csv"
        write_memberships(pi, pi_path)
        assert np.array_equal(read_memberships(pi_path).weights, pi.weights)

        lines = [line for line in edge_path.read_text().splitlines() if not line.startswith("#")]
        rng = np.random.default_rng(10)
        reference = read_edge_list(edge_path).edges()
        for shuffle in range(20):
            rng.shuffle(lines)
            shuffled_path = tmp_path / f"shuffled_{shuffle}.edgelist"
            shuffled_path.write_text(f"# n={graph.n}\n" + "\n".join(lines) + "\n")
            assert np.array_equal(read_edge_list(shuffled_path).edges(), reference)
