"""Shared builders for planted benchmark configurations."""

import multiprocessing
import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from mmsbkit import (
    BlockModel,
    PopulationMatrix,
    build_population_matrix,
    diag_off_block,
    planted_memberships,
    sample_adjacency,
)
from mmsbkit import sweep
from mmsbkit._blas import openblas_thread_controls


def three_block_setup(n=300, n0=60, diag=1.0, off=0.5, rho=0.5, profile="four-profiles", seed=0):
    """Membership matrix, block model, and expected adjacency for a K=3
    planted configuration."""
    pi = planted_memberships(n, 3, n0, profile, seed=seed)
    block = BlockModel(diag_off_block(3, diag, off), rho=rho)
    omega = build_population_matrix(pi, block)
    return pi, block, omega


def dense_omega(m) -> PopulationMatrix:
    """The expected adjacency equal to the symmetric array ``m`` entry for
    entry: the factors ``pi = I`` and ``b = m``, so K = n."""
    m = np.asarray(m, dtype=np.float64)
    return PopulationMatrix(pi=np.eye(len(m)), b=m)


def omega_array(omega) -> np.ndarray:
    """``Omega`` as a dense (n, n) array, from the kernel that computes
    every block of its entries."""
    return omega.entries(slice(None), slice(None))


def adjacency(graph) -> sp.csr_matrix:
    """The float64 0/1 adjacency of ``graph`` as CSR over the pattern's
    own index arrays."""
    return sp.csr_matrix((np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(graph.n, graph.n))


def same_graph(a, b) -> bool:
    """Whether two graphs hold the same pattern: equal ``indptr`` and
    ``indices``."""
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def constant_omega(n, p) -> PopulationMatrix:
    """Every pair an edge with probability ``p``, from K = 1 factors. The
    diagonal is ``p`` too, which the sampler never reads, but which counts
    in the expected degrees ``n p``."""
    return PopulationMatrix(pi=np.ones((n, 1)), b=np.full((n, 1), p))


def demo_cone_setup(seed=11):
    """The n=800 reference configuration: 200 pure nodes per community,
    connectivity 0.8 on / 0.1 off the diagonal, seeded random-half mixing."""
    return three_block_setup(
        n=800, n0=200, diag=0.8, off=0.1, rho=1.0, profile="random-half", seed=seed
    )


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process still runs, and stop it
    so that it cannot disturb the tests that follow."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.terminate()
        process.join(timeout=10)
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def small_omega():
    _, _, omega = three_block_setup(n=120, n0=24)
    return omega


@pytest.fixture
def small_graph():
    _, _, omega = three_block_setup(n=120, n0=24)
    return sample_adjacency(omega, 3)


@pytest.fixture
def arpack_fails(monkeypatch):
    """Every sparse eigensolve fails the way a non-converging ARPACK run does."""

    def eigsh(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", eigsh)


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count functions, each set to 2 threads for the
    test and put back after it."""
    controls = openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy link no OpenBLAS")
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    yield [get for get, _ in controls]
    for (_, put), count in zip(controls, saved):
        put(count)


@pytest.fixture
def trials_die(monkeypatch):
    """Every sweep trial ends its worker process the way an OOM kill
    does: at once, with no exception to send back."""
    parent = os.getpid()

    def run_trial(*args):
        if os.getpid() == parent:
            raise AssertionError("a trial ran in the test process")
        os._exit(1)

    monkeypatch.setattr(sweep, "_run_trial", run_trial)


@pytest.fixture
def nnls_fails(monkeypatch):
    """Every NNLS solve stops at its iteration cap, as scipy reports it."""

    def nnls(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr("scipy.optimize.nnls", nnls)


def pure_corner_indices(pi) -> list[int]:
    """One planted pure index per community (first row of each block)."""
    out = []
    for k in range(pi.K):
        pure_k = np.nonzero((pi.weights[:, k] >= 1.0 - 1e-12))[0]
        out.append(int(pure_k[0]))
    return out


def unit_rows(m: np.ndarray) -> np.ndarray:
    """The rows of ``m`` scaled to unit length, as the cone route scales
    its live rows."""
    return m * (1.0 / np.linalg.norm(m, axis=1))[:, None]
