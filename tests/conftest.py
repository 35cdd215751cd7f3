"""Shared builders for planted benchmark configurations."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from mmsbkit import (
    BlockModel,
    build_population_matrix,
    diag_off_block,
    planted_memberships,
    sample_adjacency,
)


def three_block_setup(n=300, n0=60, diag=1.0, off=0.5, rho=0.5, profile="four-profiles", seed=0):
    """Membership matrix, block model, and expected adjacency for a K=3
    planted configuration."""
    pi = planted_memberships(n, 3, n0, profile, seed=seed)
    block = BlockModel(diag_off_block(3, diag, off), rho=rho)
    omega = build_population_matrix(pi, block)
    return pi, block, omega


def demo_cone_setup(seed=11):
    """The n=800 reference configuration: 200 pure nodes per community,
    connectivity 0.8 on / 0.1 off the diagonal, seeded random-half mixing."""
    return three_block_setup(
        n=800, n0=200, diag=0.8, off=0.1, rho=1.0, profile="random-half", seed=seed
    )


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


def pure_corner_indices(pi) -> list[int]:
    """One planted pure index per community (first row of each block)."""
    out = []
    for k in range(pi.K):
        pure_k = np.nonzero((pi.weights[:, k] >= 1.0 - 1e-12))[0]
        out.append(int(pure_k[0]))
    return out
