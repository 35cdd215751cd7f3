"""Frozen containers copy the arrays they are given before freezing them:
the caller's arrays stay writable, and later writes to them cannot reach
the container."""

import numpy as np
import pytest

from mmsbkit import ErrorReport, SvmSolution
from mmsbkit.spectral import SpectralBasis


def basis():
    values, vectors = np.array([1.0, 0.5]), np.eye(3)[:, :2].copy()
    made = SpectralBasis(eigenvalues=values, vectors=vectors)
    return (values, vectors), (made.eigenvalues, made.vectors)


def svm():
    w, weights = np.array([0.6, 0.0]), np.array([0.5, 0.5])
    made = SvmSolution(w=w, b=0.5, weights=weights)
    return (w, weights), (made.w, made.weights)


def report():
    per_node = np.zeros(3)
    return (per_node,), (ErrorReport(error=0.0, permutation=(0, 1), per_node=per_node).per_node,)


@pytest.mark.parametrize("build", [basis, svm, report], ids=lambda f: f.__name__)
def test_container_freezes_a_copy_and_leaves_the_callers_arrays_writable(build):
    given, held = build()
    assert all(a.flags.writeable for a in given)
    assert not any(a.flags.writeable for a in held)
    assert not any(np.shares_memory(a, b) for a in given for b in held)
