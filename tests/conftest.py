import tracemalloc

import numpy as np
import pytest

import ddjacobi.reference as reference


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def no_oracle(monkeypatch):
    """Make the Jacobi oracle raise, so a passing test shows LAPACK ran."""
    def oracle(*args, **kwargs):
        raise AssertionError("the Jacobi oracle ran above the LAPACK cutoff")

    monkeypatch.setattr(reference, "full_jacobi", oracle)


def rand_sym(rng, n, scale=1.0):
    """Symmetrized standard-normal matrix (exactly symmetric by averaging)."""
    x = rng.standard_normal((n, n)) * scale
    return (x + x.T) / 2.0


# Finite entries whose Frobenius norm (3.2e308) and off-diagonal norm (2e308)
# both overflow.
NORM_OVERFLOWS = np.array([[1e308, 1e308, 0.0], [1e308, 1.5e308, 1e308],
                           [0.0, 1e308, 1.7e308]])


def peak_matrices(run, n: int) -> float:
    """The peak of the memory tracemalloc traces while ``run()`` runs, in
    n x n float64 matrices (8 n^2 bytes): the unit the README's table and
    CHANGES.md state peaks in."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (8 * n * n)
    finally:
        tracemalloc.stop()
