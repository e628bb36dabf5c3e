import numpy as np
import pytest

import ddjacobi.io as dio
from ddjacobi import NoConvergence, full_jacobi
from ddjacobi.reference import _exact_values
from conftest import rand_sym


@pytest.mark.parametrize("n", [2, 3, 8, 17, 24])
def test_matches_lapack(n):
    rng = np.random.default_rng(n)
    a = rand_sym(rng, n)
    dec = full_jacobi(a)
    w = np.linalg.eigvalsh(a)
    frob = float(np.linalg.norm(a))
    assert np.all(np.diff(dec.values) >= 0)
    assert np.allclose(dec.values, w, atol=1e-12 * max(1.0, frob))


def test_decomposition_reconstructs(rng):
    a = rand_sym(rng, 10)
    dec = full_jacobi(a)
    V = dec.vectors
    assert np.allclose(V.T @ V, np.eye(10), atol=1e-13)
    assert np.allclose(V @ np.diag(dec.values) @ V.T, a, atol=1e-12)
    # column sign convention: largest-magnitude component positive
    for j in range(10):
        col = V[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_diagonal_input_needs_no_sweeps():
    dec = full_jacobi(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(dec.values, [-1.0, 2.0, 3.0])
    # vectors are signed unit basis columns
    assert np.allclose(np.abs(dec.vectors).sum(axis=0), 1.0)


def test_repeated_eigenvalues(rng):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 5.0]) @ q.T
    a = (a + a.T) / 2.0
    dec = full_jacobi(a)
    assert np.allclose(dec.values, [1, 1, 1, 2, 2, 5], atol=1e-12)


def test_no_convergence_when_budget_exhausted(rng):
    a = rand_sym(rng, 6)
    with pytest.raises(NoConvergence):
        full_jacobi(a, max_sweeps=0)


def test_threshold_gate_can_block_progress(rng):
    # a gate far above every entry applies no rotations, so the budget runs out
    a = rand_sym(rng, 5)
    with pytest.raises(NoConvergence):
        full_jacobi(a, threshold=1e9, max_sweeps=3)


def test_small_threshold_still_converges(rng):
    # gate below the stopping target: endgame entries get skipped but the
    # off-norm still crosses the finish line
    a = rand_sym(rng, 8)
    dec = full_jacobi(a, threshold=1e-9)
    assert np.allclose(dec.values, np.linalg.eigvalsh(a), atol=1e-8)


@pytest.mark.parametrize("n", [11, 128])
def test_exact_values_are_the_oracle_up_to_order_128(n):
    A = dio.gen_random_dd(n, 0.005, seed=n)
    assert np.array_equal(_exact_values(A), full_jacobi(A).values)


def test_exact_values_come_from_lapack_above_order_128(no_oracle):
    A = dio.gen_random_dd(130, 0.005, seed=2)
    assert np.array_equal(_exact_values(A), np.linalg.eigvalsh(A.a))


def test_graded_spectrum_relative_to_each_eigenvalue():
    # D*H*D with D from 1e-6 to 1e6: the oracle keeps every eigenvalue to
    # high relative accuracy (1.1e-12 measured) against 40-digit mpmath,
    # where LAPACK eigvalsh was off by up to 8e6 relative.
    from mpmath import mp

    d = np.logspace(-6.0, 6.0, 16)
    with mp.workdps(40):
        for seed in range(3):
            a = d[:, None] * dio.gen_random_dd(16, 0.3, seed=seed).a * d[None, :]
            lam = np.array([float(x) for x in sorted(
                mp.eigsy(mp.matrix(a.tolist()), eigvals_only=True))])
            err = np.abs(full_jacobi(a).values - lam) / np.abs(lam)
            assert err.max() <= 1e-7
