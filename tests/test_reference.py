import warnings

import numpy as np
import pytest

import ddjacobi.io as dio
from ddjacobi import (InputError, InvalidOptions, NoConvergence, PointCloud, full_jacobi,
                      gaussian_similarity, normalized_laplacian)
from ddjacobi.reference import _exact_values
from conftest import NORM_OVERFLOWS, rand_sym


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
    with pytest.raises(NoConvergence, match="after 1 sweeps"):
        full_jacobi(a, max_sweeps=1)


@pytest.mark.parametrize("budget", [float("nan"), 2.5, 2.0, True, 0])
def test_sweep_budget_must_be_a_positive_integer(budget):
    # nan never ran out, 2.5 acted as 3, and True and 2.0 named a
    # non-integer budget in the NoConvergence message.
    with pytest.raises(InvalidOptions, match="max_sweeps"):
        full_jacobi(dio.gen_random_dd(6, 0.3, seed=1), max_sweeps=budget)


def test_numpy_integer_budget():
    a = dio.gen_random_dd(6, 0.3, seed=1)
    assert np.array_equal(full_jacobi(a, max_sweeps=np.int64(60)).values,
                          full_jacobi(a).values)


@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
def test_tiny_entries_diagonalize_as_the_unscaled_matrix(scale):
    # The squares of 1e-170 * H flush to zero, so the off-norm read 0 at once
    # and the diagonal of H came back as its spectrum.
    H = np.array([[1.0, 0.1, 0.05], [0.1, 2.0, 0.1], [0.05, 0.1, 3.0]])
    got = full_jacobi(scale * H, _vectors=False).values / scale
    np.testing.assert_allclose(got, full_jacobi(H).values, rtol=1e-14)


def test_overflowing_norm_is_an_input_error():
    # The stopping target used to be inf, so the diagonal came back as the
    # spectrum without a sweep.
    with pytest.raises(InputError, match="overflows"):
        full_jacobi(NORM_OVERFLOWS)


@pytest.mark.parametrize("threshold", [float("nan"), -1.0])
def test_threshold_must_be_nonnegative(threshold):
    # nan gated every rotation and ran out the budget, and -1.0 acted as 0.
    with pytest.raises(InvalidOptions, match="threshold"):
        full_jacobi(dio.gen_example1(), threshold=threshold)


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


def test_entries_near_the_float_limit_stay_finite():
    # Averaging a with its transpose overflowed here: "overflow encountered
    # in add" and [-9.90e305, inf], where eigvalsh gives 1.0099e308.
    a = np.array([[1e308, 1e307], [1e307, 0.0]])
    want = np.linalg.eigvalsh(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [full_jacobi(a).values, full_jacobi(a, _vectors=False).values, _exact_values(a)]
    for values in got:
        assert np.all(np.isfinite(values))
        assert np.all(np.abs(values - want) <= 1e-14 * np.abs(want))


def _two_blob_laplacian():
    # c10's matrix: two seeded blobs of 50 points, sigma = 1.
    rng = np.random.default_rng(42)
    pts = np.vstack([0.5 * rng.standard_normal((50, 2)),
                     np.array([8.0, 8.0]) + 0.5 * rng.standard_normal((50, 2))])
    return normalized_laplacian(gaussian_similarity(PointCloud(pts), 1.0))


@pytest.mark.parametrize("make, sweeps", [
    (_two_blob_laplacian, 8),
    (lambda: dio.gen_random_dd(100, 0.3, seed=100), 3),
    (lambda: dio.gen_random_dd(128, 0.3, seed=5), 3),
], ids=["c10-laplacian", "dd100", "dd128"])
def test_symmetry_once_per_sweep_costs_no_sweep(make, sweeps):
    # The sweeps these took when every round averaged a with its transpose;
    # NoConvergence here means the once-per-sweep symmetrization costs sweeps.
    full_jacobi(make(), max_sweeps=sweeps)
