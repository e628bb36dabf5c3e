"""The parallel-order ``full_jacobi`` against its former cyclic-by-rows loop,
kept here as the reference, and against LAPACK ``eigvalsh``: the same values
within 1e-12 * ||A||_F, orthonormal vectors, the same vector wherever the
relative gap is at least 1e-3, and no floating-point warning on the way."""

import math
import warnings

import numpy as np
import pytest

import ddjacobi.io as dio
from ddjacobi import full_jacobi, min_relative_gap
from ddjacobi.matcore import EPS, _peak_positive, as_symmatrix, frob_norm, off_norm
from ddjacobi.reference import _exact_values, _round_robin
from ddjacobi.rotation import _tangent_cs, apply_right, apply_two_sided
from conftest import peak_matrices, rand_sym


def cyclic_by_rows(A, threshold=0.0, max_sweeps=60):
    """The one-rotation-at-a-time loop: (values, vectors) as full_jacobi
    returned them before the parallel order."""
    a = as_symmatrix(A).a.copy()
    n = a.shape[0]
    frob0 = frob_norm(a)
    target = math.sqrt(EPS) * frob0
    gate = threshold * frob0 / n
    V = np.eye(n)
    sweeps = 0
    while off_norm(a) > target:
        assert sweeps < max_sweeps
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0 or abs(apq) < gate:
                    continue
                c, s, _ = _tangent_cs(float(a[p, p]), float(apq), float(a[q, q]))
                u = np.array([[c, s], [-s, c]])
                apply_two_sided(a, p, q, u)
                a[p, q] = 0.0
                a[q, p] = 0.0
                apply_right(V, p, q, u)
        sweeps += 1
    order = np.argsort(a.diagonal(), kind="stable")
    vectors = V[:, order].copy()
    for j in range(n):
        vectors[:, j] = _peak_positive(vectors[:, j])
    return a.diagonal()[order].copy(), vectors


def _graded(n, lo, hi, seed):
    d = np.logspace(lo, hi, n)
    return d[:, None] * dio.gen_random_dd(n, 0.3, seed=seed).a * d[None, :]


def _cases():
    rng = np.random.default_rng(8)
    yield "n1", np.array([[2.5]]), 0.0
    for n in (2, 3, 4, 5, 8, 17, 24, 40, 41):
        yield f"rand{n}", rand_sym(rng, n), 0.0
    for n in (100, 128):
        yield f"dd{n}", dio.gen_random_dd(n, 0.3, seed=n).a, 0.0
    tied = rand_sym(rng, 9)
    np.fill_diagonal(tied, 1.0)
    yield "tied-diagonal", tied, 0.0
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    rep = q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 5.0, -3.0]) @ q.T
    yield "repeated", (rep + rep.T) / 2.0, 0.0
    zero_rows = rand_sym(rng, 11)
    zero_rows[[2, 7], :] = 0.0
    zero_rows[:, [2, 7]] = 0.0
    yield "zero-rows", zero_rows, 0.0
    # theta = 1e10 / 2e-300 overflows: the pair gets t = 0, and no warning
    tiny = np.diag([0.0, 1.0, 1e10])
    tiny[0, 1] = tiny[1, 0] = 1e3
    tiny[0, 2] = tiny[2, 0] = 1e-300
    yield "theta-overflow", tiny, 0.0
    yield "graded-up", _graded(20, -6.0, 6.0, seed=3), 0.0
    yield "graded-down", _graded(21, 6.0, -6.0, seed=4), 0.0
    yield "threshold", rand_sym(rng, 30), 1e-9


CASES = list(_cases())


@pytest.mark.parametrize("a,threshold", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_parallel_order_matches_cyclic_by_rows_and_lapack(a, threshold):
    M = as_symmatrix(a)
    a, given = M.a, M.a.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = full_jacobi(M, threshold=threshold)
    assert np.array_equal(a, given)  # the input is not written to
    n = a.shape[0]
    old_values, old_vectors = cyclic_by_rows(a, threshold=threshold)
    tol = 1e-12 * frob_norm(a)
    assert np.all(np.diff(dec.values) >= 0.0)
    assert np.max(np.abs(dec.values - old_values)) <= tol
    assert np.max(np.abs(dec.values - np.linalg.eigvalsh(a))) <= tol
    V = dec.vectors
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-13 * n
    if n > 1:
        separated = min_relative_gap(dec.values).gamma_j >= 1e-3
        align = np.abs(np.sum(V * old_vectors, axis=0))
        assert np.all(align[separated] >= 1.0 - 1e-10)
    for j in range(n):
        assert np.array_equal(V[:, j], _peak_positive(V[:, j]))


@pytest.mark.parametrize("N", [2, 4, 6, 10, 16, 42])
def test_round_robin_meets_every_pair_once_and_returns_to_identity(N):
    g = _round_robin(N)
    assert sorted(g) == list(range(N))
    layout = np.arange(N)
    met = set()
    for _ in range(N - 1):
        layout = layout[g]
        met.update(frozenset(pair) for pair in layout.reshape(-1, 2).tolist())
    assert len(met) == N * (N - 1) // 2
    assert np.array_equal(layout, np.arange(N))


@pytest.mark.parametrize("as_array", [False, True], ids=["symmatrix", "ndarray"])
def test_full_jacobi_memory_stays_below_eight_matrices(as_array):
    n = 100
    A = dio.gen_random_dd(n, 0.3, seed=5)
    A = A.a.copy() if as_array else A
    full_jacobi(A)
    assert peak_matrices(lambda: full_jacobi(A), n) < 8


VALUES_ONLY = CASES + [
    ("dd64", dio.gen_random_dd(64, 0.3, seed=64).a, 0.0),
    ("diagonal", np.diag([3.0, -1.0, 2.0, 2.0, 0.5]), 0.0),
]


@pytest.mark.parametrize("a,threshold", [c[1:] for c in VALUES_ONLY],
                         ids=[c[0] for c in VALUES_ONLY])
def test_values_only_path_gives_the_same_bits(a, threshold):
    dec = full_jacobi(a, threshold=threshold)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bare = full_jacobi(a, threshold=threshold, _vectors=False)
    assert bare.vectors is None
    assert bare.values.tobytes() == dec.values.tobytes()
    if threshold == 0.0:
        assert _exact_values(a).tobytes() == dec.values.tobytes()


def test_values_only_path_keeps_no_basis():
    n = 128
    A = dio.gen_random_dd(n, 0.3, seed=5)
    peaks = []
    for vectors in (True, False):
        full_jacobi(A, _vectors=vectors)
        peaks.append(peak_matrices(lambda: full_jacobi(A, _vectors=vectors), n))
    assert peaks[1] <= peaks[0] - 1


def test_values_only_peak_holds_no_zero_diagonal_copy():
    # The once-per-sweep off-norm zeroes a's diagonal in place. What peaks is
    # a, b, the strict upper triangle's N x N boolean mask (1/8 of a matrix)
    # and O(N) vectors: 2.26 N^2 doubles at n = 128, where numpy's 64 kB
    # ufunc buffer for a per-round b + b.T made it 2.58 and a zero-diagonal
    # copy 3.11.
    n = 128
    A = dio.gen_random_dd(n, 0.3, seed=5)
    full_jacobi(A, _vectors=False)
    assert peak_matrices(lambda: full_jacobi(A, _vectors=False), n) < 2.5
