import math

import numpy as np
import pytest

from ddjacobi import (
    EPS,
    AsymmetricInput,
    Permutation,
    SymMatrix,
    ZeroDiagonal,
    alpha,
    as_symmatrix,
    frob_norm,
    off_norm,
    off_row,
    omega,
    scaled,
    sort_by_diagonal,
)
from ddjacobi.matcore import _peak_positive
from conftest import peak_matrices, rand_sym


class TestSymMatrix:
    def test_strict_constructor_accepts_exact_symmetry(self, rng):
        a = rand_sym(rng, 6)
        M = SymMatrix(a)
        assert M.n == 6
        assert np.array_equal(M.a, a)

    def test_strict_constructor_rejects_any_asymmetry(self, rng):
        a = rand_sym(rng, 5)
        a[1, 3] += 1e-16
        with pytest.raises(AsymmetricInput):
            SymMatrix(a)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 0))])
    def test_shape_validation(self, bad):
        with pytest.raises(ValueError):
            SymMatrix(bad)

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[0, 0] = np.inf
        with pytest.raises(ValueError):
            SymMatrix(a)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            SymMatrix(a)

    def test_symmetrized_averages_small_noise(self, rng):
        a = rand_sym(rng, 7)
        noisy = a + rng.standard_normal((7, 7)) * 1e-17
        M = SymMatrix.symmetrized(noisy)
        assert np.array_equal(M.a, M.a.T)
        assert np.abs(M.a - a).max() < 1e-15

    def test_symmetrized_rejects_gross_asymmetry(self, rng):
        a = rand_sym(rng, 4)
        a[0, 1] += 0.5
        with pytest.raises(AsymmetricInput):
            SymMatrix.symmetrized(a)

    def test_identity_and_diagonal(self):
        # The strict constructor builds both; no dedicated constructors.
        assert np.array_equal(SymMatrix(np.eye(3)).a, np.eye(3))
        D = SymMatrix(np.diag([3.0, -1.0, 2.0]))
        assert np.array_equal(D.a, np.diag([3.0, -1.0, 2.0]))

    def test_to_array_is_a_copy(self, rng):
        M = SymMatrix(rand_sym(rng, 4))
        arr = M.to_array()
        arr[0, 0] += 1.0
        assert M.a[0, 0] != arr[0, 0]

    def test_copy_is_independent(self, rng):
        M = SymMatrix(rand_sym(rng, 4))
        C = M.copy()
        C.a[0, 0] += 1.0
        assert M.a[0, 0] != C.a[0, 0]

    def test_as_symmatrix_passthrough(self, rng):
        M = SymMatrix(rand_sym(rng, 4))
        assert as_symmatrix(M) is M
        N = as_symmatrix(M.a)
        assert isinstance(N, SymMatrix)


def two_check_symmetrized(entries):
    """The rule as two checks, kept as the reference: the scaled allowance
    4*eps*sqrt|a_ii*a_jj| where both diagonal entries are nonzero, then the
    absolute allowance 4*eps*max|a_ij| on every entry."""
    a = np.array(entries, dtype=np.float64)
    diff = np.abs(a - a.T)
    gap = float(diff.max())
    if gap:
        d = np.sqrt(np.abs(a.diagonal()))
        scale = np.outer(d, d)
        if ((diff > 4.0 * EPS * scale) & (scale != 0.0)).any():
            raise AsymmetricInput("scaled")
    if gap > 4.0 * EPS * float(np.abs(a).max()):
        raise AsymmetricInput("absolute")
    return 0.5 * (a + a.T) if gap else a


def _symmetry_cases():
    """(name, a, noise scale): off-diagonal noise of k times the
    allowance in each triangle straddles the allowance for k a little above
    1/2."""
    rng = np.random.default_rng(11)
    graded = np.logspace(-12, 12, 9)

    def scaled_units(a):
        s = np.sqrt(np.abs(np.outer(a.diagonal(), a.diagonal())))
        units = 4.0 * EPS * np.where(s != 0.0, s, np.abs(a).max())
        np.fill_diagonal(units, 0.0)
        return units

    for k in (0.5, 0.55, 0.7):
        base = rand_sym(rng, 9)
        yield f"random-{k}", base, k * scaled_units(base)
        g = graded[:, None] * rand_sym(rng, 9) * graded[None, :]
        yield f"graded-{k}", g, k * scaled_units(g)
        z = rand_sym(rng, 9)
        z[[1, 5], [1, 5]] = 0.0
        yield f"zero-diagonal-{k}", z, k * scaled_units(z)
    # sqrt(2) * sqrt(2) rounds an ulp above 2, past the 4*eps*max|a_ij| cap
    above_cap = np.full((2, 2), 2.0)
    above_cap[0, 1] = 0.0
    above_cap[1, 0] = 4.0 * EPS * np.sqrt(2.0) * np.sqrt(2.0)
    yield "scaled-above-cap", above_cap, np.zeros((2, 2))


@pytest.mark.parametrize("a,noise", [c[1:] for c in _symmetry_cases()],
                         ids=[c[0] for c in _symmetry_cases()])
def test_symmetrized_matches_two_check_rule(a, noise):
    rng = np.random.default_rng(12)
    for _ in range(20):
        noisy = a + noise * rng.uniform(-1.0, 1.0, a.shape)
        try:
            want = two_check_symmetrized(noisy)
        except AsymmetricInput:
            with pytest.raises(AsymmetricInput):
                SymMatrix.symmetrized(noisy)
        else:
            assert SymMatrix.symmetrized(noisy).a.tobytes() == want.tobytes()


def test_symmetrized_average_cannot_overflow():
    big = 1.7e308
    a = np.array([[big, big], [np.nextafter(big, 0.0), big]])
    b = SymMatrix.symmetrized(a).a
    assert np.isfinite(b).all()
    assert b[0, 1] == b[1, 0]
    assert a[1, 0] <= b[0, 1] <= a[0, 1]


def test_symmetrized_rejects_asymmetry_past_the_float_range():
    with pytest.raises(AsymmetricInput):
        SymMatrix.symmetrized(np.array([[1.0, 1e308], [-1e308, 1.0]]))


def one_pass_symmetrized(entries):
    """SymMatrix.symmetrized as it was, over the whole array at once with an
    n x n temporary per step: the reference for its results and messages."""
    a = np.array(entries, dtype=np.float64)
    with np.errstate(over="ignore"):
        diff = np.abs(np.subtract(a, a.T))
    if not diff.any():
        return a
    d = np.sqrt(np.abs(a.diagonal()))
    scale = np.outer(d, d)
    scale[scale == 0.0] = np.inf
    limit = 4.0 * EPS * np.minimum(scale, float(np.abs(a).max()))
    bad = diff > limit
    if bad.any():
        i, j = np.unravel_index(bad.argmax(), bad.shape)
        raise AsymmetricInput(f"asymmetry {diff[i, j]:.3e} at ({i}, {j}) exceeds "
                              f"its allowance {limit[i, j]:.3e}")
    return 0.5 * a + 0.5 * a.T


def _blocked_cases():
    """(name, a): nearly symmetric, graded, zero-diagonal and ~1.7e308
    inputs, at orders of one block of rows and of several (n = 300 makes
    blocks of 27 rows), diagonally dominant so that off-diagonal noise of k
    ulps in each triangle passes for small k."""
    rng = np.random.default_rng(21)
    for n in (2, 9, 300):
        base = rand_sym(rng, n)
        np.fill_diagonal(base, np.abs(base.diagonal()) + n)
        graded = np.logspace(-100, 100, n)[:, None] * base * np.logspace(-100, 100, n)
        zero = base.copy()
        zero[[0, n - 1], [0, n - 1]] = 0.0
        huge = base / np.abs(base).max() * 1.7e308
        for name, a in [("near", base), ("graded", graded), ("zero-diagonal", zero),
                        ("huge", huge)]:
            for k in (0, 1, 3, 10_000):
                noise = k * rng.integers(-1, 2, a.shape) * np.spacing(a)
                np.fill_diagonal(noise, 0.0)
                yield f"{name}-{n}-{k}ulp", a + noise
    late = rand_sym(rng, 300)
    late[298, 299] += 1e-6  # one offender, in the last block of rows
    yield "late-offender", late
    yield "opposite-huge", np.array([[1.0, 1.7e308], [-1.7e308, 1.0]])
    tiny = rand_sym(rng, 40) * 1e-310  # halving a subnormal rounds
    yield "subnormal-exact", tiny
    tiny = tiny.copy()
    tiny[0, 39] = np.nextafter(tiny[0, 39], 1.0)
    yield "subnormal-near", tiny


@pytest.mark.parametrize("a", [c[1] for c in _blocked_cases()],
                         ids=[c[0] for c in _blocked_cases()])
def test_symmetrized_by_blocks_matches_one_pass(a):
    try:
        want = one_pass_symmetrized(a)
    except AsymmetricInput as exc:
        with pytest.raises(AsymmetricInput) as got:
            SymMatrix.symmetrized(a)
        assert str(got.value) == str(exc)
    else:
        assert SymMatrix.symmetrized(a).a.tobytes() == want.tobytes()


def test_symmetrized_holds_its_one_copy():
    n = 400
    a = rand_sym(np.random.default_rng(22), n)
    np.fill_diagonal(a, n)
    near = a + np.triu(np.spacing(a), 1)
    for entries in (a, near):
        assert peak_matrices(lambda: SymMatrix.symmetrized(entries), n) < 1.5


def brute_off(a):
    s = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if i != j:
                s += a[i, j] ** 2
    return np.sqrt(s)


def test_off_norm_matches_bruteforce(rng):
    a = rand_sym(rng, 9)
    assert off_norm(a) == pytest.approx(brute_off(a), rel=1e-14)
    assert off_norm(SymMatrix(a)) == off_norm(a)


def test_off_norm_accurate_near_diagonal():
    # The frob^2 - sum(diag^2) shortcut would cancel catastrophically here.
    a = np.diag([1e8, 2e8, 3e8]).astype(float)
    a[0, 1] = a[1, 0] = 1e-8
    assert off_norm(a) == pytest.approx(np.sqrt(2) * 1e-8, rel=1e-12)


def test_off_row_matches_bruteforce(rng):
    a = rand_sym(rng, 7)
    for i in range(7):
        row = a[i].copy()
        row[i] = 0.0
        assert off_row(a, i) == pytest.approx(float(np.linalg.norm(row)), rel=1e-15)
    with pytest.raises(IndexError):
        off_row(a, 7)
    with pytest.raises(IndexError):
        off_row(a, -1)
    for i in (True, 2.0):  # a[True] read as a mask gave 0.0; 2.0 failed inside numpy
        with pytest.raises(IndexError):
            off_row(a, i)


def test_peak_positive_is_the_row_rule(rng):
    v = rng.standard_normal((6, 7))
    v[:, 3] = 4.0  # rows 0, 2, 4 tie +4 with -4: the first index keeps them
    v[::2, 5] = -4.0
    v[1, 3] = v[3, 3] = -4.0  # rows 1 and 3 flip, row 3 on a tie with +4
    v[3, 5] = 4.0
    v[-1] = 0.0  # a zero row stays as it is
    want = [-r if r[np.argmax(np.abs(r))] < 0.0 else r for r in v]
    got = _peak_positive(v)
    assert np.array_equal(got, want)
    assert np.array_equal(got, [_peak_positive(row) for row in v])
    assert [not np.array_equal(g, r) for g, r in zip(got, v)] == [0, 1, 0, 1, 0, 0]
    assert not np.signbit(got[-1]).any()


def test_frob_norm(rng):
    a = rand_sym(rng, 6)
    assert frob_norm(a) == pytest.approx(float(np.linalg.norm(a)), rel=1e-15)


H3 = np.array([[1.0, 0.1, 0.05], [0.1, 2.0, 0.1], [0.05, 0.1, 3.0]])


def test_frob_norm_keeps_in_range_bits(rng):
    for a in (rand_sym(rng, 9), 1e150 * H3, 1e-130 * H3):
        assert frob_norm(a) == float(np.linalg.norm(a))


def test_frob_norm_rescales_only_below_the_floor():
    # np.linalg.norm reads 3.74757e-160 and 0 for these
    for scale in (1e-160, 1e-170, 1e-300):
        assert frob_norm(scale * H3) == pytest.approx(scale * frob_norm(H3), rel=4 * EPS)
    assert frob_norm(np.zeros((3, 3))) == 0.0
    assert frob_norm(np.array([5e-324, 0.0])) == 5e-324


def test_frob_norm_does_not_overflow():
    # The sum of squares overflows, the norm does not.
    assert frob_norm(1e200 * H3) == 3.7476659402887016e+200
    assert frob_norm(1e200 * H3) == pytest.approx(1e200 * frob_norm(H3), rel=4 * EPS)
    assert frob_norm(np.array([1e308, 1e308])) == pytest.approx(np.sqrt(2.0) * 1e308, rel=4 * EPS)
    assert frob_norm(np.array([1.7e308, 1.7e308])) == np.inf


def test_omega_zeroes_diagonal_only(rng):
    a = rand_sym(rng, 6)
    om = omega(a)
    assert np.all(om.a.diagonal() == 0.0)
    ir, ic = np.triu_indices(6, 1)
    assert np.array_equal(om.a[ir, ic], a[ir, ic])
    assert off_norm(a) == pytest.approx(frob_norm(om), rel=1e-15)


class TestScaled:
    def test_unit_diagonal_is_exact(self, rng):
        a = rand_sym(rng, 8)
        np.fill_diagonal(a, rng.uniform(0.5, 3.0, 8) * np.array([1, -1, 1, 1, -1, 1, 1, 1]))
        H = scaled(a)
        assert type(H) is SymMatrix
        assert np.all(np.abs(H.a.diagonal()) == 1.0)
        assert np.array_equal(H.a.diagonal(), np.sign(a.diagonal()))

    def test_offdiagonal_formula(self, rng):
        a = rand_sym(rng, 5)
        np.fill_diagonal(a, [2.0, 3.0, 5.0, 7.0, 11.0])
        H = scaled(a)
        for i in range(5):
            for j in range(5):
                if i != j:
                    want = a[i, j] / np.sqrt(abs(a[i, i]) * abs(a[j, j]))
                    assert H.a[i, j] == pytest.approx(want, rel=1e-15)

    def test_symmetry_bit_exact(self, rng):
        a = rand_sym(rng, 20)
        np.fill_diagonal(a, rng.uniform(0.5, 2.0, 20))
        H = scaled(a)
        assert np.array_equal(H.a, H.a.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_of_the_product_with_the_outer_product(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(2, 102):
            a = rand_sym(rng, n)
            d = rng.choice([-1.0, 1.0], n) * np.logspace(-6, 6, n)
            np.fill_diagonal(a, d)
            dh = 1.0 / np.sqrt(np.abs(d))
            want = a * np.outer(dh, dh)
            np.fill_diagonal(want, np.sign(d))
            assert scaled(a).a.tobytes() == want.tobytes()

    def test_entries_where_the_diagonal_products_overflow(self):
        # dh_0 dh_1 = 4.5e161 * 1e150 and dh_0^2 overflow, but h_01 is ~4.5e-9;
        # the products with dh_2 stay finite and keep a_ij fl(dh_i dh_j).
        from mpmath import mp, mpf, sqrt
        a = np.array([[5e-324, 1e-320, 1e-170],
                      [1e-320, 1e-300, 3e-160],
                      [1e-170, 3e-160, 2.0]])
        mp.dps = 40
        H = scaled(a).a
        assert np.array_equal(H, H.T)
        assert np.array_equal(H.diagonal(), [1.0, 1.0, 1.0])
        for i, j in ((0, 1), (0, 2), (1, 2)):
            h = float(mpf(a[i, j]) / sqrt(mpf(a[i, i]) * mpf(a[j, j])))
            assert H[i, j] == pytest.approx(h, rel=1e-15)
        dh = 1.0 / np.sqrt(a.diagonal())
        assert H[0, 2] == a[0, 2] * (dh[0] * dh[2]) and H[1, 2] == a[1, 2] * (dh[1] * dh[2])
        assert alpha(a) == pytest.approx(math.sqrt(2.0) * frob_norm(np.triu(H, 1)), rel=1e-15)

    def test_zero_diagonal_raises_with_position(self):
        a = np.eye(4)
        a[2, 2] = 0.0
        with pytest.raises(ZeroDiagonal) as exc:
            scaled(a)
        assert exc.value.position == 3  # 1-based


class TestPermutation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 2]))
        with pytest.raises(ValueError):
            Permutation(np.array([1, 2, 3]))

    @pytest.mark.parametrize("indices", [[0.5, 1.2], np.array([True, False])],
                             ids=["float", "bool"])
    def test_rejects_non_integer_indices(self, indices):
        # These were cast to [0 1] and [1 0].
        with pytest.raises(ValueError, match="integers"):
            Permutation(indices)

    def test_apply_definition(self, rng):
        a = rand_sym(rng, 5)
        idx = np.array([3, 0, 4, 1, 2])
        B = Permutation(idx).apply(a)
        for i in range(5):
            for j in range(5):
                assert B.a[i, j] == a[idx[i], idx[j]]

    def test_gather_scatter_roundtrip(self, rng):
        v = rng.standard_normal(6)
        p = Permutation(np.array([2, 0, 5, 1, 4, 3]))
        assert np.array_equal(p.scatter(v[p.indices]), v)
        assert np.array_equal(p.scatter(v)[p.indices], v)

    def test_inverse(self):
        # Scattering 0..n-1 gives the inverse reordering.
        p = Permutation(np.array([2, 0, 1]))
        q = Permutation(p.scatter(np.arange(3)))
        assert np.array_equal(q.indices[p.indices], np.arange(3))

    def test_identity(self, rng):
        v = rng.standard_normal(4)
        a = rand_sym(rng, 4)
        p = Permutation(np.arange(4))
        assert np.array_equal(p.scatter(v), v)
        assert np.array_equal(p.apply(a).a, a)


def test_sort_by_diagonal_ascending_and_consistent(rng):
    a = rand_sym(rng, 8)
    np.fill_diagonal(a, rng.permutation(8).astype(float))
    B, perm = sort_by_diagonal(a)
    d = B.a.diagonal()
    assert np.all(np.diff(d) >= 0)
    assert np.array_equal(B.a, perm.apply(a).a)


def test_sort_by_diagonal_stable_on_ties():
    a = np.zeros((4, 4))
    np.fill_diagonal(a, [2.0, 1.0, 2.0, 1.0])
    a[0, 2] = a[2, 0] = 7.0  # tag the two 2.0 rows
    _, perm = sort_by_diagonal(a)
    # ties keep original order: 1.0s from rows 1,3 then 2.0s from rows 0,2
    assert list(perm.indices) == [1, 3, 0, 2]
