import numpy as np
import pytest

from ddjacobi import (
    EPS,
    AsymmetricInput,
    Permutation,
    ScaledView,
    SymMatrix,
    ZeroDiagonal,
    as_symmatrix,
    frob_norm,
    off_norm,
    off_row,
    omega,
    scaled,
    sort_by_diagonal,
)
from conftest import rand_sym


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
        # explicit allowance admits it
        M = SymMatrix.symmetrized(a, atol=1.0)
        assert np.array_equal(M.a, M.a.T)

    def test_identity_and_diagonal(self):
        assert np.array_equal(SymMatrix.identity(3).a, np.eye(3))
        D = SymMatrix.diagonal([3.0, -1.0, 2.0])
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


def two_check_symmetrized(entries, atol=None):
    """The rule as two checks, kept as the reference: the scaled allowance
    4*eps*sqrt|a_ii*a_jj| where both diagonal entries are nonzero, then the
    absolute allowance ``atol`` (default 4*eps*max|a_ij|) on every entry."""
    a = np.array(entries, dtype=np.float64)
    diff = np.abs(a - a.T)
    gap = float(diff.max())
    if atol is None:
        atol = 4.0 * EPS * float(np.abs(a).max())
        if gap:
            d = np.sqrt(np.abs(a.diagonal()))
            scale = np.outer(d, d)
            if ((diff > 4.0 * EPS * scale) & (scale != 0.0)).any():
                raise AsymmetricInput("scaled")
    if gap > atol:
        raise AsymmetricInput("absolute")
    return 0.5 * (a + a.T) if gap else a


def _symmetry_cases():
    """(name, a, noise scale, atol): off-diagonal noise of k times the
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
        yield f"random-{k}", base, k * scaled_units(base), None
        g = graded[:, None] * rand_sym(rng, 9) * graded[None, :]
        yield f"graded-{k}", g, k * scaled_units(g), None
        z = rand_sym(rng, 9)
        z[[1, 5], [1, 5]] = 0.0
        yield f"zero-diagonal-{k}", z, k * scaled_units(z), None
        yield f"atol-{k}", base, np.full(base.shape, k * 1e-3), 1e-3
    # sqrt(2) * sqrt(2) rounds an ulp above 2, past the 4*eps*max|a_ij| cap
    above_cap = np.full((2, 2), 2.0)
    above_cap[0, 1] = 0.0
    above_cap[1, 0] = 4.0 * EPS * np.sqrt(2.0) * np.sqrt(2.0)
    yield "scaled-above-cap", above_cap, np.zeros((2, 2)), None
    yield "exact-negative-atol", np.eye(3), np.zeros((3, 3)), -1.0


@pytest.mark.parametrize("a,noise,atol", [c[1:] for c in _symmetry_cases()],
                         ids=[c[0] for c in _symmetry_cases()])
def test_symmetrized_matches_two_check_rule(a, noise, atol):
    rng = np.random.default_rng(12)
    for _ in range(20):
        noisy = a + noise * rng.uniform(-1.0, 1.0, a.shape)
        try:
            want = two_check_symmetrized(noisy, atol)
        except AsymmetricInput:
            with pytest.raises(AsymmetricInput):
                SymMatrix.symmetrized(noisy, atol)
        else:
            assert SymMatrix.symmetrized(noisy, atol).a.tobytes() == want.tobytes()


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


def test_frob_norm(rng):
    a = rand_sym(rng, 6)
    assert frob_norm(a) == pytest.approx(float(np.linalg.norm(a)), rel=1e-15)


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
        assert isinstance(H, ScaledView)
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

    def test_zero_diagonal_raises_with_position(self):
        a = np.eye(4)
        a[2, 2] = 0.0
        with pytest.raises(ZeroDiagonal) as exc:
            scaled(a)
        assert exc.value.position == 3  # 1-based

    def test_scale_vector_and_copy(self, rng):
        a = rand_sym(rng, 4)
        np.fill_diagonal(a, [4.0, 9.0, 16.0, 25.0])
        H = scaled(a)
        assert np.allclose(H.scale, [0.5, 1 / 3, 0.25, 0.2])
        C = H.copy()
        assert isinstance(C, ScaledView)
        C.scale[0] = 99.0
        assert H.scale[0] == 0.5


class TestPermutation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 2]))
        with pytest.raises(ValueError):
            Permutation(np.array([1, 2, 3]))

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
        assert np.array_equal(p.scatter(p.gather(v)), v)
        assert np.array_equal(p.gather(p.scatter(v)), v)

    def test_inverse(self):
        p = Permutation(np.array([2, 0, 1]))
        q = p.inverse()
        assert np.array_equal(q.indices[p.indices], np.arange(3))

    def test_identity(self, rng):
        v = rng.standard_normal(4)
        p = Permutation.identity(4)
        assert np.array_equal(p.gather(v), v)


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
