import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddjacobi import (
    InputError,
    SymMatrix,
    apply_right,
    apply_two_sided,
    schur2,
)
from ddjacobi.diagnostics import rel
from ddjacobi.rotation import _tangent_cs
from conftest import rand_sym

finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-8)


def test_identity_when_entry_already_zero():
    c, s, t = _tangent_cs(3.0, 0.0, -5.0)
    assert (c, s, t) == (1.0, 0.0, 0.0)


def test_tie_takes_quarter_pi():
    # theta == 0 picks t = 1 whatever the sign of the off entry; the
    # rotated off-diagonal is apq * (c^2 - s^2) = 0 either way
    c, s, t = _tangent_cs(2.0, 1.5, 2.0)
    assert s == pytest.approx(c)
    assert t == 1.0
    assert _tangent_cs(2.0, -1.5, 2.0)[2] == 1.0


def test_theta_overflow_gives_identity_without_warning():
    # numpy entries, which schur2 converts: (1e10 - 0) / 2e-300 overflows to
    # inf, so t = 0
    app, apq, aqq = np.array([0.0, 1e-300, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = schur2(app, apq, aqq)
    assert np.array_equal(res.u, np.eye(2))
    assert res.t == (0.0, 1e10)


@given(app=finite, apq=finite, aqq=finite)
@settings(max_examples=300, deadline=None)
def test_rotation_is_orthogonal_with_inner_angle(app, apq, aqq):
    c, s, _ = _tangent_cs(app, apq, aqq)
    assert c > 0.0
    assert abs(c * c + s * s - 1.0) <= 4 * np.finfo(float).eps
    assert abs(s) <= c + 1e-15  # |angle| <= pi/4


@given(app=finite, apq=nonzero, aqq=finite)
@settings(max_examples=300, deadline=None)
def test_rotation_annihilates_the_pair(app, apq, aqq):
    c, s, _ = _tangent_cs(app, apq, aqq)
    u = np.array([[c, s], [-s, c]])
    b = np.array([[app, apq], [apq, aqq]])
    t = u.T @ b @ u
    scale = max(abs(app), abs(apq), abs(aqq))
    assert abs(t[0, 1]) <= 64 * np.finfo(float).eps * scale


@given(app=nonzero, apq=finite, aqq=nonzero)
@settings(max_examples=300, deadline=None)
def test_tangent_bound_from_scaled_entry(app, apq, aqq):
    # |tan| <= 0.5 |h_pq| / rel(app, aqq) for distinct nonzero diagonals.
    if app == aqq:
        return
    c, s, _ = _tangent_cs(app, apq, aqq)
    h = apq / np.sqrt(abs(app) * abs(aqq))
    bound = 0.5 * abs(h) / rel(app, aqq)
    assert abs(s / c) <= bound * (1 + 1e-12) + 1e-300


class TestSchur2:
    def test_diagonalizes_and_orders(self, rng):
        for _ in range(200):
            b11, b12, b22 = rng.standard_normal(3) * rng.choice([1e-3, 1.0, 1e3])
            res = schur2(b11, b12, b22)
            u = res.u
            assert np.allclose(u.T @ u, np.eye(2), atol=1e-14)
            t = u.T @ np.array([[b11, b12], [b12, b22]]) @ u
            scale = max(1e-30, abs(b11), abs(b12), abs(b22))
            assert abs(t[0, 1]) <= 1e-13 * scale
            assert res.t[0] <= res.t[1]
            assert t[0, 0] == pytest.approx(res.t[0], rel=1e-10, abs=1e-13 * scale)
            assert t[1, 1] == pytest.approx(res.t[1], rel=1e-10, abs=1e-13 * scale)

    def test_matches_eigvalsh(self, rng):
        for _ in range(100):
            b11, b12, b22 = rng.standard_normal(3)
            res = schur2(b11, b12, b22)
            w = np.linalg.eigvalsh(np.array([[b11, b12], [b12, b22]]))
            assert np.allclose(res.t, w, atol=1e-13)

    def test_trace_preserved(self, rng):
        b11, b12, b22 = 0.3, -2.0, 1.7
        res = schur2(b11, b12, b22)
        assert res.t[0] + res.t[1] == pytest.approx(b11 + b22, rel=1e-14)


class TestApplyTwoSided:
    def test_similarity_preserves_spectrum(self, rng):
        a = rand_sym(rng, 7)
        w0 = np.linalg.eigvalsh(a)
        res = schur2(a[2, 2], a[2, 5], a[5, 5])
        apply_two_sided(a, 2, 5, res.u)
        assert np.array_equal(a, a.T)  # mirrored writes, bit-exact
        assert np.allclose(np.linalg.eigvalsh(a), w0, atol=1e-13)
        assert abs(a[2, 5]) <= 1e-15

    def test_decrement_identity_single_rotation(self, rng):
        # off^2 drops by exactly 2 a_pq^2 per annihilation (up to roundoff).
        n = 8
        for _ in range(300):
            a = rand_sym(rng, n)
            p, q = sorted(rng.choice(n, size=2, replace=False))
            before = a.copy()
            off2_0 = np.sum(before**2) - np.sum(before.diagonal() ** 2)
            res = schur2(a[p, p], a[p, q], a[q, q])
            apply_two_sided(a, p, q, res.u)
            a[p, q] = a[q, p] = 0.0
            off2_1 = np.sum(a**2) - np.sum(a.diagonal() ** 2)
            frob2 = np.sum(before**2)
            drop = off2_0 - off2_1
            assert drop == pytest.approx(
                2.0 * before[p, q] ** 2, abs=16 * n * np.finfo(float).eps * frob2
            )

    def test_untouched_rows_stay_identical(self, rng):
        a = rand_sym(rng, 6)
        before = a.copy()
        apply_two_sided(a, 1, 4, schur2(a[1, 1], a[1, 4], a[4, 4]).u)
        keep = [0, 2, 3, 5]
        assert np.array_equal(a[np.ix_(keep, keep)], before[np.ix_(keep, keep)])

    def test_diagonal_matches_schur_prediction(self, rng):
        a = rand_sym(rng, 5)
        res = schur2(a[0, 0], a[0, 3], a[3, 3])
        apply_two_sided(a, 0, 3, res.u)
        assert a[0, 0] == pytest.approx(res.t[0], rel=1e-12, abs=1e-14)
        assert a[3, 3] == pytest.approx(res.t[1], rel=1e-12, abs=1e-14)

    def test_accepts_symmatrix_and_result(self, rng):
        M = SymMatrix(rand_sym(rng, 4))
        res = schur2(M.a[0, 0], M.a[0, 1], M.a[1, 1])
        apply_two_sided(M, 0, 1, res)  # Schur2Result, not just the array
        assert abs(M.a[0, 1]) <= 1e-15

    def test_index_validation(self, rng):
        a = rand_sym(rng, 4)
        with pytest.raises(IndexError):
            apply_two_sided(a, 1, 1, np.eye(2))
        with pytest.raises(IndexError):
            apply_two_sided(a, 0, 4, np.eye(2))
        with pytest.raises(ValueError):
            apply_two_sided(a, 0, 1, np.eye(3))
        # The plane is checked first, then the dtype, then the block's shape.
        with pytest.raises(IndexError):
            apply_two_sided(a.astype(np.float32), 1, 1, np.eye(3))
        with pytest.raises(InputError, match="float64"):
            apply_two_sided(a.astype(np.float32), 0, 1, np.eye(3))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_non_float64_rejected_in_place(self, dtype):
        # Rotated values were cast into the array: truncated or rounded.
        a = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 5]], dtype=dtype)
        u = schur2(2.0, 1.0, 3.0)
        with pytest.raises(InputError, match="float64"):
            apply_two_sided(a, 0, 1, u)
        V = np.eye(3, dtype=dtype)
        with pytest.raises(InputError, match="float64"):
            apply_right(V, 0, 1, u)
        assert np.array_equal(a, [[2, 1, 0], [1, 3, 1], [0, 1, 5]])
        assert np.array_equal(V, np.eye(3))


def test_apply_right_checks_the_plane_against_columns():
    # V(:, [p, q]) rotates columns: (5, 3) reached numpy's own IndexError on
    # plane (0, 4), and (2, 5) was refused.
    with pytest.raises(IndexError, match="invalid plane"):
        apply_right(np.zeros((5, 3)), 0, 4, np.eye(2))
    V = np.arange(10.0).reshape(2, 5)
    apply_right(V, 0, 4, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert V.tolist() == [[4.0, 1.0, 2.0, 3.0, 0.0], [9.0, 6.0, 7.0, 8.0, 5.0]]


def test_apply_right_accumulates(rng):
    a = rand_sym(rng, 6)
    orig = a.copy()
    V = np.eye(6)
    for _ in range(30):
        p, q = sorted(rng.choice(6, size=2, replace=False))
        res = schur2(a[p, p], a[p, q], a[q, q])
        apply_two_sided(a, p, q, res.u)
        a[p, q] = a[q, p] = 0.0
        apply_right(V, p, q, res.u)
    assert np.allclose(V.T @ V, np.eye(6), atol=1e-13)
    assert np.allclose(V.T @ orig @ V, a, atol=1e-12)

