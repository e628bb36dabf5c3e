import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddjacobi import (
    Rotation2,
    SymMatrix,
    apply_right,
    apply_two_sided,
    jacobi_angle,
    schur2,
)
from ddjacobi.diagnostics import rel
from conftest import rand_sym

finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-8)


def test_identity_when_entry_already_zero():
    r = jacobi_angle(3.0, 0.0, -5.0)
    assert (r.c, r.s) == (1.0, 0.0)


def test_tie_takes_quarter_pi():
    # theta == 0 picks t = 1 whatever the sign of the off entry; the
    # rotated off-diagonal is apq * (c^2 - s^2) = 0 either way
    r = jacobi_angle(2.0, 1.5, 2.0)
    assert r.s == pytest.approx(r.c)
    assert r.tan == pytest.approx(1.0)
    r2 = jacobi_angle(2.0, -1.5, 2.0)
    assert r2.tan == pytest.approx(1.0)


def test_theta_overflow_gives_identity_without_warning():
    # numpy entries: (1e10 - 0) / 2e-300 overflows to inf, so t = 0
    app, apq, aqq = np.array([0.0, 1e-300, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = jacobi_angle(app, apq, aqq)
        res = schur2(app, apq, aqq)
    assert (r.c, r.s) == (1.0, 0.0)
    assert np.array_equal(res.u, np.eye(2))
    assert res.t == (0.0, 1e10)


@given(app=finite, apq=finite, aqq=finite)
@settings(max_examples=300, deadline=None)
def test_rotation_is_orthogonal_with_inner_angle(app, apq, aqq):
    r = jacobi_angle(app, apq, aqq)
    assert r.c > 0.0
    assert abs(r.c * r.c + r.s * r.s - 1.0) <= 4 * np.finfo(float).eps
    assert abs(r.s) <= r.c + 1e-15  # |angle| <= pi/4


@given(app=finite, apq=nonzero, aqq=finite)
@settings(max_examples=300, deadline=None)
def test_rotation_annihilates_the_pair(app, apq, aqq):
    u = jacobi_angle(app, apq, aqq).matrix()
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
    r = jacobi_angle(app, apq, aqq)
    h = apq / np.sqrt(abs(app) * abs(aqq))
    bound = 0.5 * abs(h) / rel(app, aqq)
    assert abs(r.tan) <= bound * (1 + 1e-12) + 1e-300


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


def test_rotation2_matrix_layout():
    r = Rotation2(0.8, 0.6)
    assert np.array_equal(r.matrix(), np.array([[0.8, 0.6], [-0.6, 0.8]]))
