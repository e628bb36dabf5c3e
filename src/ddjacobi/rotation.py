"""2x2 symmetric Schur decompositions and their application in a plane.

The rotation annihilating the (p, q) entry of a symmetric matrix is computed
with the stable Rutishauser tangent recipe,

    theta = (a_qq - a_pp) / (2 a_pq),   t = sign(theta) / (|theta| + sqrt(1 + theta^2)),

which keeps |t| <= 1 and hence the angle in [-pi/4, pi/4], avoiding the
cancellation that plagues calling trig functions on the angle itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import SymMatrix

__all__ = ["Rotation2", "Schur2Result", "jacobi_angle", "schur2",
           "apply_two_sided", "apply_right"]


@dataclass(frozen=True)
class Rotation2:
    """Plane rotation [[c, s], [-s, c]] with c >= 0 (inner angle)."""

    c: float
    s: float

    @property
    def tan(self) -> float:
        return self.s / self.c

    def matrix(self) -> np.ndarray:
        return np.array([[self.c, self.s], [-self.s, self.c]])


@dataclass(frozen=True)
class Schur2Result:
    """Orthogonal U and diagonal pair t with U^T B U = diag(t), t[0] <= t[1]."""

    u: np.ndarray
    t: tuple[float, float]


def _tangent_cs(a_pp: float, a_pq: float, a_qq: float) -> tuple[float, float, float]:
    """Scalar core of jacobi_angle, schur2 and the solver's sweep loop.

    Returns (c, s, t) for the annihilating rotation with |t| <= 1. Takes
    Python floats: theta overflows to inf, giving t = 0, without the
    RuntimeWarning that numpy scalars raise.
    """
    if a_pq == 0.0:
        return 1.0, 0.0, 0.0
    theta = (a_qq - a_pp) / (2.0 * a_pq)
    if theta == 0.0:
        t = 1.0
    else:
        t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c, t


def jacobi_angle(a_pp: float, a_pq: float, a_qq: float) -> Rotation2:
    """Rotation with angle in [-pi/4, pi/4] annihilating the off-diagonal pair.

    Returns the identity when a_pq == 0; ties (a_pp == a_qq) take t = 1,
    i.e. the +pi/4 angle, so the sign of tan matches the sign of a_pq.
    """
    c, s, _ = _tangent_cs(float(a_pp), float(a_pq), float(a_qq))
    return Rotation2(c, s)


def schur2(b11: float, b12: float, b22: float) -> Schur2Result:
    """Schur decomposition of [[b11, b12], [b12, b22]] with ascending diagonal.

    The rotation of :func:`jacobi_angle` plus a conditional column swap when
    the rotated diagonal comes out descending, so the first column of U
    always pairs with the smaller eigenvalue.
    """
    b11, b12, b22 = float(b11), float(b12), float(b22)
    c, s, t = _tangent_cs(b11, b12, b22)
    # Diagonal of the rotated block in closed form (no residual subtraction).
    t1 = b11 - t * b12
    t2 = b22 + t * b12
    u = np.array([[c, s], [-s, c]])
    if t1 > t2:
        u = u[:, ::-1].copy()
        t1, t2 = t2, t1
    return Schur2Result(u=u, t=(t1, t2))


def _as_plane_matrix(U) -> np.ndarray:
    u = np.asarray(getattr(U, "u", U), dtype=np.float64)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    return u


def apply_two_sided(A, p: int, q: int, U) -> None:
    """In-place similarity A <- Q^T A Q restricted to the (p, q) plane.

    ``U`` is the 2x2 block of Q on rows/columns (p, q); its first row/column
    corresponds to index p. Only rows and columns p, q change, and mirrored
    entries are written from one computed value so symmetry stays bit-exact.
    """
    a = A.a if isinstance(A, SymMatrix) else A
    n = a.shape[0]
    if not (0 <= p < n and 0 <= q < n) or p == q:
        raise IndexError(f"invalid plane ({p}, {q}) for order {n}")
    u = _as_plane_matrix(U)
    u11, u12 = u[0, 0], u[0, 1]
    u21, u22 = u[1, 0], u[1, 1]
    app, apq, aqq = a[p, p], a[p, q], a[q, q]
    # Row transform; entries outside the plane are final after mirroring.
    # Elementwise combos (not a 2xn matmul) so the rounding of each entry is
    # fixed by the expression and independent of BLAS kernel choices.
    rp, rq = a[p, :], a[q, :]
    row_p = u11 * rp + u21 * rq
    row_q = u12 * rp + u22 * rq
    a[p, :] = row_p
    a[:, p] = row_p
    a[q, :] = row_q
    a[:, q] = row_q
    # The 2x2 block needs the full quadratic form of the old values.
    c1, c2 = app * u11 + apq * u21, apq * u11 + aqq * u21
    d1, d2 = app * u12 + apq * u22, apq * u12 + aqq * u22
    a[p, p] = u11 * c1 + u21 * c2
    a[q, q] = u12 * d1 + u22 * d2
    tpq = u11 * d1 + u21 * d2
    a[p, q] = tpq
    a[q, p] = tpq


def apply_right(V: np.ndarray, p: int, q: int, U) -> None:
    """In-place V(:, [p, q]) <- V(:, [p, q]) U (accumulates rotations)."""
    n = V.shape[0]
    if not (0 <= p < n and 0 <= q < n) or p == q:
        raise IndexError(f"invalid plane ({p}, {q}) for order {n}")
    u = _as_plane_matrix(U)
    vp, vq = V[:, p], V[:, q]
    col_p = u[0, 0] * vp + u[1, 0] * vq
    col_q = u[0, 1] * vp + u[1, 1] * vq
    V[:, p] = col_p
    V[:, q] = col_q
