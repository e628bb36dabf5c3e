"""Classical cyclic Jacobi eigendecomposition in parallel order.

The correctness oracle for the targeted solver and, up to n = 128, the
spectrum source for exact modes. Sweeps run until the off-norm falls below
sqrt(eps) * frob_norm(A0), each in N - 1 rounds of N/2 disjoint rotations
(Brent & Luk, SISSC 1985; Sameh, Math. Comp. 1971), a few numpy calls each,
with the symmetry that rounding breaks restored once per sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidOptions, NoConvergence
from .matcore import (EPS, _is_int, _off_norm_in_place, _peak_positive, as_symmatrix,
                      frob_norm)

__all__ = ["EigDecomposition", "full_jacobi"]

# Above this order, exact-mode spectra come from LAPACK, accurate only
# relative to ||A||: on graded D*H*D (n = 16, D from 1e-6 to 1e6) its small
# eigenvalues were off by up to 8e6 relative, the oracle's by 1.1e-12
# (tests/test_reference.py). Values only, the oracle takes 0.033 s at
# n = 100 and 0.073-0.079 s at 128 on a Laplacian (8-9 sweeps); at 256,
# 0.14 s on random-dd (3 sweeps) and 0.41-0.44 s on a Laplacian (9).
_ORACLE_CUTOFF = 128


@dataclass
class EigDecomposition:
    """Ascending eigenvalues and the matching orthogonal eigenvector columns
    (None from the exact modes' values-only call)."""

    values: np.ndarray
    vectors: np.ndarray | None


def _round_robin(N: int) -> np.ndarray:
    """The gather before each round, at even N: a round pairs slots (2i, 2i + 1).
    In the circle method's terms, slots 0, 2i and 2i + 1 (i >= 1) are ring seats
    0, i and N - 1 - i, seat k meets seat -k and seat 0 meets slot 1, which sits
    still. The gather turns the ring by one seat, so a sweep of N - 1 rounds
    meets every pair once and ends where it began."""
    seat_slot = np.concatenate(([0], np.arange(2, N, 2), np.arange(N - 1, 2, -2)))
    g = np.arange(N)
    g[seat_slot] = np.roll(seat_slot, -1)
    return g


def full_jacobi(A, threshold: float = 0.0, max_sweeps: int = 60, *,
                _vectors: bool = True) -> EigDecomposition:
    """Diagonalize by cyclic Jacobi sweeps over all pairs p < q.

    ``threshold`` gates tiny rotations: entries below
    threshold * frob_norm(A0) / n are skipped within a sweep (0 disables the
    gate; it must be >= 0). ``max_sweeps`` must be an integer >= 1. Raises
    :class:`NoConvergence` if the off-norm is still above
    sqrt(eps) * frob_norm(A0) after ``max_sweeps`` sweeps. ``_vectors=False``
    is the exact modes' values-only path: no basis is rotated and
    ``vectors`` is None; the values are the same bits.

    A sweep is N - 1 rounds, each gathered by :func:`_round_robin` (odd n
    gains a zero row, which never rotates). A round forms B = R^T P A, then
    R^T P B^T = J^T A^T J (J = P^T R), each a batched 2x2 product: no round
    needs symmetry, which each sweep restores for its off-norm test by
    copying the lower triangle onto the upper (no overflow, no rounding).
    """
    if not _is_int(max_sweeps) or max_sweeps < 1:
        raise InvalidOptions(f"max_sweeps must be an integer >= 1, got {max_sweeps!r}")
    if not threshold >= 0.0:
        raise InvalidOptions(f"threshold must be nonnegative, got {threshold!r}")
    M = as_symmatrix(A)
    n, N = M.n, M.n + M.n % 2
    frob0 = frob_norm(M)
    if frob0 == math.inf:
        raise InputError("the Frobenius norm of the matrix overflows")
    target = math.sqrt(EPS) * frob0
    # |a_pq| >= gate rotates; the floor keeps exact zeros still at threshold 0
    gate = max(threshold * frob0 / n, math.ulp(0.0))
    g = _round_robin(N)
    # flat index of each round's a_pq, after P; Python ints, as an integer
    # ufunc would map numpy code that nothing else in the job runs
    pq = np.array([p * N + q for p, q in zip(g[0::2].tolist(), g[1::2].tolist())])
    w, above = np.empty((N // 2, 2, 2)), np.triu(np.ones((N, N), dtype=bool), 1)
    # Each buffer with its row pairs, flat view, diagonal and pair entries
    # a_pq, a_qp; a round leaves its result in the other, so they swap roles.
    bufs = [(x, x.reshape(N // 2, 2, N), f, f[::N + 1], f[1::2 * N + 2], f[N::2 * N + 2])
            for x in (np.zeros((N, N)), np.empty((N, N))) for f in (x.reshape(-1),)]
    bufs[0][0][:n, :n] = M.a
    if _vectors:
        vt = np.eye(N)
        vt3 = vt.reshape(N // 2, 2, N)

    sweeps = 0
    while True:
        (a, _, _, diag, _, _), (b, *_) = bufs
        np.copyto(b, a.T)
        np.copyto(a, b, where=above)
        off = _off_norm_in_place(a)
        if not off > target:
            break
        if sweeps >= max_sweeps:
            raise NoConvergence(
                f"off-norm {off:.3e} still above {target:.3e} after {max_sweeps} sweeps"
            )
        with np.errstate(over="ignore"):
            for _ in range(N - 1):
                (a, a3, flat, diag, _, _), (b, b3, _, _, upper, lower) = bufs
                d, apq = diag[g], flat[pq]
                live = np.abs(apq) >= gate
                # _tangent_cs's t: 1 at theta = +-0 (theta + 0.0 is +0.0), 0 if
                # gated or if theta overflows
                theta = (d[1::2] - d[0::2]) / (2.0 * np.where(live, apq, 1.0))
                t = np.copysign(live, theta + 0.0) / (np.abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                w[:, 0, 0] = w[:, 1, 1] = c  # w = ((c, -s), (s, c)), s = t c
                np.multiply(t, c, out=w[:, 1, 0])
                np.negative(w[:, 1, 0], out=w[:, 0, 1])
                # g is in range; mode="raise" would buffer out (N^2). The take
                # method skips np.take's Python wrapper, ~2 us a call.
                a.take(g, axis=0, out=b, mode="clip")
                np.matmul(w, b3, out=a3)
                np.copyto(b, a.T)
                b.take(g, axis=0, out=a, mode="clip")
                np.matmul(w, a3, out=b3)
                upper[live] = lower[live] = 0.0
                if _vectors:
                    vt.take(g, axis=0, out=a, mode="clip")
                    np.matmul(w, a3, out=vt3)
                bufs.reverse()
        sweeps += 1

    order = np.argsort(diag[:n], kind="stable")
    if not _vectors:
        return EigDecomposition(values=diag[order], vectors=None)
    return EigDecomposition(values=diag[order], vectors=_peak_positive(vt[order, :n]).T)


def _exact_values(A) -> np.ndarray:
    """The ascending spectrum for every exact mode (``eig --ref``,
    ``cluster``/``diagnose --exact``, ``diagnose(exact=True)``): the Jacobi
    oracle up to order ``_ORACLE_CUTOFF``, LAPACK ``eigvalsh`` above."""
    M = as_symmatrix(A)
    if M.n > _ORACLE_CUTOFF:
        return np.linalg.eigvalsh(M.a)
    return full_jacobi(M, _vectors=False).values
