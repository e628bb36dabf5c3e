"""Classical cyclic Jacobi eigendecomposition in parallel order.

The correctness oracle for the targeted solver and, up to n = 128, the
spectrum source for exact modes. Sweeps run until the off-norm falls below
sqrt(eps) * frob_norm(A0), each in N - 1 rounds of N/2 disjoint rotations
(Brent & Luk, SISSC 1985; Sameh, Math. Comp. 1971), a few numpy calls each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NoConvergence
from .matcore import EPS, _peak_positive, as_symmatrix, frob_norm, off_norm

__all__ = ["EigDecomposition", "full_jacobi"]

# Above this order, exact-mode spectra come from LAPACK, accurate only
# relative to ||A||: on graded D*H*D (n = 16, D from 1e-6 to 1e6) its small
# eigenvalues were off by up to 8e6 relative, the oracle's by 1.1e-12
# (tests/test_reference.py). The oracle takes ~0.08 s at n = 100, ~0.2 s at 128.
_ORACLE_CUTOFF = 128


@dataclass
class EigDecomposition:
    """Ascending eigenvalues and the matching orthogonal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


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


def full_jacobi(A, threshold: float = 0.0, max_sweeps: int = 60) -> EigDecomposition:
    """Diagonalize by cyclic Jacobi sweeps over all pairs p < q.

    ``threshold`` gates tiny rotations: entries below
    threshold * frob_norm(A0) / n are skipped within a sweep (0 disables the
    gate). Raises :class:`NoConvergence` if the off-norm is still above
    sqrt(eps) * frob_norm(A0) after ``max_sweeps`` sweeps.

    A sweep is N - 1 rounds, each gathered by :func:`_round_robin` (odd n
    gains a zero row, which never rotates). A round forms B = R^T P A, then
    R^T (P A P^T) R = R^T P B^T as A is symmetric, each a batched 2x2 product.
    """
    M = as_symmatrix(A)
    n, N = M.n, M.n + M.n % 2
    frob0 = frob_norm(M)
    if frob0 == math.inf:
        raise InputError("the Frobenius norm of the matrix overflows")
    target = math.sqrt(EPS) * frob0
    # |a_pq| >= gate rotates; the floor keeps exact zeros still at threshold 0
    gate = max(threshold * frob0 / n, math.ulp(0.0))
    g = _round_robin(N)
    a, b, vt = np.zeros((N, N)), np.empty((N, N)), np.eye(N)
    a[:n, :n] = M.a
    a3, b3, vt3 = (x.reshape(N // 2, 2, N) for x in (a, b, vt))
    flat = a.reshape(-1)
    diag, upper, lower = flat[::N + 1], flat[1::2 * N + 2], flat[N::2 * N + 2]

    sweeps = 0
    while off_norm(a) > target:
        if sweeps >= max_sweeps:
            raise NoConvergence(
                f"off-norm {off_norm(a):.3e} still above {target:.3e} "
                f"after {max_sweeps} sweeps"
            )
        for _ in range(N - 1):
            d, apq = diag[g], a[g[0::2], g[1::2]]
            live = np.abs(apq) >= gate
            # _tangent_cs's t (1 at theta = 0); 0 if gated or theta overflows
            with np.errstate(over="ignore"):
                theta = (d[1::2] - d[0::2]) / (2.0 * np.where(live, apq, 1.0))
            t = np.where(theta < 0.0, -1.0, 1.0) * live / (np.abs(theta) + np.hypot(1.0, theta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            w = np.stack((c, -t * c, t * c, c), axis=1).reshape(-1, 2, 2)
            # g is in range; the default mode="raise" would buffer out (N^2)
            np.take(a, g, axis=0, out=b, mode="clip")
            np.matmul(w, b3, out=a3)
            np.copyto(b, a.T)
            np.take(b, g, axis=0, out=a, mode="clip")
            np.matmul(w, a3, out=b3)
            np.add(b, b.T, out=a)
            a *= 0.5
            upper[live] = lower[live] = 0.0
            np.take(vt, g, axis=0, out=b, mode="clip")
            np.matmul(w, b3, out=vt3)
        sweeps += 1

    order = np.argsort(diag[:n], kind="stable")
    vectors = vt[order, :n].T
    for j in range(n):
        vectors[:, j] = _peak_positive(vectors[:, j])
    return EigDecomposition(values=diag[order], vectors=vectors)


def _exact_values(A) -> np.ndarray:
    """The ascending spectrum for every exact mode (``eig --ref``,
    ``cluster``/``diagnose --exact``, ``diagnose(exact=True)``): the Jacobi
    oracle up to order ``_ORACLE_CUTOFF``, LAPACK ``eigvalsh`` above."""
    M = as_symmatrix(A)
    return full_jacobi(M).values if M.n <= _ORACLE_CUTOFF else np.linalg.eigvalsh(M.a)
