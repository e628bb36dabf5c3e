"""Classical cyclic-by-rows Jacobi eigendecomposition.

This is the correctness oracle for the targeted solver and, up to n = 128,
the spectrum source for exact modes. It is written for trustworthiness, not
speed: plain row-cyclic sweeps, one annihilating rotation per off-diagonal
pair, until the whole off-norm falls below sqrt(eps) * frob_norm(A0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .matcore import EPS, _peak_positive, as_symmatrix, frob_norm, off_norm
from .rotation import apply_right, apply_two_sided, jacobi_angle

__all__ = ["EigDecomposition", "full_jacobi"]

# Above this order, exact-mode spectra come from LAPACK instead of the Jacobi
# oracle: the same values to about 1e-12 relative, without O(n^3) Python work.
_ORACLE_CUTOFF = 128


@dataclass
class EigDecomposition:
    """Ascending eigenvalues and the matching orthogonal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def full_jacobi(A, threshold: float = 0.0, max_sweeps: int = 60) -> EigDecomposition:
    """Diagonalize by cyclic Jacobi sweeps over all pairs p < q.

    ``threshold`` gates tiny rotations: entries below
    threshold * frob_norm(A0) / n are skipped within a sweep (0 disables the
    gate). Raises :class:`NoConvergence` if the off-norm is still above
    sqrt(eps) * frob_norm(A0) after ``max_sweeps`` sweeps.
    """
    M = as_symmatrix(A)
    a = M.a.copy()
    n = a.shape[0]
    frob0 = frob_norm(a)
    target = math.sqrt(EPS) * frob0
    gate = threshold * frob0 / n
    V = np.eye(n)

    sweeps = 0
    while off_norm(a) > target:
        if sweeps >= max_sweeps:
            raise NoConvergence(
                f"off-norm {off_norm(a):.3e} still above {target:.3e} "
                f"after {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0 or abs(apq) < gate:
                    continue
                u = jacobi_angle(a[p, p], apq, a[q, q]).matrix()
                apply_two_sided(a, p, q, u)
                a[p, q] = 0.0
                a[q, p] = 0.0
                apply_right(V, p, q, u)
        sweeps += 1

    order = np.argsort(a.diagonal(), kind="stable")
    values = a.diagonal()[order].copy()
    vectors = V[:, order].copy()
    for j in range(n):
        vectors[:, j] = _peak_positive(vectors[:, j])
    return EigDecomposition(values=values, vectors=vectors)


def _exact_values(A) -> np.ndarray:
    """The ascending spectrum for every exact mode (``eig --ref``,
    ``cluster``/``diagnose --exact``, ``diagnose(exact=True)``): the Jacobi
    oracle up to order ``_ORACLE_CUTOFF``, LAPACK ``eigvalsh`` above."""
    M = as_symmatrix(A)
    return full_jacobi(M).values if M.n <= _ORACLE_CUTOFF else np.linalg.eigvalsh(M.a)
