"""Classical cyclic-by-rows Jacobi eigendecomposition.

This is the correctness oracle for the targeted solver and the spectrum
source for exact-mode diagnostics. It is written for trustworthiness, not
speed: plain row-cyclic sweeps, one annihilating rotation per off-diagonal
pair, until the whole off-norm falls below sqrt(eps) * frob_norm(A0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .matcore import EPS, _peak_positive, as_symmatrix
from .rotation import apply_right, apply_two_sided, jacobi_angle

__all__ = ["EigDecomposition", "full_jacobi"]


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
    frob0 = float(np.linalg.norm(a))
    target = math.sqrt(EPS) * frob0
    gate = threshold * frob0 / n
    V = np.eye(n)

    def off() -> float:
        om = a.copy()
        np.fill_diagonal(om, 0.0)
        return float(np.linalg.norm(om))

    sweeps = 0
    while off() > target:
        if sweeps >= max_sweeps:
            raise NoConvergence(
                f"off-norm {off():.3e} still above {target:.3e} "
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
