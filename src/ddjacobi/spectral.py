"""Spectral 2-way clustering via the targeted solver.

Pipeline: points -> Gaussian similarity matrix -> normalized Laplacian ->
second-smallest eigenpair (Fiedler vector) with the targeted iteration at
m = 2 -> sign-based partition.

Note the similarity kernel uses the plain Euclidean distance in the exponent,
exp(-||x_i - x_j|| / (2 sigma^2)), not the squared distance of the more
common RBF kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidOptions, IsolatedVertex
from .matcore import SymMatrix, _finite, as_symmatrix
from .solver import SolveOptions, SolveStatus, SweepRecord, solve

__all__ = ["PointCloud", "ClusterResult", "gaussian_similarity",
           "normalized_laplacian", "fiedler_partition"]


@dataclass
class PointCloud:
    """n points in R^d, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-d (n, d), got shape {pts.shape}")
        if pts.shape[0] < 2 or pts.shape[1] < 1:
            raise ValueError("need at least 2 points with at least 1 coordinate")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class ClusterResult:
    """Fiedler eigenpair plus the induced 0/1 labels.

    ``solve_status`` reports how the m = 2 solve ended; a non-converged
    status flags an unreliable partition (e.g. multiple lambda_2) without
    raising. ``history`` carries the solver sweeps for plotting.
    """

    lambda2: float
    fiedler: np.ndarray
    labels: np.ndarray
    solve_status: SolveStatus
    history: list[SweepRecord]


def gaussian_similarity(pc: PointCloud, sigma: float) -> SymMatrix:
    """w_ij = exp(-||x_i - x_j||_2 / (2 sigma^2)) with zero diagonal."""
    if not sigma > 0.0:
        raise InvalidOptions(f"sigma must be positive, got {sigma!r}")
    pts = pc.points
    n = pts.shape[0]
    w = np.empty((n, n))
    denom = 2.0 * sigma * sigma
    chunk = max(1, 4_000_000 // max(1, n * pts.shape[1]))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        w[start:stop] = np.exp(-dist / denom)
    np.fill_diagonal(w, 0.0)
    return SymMatrix(w)


def normalized_laplacian(W) -> SymMatrix:
    """L = D^{-1/2} (D - W) D^{-1/2} with D = diag of row sums.

    Requires nonnegative weights and positive degrees; a zero row sum raises
    IsolatedVertex with the 1-based vertex. The diagonal is exactly 1 at
    vertices with w_ii == 0.
    """
    M = as_symmatrix(W)
    w = M.a
    if np.any(w < 0.0):
        raise ValueError("similarity weights must be nonnegative")
    with np.errstate(over="ignore"):
        deg = w.sum(axis=1)
    if np.isinf(deg).any():  # L is unchanged by scaling W; 2**-k scales exactly
        w = w * 2.0 ** -len(w).bit_length()
        deg = w.sum(axis=1)
    dead = np.flatnonzero(deg == 0.0)
    if dead.size:
        raise IsolatedVertex(int(dead[0]) + 1)
    dh = 1.0 / np.sqrt(deg)
    # dh_i dh_j overflows where two degrees are near the subnormal range:
    # -inf, or NaN beside a zero weight, which _finite then refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        lap = np.outer(-dh, dh)  # negating a factor of a product is exact
        lap *= w
    wd = w.diagonal()
    np.fill_diagonal(lap, np.where(wd == 0.0, 1.0, (deg - wd) * dh * dh))
    return SymMatrix._wrap(_finite(lap))


def fiedler_partition(L, opts: SolveOptions | None = None) -> ClusterResult:
    """Second-smallest eigenpair of L and the sign partition of its vector.

    Entries with fiedler[i] < 0 get label 0, the rest (zeros included) label
    1. Any SolveOptions passed in are used as a template; m is forced to 2
    and the eigenvector is always accumulated.
    """
    base = opts if opts is not None else SolveOptions(m=2)
    res = solve(L, replace(base, m=2, want_vector=True))
    v = res.vector
    labels = np.where(v < 0.0, 0, 1)
    return ClusterResult(
        lambda2=res.lambda_hat,
        fiedler=v,
        labels=labels,
        solve_status=res.status,
        history=res.history,
    )
