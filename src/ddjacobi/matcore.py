"""Dense symmetric matrix storage and off-norm / diagonal-scaling primitives.

Conventions used throughout the package:

* matrices are dense ``float64`` arrays with both triangles stored, and every
  construction or mutation path writes the (i, j) and (j, i) slots from one
  computed value, so symmetry holds bit-exactly;
* row/column indices in the Python API are 0-based; file formats and the
  command line use 1-based indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricInput, ZeroDiagonal

__all__ = [
    "EPS",
    "SymMatrix",
    "Permutation",
    "as_symmatrix",
    "off_norm",
    "off_row",
    "scaled",
    "omega",
    "sort_by_diagonal",
    "frob_norm",
]

EPS = float(np.finfo(np.float64).eps)
_BLOCK = 1 << 13  # entries in a block of rows in SymMatrix._symmetrize (16 rows at least)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _square_finite(entries) -> np.ndarray:
    """A float64 copy of ``entries``, checked to be a finite square matrix."""
    a = np.array(entries, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _finite(a)


def _finite(a: np.ndarray) -> np.ndarray:
    """``a``, checked to hold only finite entries."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


class SymMatrix:
    """A real symmetric matrix with bit-identical triangles.

    The strict constructor rejects entries whose triangles differ at all; use
    :meth:`symmetrized` for data that is symmetric only up to rounding.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = _square_finite(entries)
        if not np.array_equal(a, a.T):
            raise AsymmetricInput(
                "entries are not exactly symmetric; use SymMatrix.symmetrized"
            )
        self.a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "SymMatrix":
        """Adopt an array already known to satisfy the invariants (no copy)."""
        m = object.__new__(cls)
        m.a = a
        return m

    @classmethod
    def symmetrized(cls, entries) -> "SymMatrix":
        """Build from nearly symmetric data.

        The package's one numerical-symmetry rule, for arrays and files
        alike: each asymmetry |a_ij - a_ji| up to its entry's allowance is
        averaged away exactly; anything larger raises :class:`AsymmetricInput`.
        The allowance is ``4*eps*sqrt|a_ii*a_jj|``, that is 4*eps in the units
        of the scaled matrix, so a graded matrix cannot average away the sign
        of a small entry; where a_ii or a_jj is zero it is ``4*eps*max|a_ij|``,
        which also caps the scaled value (rounding can lift that an ulp above).
        """
        return cls._symmetrize(_square_finite(entries))

    @classmethod
    def _symmetrize(cls, a: np.ndarray) -> "SymMatrix":
        """:meth:`symmetrized` on a private finite square float64 array, checked
        and then averaged in place, a block of rows s:e at a time from column s
        on. Row-major, the first offending entry lies above the diagonal, so it
        is the first one these blocks meet, and the one reported."""
        n = a.shape[0]
        rows = max(16, _BLOCK // n)
        d = np.sqrt(np.abs(a.diagonal()))
        top = max(float(a.max()), -float(a.min()))  # max|a_ij|, no n x n temporary
        asymmetric = False
        for s in range(0, n, rows):
            e = s + rows
            # An asymmetry past the float range reads inf, above any finite allowance.
            with np.errstate(over="ignore"):
                diff = np.subtract(a[s:e, s:], a[s:, s:e].T)
            np.abs(diff, out=diff)
            if not diff.any():  # exactly symmetric rows skip the allowance
                continue
            asymmetric = True
            scale = np.outer(d[s:e], d[s:])
            scale[scale == 0.0] = np.inf
            limit = 4.0 * EPS * np.minimum(scale, top)
            bad = diff > limit
            if bad.any():
                i, j = np.unravel_index(bad.argmax(), bad.shape)
                raise AsymmetricInput(
                    f"asymmetry {diff[i, j]:.3e} at ({s + i}, {s + j}) exceeds "
                    f"its allowance {limit[i, j]:.3e}"
                )
        if asymmetric:  # exactly symmetric input comes back as it is
            for s in range(0, n, rows):
                e = s + rows
                # Halving first cannot overflow, and is exact above the subnormals.
                mean = 0.5 * a[s:e, s:] + 0.5 * a[s:, s:e].T
                a[s:e, s:] = mean
                a[s:, s:e] = mean.T
        return cls._wrap(a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def copy(self) -> "SymMatrix":
        return type(self)._wrap(self.a.copy())

    def to_array(self) -> np.ndarray:
        """A defensive copy of the entries."""
        return self.a.copy()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


def as_symmatrix(m) -> SymMatrix:
    """Coerce an array-like into a :class:`SymMatrix` (tolerant path)."""
    if isinstance(m, SymMatrix):
        return m
    return SymMatrix.symmetrized(m)


def _entries(m) -> np.ndarray:
    return m.a if isinstance(m, SymMatrix) else np.asarray(m, dtype=np.float64)


def off_norm(A) -> float:
    """Frobenius norm of the off-diagonal part, sqrt(sum_{i != j} a_ij^2).

    Computed on an explicit zero-diagonal copy; the shortcut
    sqrt(frob^2 - sum a_ii^2) cancels catastrophically near convergence.
    """
    return frob_norm(omega(A))


def _off_norm_in_place(a: np.ndarray) -> float:
    """:func:`off_norm` of the writable a without its n x n copy: a's
    diagonal is zeroed for the norm, then restored."""
    d = a.diagonal().copy()
    np.fill_diagonal(a, 0.0)
    off = frob_norm(a)
    np.fill_diagonal(a, d)
    return off


def off_row(A, i: int) -> float:
    """Off-diagonal norm of row i: sqrt(sum_{j != i} a_ij^2). 0-based."""
    a = _entries(A)
    n = a.shape[0]
    if not _is_int(i) or not 0 <= i < n:
        raise IndexError(f"row index {i!r} out of range for order {n}")
    row = a[i].copy()
    row[i] = 0.0
    return frob_norm(row)


# Below this norm, the squares of entries that matter to it may be subnormal
# or zero. An entry whose square is subnormal (below 1.5e-154) is then below
# 1.5e-14 of the norm, which matters only beyond 1e12 entries.
_TINY_NORM = 1e-140


def frob_norm(A) -> float:
    """Frobenius norm of a matrix or row, the package's one norm: the sum of
    ``np.linalg.norm`` (``np.vdot`` gives ``x.dot(x)``'s bits, but no overflow
    warning). Where that overflows or the norm is below ``_TINY_NORM``, it is
    retaken on A / max|a_ij|: inf only if the norm itself overflows."""
    x = _entries(A).ravel("K")
    norm = math.sqrt(np.vdot(x, x))
    if _TINY_NORM <= norm < math.inf:
        return norm
    s = float(np.abs(x).max(initial=0.0))
    if not 0.0 < s < math.inf:  # zero, or an inf or NaN entry
        return s
    x = x / s
    return s * math.sqrt(np.vdot(x, x))


def _row_norms(x: np.ndarray) -> list[float]:
    """:func:`frob_norm` of each row of the 2-D x, in one stack of row-by-column
    products: numpy's dot loop per row, ``np.vdot``'s BLAS dot, so its bits.
    Rows outside frob_norm's plain range are retaken by frob_norm."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((x[:, None, :] @ x[:, :, None]).ravel()).tolist()
    return [norm if _TINY_NORM <= norm < math.inf else frob_norm(x[i])
            for i, norm in enumerate(norms)]


def omega(A) -> SymMatrix:
    """The off-diagonal part: a copy of A with the diagonal zeroed."""
    om = _entries(A).copy()
    np.fill_diagonal(om, 0.0)
    return SymMatrix._wrap(om)


def scaled(A) -> SymMatrix:
    """Diagonal scaling H = |D|^{-1/2} A |D|^{-1/2}.

    h_ij = a_ij / sqrt(|a_ii| |a_jj|) off the diagonal and h_ii = sign(a_ii)
    exactly. Raises :class:`ZeroDiagonal` when some a_ii == 0.
    """
    a = _entries(A)
    d = a.diagonal()
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise ZeroDiagonal(int(zero[0]) + 1)
    dh = 1.0 / np.sqrt(np.abs(d))
    h = _scale(a, dh, dh)
    np.fill_diagonal(h, np.sign(d))
    return SymMatrix._wrap(h)


def _scale(a: np.ndarray, dl, dr: np.ndarray) -> np.ndarray:
    """a_ij fl(dl_i dr_j) in a new array, the off-diagonal entries of
    :func:`scaled` from dh = |d|^{-1/2}: the matrix for dl = dh, row i for dl = dh[i].
    Where fl(dl_i dr_j) overflows (|d_i d_j| below ~3e-617), a_ij times the
    larger factor, then the smaller: symmetric, and out of the subnormals
    first."""
    # np.outer's bits (einsum's 0 + x is exact for dh > 0) at half its time
    out = np.einsum("...,j->...j", dl, dr)
    if float(np.max(dl)) * float(dr.max()) < math.inf:
        return np.multiply(a, out, out=out)
    ij = np.isinf(out).nonzero()
    out[ij] = 0.0
    np.multiply(a, out, out=out)
    x, y = (dl[ij[0]] if np.ndim(dl) else dl), dr[ij[-1]]
    out[ij] = a[ij] * np.maximum(x, y) * np.minimum(x, y)
    return out


@dataclass(frozen=True)
class Permutation:
    """A reordering of 0..n-1; applying to A yields B[i, j] = A[idx[i], idx[j]]."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.dtype.kind not in "iu":  # a cast would truncate floats and take bools as 0/1
            raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
        idx = np.asarray(idx, dtype=np.intp)
        n = idx.size
        if not np.array_equal(np.sort(idx), np.arange(n)):
            raise ValueError("indices are not a permutation of 0..n-1")
        object.__setattr__(self, "indices", idx)

    def apply(self, A) -> SymMatrix:
        """Symmetric reordering A(p, p)."""
        a = _entries(A)
        idx = self.indices
        return SymMatrix._wrap(a[np.ix_(idx, idx)])

    def scatter(self, v) -> np.ndarray:
        """Carry a vector back to the original ordering: out[idx[i]] = v[i]."""
        v = np.asarray(v)
        out = np.empty_like(v)
        out[self.indices] = v
        return out


def _peak_positive(v: np.ndarray) -> np.ndarray:
    """v with the sign of each row (along the last axis) flipped, if needed,
    so its largest-magnitude entry is positive (lowest index on ties): the
    package's eigenvector sign rule."""
    peaks = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return np.where(peaks < 0.0, -v, v)


def sort_by_diagonal(A) -> tuple[SymMatrix, Permutation]:
    """Reorder so the diagonal ascends; stable for equal entries."""
    a = _entries(A)
    idx = np.argsort(a.diagonal(), kind="stable")
    perm = Permutation(idx)
    return perm.apply(a), perm
