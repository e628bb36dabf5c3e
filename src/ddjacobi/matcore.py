"""Dense symmetric matrix storage and off-norm / diagonal-scaling primitives.

Conventions used throughout the package:

* matrices are dense ``float64`` arrays with both triangles stored, and every
  construction or mutation path writes the (i, j) and (j, i) slots from one
  computed value, so symmetry holds bit-exactly;
* row/column indices in the Python API are 0-based; file formats and the
  command line use 1-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricInput, ZeroDiagonal

__all__ = [
    "EPS",
    "SymMatrix",
    "ScaledView",
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


def _square_finite(entries) -> np.ndarray:
    """A float64 copy of ``entries``, checked to be a finite square matrix."""
    a = np.array(entries, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
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
    def symmetrized(cls, entries, atol: float | None = None) -> "SymMatrix":
        """Build from nearly symmetric data.

        The package's one numerical-symmetry rule, for arrays and files
        alike: each asymmetry |a_ij - a_ji| up to its entry's allowance is
        averaged away exactly; anything larger raises :class:`AsymmetricInput`.
        The allowance is ``atol`` when given. By default it is
        ``4*eps*sqrt|a_ii*a_jj|``, that is 4*eps in the units of the scaled
        matrix, so a graded matrix cannot average away the sign of a small
        entry; where a_ii or a_jj is zero it is ``4*eps*max|a_ij|``, which
        also caps the scaled value (rounding can lift that an ulp above).
        """
        a = _square_finite(entries)
        # An asymmetry past the float range reads inf, above any finite allowance.
        with np.errstate(over="ignore"):
            diff = np.abs(a - a.T)
        asymmetric = diff.any()
        if atol is not None:
            limit = np.full_like(diff, atol)
        elif asymmetric:
            d = np.sqrt(np.abs(a.diagonal()))
            scale = np.outer(d, d)
            scale[scale == 0.0] = np.inf
            limit = 4.0 * EPS * np.minimum(scale, float(np.abs(a).max()))
        else:  # exactly symmetric input skips the O(n^2) allowance
            return cls._wrap(a)
        bad = diff > limit
        if bad.any():
            i, j = np.unravel_index(bad.argmax(), bad.shape)
            raise AsymmetricInput(
                f"asymmetry {diff[i, j]:.3e} at ({i}, {j}) exceeds its "
                f"allowance {limit[i, j]:.3e}"
            )
        # Halving first cannot overflow, and is exact above the subnormals.
        return cls._wrap(0.5 * a + 0.5 * a.T if asymmetric else a)

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls._wrap(np.eye(n))

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls._wrap(np.diag(np.asarray(values, dtype=np.float64)))

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


class ScaledView(SymMatrix):
    """The scaled matrix H = |D|^{-1/2} A |D|^{-1/2}; diagonal is exactly ±1.

    ``scale`` holds the vector |a_ii|^{-1/2} that produced the view.
    """

    __slots__ = ("scale",)

    def copy(self) -> "ScaledView":
        view = ScaledView._wrap(self.a.copy())
        view.scale = self.scale.copy()
        return view


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


def off_row(A, i: int) -> float:
    """Off-diagonal norm of row i: sqrt(sum_{j != i} a_ij^2). 0-based."""
    a = _entries(A)
    n = a.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"row index {i} out of range for order {n}")
    row = a[i].copy()
    row[i] = 0.0
    return float(np.linalg.norm(row))


def frob_norm(A) -> float:
    return float(np.linalg.norm(_entries(A)))


def omega(A) -> SymMatrix:
    """The off-diagonal part: a copy of A with the diagonal zeroed."""
    om = _entries(A).copy()
    np.fill_diagonal(om, 0.0)
    return SymMatrix._wrap(om)


def scaled(A) -> ScaledView:
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
    h = a * np.outer(dh, dh)
    np.fill_diagonal(h, np.sign(d))
    view = ScaledView._wrap(h)
    view.scale = dh
    return view


@dataclass(frozen=True)
class Permutation:
    """A reordering of 0..n-1; applying to A yields B[i, j] = A[idx[i], idx[j]]."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        n = idx.size
        if not np.array_equal(np.sort(idx), np.arange(n)):
            raise ValueError("indices are not a permutation of 0..n-1")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    def __len__(self) -> int:
        return self.indices.size

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.indices)
        inv[self.indices] = np.arange(self.indices.size)
        return Permutation(inv)

    def apply(self, A) -> SymMatrix:
        """Symmetric reordering A(p, p)."""
        a = _entries(A)
        idx = self.indices
        return SymMatrix._wrap(a[np.ix_(idx, idx)])

    def gather(self, v) -> np.ndarray:
        """Carry a vector into the permuted ordering: out[i] = v[idx[i]]."""
        return np.asarray(v)[self.indices]

    def scatter(self, v) -> np.ndarray:
        """Carry a vector back to the original ordering: out[idx[i]] = v[i]."""
        v = np.asarray(v)
        out = np.empty_like(v)
        out[self.indices] = v
        return out


def _peak_positive(v: np.ndarray) -> np.ndarray:
    """v with its sign flipped, if needed, so its largest-magnitude entry is
    positive (lowest index on ties): the package's eigenvector sign rule."""
    return -v if v[int(np.argmax(np.abs(v)))] < 0.0 else v


def sort_by_diagonal(A) -> tuple[SymMatrix, Permutation]:
    """Reorder so the diagonal ascends; stable for equal entries."""
    a = _entries(A)
    idx = np.argsort(a.diagonal(), kind="stable")
    perm = Permutation(idx)
    return perm.apply(a), perm
