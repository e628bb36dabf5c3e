"""Exception types shared across the library.

Two families: :class:`InputError` covers contract violations in the data or
options handed to us (bad shapes, zero diagonals, unparsable files), while
:class:`NumericalError` covers runs that were set up correctly but could not
be carried to completion (iteration budgets, collapsed gaps).
"""

__all__ = ["InputError", "NumericalError", "AsymmetricInput", "ZeroDiagonal",
           "InvalidOptions", "SingleEigenvalue",
           "BothZero", "DegenerateGapHat", "InsufficientHistory",
           "NonpositiveValues", "BoundUndefined", "IsolatedVertex",
           "ParseError", "NotSymmetric", "UnsupportedField", "NoConvergence",
           "CollapsedGap", "StepLimit", "TrackerStalled"]


class InputError(ValueError):
    """Base class for invalid inputs: data, options, or file contents."""


class NumericalError(RuntimeError):
    """Base class for computations that start out valid but fail to finish."""


class AsymmetricInput(InputError):
    """Matrix entries differ between triangles beyond the allowed slack."""


class ZeroDiagonal(InputError):
    """A diagonal entry is exactly zero where scaling by |a_ii|^{-1/2} is needed."""

    def __init__(self, position: int):
        self.position = position  # 1-based, for human-readable reporting
        super().__init__(f"diagonal entry {position} is zero; cannot scale")


class InvalidOptions(InputError):
    """Solver or tracker options are out of range for the given matrix."""


class SingleEigenvalue(InputError):
    """Gap statistics need at least two eigenvalues."""


class BothZero(InputError):
    """Relative distance rel(x, y) is undefined when x = y = 0."""


class DegenerateGapHat(InputError):
    """All diagonal entries coincide with the target; first-order gap is zero."""


class InsufficientHistory(InputError):
    """Rate fitting needs at least three usable history rows."""


class NonpositiveValues(InputError):
    """History rows contain zero or negative residuals; log fit undefined."""


class BoundUndefined(InputError):
    """A certified bound's hypothesis fails, so the bound does not apply."""


class IsolatedVertex(InputError):
    """A similarity graph vertex has zero degree; the Laplacian scaling breaks."""

    def __init__(self, position: int):
        self.position = position  # 1-based
        super().__init__(f"vertex {position} has zero degree")


class ParseError(InputError):
    """A file could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NotSymmetric(InputError):
    """File declares or requires symmetry that the stored entries violate."""


class UnsupportedField(InputError):
    """Matrix file uses a field or format variant we do not handle."""


class NoConvergence(NumericalError):
    """Full eigendecomposition failed to reach its target within the budget."""


class CollapsedGap(NumericalError):
    """Eigenvalues of the tracked path fused below the trust floor."""


class StepLimit(NumericalError):
    """Path tracker exceeded its step budget before reaching t = 1."""


class TrackerStalled(NumericalError):
    """A tracker sub-solve ended without converging."""

    def __init__(self, t: float, m: int, status: str):
        self.t = t
        self.m = m  # 1-based eigenvalue rank
        self.status = status
        super().__init__(f"solve for pair {m} at t = {t:.6g} ended with status {status}")
