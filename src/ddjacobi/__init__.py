"""Targeted Jacobi eigensolver for dense symmetric matrices.

Computes one specified eigenpair (the m-th in ascending order) of a
symmetric matrix by Jacobi rotations confined to the planes meeting row m --
fast when the diagonally-scaled matrix is strongly diagonally dominant.
Ships with convergence diagnostics (relative gaps, certified contraction
bounds, rate fitting), a classical full-Jacobi oracle, a spectral-clustering
pipeline, a homotopy eigenpath tracker, and Matrix Market / CSV tooling.

The package exports each module's ``__all__``, plus the ``io`` module itself.
"""

from . import diagnostics, errors, homotopy, io, matcore, reference, rotation, solver, spectral
from .diagnostics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .homotopy import *  # noqa: F401,F403
from .matcore import *  # noqa: F401,F403
from .reference import *  # noqa: F401,F403
from .rotation import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["io", *(name for mod in (diagnostics, errors, homotopy, matcore, reference,
                                    rotation, solver, spectral) for name in mod.__all__)]
