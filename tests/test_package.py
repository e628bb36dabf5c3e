"""The package surface: ``ddjacobi`` exports each module's ``__all__``."""

import ast
import inspect
import sys
from pathlib import Path

import ddjacobi as dj
from ddjacobi import (
    diagnostics,
    errors,
    homotopy,
    matcore,
    reference,
    rotation,
    solver,
    spectral,
)

MODULES = (diagnostics, errors, homotopy, matcore, reference, rotation, solver, spectral)


def test_package_all_is_io_plus_the_modules_all():
    assert len(dj.__all__) == len(set(dj.__all__))
    assert set(dj.__all__) == {"io"}.union(*(mod.__all__ for mod in MODULES))
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(dj, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_errors_all_lists_every_exception_class():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert sorted(errors.__all__) == sorted(classes)


def test_public_surface_is_pinned():
    # Any change to the surface shows up here.
    assert sorted(dj.__all__) == [
        "AsymmetricInput", "BothZero", "BoundUndefined", "ClusterResult",
        "CollapsedGap", "DegenerateGapHat", "DiagnosticsReport", "EPS",
        "EigDecomposition", "EigenpairResult", "GAP_FLOOR", "GapSet",
        "HomotopyPath", "HomotopyStep", "InputError", "InsufficientHistory",
        "InvalidOptions", "IsolatedVertex", "NoConvergence", "NonpositiveValues",
        "NotSymmetric", "NumericalError", "ParseError", "Permutation",
        "PointCloud", "STOP_REL_DEFAULT", "Schur2Result", "SingleEigenvalue",
        "SolveOptions", "SolveStatus", "StepLimit", "SweepRecord", "SymMatrix",
        "TrackerConfig", "TrackerStalled", "UnsupportedField", "ZeroDiagonal",
        "alpha", "apply_right", "apply_two_sided", "as_symmatrix", "diagnose",
        "fiedler_partition", "fit_rate", "foa_factor", "frob_norm",
        "full_jacobi", "gap_hat", "gaussian_similarity", "io",
        "min_relative_gap", "normalized_laplacian", "off_norm", "off_row",
        "omega", "rel", "scaled", "schur2", "sep_bound", "solve", "solve_many",
        "sort_by_diagonal", "step_length", "sweep", "thm2_bound", "track",
    ]


def test_runtime_imports_are_stdlib_or_numpy():
    # The only runtime dependency is numpy: every absolute import in the
    # package's sources names a standard-library module or numpy.
    sources = sorted((Path(__file__).parents[1] / "src" / "ddjacobi").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"{path.name}: {name}"
