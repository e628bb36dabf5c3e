"""The package surface: ``ddjacobi`` exports each module's ``__all__``."""

import inspect

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
