"""Eigenpath tracking along the homotopy A(t) = diag(A) + t * Omega(A).

At t = 0 the decomposition is trivial (Q = I, Sigma = diag(A)); at t = 1 it
is the decomposition of A. Each step rotates the remaining off-diagonal mass
into the current eigenbasis, B = Sigma(t_k) + s_k Q^T Omega(A) Q, solves all
n eigenpairs of B as one batch of independent targeted iterations
(:func:`ddjacobi.solver.solve_many`), and composes the resulting eigenvector
matrix into Q. Step lengths are chosen adaptively from the current spectrum's
minimum relative gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CollapsedGap, InvalidOptions, StepLimit, TrackerStalled
from .diagnostics import min_relative_gap
from .matcore import SymMatrix, _is_int, as_symmatrix, frob_norm, omega
from .solver import SolveOptions, SolveStatus, solve_many

__all__ = ["GAP_FLOOR", "TrackerConfig", "HomotopyStep", "HomotopyPath",
           "step_length", "track"]

# Relative-gap floor below which paths are treated as crossing.
GAP_FLOOR = 1e-14

_MAX_HALVINGS = 10


@dataclass
class TrackerConfig:
    """c scales the step rule s = min(1 - t, c * gap / ||Omega||_F)."""

    c: float = 1.0
    max_steps: int = 10000
    solve_opts: SolveOptions | None = None  # template for the per-pair solves


@dataclass
class HomotopyStep:
    """State on arrival at t (s is the step length that got there).

    ``halvings`` counts the step halvings taken before the step was accepted.
    """

    t: float
    s: float
    sigma: np.ndarray
    gamma_hat: float
    iters_per_eig: np.ndarray
    halvings: int = 0


@dataclass
class HomotopyPath:
    steps: list[HomotopyStep] = field(default_factory=list)
    final_q: np.ndarray | None = None
    total_steps: int = 0
    avg_iters: float = 0.0
    # Worst ||Q^T Q - I||_F seen over the whole path (orthogonality audit).
    max_orth_defect: float = 0.0


def step_length(gamma_hat: float, omega_frob: float, c: float, t: float) -> float:
    """Adaptive step: s = min(1 - t, c * gamma_hat / omega_frob).

    Keeps the perturbation s * ||Omega||_F at most c times the current gap
    ("of order unity" for c = 1). A diagonal matrix (omega_frob == 0) steps
    straight to 1. Raises CollapsedGap when the gap is NaN or at most the
    floor, and ValueError when omega_frob is NaN, infinite or negative.
    """
    if not c > 0.0:
        raise InvalidOptions("step constant c must be positive")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t!r}")
    if not 0.0 <= omega_frob < np.inf:
        raise ValueError(f"omega_frob must be finite and non-negative, got {omega_frob!r}")
    if not gamma_hat > GAP_FLOOR:
        raise CollapsedGap(
            f"relative gap {gamma_hat:.3e} at t = {t:.6g} is below the floor"
        )
    if omega_frob == 0.0:
        return 1.0 - t
    return min(1.0 - t, c * gamma_hat / omega_frob)


def _orthonormalize(u: np.ndarray) -> np.ndarray:
    """The Q of u = QR with diag(R) > 0: the Gram-Schmidt basis of u's columns."""
    q, r = np.linalg.qr(u)
    d = r.diagonal()
    if np.any(d == 0.0):  # rank collapse
        raise CollapsedGap("eigenvector columns became linearly dependent")
    return q * np.sign(d)


def track(A, cfg: TrackerConfig | None = None) -> HomotopyPath:
    """Follow all n eigenpaths from diag(A) to A.

    Needs distinct diagonal entries at t = 0 (simple starting spectrum).
    Raises CollapsedGap if paths fuse along the way, StepLimit if max_steps
    is hit, TrackerStalled if a sub-solve keeps failing after 10 halvings of
    the step.
    """
    cfg = cfg if cfg is not None else TrackerConfig()
    if not _is_int(cfg.max_steps) or cfg.max_steps < 1:
        raise InvalidOptions(f"max_steps must be an integer >= 1, got {cfg.max_steps!r}")
    M = as_symmatrix(A)
    n = M.n
    om = omega(M).a
    om_frob = frob_norm(om)
    template = cfg.solve_opts if cfg.solve_opts is not None else SolveOptions(m=1)
    opts = replace(template, want_vector=True, record_history=False)

    q = np.eye(n)
    diag_a = M.a.diagonal().copy()
    sigma = diag_a.copy()
    path = HomotopyPath()

    t = 0.0
    # A lone eigenvalue has gap +inf, so step_length goes to t = 1 at once.
    gh = min_relative_gap(sigma).gamma if n > 1 else np.inf
    sweeps = 0
    while t < 1.0:
        if len(path.steps) >= cfg.max_steps:
            raise StepLimit(f"no arrival at t = 1 within {cfg.max_steps} steps")
        s = step_length(gh, om_frob, cfg.c, t)
        # Rotate A(t) into the tracked basis once per step. Writing the
        # target as Q^T A(t_next) Q (= Sigma + s Q^T Omega Q when the
        # previous step solved exactly) keeps the per-step solver residual
        # from accumulating into Sigma over hundreds of steps.
        base = q.T @ np.diag(diag_a) @ q
        mixed = q.T @ om @ q
        mixed = 0.5 * (mixed + mixed.T)
        base = 0.5 * (base + base.T)

        for halvings in range(_MAX_HALVINGS + 1):
            t_next = t + s
            if t_next > 1.0 - 1e-12:
                t_next = 1.0
            B = SymMatrix._wrap(base + t_next * mixed)

            results = solve_many(B, range(1, n + 1), opts)
            bad = next((m for m, r in enumerate(results, 1)
                        if r.status is not SolveStatus.CONVERGED), None)
            if bad is None:
                break
            s *= 0.5
        else:
            raise TrackerStalled(t_next, bad, results[bad - 1].status.value)

        q = q @ _orthonormalize(np.column_stack([r.vector for r in results]))
        sigma = np.array([r.lambda_hat for r in results])
        iters = np.array([r.sweeps_used for r in results])
        sweeps += int(iters.sum())

        defect = frob_norm(q.T @ q - np.eye(n))
        path.max_orth_defect = max(path.max_orth_defect, defect)
        gh = min_relative_gap(sigma).gamma if n > 1 else np.inf
        path.steps.append(HomotopyStep(
            t=t_next, s=t_next - t, sigma=sigma.copy(),
            gamma_hat=gh, iters_per_eig=iters, halvings=halvings))
        t = t_next

    path.final_q = q
    path.total_steps = len(path.steps)
    path.avg_iters = sweeps / (n * path.total_steps)
    return path
