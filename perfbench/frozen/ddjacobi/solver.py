"""Targeted Jacobi iteration for one specified eigenpair.

The matrix is first reordered so its diagonal ascends; eigenvalue rank m
(1-based) then coincides with row/column m-1 of the working copy. Each sweep
rotates in the planes (k, m) for k = 1..m-1 ascending and k = n..m+1
descending, annihilating A[m, k] whenever its magnitude clears the ``tol``
gate. Rotations carry the ordering policy of :func:`ddjacobi.rotation.schur2`,
which keeps the diagonal sorted as it converges to the eigenvalues.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidOptions, VectorNotAccumulated
from .matcore import EPS, Permutation, SymMatrix, as_symmatrix, sort_by_diagonal
from .rotation import _tangent_cs

__all__ = ["SolveStatus", "SolveOptions", "SweepRecord", "EigenpairResult",
           "STOP_REL_DEFAULT", "solve", "sweep", "eigenvector"]

STOP_REL_DEFAULT = math.sqrt(EPS)

# Stagnation: less than 0.1% relative decrease of off(A(m,:)) over this many
# consecutive sweeps.
_STAGNATION_SWEEPS = 10
_STAGNATION_DROP = 1e-3


class SolveStatus(Enum):
    CONVERGED = "Converged"
    TOLERANCE_FLOOR = "ToleranceFloor"
    MAX_SWEEPS = "MaxSweeps"
    STAGNATED = "Stagnated"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class SolveOptions:
    """Knobs for :func:`solve`.

    m is the 1-based rank of the wanted eigenvalue (after the diagonal sort,
    matching the ascending-eigenvalue convention). ``tol`` is the per-entry
    annihilation gate; ``stop_rel`` scales the global stopping test
    off(A(m,:)) <= stop_rel * frob_norm(A0).
    """

    m: int
    tol: float = 0.0
    stop_rel: float = STOP_REL_DEFAULT
    max_sweeps: int = 200
    want_vector: bool = False
    record_history: bool = True


@dataclass
class SweepRecord:
    """State snapshot after one sweep (sweep 0 is the initial state).

    ``alpha`` and ``off_row_h`` are the off-norms of the scaled iterate H
    (full and row m); both are None when a diagonal entry is zero.
    """

    sweep: int
    off_row_m: float
    off_total: float
    a_mm: float
    alpha: float | None
    off_row_h: float | None
    rotations_applied: int


@dataclass
class EigenpairResult:
    lambda_hat: float
    vector: np.ndarray | None
    status: SolveStatus
    sweeps_used: int
    history: list[SweepRecord] = field(default_factory=list)
    permutation: Permutation | None = None


def _row_off(a: np.ndarray, i: int) -> float:
    row = a[i].copy()
    row[i] = 0.0
    return float(np.linalg.norm(row))


def _total_off(a: np.ndarray) -> float:
    om = a.copy()
    np.fill_diagonal(om, 0.0)
    return float(np.linalg.norm(om))


def sweep(A, m: int, tol: float = 0.0, V: np.ndarray | None = None) -> int:
    """One full annihilation cycle through row m. Returns rotations applied.

    Expects the sorted-diagonal convention (the caller, normally
    :func:`solve`, has already reordered). Entries that are exactly zero are
    skipped without counting as rotations, whatever ``tol`` is; annihilated
    pairs are written as exact zeros.
    """
    a = A.a if isinstance(A, SymMatrix) else A
    n = a.shape[0]
    if not 1 <= m <= n:
        raise IndexError(f"eigenvalue rank {m} out of range for order {n}")
    m0 = m - 1
    count = 0
    # Hand-inlined schur2 + apply_two_sided + apply_right with reused buffers.
    # Every arithmetic expression matches those functions, so the result is
    # bit-identical to replaying the rotation sequence through them (the test
    # suite holds this path to that).
    bp, bq, tmp = np.empty(n), np.empty(n), np.empty(n)
    if V is not None:
        vbp, vbq = np.empty(V.shape[0]), np.empty(V.shape[0])
    plan = list(range(0, m0)) + list(range(n - 1, m0, -1))
    for k in plan:
        amk = a[m0, k]
        if amk == 0.0 or abs(amk) < tol:
            continue
        p, q = (k, m0) if k < m0 else (m0, k)
        app, apq, aqq = a[p, p], a[p, q], a[q, q]
        c, s, t = _tangent_cs(app, apq, aqq)
        t1 = app - t * apq
        t2 = aqq + t * apq
        if t1 <= t2:
            w11, w12, w21, w22 = c, s, -s, c
        else:
            w11, w12, w21, w22 = s, c, c, -s
        rp, rq = a[p, :], a[q, :]
        np.multiply(rp, w11, out=bp)
        np.multiply(rq, w21, out=tmp)
        bp += tmp
        np.multiply(rp, w12, out=bq)
        np.multiply(rq, w22, out=tmp)
        bq += tmp
        a[p, :] = bp
        a[:, p] = bp
        a[q, :] = bq
        a[:, q] = bq
        c1, c2 = app * w11 + apq * w21, apq * w11 + aqq * w21
        d1, d2 = app * w12 + apq * w22, apq * w12 + aqq * w22
        a[p, p] = w11 * c1 + w21 * c2
        a[q, q] = w12 * d1 + w22 * d2
        a[p, q] = 0.0
        a[q, p] = 0.0
        if V is not None:
            vp, vq = V[:, p], V[:, q]
            np.multiply(vp, w11, out=vbp)
            np.multiply(vq, w21, out=tmp)
            vbp += tmp
            np.multiply(vp, w12, out=vbq)
            np.multiply(vq, w22, out=tmp)
            vbq += tmp
            V[:, p] = vbp
            V[:, q] = vbq
        count += 1
    return count


def _snapshot(a: np.ndarray, m0: int, k: int, rotations: int) -> SweepRecord:
    d = a.diagonal()
    alpha = row_h = None
    if np.all(d != 0.0):
        dh = 1.0 / np.sqrt(np.abs(d))
        h = a * np.outer(dh, dh)
        np.fill_diagonal(h, 0.0)
        alpha = float(np.linalg.norm(h))
        row_h = float(np.linalg.norm(h[m0]))
    return SweepRecord(
        sweep=k,
        off_row_m=_row_off(a, m0),
        off_total=_total_off(a),
        a_mm=float(a[m0, m0]),
        alpha=alpha,
        off_row_h=row_h,
        rotations_applied=rotations,
    )


def solve(A, opts: SolveOptions) -> EigenpairResult:
    """Run the targeted iteration until one of the four statuses fires.

    Converged: off(A(m,:)) <= stop_rel * frob_norm(A0).
    ToleranceFloor: a full sweep applied no rotation (all gated by tol).
    Stagnated: off(A(m,:)) shrank by less than 0.1% over 10 sweeps.
    MaxSweeps: the sweep budget ran out first.
    """
    M = as_symmatrix(A)
    n = M.n
    if not isinstance(opts.m, (int, np.integer)) or not 1 <= opts.m <= n:
        raise InvalidOptions(f"m must be an integer in [1, {n}], got {opts.m!r}")
    if opts.tol < 0.0:
        raise InvalidOptions("tol must be nonnegative")
    if opts.stop_rel < 0.0:
        raise InvalidOptions("stop_rel must be nonnegative")
    if opts.max_sweeps < 1:
        raise InvalidOptions("max_sweeps must be at least 1")

    B, perm = sort_by_diagonal(M)
    b = B.a
    m0 = opts.m - 1
    threshold = opts.stop_rel * float(np.linalg.norm(b))
    V = np.eye(n) if opts.want_vector else None

    history: list[SweepRecord] = []
    recent: deque[float] = deque(maxlen=_STAGNATION_SWEEPS + 1)

    def note(k: int, rotations: int) -> float:
        off_m = _row_off(b, m0)
        if opts.record_history:
            history.append(_snapshot(b, m0, k, rotations))
        recent.append(off_m)
        return off_m

    off_m = note(0, 0)
    sweeps_used = 0
    if off_m <= threshold:
        status = SolveStatus.CONVERGED
    else:
        status = SolveStatus.MAX_SWEEPS
        for k in range(1, opts.max_sweeps + 1):
            rotations = sweep(b, opts.m, opts.tol, V)
            sweeps_used = k
            off_m = note(k, rotations)
            if off_m <= threshold:
                status = SolveStatus.CONVERGED
                break
            if rotations == 0:
                status = SolveStatus.TOLERANCE_FLOOR
                break
            if (len(recent) == recent.maxlen
                    and recent[-1] > (1.0 - _STAGNATION_DROP) * recent[0]):
                status = SolveStatus.STAGNATED
                break

    vector = None
    if opts.want_vector:
        v = perm.scatter(V[:, m0])
        peak = int(np.argmax(np.abs(v)))
        if v[peak] < 0.0:
            v = -v
        vector = v / np.linalg.norm(v)

    return EigenpairResult(
        lambda_hat=float(b[m0, m0]),
        vector=vector,
        status=status,
        sweeps_used=sweeps_used,
        history=history,
        permutation=perm,
    )


def eigenvector(result: EigenpairResult) -> np.ndarray:
    """The accumulated unit eigenvector in original coordinates.

    Sign convention: the largest-magnitude component is positive (lowest
    index on ties). Raises :class:`VectorNotAccumulated` if the solve ran
    without ``want_vector``.
    """
    if result.vector is None:
        raise VectorNotAccumulated(
            "run solve with want_vector=True to accumulate the eigenvector"
        )
    return result.vector
