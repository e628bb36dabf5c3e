"""Targeted Jacobi iteration for one specified eigenpair.

The matrix is first reordered so its diagonal ascends; eigenvalue rank m
(1-based) then coincides with row/column m-1 of the working copy. Each sweep
rotates in the planes (k, m) for k = 1..m-1 ascending and k = n..m+1
descending, annihilating A[m, k] whenever its magnitude clears the ``tol``
gate. Rotations carry the ordering policy of :func:`ddjacobi.rotation.schur2`,
which keeps the diagonal sorted as it converges to the eigenvalues.
:func:`solve_many` runs several ranks of one matrix as one batch.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidOptions, VectorNotAccumulated
from .matcore import (EPS, Permutation, SymMatrix, _peak_positive, as_symmatrix,
                      frob_norm, off_row, omega, sort_by_diagonal)
from .rotation import _tangent_cs

__all__ = ["SolveStatus", "SolveOptions", "SweepRecord", "EigenpairResult",
           "STOP_REL_DEFAULT", "solve", "solve_many", "sweep", "eigenvector"]

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
    # Hand-inlined schur2 + apply_two_sided + apply_right with reused buffers:
    # calling them costs 6-11 us more per rotation (20-80% more per sweep on
    # drk1, n = 64..1024, 2 shared vCPUs). Every arithmetic expression matches
    # those functions, so the result is bit-identical to replaying the
    # rotation sequence through them (the test suite holds this path to that).
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
    # One zero-diagonal copy serves all four norms; scaling it leaves the
    # diagonal of H at zero and every off-diagonal entry as scaled(a) has it.
    om = omega(a).a
    d = a.diagonal()
    alpha = row_h = None
    if np.all(d != 0.0):
        dh = 1.0 / np.sqrt(np.abs(d))
        h = om * np.outer(dh, dh)
        alpha, row_h = frob_norm(h), frob_norm(h[m0])
    return SweepRecord(
        sweep=k,
        off_row_m=frob_norm(om[m0]),
        off_total=frob_norm(om),
        a_mm=float(a[m0, m0]),
        alpha=alpha,
        off_row_h=row_h,
        rotations_applied=rotations,
    )


def _sweep_many(a: np.ndarray, vt: np.ndarray | None, targets: list[int],
                ranks: list[int], tol: float) -> list[int]:
    """One sweep of every listed target at once; rotations applied per target.

    ``a`` is the (targets x n x n) working stack and ``vt`` the matching stack
    of transposed rotation products (row j of ``vt[i]`` is column j of V).
    Plan step j rotates every target in its own plane (k_j, m) with the
    elementwise expressions of :func:`sweep`, so each target comes out
    bit-identical to a :func:`sweep` of its own slice. Only the tangent's
    hypot runs per element, through ``math.hypot`` as in ``_tangent_cs``.
    Memory beyond the stacks is O(n * targets).
    """
    n = a.shape[1]
    a2, v2 = a.reshape(-1, n), None if vt is None else vt.reshape(-1, n)
    af, at = a.reshape(-1), a.transpose(0, 2, 1)
    tix = np.asarray(targets)
    m0 = np.asarray([ranks[i] - 1 for i in targets])
    # Plan step j of target m0: k = 0..m0-1 ascending, then n-1..m0+1 descending.
    step = np.arange(n - 1)[:, None]
    k = np.where(step < m0, step, n - 1 + m0 - step)
    planes = np.stack((np.minimum(k, m0), np.maximum(k, m0)), axis=1)  # (n-1, 2, targets)
    rows = planes + tix * n  # rows p and q in the (targets * n, n) views
    p, q = planes[:, 0], planes[:, 1]
    pp, pq = rows[:, 0] * n + p, rows[:, 0] * n + q
    qq, qp = rows[:, 1] * n + q, rows[:, 1] * n + p
    entries = np.stack((pp, pq, qq), axis=1)  # flat (p, p), (p, q), (q, q)
    diag, zero = np.stack((pp, qq), axis=1), np.stack((pq, qp), axis=1)

    sign = np.array([[-1.0], [1.0]])
    counts = np.zeros(m0.size, dtype=int)
    for j in range(n - 1):
        g = af[entries[j]]
        live = (g[1] != 0.0) & ~(np.abs(g[1]) < tol)
        nlive = np.count_nonzero(live)
        if not nlive:
            continue
        counts += live
        sel = slice(None) if nlive == live.size else live
        g = g[:, sel]
        app, apq, aqq = g
        theta = (aqq - app) / (2.0 * apq)
        hyp = np.array([math.hypot(1.0, th) for th in theta.tolist()])
        # theta + 0.0 turns -0.0 into +0.0, so theta == 0 gives t = 1 / 1.
        t = np.copysign(1.0, theta + 0.0) / (np.abs(theta) + hyp)
        c = 1.0 / np.sqrt(1.0 + t * t)
        wa = np.array((c, t * c))  # (w11, w12) = (c, s)
        wb = wa[::-1] * sign  # (w21, w22) = (-s, c)
        # cd = ((c1, d1), (c2, d2)) of sweep; d = new (a_pp, a_qq).
        cd = g[:2, None] * wa + g[1:, None] * wb
        d = wa * cd[0] + wb * cd[1]
        wa, wb = wa[:, :, None], wb[:, :, None]
        src, cols, ds = rows[j][:, sel], planes[j][:, sel], diag[j][:, sel]
        dst = src
        tpq = t * apq
        swap = app - tpq > aqq + tpq
        if np.count_nonzero(swap):
            # Swapping the columns of the rotation swaps where the two
            # results of the unswapped one land: row/column p <-> q.
            dst = np.where(swap, src[::-1], src)
            cols = np.where(swap, cols[::-1], cols)
            ds = np.where(swap, ds[::-1], ds)
        r = a2[src]
        r = r[0] * wa + r[1] * wb
        a2[dst] = r
        at[tix[sel], cols] = r
        af[ds] = d
        af[zero[j][:, sel]] = 0.0
        if v2 is not None:
            r = v2[src]
            v2[dst] = r[0] * wa + r[1] * wb
    return counts.tolist()


class _Target:
    """Stopping bookkeeping of one target rank inside :func:`solve_many`."""

    def __init__(self, m: int, record_history: bool):
        self.m0 = m - 1
        self.record_history = record_history
        self.history: list[SweepRecord] = []
        self.recent: deque[float] = deque(maxlen=_STAGNATION_SWEEPS + 1)
        self.status = SolveStatus.MAX_SWEEPS
        self.sweeps_used = 0

    def note(self, a: np.ndarray, k: int, rotations: int, threshold: float) -> bool:
        """Record the state after sweep k; True once a stopping rule fired."""
        off_m = off_row(a, self.m0)
        if self.record_history:
            self.history.append(_snapshot(a, self.m0, k, rotations))
        recent = self.recent
        recent.append(off_m)
        self.sweeps_used = k
        if off_m <= threshold:
            self.status = SolveStatus.CONVERGED
        elif k == 0:
            return False
        elif rotations == 0:
            self.status = SolveStatus.TOLERANCE_FLOOR
        elif (len(recent) == recent.maxlen
                and recent[-1] > (1.0 - _STAGNATION_DROP) * recent[0]):
            self.status = SolveStatus.STAGNATED
        else:
            return False
        return True


def _check_options(n: int, ms, opts: SolveOptions) -> list[int]:
    ranks = list(ms)
    if not ranks:
        raise InvalidOptions("need at least one eigenvalue rank")
    for m in ranks:
        if (isinstance(m, bool) or not isinstance(m, (int, np.integer))
                or not 1 <= m <= n):
            raise InvalidOptions(f"m must be an integer in [1, {n}], got {m!r}")
    if opts.tol < 0.0:
        raise InvalidOptions("tol must be nonnegative")
    if opts.stop_rel < 0.0:
        raise InvalidOptions("stop_rel must be nonnegative")
    if opts.max_sweeps < 1:
        raise InvalidOptions("max_sweeps must be at least 1")
    return [int(m) for m in ranks]


def solve_many(A, ms, opts: SolveOptions) -> list[EigenpairResult]:
    """Run the targeted iteration for every rank in ``ms`` on one matrix.

    Each result is bit-identical to ``solve(A, replace(opts, m=m))``; the
    ranks come from ``ms`` and ``opts.m`` is not used. The matrix is sorted
    and the stopping threshold computed once, then all targets that have not
    stopped sweep together on a (targets x n x n) working stack (twice that
    with ``want_vector``). A target leaves the batch when it stops; while a
    single target is left it runs through :func:`sweep` directly.
    """
    M = as_symmatrix(A)
    n = M.n
    ranks = _check_options(n, ms, opts)

    B, perm = sort_by_diagonal(M)
    b = B.a
    threshold = opts.stop_rel * frob_norm(b)
    runs = [_Target(m, opts.record_history) for m in ranks]
    # sort_by_diagonal returned a private copy, so a lone target works in it.
    work = b[None] if len(ranks) == 1 else np.repeat(b[None], len(ranks), axis=0)
    vt = None
    if opts.want_vector:
        # Rotation products are kept transposed so plane updates touch rows.
        vt = np.zeros((len(ranks), n, n))
        vt[:, np.arange(n), np.arange(n)] = 1.0

    active = [i for i, run in enumerate(runs) if not run.note(work[i], 0, 0, threshold)]
    for k in range(1, opts.max_sweeps + 1):
        if not active:
            break
        if len(active) == 1:
            i = active[0]
            counts = [sweep(work[i], ranks[i], opts.tol, None if vt is None else vt[i].T)]
        else:
            counts = _sweep_many(work, vt, active, ranks, opts.tol)
        active = [i for i, rotations in zip(active, counts)
                  if not runs[i].note(work[i], k, rotations, threshold)]

    results = []
    for i, run in enumerate(runs):
        vector = None
        if opts.want_vector:
            v = _peak_positive(perm.scatter(vt[i, run.m0]))
            vector = v / np.linalg.norm(v)
        results.append(EigenpairResult(
            lambda_hat=float(work[i, run.m0, run.m0]),
            vector=vector,
            status=run.status,
            sweeps_used=run.sweeps_used,
            history=run.history,
            permutation=perm,
        ))
    return results


def solve(A, opts: SolveOptions) -> EigenpairResult:
    """Run the targeted iteration until one of the four statuses fires.

    Converged: off(A(m,:)) <= stop_rel * frob_norm(A0).
    ToleranceFloor: a full sweep applied no rotation (all gated by tol).
    Stagnated: off(A(m,:)) shrank by less than 0.1% over 10 sweeps.
    MaxSweeps: the sweep budget ran out first.
    """
    return solve_many(A, [opts.m], opts)[0]


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
