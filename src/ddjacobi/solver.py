"""Targeted Jacobi iteration for one specified eigenpair.

The matrix is first reordered so its diagonal ascends; eigenvalue rank m
(1-based) then coincides with row/column m-1 of the working copy. Each sweep
rotates in the planes (k, m) for k = 1..m-1 ascending and k = n..m+1
descending, annihilating A[m, k] whenever its magnitude clears the ``tol``
gate. Rotations carry the ordering policy of :func:`ddjacobi.rotation.schur2`,
which keeps the diagonal sorted as it converges to the eigenvalues.
:func:`solve_many` runs several ranks of one matrix as one batch, its
bookkeeping (rotation log, vector replay, stopping norms) by the sweep.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

import numpy as np

from .diagnostics import alpha
from .errors import InputError, InvalidOptions
from .matcore import (EPS, Permutation, SymMatrix, _is_int, _off_norm_in_place,
                      _peak_positive, _row_norms, _scale, as_symmatrix, frob_norm,
                      sort_by_diagonal)
from .rotation import _tangent_cs, apply_right

__all__ = ["SolveStatus", "SolveOptions", "SweepRecord", "EigenpairResult",
           "STOP_REL_DEFAULT", "solve", "solve_many", "sweep"]

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
    off(A(m,:)) <= stop_rel * frob_norm(A0). ``record_history`` keeps one
    :class:`SweepRecord` per sweep at O(n) each, plus two n x n passes for
    the full norms of the first and last.
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
    (full and row m); both are None when a diagonal entry is zero. The fields
    that take an n x n pass (over a short-lived copy), ``off_total`` and
    ``alpha``, are taken only at sweep 0 and at the last sweep; they are None
    on the records in between.
    """

    sweep: int
    off_row_m: float
    off_total: float | None
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


def sweep(A, m: int, tol: float = 0.0, V: np.ndarray | None = None, *,
          _log: tuple[array, array] | None = None) -> int:
    """One full annihilation cycle through row m. Returns rotations applied.

    Expects the sorted-diagonal convention (the caller, normally
    :func:`solve`, has already reordered). Entries that are exactly zero are
    skipped without counting as rotations, whatever ``tol`` is; annihilated
    pairs are written as exact zeros. Row and column m are written once, at
    the end. ``_log`` is the solver's own rotation log: each applied
    rotation appends k (~k when the t1 > t2 swap fired) and its tangent t.
    ``V`` accumulates the rotations in its columns through ``apply_right``:
    :func:`solve` never passes it, but the benchmark's probe rows and the
    tests' vector oracle do. A and V must be float64, and V must have n
    columns (InputError otherwise, before anything moves).
    """
    a = A.a if isinstance(A, SymMatrix) else A
    n = a.shape[0]
    if not _is_int(m) or not 1 <= m <= n:
        raise IndexError(f"eigenvalue rank {m!r} out of range for order {n}")
    if a.dtype != np.float64:
        raise InputError(f"sweep works in place on float64, got {a.dtype}")
    if V is not None and (V.dtype != np.float64 or V.ndim != 2 or V.shape[1] != n):
        raise InputError(f"V must be float64 with {n} columns, got {V.dtype} {V.shape}")
    m0 = m - 1
    count = 0
    # Hand-inlined schur2 + apply_two_sided with their arithmetic, so
    # bit-identical to replaying the rotations through them (the tests
    # check); V goes through apply_right, ahead of A's writes. Rows k and m
    # rotate together in r, where row m stays for the whole sweep; the stale
    # row and column m of the matrix reach only the 2x2 slots, which are
    # overwritten. A rotation forms u = c r and v = s r, products by 0-d
    # arrays in numpy's contiguous scalar loop (a broadcast weight array runs
    # a stride-0 loop at a half to a third of its speed), then each new row in
    # one add or subtract: the products and add of w11 r_p + w21 r_q, as
    # a - b = a + (-b) and fl(-s x) = -fl(s x). Then a row load, a row write
    # and one strided column write, with scalar math on Python floats.
    r, u, v = np.empty((3, 2, n))
    cc, ss = np.empty(()), np.empty(())
    rk, rm = r
    (u0, u1), (v0, v1) = u, v
    rm[:] = a[m0]
    amm = a.item(m0, m0)
    for k in _order(n, m0).ravel().tolist():
        apq = rm.item(k)
        if apq == 0.0 or abs(apq) < tol:
            continue
        akk = a.item(k, k)
        p, q, app, aqq = (k, m0, akk, amm) if k < m0 else (m0, k, amm, akk)
        c, s, t = _tangent_cs(app, apq, aqq)
        t1 = app - t * apq
        t2 = aqq + t * apq
        if t1 <= t2:
            w11, w12, w21, w22 = c, s, -s, c
        else:
            w11, w12, w21, w22 = s, c, c, -s
        if V is not None:
            apply_right(V, p, q, ((w11, w12), (w21, w22)))
        if _log is not None:
            _log[0].append(k if t1 <= t2 else ~k)
            _log[1].append(t)
        rk[:] = a[k]
        cc[()], ss[()] = c, s
        np.multiply(r, cc, out=u)
        np.multiply(r, ss, out=v)
        # New row k is c r_k - s r_m and row m is c r_m + s r_k when k = p,
        # the signs reversed when k = q; the t1 > t2 swap exchanges the rows.
        lo, hi = (rk, rm) if t1 <= t2 else (rm, rk)
        fk, fm = (np.subtract, np.add) if k < m0 else (np.add, np.subtract)
        fk(u0, v1, out=lo)
        fm(u1, v0, out=hi)
        c1, c2 = app * w11 + apq * w21, apq * w11 + aqq * w21
        d1, d2 = app * w12 + apq * w22, apq * w12 + aqq * w22
        app, aqq = w11 * c1 + w21 * c2, w12 * d1 + w22 * d2
        akk, amm = (app, aqq) if k < m0 else (aqq, app)
        rk[k] = akk
        rm[k] = 0.0
        a[k] = rk
        a[:, k] = rk
        count += 1
    if count:
        rm[m0] = amm
        a[m0] = rm
        a[:, m0] = rm
    return count


def _totals(a: np.ndarray) -> tuple[float, float | None]:
    """A full record's off_total and alpha, :func:`off_norm` and :func:`alpha`
    of the private a (alpha None where a diagonal entry is zero)."""
    return _off_norm_in_place(a), alpha(a) if np.all(a.diagonal() != 0.0) else None


def _snapshot(a: np.ndarray, m0: int, off_row_m: float, k: int, rotations: int,
              totals: tuple) -> SweepRecord:
    """The record after sweep k: its O(n) fields, and off_total and alpha
    from ``totals`` (:func:`_totals` of a in a full record, None otherwise)."""
    d = a.diagonal()
    rec = SweepRecord(sweep=k, off_row_m=off_row_m, off_total=totals[0], a_mm=d.item(m0),
                      alpha=totals[1], off_row_h=None, rotations_applied=rotations)
    if np.all(d != 0.0):  # off_row(scaled(a), m0), without forming H
        dh = 1.0 / np.sqrt(np.abs(d))
        row = _scale(a[m0], dh[m0], dh)
        row[m0] = 0.0
        rec.off_row_h = frob_norm(row)
    return rec


def _replay_sweep(x: np.ndarray, rows, m0, k: np.ndarray, t: np.ndarray,
                  swap: np.ndarray, live: np.ndarray | None) -> None:
    """Apply one sweep's logged rotations to rows ``rows`` of x, last one first.

    Step j rotated row l's target in plane (k[j, l], m0[l]) by tangent t[j, l],
    swapped where ``swap`` is set, where ``live`` is (None: everywhere). A
    sweep rotates each k once, so x_k is read only before the sweep; only
    x_m = y carries, as y <- u y + b with b = v x_k formed beforehand: one
    product and one add per step for all rows. Each new entry is the sum of
    :class:`_RotationLog`'s two products, so bit-identical to a scalar replay.
    """
    c = 1.0 / np.sqrt(1.0 + t * t)
    sig = t * c  # s, negated where k < m
    np.negative(sig, out=sig, where=k < m0)
    # (x_k, x_m) <- (e x_k + f y, u y + v x_k)
    u, v, e, f = np.where(swap, (sig, c, -sig, c), (c, sig, c, -sig))
    xk = x[rows, k]
    b = v * xk
    if live is not None:  # a step that did not rotate keeps y: 1 y + -0.0 is y, -0.0 too
        u, b = np.where(live, u, 1.0), np.where(live, b, -0.0)
    ys = np.empty((len(t) + 1, t.shape[1]))  # ys[j + 1] is the y step j reads
    ys[-1] = x[rows, m0]
    if ys.shape[1] == 1:  # one row: Python floats, not numpy calls, per step
        y, chain = ys.item(-1), [ys.item(-1)]
        for uj, bj in zip(u[::-1, 0].tolist(), b[::-1, 0].tolist()):
            y = uj * y + bj
            chain.append(y)
        ys[::-1, 0] = chain
    else:
        for uj, bj, yj, y in zip(u[::-1], b[::-1], ys[-2::-1], ys[::-1]):
            np.multiply(uj, y, out=yj)
            np.add(yj, bj, out=yj)
    new = xk * e + ys[1:] * f
    x[rows, k] = new if live is None else np.where(live, new, xk)
    x[rows, m0] = ys[0]


class _RotationLog:
    """The rotations one :func:`solve_many` call applied, kept for its vectors.

    Target i's eigenvector is V e_m with V = R_1 R_2 ... R_K, so it is built
    by applying the target's rotations to e_m, last one first: O(1) per
    rotation and no n x n V. R maps (x_p, x_q) to
    (w11 x_p + w12 x_q, w21 x_p + w22 x_q) with :func:`sweep`'s w, which is
    (c x_i + s x_j, c x_j - s x_i) with (i, j) = (p, q), or (q, p) after the
    t1 > t2 swap.

    ``sweeps`` holds one entry per sweep, replayed by :func:`_replay_sweep`:
    its targets, k, ``lives``, tangents t and swap flags, with c and s
    recomputed from t by the expressions of ``_tangent_cs``. A batched sweep
    logs (n - 1) x targets arrays, a step per row and k from the plan: 10
    bytes per target and step. A sweep run alone logs a column per rotation
    and no ``lives``: 13 bytes per rotation.
    """

    def __init__(self):
        self.sweeps: list[tuple] = []

    def lone(self, i: int, tail: tuple[array, array]) -> None:
        """Log a sweep target i ran alone, from :func:`sweep`'s ``_log``."""
        k, t = (np.array(log)[:, None] for log in tail)
        swap = k < 0
        self.sweeps.append(([i], np.where(swap, ~k, k), None, t, swap))

    def vectors(self, m0: np.ndarray, n: int) -> np.ndarray:
        """Row i is V e_m of target i (m - 1 = m0[i]), in the sorted ordering."""
        x = np.zeros((len(m0), n))
        x[np.arange(len(m0)), m0] = 1.0
        for tix, k, lives, t, swap in reversed(self.sweeps):
            _replay_sweep(x, tix, m0[tix], k, t, swap, lives)
        return x


@functools.lru_cache(maxsize=2)
def _plan(n: int, targets: tuple[int, ...], m0s: tuple[int, ...]):
    """The read-only index arrays of one batched sweep, per active set.

    A sweep takes n - 1 plan steps; step j of target m0 rotates in plane
    (k, m0), k from :func:`_order`. Returns the targets' stack indices, k
    for each step and target, and per step: the flat (p, p), (p, q), (q, q)
    entries; rows p and q in the (targets * n, n) view; the plane (p, q) as
    column indices; and the 2x2 block's slots in the two new rows
    (:func:`_block`). A plan takes 96 bytes per target and step, 12/n of the
    working stack; the cache keeps the last two.
    """
    tix = np.array(targets)
    m0 = np.array(m0s)
    k = _order(n, m0)
    planes = np.stack((np.minimum(k, m0), np.maximum(k, m0)), axis=1)  # (n-1, 2, targets)
    rows = planes + tix * n
    entries = rows[:, [0, 0, 1]] * n + planes[:, [0, 1, 1]]
    blocks = _block(planes, n)
    for x in (tix, k, entries, rows, planes, blocks):
        x.flags.writeable = False
    return tix, k, list(zip(entries, rows, planes, blocks))


def _order(n: int, m0) -> np.ndarray:
    """The paper's plane order: k of each step (k, m0) down axis 0, 0..m0-1 then n-1..m0+1."""
    step = np.arange(n - 1)[:, None]
    return np.where(step < m0, step, n - 1 + m0 - step)


def _block(cols: np.ndarray, n: int) -> np.ndarray:
    """Flat index of entry cols[x] of new row y of target l in the
    (2, live, n) pair of new rows, at [x, y, l] (cols is (..., 2, live))."""
    return cols[..., None, :] + np.arange(0, 2 * cols.shape[-1] * n, n).reshape(2, -1)


# theta = (a_qq - a_pp) / (2 a_pq) may overflow: inf gives t = 0, silently as in
# sweep. Guarded per call (~2 us), not per plan step (152 in a 20x20 track's 8 sweeps).
@np.errstate(over="ignore")
def _sweep_many(a: np.ndarray, targets: list[int], ranks: list[int], tol: float,
                log: _RotationLog | None) -> list[int]:
    """One sweep of every listed target at once; rotations applied per target.

    ``a`` is the (targets x n x n) working stack. Plan step j rotates every
    target in its own plane (k_j, m) with the elementwise expressions of
    :func:`sweep`, so each target comes out bit-identical to a :func:`sweep`
    of its own slice. Only the tangent's hypot runs per element, through
    ``math.hypot`` as in ``_tangent_cs``. A step weighs the gathered rows p
    and q in one product, reads sweep's c1, c2, d1, d2 off the new rows and
    writes the new 2x2 block into them, then stores rows and columns. The
    index arrays come from :func:`_plan`'s cache, so the sweeps of one call
    and ``track``'s solve per step (one order, every rank) build them once;
    a step in which every target is live uses them as they are. ``log``,
    when given, gets the sweep's targets, k and live mask, and its tangents
    and swap flags as (n - 1) x targets arrays, a step per row. Memory
    beyond the stack is O(n * targets).
    """
    n = a.shape[1]
    a2, af, at = a.reshape(-1, n), a.reshape(-1), a.transpose(0, 2, 1)
    tix, k, plan = _plan(n, tuple(targets), tuple(ranks[i] - 1 for i in targets))
    # On finite entries, the same gate as sweep's a_pq != 0 and not |a_pq| < tol.
    gate = max(tol, math.ulp(0.0))
    lives = np.empty((n - 1, len(targets)), dtype=bool)
    ts, swaps = np.zeros(lives.shape), np.zeros(lives.shape, dtype=bool)
    for j, (g, src, cols, block) in enumerate(plan):
        live = lives[j]
        g = af[g]
        apq = g[1]
        np.greater_equal(np.abs(apq), gate, out=live)
        nlive = np.count_nonzero(live)
        if not nlive:
            continue
        sel, cut = tix, slice(None)
        if nlive < live.size:
            sel, cut = tix[live], live
            g, src, cols = g[:, live], src[:, live], cols[:, live]
            apq, block = g[1], _block(cols, n)
        app, aqq = g[0], g[2]
        theta = (aqq - app) / (2.0 * apq)
        hyp = np.fromiter(map(math.hypot, repeat(1.0), theta.tolist()), float, nlive)
        # theta + 0.0 turns -0.0 into +0.0, so theta == 0 gives t = 1 / 1.
        t = np.copysign(1.0, theta + 0.0) / (np.abs(theta) + hyp)
        w = np.empty((2, 2, nlive))  # sweep's ((w11, w12), (w21, w22)) = ((c, s), (-s, c))
        c = w[0, 0]
        np.multiply(t, t, out=c)
        c += 1.0
        np.sqrt(c, out=c)
        np.divide(1.0, c, out=c)
        np.multiply(t, c, out=w[0, 1])
        np.negative(w[0, 1], out=w[1, 0])
        w[1, 1] = c
        tpq = t * apq
        swap = app - tpq > aqq + tpq
        if np.count_nonzero(swap):  # sweep's t1 > t2 rotation (s, c, c, -s)
            w = np.where(swap, w[:, ::-1], w)
        if log is not None:
            ts[j, cut], swaps[j, cut] = t, swap
        # New row i is w[0, i] * row p + w[1, i] * row q, as in sweep; their
        # entries in columns p and q are sweep's ((c1, d1), (c2, d2)).
        r = w[:, :, :, None] * a2.take(src, axis=0)[:, None]
        r = np.add(r[0], r[1], out=r[0])
        rf = r.reshape(-1)
        prod = w * rf[block]
        vals = np.zeros((2, 2, nlive))  # the block: new (a_pp, a_qq), zeros off it
        np.add(prod[0], prod[1], out=vals.reshape(4, nlive)[::3])
        rf[block] = vals
        a2[src] = r
        at[sel, cols] = r
    if log is not None:
        log.sweeps.append((tix, k, lives, ts, swaps))
    return np.count_nonzero(lives, axis=0).tolist()


class _Target:
    """Stopping bookkeeping of one target rank inside :func:`solve_many`."""

    def __init__(self, m: int, first: tuple | None, last: int):
        # first: sweep 0's _totals (None: no history); last: the sweep budget.
        self.m0 = m - 1
        self.first = first
        self.last = last
        self.history: list[SweepRecord] = []
        self.recent: deque[float] = deque(maxlen=_STAGNATION_SWEEPS + 1)
        self.status = SolveStatus.MAX_SWEEPS
        self.sweeps_used = 0

    def note(self, a: np.ndarray, off_m: float, k: int, rotations: int,
             threshold: float) -> bool:
        """Record the state after sweep k, whose off_row(a, m0) is ``off_m``;
        True once a stopping rule fired."""
        recent = self.recent
        recent.append(off_m)
        self.sweeps_used = k
        stop = True
        if off_m <= threshold:
            self.status = SolveStatus.CONVERGED
        elif k and rotations == 0:
            self.status = SolveStatus.TOLERANCE_FLOOR
        elif (len(recent) == recent.maxlen
                and recent[-1] > (1.0 - _STAGNATION_DROP) * recent[0]):
            self.status = SolveStatus.STAGNATED
        else:
            stop = False
        if self.first is not None:  # the n x n norms on the first and last record only
            totals = (self.first if k == 0 else _totals(a) if stop or k == self.last
                      else (None, None))
            self.history.append(_snapshot(a, self.m0, off_m, k, rotations, totals))
        return stop


def _check_options(n: int, ms, opts: SolveOptions) -> list[int]:
    ranks = list(ms)
    if not ranks:
        raise InvalidOptions("need at least one eigenvalue rank")
    for m in ranks:
        if not _is_int(m) or not 1 <= m <= n:
            raise InvalidOptions(f"m must be an integer in [1, {n}], got {m!r}")
    if not opts.tol >= 0.0:
        raise InvalidOptions("tol must be nonnegative")
    if not opts.stop_rel >= 0.0:
        raise InvalidOptions("stop_rel must be nonnegative")
    if not _is_int(opts.max_sweeps) or opts.max_sweeps < 1:
        raise InvalidOptions(f"max_sweeps must be an integer >= 1, got {opts.max_sweeps!r}")
    return [int(m) for m in ranks]


def solve_many(A, ms, opts: SolveOptions) -> list[EigenpairResult]:
    """Run the targeted iteration for every rank in ``ms`` on one matrix.

    Each result is bit-identical to ``solve(A, replace(opts, m=m))``; the
    ranks come from ``ms`` and ``opts.m`` is not used. The matrix is sorted
    and the stopping threshold computed once, then all targets that have not
    stopped sweep together on a (targets x n x n) working stack, through
    :func:`_sweep_many` and its plan, cached per order and active set. After
    each sweep the targets' rows m are gathered at once for their
    :func:`matcore.off_row`. A target leaves the batch when it stops; while
    a single target is left it runs through :func:`sweep` directly. Every
    norm is :func:`matcore.frob_norm`, which rescales where squares would
    overflow or flush to zero, so 1e200*A and 1e-300*A sweep as A does. With
    ``want_vector`` the rotations are logged, a batched sweep's in 10 bytes
    per target and step and a lone one's in 13 per rotation, and the
    eigenvectors are rebuilt at the end by applying them to e_m in reverse
    order, a sweep at a time, then signed and normalized together.
    """
    M = as_symmatrix(A)
    n = M.n
    ranks = _check_options(n, ms, opts)

    B, perm = sort_by_diagonal(M)
    b = B.a
    frob = frob_norm(b)
    if frob == math.inf:
        raise InputError("the Frobenius norm of the matrix overflows")
    threshold = opts.stop_rel * frob
    # Every target starts from b, so sweep 0's n x n norms are taken once.
    first = _totals(b) if opts.record_history else None
    runs = [_Target(m, first, opts.max_sweeps) for m in ranks]
    # sort_by_diagonal returned a private copy, so a lone target works in it.
    work = b[None] if len(ranks) == 1 else np.repeat(b[None], len(ranks), axis=0)
    log = _RotationLog() if opts.want_vector else None

    m0s = np.array([run.m0 for run in runs])
    k, active, counts = 0, list(range(len(runs))), [0] * len(runs)
    while True:
        # off_row of every active target: row m gathered at once, a_mm zeroed.
        m0 = m0s[active]
        rows = work[active, m0]
        rows[np.arange(len(active)), m0] = 0.0
        active = [i for i, off_m, rotations in zip(active, _row_norms(rows), counts)
                  if not runs[i].note(work[i], off_m, k, rotations, threshold)]
        k += 1
        if not active or k > opts.max_sweeps:
            break
        if len(active) == 1:
            i = active[0]
            tail = None if log is None else (array("i"), array("d"))
            counts = [sweep(work[i], ranks[i], opts.tol, _log=tail)]
            if tail is not None:
                log.lone(i, tail)
        else:
            counts = _sweep_many(work, active, ranks, opts.tol, log)

    vectors = [None] * len(runs)
    if log is not None:
        # Row i is target i's vector in the original ordering, its sign set by
        # _peak_positive's rule and its length by frob_norm.
        x = log.vectors(m0s, n)
        v = _peak_positive(perm.scatter(x.T).T)
        v /= np.array(_row_norms(v))[:, None]
        vectors = list(v)
    return [EigenpairResult(
        lambda_hat=float(work[i, run.m0, run.m0]),
        vector=vector,
        status=run.status,
        sweeps_used=run.sweeps_used,
        history=run.history,
        permutation=perm,
    ) for i, (run, vector) in enumerate(zip(runs, vectors))]


def solve(A, opts: SolveOptions) -> EigenpairResult:
    """Run the targeted iteration until one of the four statuses fires.

    Converged: off(A(m,:)) <= stop_rel * frob_norm(A0).
    ToleranceFloor: a full sweep applied no rotation (all gated by tol).
    Stagnated: off(A(m,:)) shrank by less than 0.1% over 10 sweeps.
    MaxSweeps: the sweep budget ran out first.
    """
    return solve_many(A, [opts.m], opts)[0]
