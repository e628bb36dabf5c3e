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
from array import array
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidOptions, VectorNotAccumulated
from .matcore import (EPS, Permutation, SymMatrix, _peak_positive, as_symmatrix,
                      frob_norm, off_row, sort_by_diagonal)
from .rotation import _tangent_cs

__all__ = ["SolveStatus", "SolveOptions", "SweepRecord", "EigenpairResult",
           "STOP_REL_DEFAULT", "solve", "solve_many", "sweep", "eigenvector"]

STOP_REL_DEFAULT = math.sqrt(EPS)

# Stagnation: less than 0.1% relative decrease of off(A(m,:)) over this many
# consecutive sweeps.
_STAGNATION_SWEEPS = 10
_STAGNATION_DROP = 1e-3

# Batched plan steps whose logged rotations the eigenvector replay unpacks
# at a time (into 64 bytes per rotation beyond the 16-byte log).
_REPLAY_BLOCK = 256


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


def sweep(A, m: int, tol: float = 0.0, V: np.ndarray | None = None, *,
          _log: tuple[array, array] | None = None) -> int:
    """One full annihilation cycle through row m. Returns rotations applied.

    Expects the sorted-diagonal convention (the caller, normally
    :func:`solve`, has already reordered). Entries that are exactly zero are
    skipped without counting as rotations, whatever ``tol`` is; annihilated
    pairs are written as exact zeros. Row and column m are written once, at
    the end. ``_log`` is the solver's own rotation log: each applied
    rotation appends k (~k when the t1 > t2 swap fired) and its tangent t.
    """
    a = A.a if isinstance(A, SymMatrix) else A
    n = a.shape[0]
    if not 1 <= m <= n:
        raise IndexError(f"eigenvalue rank {m} out of range for order {n}")
    m0 = m - 1
    count = 0
    # Hand-inlined schur2 + apply_two_sided + apply_right with their
    # arithmetic, so bit-identical to replaying the rotations through them
    # (the tests check). Rows k and m rotate together in r, where row m stays
    # for the whole sweep; the stale row and column m of the matrix reach only
    # the 2x2 slots, which are overwritten. A rotation is two ufunc calls
    # (x[j, i] = w[j, i] r[j], then r = x[0] + x[1]: the same products and
    # add), a row load, a row write and one strided column write, with scalar
    # math on Python floats.
    r, x, w = np.empty((2, n)), np.empty((2, 2, n)), np.empty((2, 2, 1))
    rk, rm = r
    x0, x1, wf, r3 = x[0], x[1], w.reshape(4), r[:, None]
    rm[:] = a[m0]
    amm = a.item(m0, m0)
    if V is not None:
        vbp, vbq, tmp = np.empty((3, V.shape[0]))
    plan = list(range(0, m0)) + list(range(n - 1, m0, -1))
    for k in plan:
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
        if _log is not None:
            _log[0].append(k if t1 <= t2 else ~k)
            _log[1].append(t)
        # w[j, i] weighs row j of r (r[0] is row k) in new row i: the
        # matrix (w11, w12; w21, w22) when k = p, reversed in both axes when
        # k = q.
        wf[:] = (w11, w12, w21, w22) if k < m0 else (w22, w21, w12, w11)
        rk[:] = a[k]
        np.multiply(w, r3, out=x)
        np.add(x0, x1, out=r)
        c1, c2 = app * w11 + apq * w21, apq * w11 + aqq * w21
        d1, d2 = app * w12 + apq * w22, apq * w12 + aqq * w22
        app, aqq = w11 * c1 + w21 * c2, w12 * d1 + w22 * d2
        akk, amm = (app, aqq) if k < m0 else (aqq, app)
        rk[k] = akk
        rm[k] = 0.0
        a[k] = rk
        a[:, k] = rk
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
    if count:
        rm[m0] = amm
        a[m0] = rm
        a[:, m0] = rm
    return count


def _snapshot(a: np.ndarray, m0: int, k: int, rotations: int,
              om: np.ndarray, h: np.ndarray) -> SweepRecord:
    # One zero-diagonal copy (into the n x n buffer om) serves all four norms;
    # scaling it into h leaves the diagonal of H at zero and every
    # off-diagonal entry as scaled(a) has it.
    np.copyto(om, a)
    np.fill_diagonal(om, 0.0)
    d = a.diagonal()
    alpha = row_h = None
    if np.all(d != 0.0):
        dh = 1.0 / np.sqrt(np.abs(d))
        np.multiply(om, np.outer(dh, dh, out=h), out=h)
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


def _replay(x: list[float], m0: int, ks: array, ts: array) -> list[float]:
    """Apply the rotations :func:`sweep` logged to x, last one first."""
    for k, t in zip(reversed(ks), reversed(ts)):
        swapped = k < 0
        if swapped:
            k = ~k
        p, q = (k, m0) if k < m0 else (m0, k)
        i, j = (q, p) if swapped else (p, q)
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        xi, xj = x[i], x[j]
        x[p] = c * xi + s * xj
        x[q] = c * xj - s * xi
    return x


class _RotationLog:
    """The rotations one :func:`solve_many` call applied, kept for its vectors.

    Target i's eigenvector is V e_m with V = R_1 R_2 ... R_K, so it is built
    by applying the target's rotations to e_m, last one first: O(1) per
    rotation and no n x n V. R maps (x_p, x_q) to
    (w11 x_p + w12 x_q, w21 x_p + w22 x_q) with :func:`sweep`'s w, which is
    (c x_i + s x_j, c x_j - s x_i) with (i, j) = (p, q), or (q, p) after the
    t1 > t2 swap.

    Each rotation costs 12-16 bytes: its tangent t, from which c and s are
    recomputed with the expressions of ``_tangent_cs``, and its plane.
    A batched step logs the flat (i, j) of each rotation in the
    (targets x n) replay array, replayed ``_REPLAY_BLOCK`` steps at a time;
    the target that ran alone through :func:`sweep` at the end logs k
    (~k when swapped) in ``tail``.
    """

    def __init__(self):
        self.pairs, self.ts, self.starts = array("i"), array("d"), array("i")
        self.lone: int | None = None
        self.tail = (array("i"), array("d"))

    def add(self, ij: np.ndarray, t: np.ndarray) -> None:
        """Log one batched step: (2, live) flat indices (i, j) and tangents."""
        self.starts.append(len(self.ts))
        self.pairs.frombytes(ij.T.astype(np.intc).tobytes())
        self.ts.frombytes(t.tobytes())

    def alone(self, i: int) -> tuple[array, array]:
        """The tail log of target i, which now sweeps alone."""
        self.lone = i
        return self.tail

    def vectors(self, m0s: list[int], n: int) -> np.ndarray:
        """Row i is V e_m of target i, in the sorted ordering."""
        x = np.zeros((len(m0s), n))
        x[np.arange(len(m0s)), m0s] = 1.0
        if self.lone is not None:  # its tail holds the latest rotations
            x[self.lone] = _replay(x[self.lone].tolist(), m0s[self.lone], *self.tail)
        xf = x.reshape(-1)
        pairs = np.frombuffer(self.pairs, dtype=np.intc).reshape(-1, 2)
        ts = np.frombuffer(self.ts)
        steps, end = len(self.starts), len(ts)
        for first in reversed(range(0, steps, _REPLAY_BLOCK)):
            base = self.starts[first]
            ij = pairs[base:end].T.astype(np.intp)
            pq = np.sort(ij, axis=0)
            t = ts[base:end]
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            sn = np.stack((s, -s))  # (x_p, x_q) <- c (x_i, x_j) + (s, -s) (x_j, x_i)
            hi = end - base
            for j in reversed(range(first, min(first + _REPLAY_BLOCK, steps))):
                lo = self.starts[j] - base
                r = xf[ij[:, lo:hi]]
                xf[pq[:, lo:hi]] = r * c[lo:hi] + r[::-1] * sn[:, lo:hi]
                hi = lo
            end = base
        return x


# theta = (a_qq - a_pp) / (2 a_pq) may overflow: inf gives t = 0, silently as in
# sweep. Guarded per call (~2 us), not per plan step (~2,400 in a 20x20 track).
@np.errstate(over="ignore")
def _sweep_many(a: np.ndarray, targets: list[int], ranks: list[int], tol: float,
                log: _RotationLog | None) -> list[int]:
    """One sweep of every listed target at once; rotations applied per target.

    ``a`` is the (targets x n x n) working stack. Plan step j rotates every
    target in its own plane (k_j, m) with the elementwise expressions of
    :func:`sweep`, so each target comes out bit-identical to a :func:`sweep`
    of its own slice. Only the tangent's hypot runs per element, through
    ``math.hypot`` as in ``_tangent_cs``. ``log``, when given, receives each
    step's rotations. Memory beyond the stack is O(n * targets).
    """
    n = a.shape[1]
    a2, af, at = a.reshape(-1, n), a.reshape(-1), a.transpose(0, 2, 1)
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
        if log is not None:
            log.add(dst, t)
    return counts.tolist()


class _Target:
    """Stopping bookkeeping of one target rank inside :func:`solve_many`."""

    def __init__(self, m: int, scratch: tuple[np.ndarray, np.ndarray] | None):
        # scratch: the two n x n snapshot buffers all targets share, or None
        # when no history is recorded.
        self.m0 = m - 1
        self.scratch = scratch
        self.history: list[SweepRecord] = []
        self.recent: deque[float] = deque(maxlen=_STAGNATION_SWEEPS + 1)
        self.status = SolveStatus.MAX_SWEEPS
        self.sweeps_used = 0

    def note(self, a: np.ndarray, k: int, rotations: int, threshold: float) -> bool:
        """Record the state after sweep k; True once a stopping rule fired."""
        off_m = off_row(a, self.m0)
        if self.scratch is not None:
            self.history.append(_snapshot(a, self.m0, k, rotations, *self.scratch))
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
    if not opts.tol >= 0.0:
        raise InvalidOptions("tol must be nonnegative")
    if not opts.stop_rel >= 0.0:
        raise InvalidOptions("stop_rel must be nonnegative")
    if opts.max_sweeps < 1:
        raise InvalidOptions("max_sweeps must be at least 1")
    return [int(m) for m in ranks]


def solve_many(A, ms, opts: SolveOptions) -> list[EigenpairResult]:
    """Run the targeted iteration for every rank in ``ms`` on one matrix.

    Each result is bit-identical to ``solve(A, replace(opts, m=m))``; the
    ranks come from ``ms`` and ``opts.m`` is not used. The matrix is sorted
    and the stopping threshold computed once, then all targets that have not
    stopped sweep together on a (targets x n x n) working stack. A target
    leaves the batch when it stops; while a single target is left it runs
    through :func:`sweep` directly. With ``want_vector`` each applied
    rotation is logged in 12-16 bytes, and the eigenvectors are rebuilt at
    the end by applying the logged rotations to e_m in reverse order.
    """
    M = as_symmatrix(A)
    n = M.n
    ranks = _check_options(n, ms, opts)

    B, perm = sort_by_diagonal(M)
    b = B.a
    threshold = opts.stop_rel * frob_norm(b)
    scratch = (np.empty((n, n)), np.empty((n, n))) if opts.record_history else None
    runs = [_Target(m, scratch) for m in ranks]
    # sort_by_diagonal returned a private copy, so a lone target works in it.
    work = b[None] if len(ranks) == 1 else np.repeat(b[None], len(ranks), axis=0)
    log = _RotationLog() if opts.want_vector else None

    active = [i for i, run in enumerate(runs) if not run.note(work[i], 0, 0, threshold)]
    for k in range(1, opts.max_sweeps + 1):
        if not active:
            break
        if len(active) == 1:
            i = active[0]
            tail = None if log is None else log.alone(i)
            counts = [sweep(work[i], ranks[i], opts.tol, _log=tail)]
        else:
            counts = _sweep_many(work, active, ranks, opts.tol, log)
        active = [i for i, rotations in zip(active, counts)
                  if not runs[i].note(work[i], k, rotations, threshold)]

    vectors = None if log is None else log.vectors([run.m0 for run in runs], n)
    results = []
    for i, run in enumerate(runs):
        vector = None
        if vectors is not None:
            v = _peak_positive(perm.scatter(vectors[i]))
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
    """The unit eigenvector in original coordinates.

    Sign convention: the largest-magnitude component is positive (lowest
    index on ties). Raises :class:`VectorNotAccumulated` if the solve ran
    without ``want_vector``.
    """
    if result.vector is None:
        raise VectorNotAccumulated(
            "run solve with want_vector=True to accumulate the eigenvector"
        )
    return result.vector
