"""Convergence quantities and bounds for the targeted iteration.

Covers the scaled off-norm alpha, minimum relative gaps (exact and the
diagonal surrogate), the certified linear-contraction bound with its
applicability test, the first-order reduction factor, the eigenvalue
separation bound, and least-squares rate fitting from sweep histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BothZero,
    BoundUndefined,
    DegenerateGapHat,
    InsufficientHistory,
    NonpositiveValues,
    SingleEigenvalue,
    ZeroDiagonal,
)
from .matcore import EPS, _is_int, as_symmatrix, frob_norm, scaled, sort_by_diagonal
from .reference import _exact_values

__all__ = ["GapSet", "DiagnosticsReport", "min_relative_gap", "rel", "alpha",
           "gap_hat", "thm2_bound", "foa_factor", "sep_bound", "fit_rate",
           "diagnose"]


@dataclass
class GapSet:
    """gamma_j[j] = min_{i != j} |v_i - v_j| / (|v_i| + |v_j|); gamma = min_j."""

    gamma: float
    gamma_j: np.ndarray


@dataclass
class DiagnosticsReport:
    """Everything the bounds need, in one bag.

    Exact-mode fields (gamma, gamma_m, rho, thm2_*) are None when no spectrum
    was supplied. rho = alpha0 / gamma_m; thm2_rate_bound is the per-sweep
    contraction factor 2.8 * 1.001 * alpha0 / gamma.
    """

    alpha0: float
    gamma: float | None
    gamma_m: float | None
    gamma_hat: float
    rho: float | None
    thm2_applicable: bool | None
    thm2_rate_bound: float | None
    foa_factor: float
    fitted_rate: float | None


def rel(x: float, y: float) -> float:
    """Relative distance |x - y| / (|x| + |y|); raises BothZero at (0, 0)."""
    denom = abs(x) + abs(y)
    if denom == 0.0:
        raise BothZero("rel(0, 0) is undefined")
    return abs(x - y) / denom


def min_relative_gap(values) -> GapSet:
    """Per-eigenvalue and global minimum relative gaps.

    Input order is free (the gap of each entry is reported in input order);
    pairs where both values are exactly zero contribute gap 0. At least two
    finite values are required. Each gamma_j comes from its two sorted
    neighbours: within one sign |x - y| / (|x| + |y|) grows with distance, and
    across a sign change it is 1, its maximum. gamma is the all-pairs minimum
    bit for bit; a gamma_j can read up to 4 ulps above it, next to a run of
    near-equal values far larger, where a farther member's ratio rounds lower.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    if n < 2:
        raise SingleEigenvalue("need at least two eigenvalues for a gap")
    if not np.isfinite(v).all():
        raise ValueError("eigenvalues must be finite")
    order = np.argsort(v)
    s = v[order]
    with np.errstate(over="ignore"):  # |x| + |y| may pass the float range
        diff, den = s[1:] - s[:-1], np.abs(s[1:]) + np.abs(s[:-1])
    big = np.isinf(den)  # |diff| <= den, so an inf diff has an inf den
    if big.any():  # those pairs come from halved values, exact at that size
        h = 0.5 * s
        diff[big], den[big] = (h[1:] - h[:-1])[big], (np.abs(h[1:]) + np.abs(h[:-1]))[big]
    # r[i + 1]: gap of sorted neighbours i, i + 1 (zeros keep 0); inf pads.
    r = np.zeros(n + 1)
    r[0] = r[-1] = np.inf
    np.divide(diff, den, out=r[1:-1], where=den > 0.0)
    gaps = np.empty(n)
    gaps[order] = np.minimum(r[:-1], r[1:])
    return GapSet(gamma=float(r.min()), gamma_j=gaps)


def alpha(A) -> float:
    """off-norm of the scaled matrix H = |D|^{-1/2} A |D|^{-1/2}."""
    h = scaled(A).a
    np.fill_diagonal(h, 0.0)  # off_norm, without omega's copy of a private h
    return frob_norm(h)


def gap_hat(A, m: int) -> float:
    """Diagonal-entry gap surrogate min_{p != m} |a_mm / a_pp - 1|.

    m is a 1-based rank; the diagonal is sorted first so ranks match the
    ascending convention. Raises DegenerateGapHat when some a_pp equals a_mm
    (or n == 1), ZeroDiagonal when a division is impossible.
    """
    d = np.sort(as_symmatrix(A).a.diagonal(), kind="stable")
    n = d.size
    if not _is_int(m) or not 1 <= m <= n:
        raise IndexError(f"rank {m} out of range for order {n}")
    if n == 1:
        raise DegenerateGapHat("no other diagonal entries to compare against")
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise ZeroDiagonal(int(zero[0]) + 1)
    others = np.delete(d, m - 1)
    g = float(np.min(np.abs(d[m - 1] / others - 1.0)))
    if g == 0.0:
        raise DegenerateGapHat(f"a diagonal entry coincides with entry {m}")
    return g


def thm2_bound(alpha0: float, gamma: float, n: int, ell: int) -> tuple[bool, float]:
    """Certified ell-sweep bound on off(H(m,:)).

    Returns (applicable, bound) with applicable = alpha0 <= min(1/n, gamma)/11
    and bound = (2.8 * 1.001 * alpha0 / gamma)^ell * alpha0. Valid for
    1 <= ell <= n.
    """
    if not alpha0 >= 0.0:
        raise ValueError(f"alpha0 must be nonnegative, got {alpha0!r}")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    if not _is_int(n) or n < 3:
        raise ValueError(f"bound is stated for integer n >= 3, got {n!r}")
    if not _is_int(ell) or not 1 <= ell <= n:
        raise ValueError(f"ell must be an integer in [1, {n}], got {ell!r}")
    applicable, factor = _thm2_rate(alpha0, gamma, n)
    return applicable, factor**ell * alpha0


def _thm2_rate(alpha0: float, gamma: float, n: int) -> tuple[bool, float]:
    """The certified bound's applicability test and per-sweep factor."""
    return bool(alpha0 <= min(1.0 / n, gamma) / 11.0), 2.8 * 1.001 * alpha0 / gamma


def foa_factor(A, m: int) -> float:
    """First-order per-sweep reduction factor alpha_hat0 / (sqrt(2) gap_hat).

    alpha_hat0 is the off-norm of the scaled matrix with row/column m removed
    (the target row does not couple with itself during a sweep). Stated for
    the largest eigenvalue originally; reindexing the sort makes any rank m
    admissible.
    """
    B, _ = sort_by_diagonal(as_symmatrix(A))
    g = gap_hat(B, m)
    keep = np.arange(B.n) != (m - 1)
    h = scaled(B).a
    del B  # B, h and the submatrix are never all held at once
    h = h[np.ix_(keep, keep)]
    np.fill_diagonal(h, 0.0)
    return frob_norm(h) / (math.sqrt(2.0) * g)


def sep_bound(a_ii: float, off_row_H: float, gamma: float) -> float:
    """Bound 4 * off(H(i,:))^2 / gamma on the relative error |a_ii - lambda_i| / |a_ii|.

    ``a_ii`` is the diagonal entry the bound speaks about (the formula itself
    only needs the scaled row norm and the gap). Quadratic in the residual, so
    it certifies high relative accuracy near convergence; callers must check
    alpha <= gamma / (gamma + 3) for the hypothesis to hold. Raises
    BoundUndefined unless gamma > 0 (coalesced eigenvalues, or a NaN gap).
    """
    if not gamma > 0.0:
        raise BoundUndefined("separation bound needs a positive relative gap")
    return 4.0 * off_row_H * off_row_H / gamma


def fit_rate(history, frob0: float | None = None) -> float:
    """Per-sweep contraction factor fitted from a solve history.

    Least-squares slope of ln(off_row_m) against sweep index, exponentiated.
    Fitting stops at the first value below 100 * eps * frob0 (the numerical
    floor would flatten the slope); pass the original Frobenius norm for that
    cutoff to engage. Needs at least three usable leading records.
    """
    records = list(history)
    if len(records) < 3:
        raise InsufficientHistory(f"need >= 3 records, got {len(records)}")
    floor = 100.0 * EPS * frob0 if frob0 is not None else 0.0
    xs, ys = [], []
    for rec in records:
        val = rec.off_row_m
        if val <= 0.0 or val < floor:
            break
        xs.append(float(rec.sweep))
        ys.append(math.log(val))
    if len(xs) < 3:
        raise NonpositiveValues(
            "fewer than 3 history values above the numerical floor"
        )
    slope = np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0]
    return float(math.exp(slope))


def diagnose(A, m: int, values=None, exact: bool = False,
             history=None, frob0: float | None = None) -> DiagnosticsReport:
    """Assemble a DiagnosticsReport for target rank m.

    ``values``: optional spectrum for exact-mode gaps, all n eigenvalues in
    any order (ValueError otherwise); with ``exact=True`` and none given, the
    classical Jacobi oracle computes them up to n = 128 and LAPACK above.
    Otherwise gamma/gamma_m/rho and the certified bound are None. ``history``
    (plus ``frob0``) engages rate fitting; an unusable one leaves fitted_rate None.
    """
    M = as_symmatrix(A)
    a0 = alpha(M)
    g_hat = gap_hat(M, m)
    foa = foa_factor(M, m)

    if values is None and exact:
        values = _exact_values(M)

    gamma = gamma_m = rho = rate_bound = None
    applicable: bool | None = None
    if values is not None:
        values = np.sort(np.asarray(values, dtype=np.float64).ravel())
        if values.size != M.n:
            raise ValueError(f"values must hold all {M.n} eigenvalues, got {values.size}")
        gaps = min_relative_gap(values)
        gamma = gaps.gamma
        gamma_m = float(gaps.gamma_j[m - 1])
        rho = a0 / gamma_m if gamma_m > 0.0 else math.inf
        if gamma > 0.0:
            applicable, rate_bound = _thm2_rate(a0, gamma, M.n)

    fitted = None
    if history is not None:
        try:
            fitted = fit_rate(history, frob0)
        except (InsufficientHistory, NonpositiveValues):
            fitted = None

    return DiagnosticsReport(
        alpha0=a0,
        gamma=gamma,
        gamma_m=gamma_m,
        gamma_hat=g_hat,
        rho=rho,
        thm2_applicable=applicable,
        thm2_rate_bound=rate_bound,
        foa_factor=foa,
        fitted_rate=fitted,
    )
