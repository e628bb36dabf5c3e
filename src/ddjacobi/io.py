"""File ingestion/emission and deterministic test-matrix generators.

Formats: Matrix Market exchange files (coordinate and array, real/integer/
pattern, symmetric or numerically-symmetric general), dense square CSV grids
(dispatched on the .csv extension), points CSV with an optional header row,
and the solve-history CSV with the fixed header
``sweep,off_row_m,off_total,a_mm,alpha,err_vs_ref``.

All indices inside files are 1-based; reals are written in shortest
round-trip decimal form, so write/read cycles are lossless.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass

import numpy as np

from .diagnostics import alpha
from .errors import AsymmetricInput, NotSymmetric, ParseError, UnsupportedField
from .matcore import SymMatrix
from .solver import SweepRecord
from .spectral import PointCloud

__all__ = ["HistoryRow", "read_matrix_market", "write_matrix_market",
           "read_matrix", "read_points_csv", "write_history_csv",
           "read_history_csv", "gen_example1", "gen_diag_rank1",
           "gen_random_dd"]

HISTORY_HEADER = "sweep,off_row_m,off_total,a_mm,alpha,err_vs_ref"


@dataclass
class HistoryRow:
    """One line of the history CSV, fields in column order; optional cells
    serialize as empty."""

    sweep: int
    off_row_m: float
    off_total: float
    a_mm: float
    alpha: float | None = None
    err_vs_ref: float | None = None

    @classmethod
    def from_record(cls, rec: SweepRecord,
                    err_vs_ref: float | None = None) -> "HistoryRow":
        return cls(sweep=rec.sweep, off_row_m=rec.off_row_m,
                   off_total=rec.off_total, a_mm=rec.a_mm,
                   alpha=rec.alpha, err_vs_ref=err_vs_ref)


def _parse_float(token: str, lineno: int) -> float:
    try:
        val = float(token)
    except ValueError:
        raise ParseError(lineno, f"bad number {token!r}") from None
    if not math.isfinite(val):
        raise ParseError(lineno, f"non-finite value {token!r}")
    return val


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"bad integer {token!r}") from None


def _numerically_symmetric(a: np.ndarray, what: str) -> SymMatrix:
    """:meth:`SymMatrix.symmetrized`, reporting asymmetry as NotSymmetric."""
    try:
        return SymMatrix.symmetrized(a)
    except AsymmetricInput as exc:
        raise NotSymmetric(f"{what} is not numerically symmetric") from exc


def read_matrix_market(path) -> SymMatrix:
    """Parse a Matrix Market file into a symmetric matrix.

    Accepts ``coordinate`` and ``array`` formats with ``real``, ``integer``
    or ``pattern`` fields (pattern entries read as 1.0) and ``symmetric`` or
    ``general`` storage. General files must be numerically symmetric within
    4 * eps * max|entry|. Indices are 1-based; symmetric coordinate files
    store the lower triangle.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(1, "empty file")

    header = lines[0].split()
    if (len(header) != 5 or header[0].lower() != "%%matrixmarket"
            or header[1].lower() != "matrix"):
        raise ParseError(1, "expected '%%MatrixMarket matrix <fmt> <field> <sym>'")
    fmt, fieldkind, symkind = (h.lower() for h in header[2:5])
    if fmt not in ("coordinate", "array"):
        raise ParseError(1, f"unknown format {fmt!r}")
    if fieldkind not in ("real", "integer", "pattern"):
        raise UnsupportedField(f"field {fieldkind!r} is not supported")
    if symkind not in ("symmetric", "general"):
        raise UnsupportedField(f"storage {symkind!r} is not supported")
    if fmt == "array" and fieldkind == "pattern":
        raise ParseError(1, "array format cannot carry a pattern field")

    # Body lines with 1-based numbering; % comments and blanks skipped.
    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    body = [(no, ln) for no, ln in body[1:] if ln and not ln.startswith("%")]
    if not body:
        raise ParseError(len(lines), "missing size line")

    size_no, size_line = body[0]
    toks = size_line.split()
    if fmt == "coordinate":
        if len(toks) != 3:
            raise ParseError(size_no, "coordinate size line needs 'rows cols nnz'")
        nrows, ncols, nnz = (_parse_int(t, size_no) for t in toks)
    else:
        if len(toks) != 2:
            raise ParseError(size_no, "array size line needs 'rows cols'")
        nrows, ncols = (_parse_int(t, size_no) for t in toks)
        nnz = None
    if nrows != ncols:
        raise NotSymmetric(f"matrix is {nrows}x{ncols}, not square")
    if nrows < 1:
        raise ParseError(size_no, "order must be positive")
    n = nrows
    entries = body[1:]
    a = np.zeros((n, n))

    if fmt == "coordinate":
        if len(entries) != nnz:
            raise ParseError(size_no, f"expected {nnz} entries, found {len(entries)}")
        seen: set[tuple[int, int]] = set()
        want = 2 if fieldkind == "pattern" else 3
        for no, ln in entries:
            toks = ln.split()
            if len(toks) != want:
                raise ParseError(no, f"expected {want} fields, got {len(toks)}")
            i = _parse_int(toks[0], no)
            j = _parse_int(toks[1], no)
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(no, f"index ({i}, {j}) out of range")
            if symkind == "symmetric" and j > i:
                raise ParseError(no, "entry above the diagonal in a symmetric file")
            if (i, j) in seen:
                raise ParseError(no, f"duplicate entry ({i}, {j})")
            seen.add((i, j))
            val = 1.0 if fieldkind == "pattern" else _parse_float(toks[2], no)
            a[i - 1, j - 1] = val
            if symkind == "symmetric":
                a[j - 1, i - 1] = val
    else:
        toks = [(no, tok) for no, ln in entries for tok in ln.split()]
        want = n * (n + 1) // 2 if symkind == "symmetric" else n * n
        if len(toks) != want:
            raise ParseError(size_no, f"expected {want} values, found {len(toks)}")
        vals = [_parse_float(tok, no) for no, tok in toks]
        if symkind == "symmetric":
            # The column-major lower triangle is the row-major upper one.
            upper = np.triu_indices(n)
            a[upper] = vals
            a.T[upper] = vals
        else:
            a[:] = np.reshape(vals, (n, n)).T

    if symkind == "general":
        return _numerically_symmetric(a, "general file")
    return SymMatrix(a)


def write_matrix_market(path, A) -> None:
    """Write the lower triangle as coordinate/real/symmetric, losslessly."""
    a = A.a if isinstance(A, SymMatrix) else np.asarray(A, dtype=np.float64)
    n = a.shape[0]
    rows, cols = np.tril_indices(n)
    keep = a[rows, cols] != 0.0
    rows, cols = rows[keep], cols[keep]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {rows.size}\n")
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(a[i, j])!r}\n")


def read_matrix(path) -> SymMatrix:
    """Dispatch on extension: .csv reads a dense square grid, else Matrix Market."""
    if str(path).lower().endswith(".csv"):
        a = _read_grid(_read_csv_rows(path))
        if a.shape[0] != a.shape[1]:
            raise NotSymmetric(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
        return _numerically_symmetric(a, "matrix CSV")
    return read_matrix_market(path)


def _read_csv_rows(path) -> list[tuple[int, list[str]]]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for no, cells in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in cells]
            if any(cells):
                out.append((no, cells))
    return out


def _read_grid(rows: list[tuple[int, list[str]]]) -> np.ndarray:
    """Parse numbered CSV rows into a float array. Each row's width is
    checked before its cells, so errors name the first offending row."""
    if not rows:
        raise ParseError(1, "no data rows")
    width = len(rows[0][1])
    grid = []
    for no, cells in rows:
        if len(cells) != width:
            raise ParseError(no, f"expected {width} columns, got {len(cells)}")
        grid.append([_parse_float(c, no) for c in cells])
    return np.asarray(grid)


def read_points_csv(path) -> PointCloud:
    """n x d numeric CSV, optional single header row (auto-detected)."""
    rows = _read_csv_rows(path)
    try:
        list(map(float, rows[0][1] if rows else []))
    except ValueError:  # a non-numeric first row is the header
        rows = rows[1:]
        if not rows:
            raise ParseError(1, "no data rows after the header") from None
    return PointCloud(_read_grid(rows))


def _cell(x) -> str:
    """One CSV cell: None empty, integers as digits, reals round-trip."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _csv_row(cells) -> str:
    return ",".join(map(_cell, cells))


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row of cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(_csv_row(row) + "\n")


def write_history_csv(path, rows) -> None:
    """Emit HistoryRows under the fixed header (bit-exact column names)."""
    _write_csv(path, HISTORY_HEADER, map(astuple, rows))


def read_history_csv(path) -> list[HistoryRow]:
    """Inverse of :func:`write_history_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != HISTORY_HEADER:
        raise ParseError(1, f"expected header {HISTORY_HEADER!r}")
    out = []
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != 6:
            raise ParseError(no, f"expected 6 cells, got {len(cells)}")
        out.append(HistoryRow(
            sweep=_parse_int(cells[0], no),
            off_row_m=_parse_float(cells[1], no),
            off_total=_parse_float(cells[2], no),
            a_mm=_parse_float(cells[3], no),
            alpha=None if cells[4] == "" else _parse_float(cells[4], no),
            err_vs_ref=None if cells[5] == "" else _parse_float(cells[5], no),
        ))
    return out


def gen_example1() -> SymMatrix:
    """The 11x11 demonstration matrix: diagonal 1..11, off-diagonal 1/121,
    except 1/100 in row/column 6."""
    a = np.full((11, 11), 1.0 / 121.0)
    a[5, :] = 1.0 / 100.0
    a[:, 5] = 1.0 / 100.0
    np.fill_diagonal(a, np.arange(1.0, 12.0))
    return SymMatrix(a)


def gen_diag_rank1(n: int) -> SymMatrix:
    """Diagonal-plus-rank-one family on a uniform grid.

    A = diag(1 + x_i) + (1/n) u u^T with x_i = i/(n+1) and
    u_i = sin(sqrt(2) pi x_i). Positive definite and row-sum diagonally
    dominant; the spectrum has tight relative gaps at the low end and wide
    ones at the top.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    x = np.arange(1, n + 1) / (n + 1)
    u = np.sin(math.sqrt(2.0) * math.pi * x)
    a = np.outer(u, u) / n
    np.fill_diagonal(a, a.diagonal() + 1.0 + x)
    return SymMatrix(a)


def gen_random_dd(n: int, alpha_target: float, seed: int) -> SymMatrix:
    """Scaled diagonally dominant random matrix with alpha pinned.

    Diagonal 1..n; off-diagonal uniform(-1, 1) symmetrized, then rescaled so
    the off-norm of the scaled view equals ``alpha_target`` (exact up to
    rounding, well within 1e-12). Deterministic per seed.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < alpha_target < 1.0:
        raise ValueError("alpha_target must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    off = upper + upper.T
    d = np.arange(1.0, n + 1.0)
    a = off * (alpha_target / alpha(off + np.diag(d)))
    np.fill_diagonal(a, d)
    return SymMatrix(a)
