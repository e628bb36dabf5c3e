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
import operator
from dataclasses import astuple, dataclass
from itertools import chain, compress

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
_BLOCK = 4096  # body lines tokenized at once, bounding the live token lists
_SKIPPED = {"", "%"}.__contains__  # first character of a blank or % line


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


def _first(bad: np.ndarray) -> int:
    """Index of the first True in ``bad``, or its length if there is none."""
    return int(bad.argmax()) if bad.any() else bad.size


class _Earliest:
    """The earliest failing row of a block, found one check at a time.

    Each check looks only at the rows before ``stop``, all of which passed
    every earlier check, so the line and message kept are those at which a
    row-by-row reader would have stopped. ``nos[k]`` is row k's line.
    """

    def __init__(self, nos: np.ndarray):
        self.nos, self.stop, self.error = nos, len(nos), None

    def cut(self, k: int, message) -> None:
        """Row ``k`` fails; ``message(k)`` builds the text if it is the earliest."""
        if k < self.stop:
            self.stop, self.error = k, ParseError(int(self.nos[k]), message(k))

    def fail(self, bad: np.ndarray, message) -> None:
        """Rows marked in ``bad`` fail."""
        self.cut(_first(bad[:self.stop]), message)

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def _convert(conv, toks) -> tuple[list, int]:
    """``conv`` over ``toks``: the values before the first token it rejects
    with ValueError, and that token's index (``len(toks)`` if none)."""
    try:
        return list(map(conv, toks)), len(toks)
    except ValueError:
        vals = []
        for tok in toks:
            try:
                vals.append(conv(tok))
            except ValueError:
                break
        return vals, len(vals)


def _floats(toks, nos) -> np.ndarray:
    """Python's ``float`` of every token; the first that is no number or not
    finite raises a ParseError on its line, ``nos[k]``."""
    vals, k = _convert(float, toks)
    check = _Earliest(nos)
    check.cut(k, lambda k: f"bad number {toks[k]!r}")
    vals = np.array(vals, dtype=np.float64)
    check.fail(~np.isfinite(vals), lambda k: f"non-finite value {toks[k]!r}")
    check.raise_first()
    return vals


def _indices(toks, check: _Earliest) -> np.ndarray:
    """Python's ``int`` of every token before ``check.stop`` as int64; the
    first token it rejects fails. Values beyond int64 read as 0, which is out
    of range like them."""
    vals, k = _convert(int, toks[:check.stop])
    check.cut(k, lambda k: f"bad integer {toks[k]!r}")
    try:
        return np.array(vals, dtype=np.int64)
    except OverflowError:
        return np.array([v if -2**63 <= v < 2**63 else 0 for v in vals],
                        dtype=np.int64)


def _widths(lens: np.ndarray, nos, width: int, unit: str) -> _Earliest:
    """A check over rows of ``lens`` tokens whose first failure is the first
    row that does not hold ``width`` of them."""
    check = _Earliest(nos)
    check.fail(lens != width, lambda k: f"expected {width} {unit}, got {lens[k]}")
    return check


def _blocks(lines: list, nos: np.ndarray, width):
    """Split body lines into token columns, ``_BLOCK`` lines at a time.

    With a ``width`` every line is one row of that many fields, and a line of
    another width is the check's first failure; with None (array bodies)
    every token is a row of its own. Yields ``(columns, check)``, where
    ``check.nos`` holds each row's line. Each block is split once more as one
    string, so no list per line outlives its count.
    """
    for s in range(0, len(lines), _BLOCK):
        block, block_nos = lines[s:s + _BLOCK], nos[s:s + _BLOCK]
        lens = np.fromiter(map(len, map(str.split, block)), np.intp, len(block))
        if width is None:
            yield [" ".join(block).split()], _Earliest(np.repeat(block_nos, lens))
        else:
            check = _widths(lens, block_nos, width, "fields")
            toks = " ".join(block[:check.stop]).split()
            yield [toks[c::width] for c in range(width)], check


def _place_entries(a: np.ndarray, seen: np.ndarray, cols: list,
                   check: _Earliest, symmetric: bool) -> None:
    """Check a block of coordinate entries in the order a row-by-row reader
    would (integers, range, triangle, duplicates, values) and place them.
    ``seen`` flags the linear indices placed by earlier blocks."""
    n = a.shape[0]
    ti, tj = cols[0], cols[1]
    i = _indices(ti, check)
    j = _indices(tj, check)
    i, j = i[:check.stop], j[:check.stop]
    check.fail((i < 1) | (i > n) | (j < 1) | (j > n),
               lambda k: f"index ({int(ti[k])}, {int(tj[k])}) out of range")
    if symmetric:
        check.fail(j > i, lambda k: "entry above the diagonal in a symmetric file")
    i, j = i[:check.stop] - 1, j[:check.stop] - 1
    key = i * n + j
    again = np.ones(key.size, dtype=bool)
    again[np.unique(key, return_index=True)[1]] = False
    check.fail(seen[key] | again, lambda k: f"duplicate entry ({i[k] + 1}, {j[k] + 1})")
    stop = check.stop
    if len(cols) == 2:  # pattern entries carry no value
        vals = np.ones(stop)
    else:
        vals = _floats(cols[2][:stop], check.nos[:stop])
    check.raise_first()
    seen[key] = True
    a[i, j] = vals
    if symmetric:
        a[j, i] = vals


def read_matrix_market(path) -> SymMatrix:
    """Parse a Matrix Market file into a symmetric matrix.

    Accepts ``coordinate`` and ``array`` formats with ``real``, ``integer``
    or ``pattern`` fields (pattern entries read as 1.0) and ``symmetric`` or
    ``general`` storage. General files must be numerically symmetric within
    4 * eps * max|entry|. Indices are 1-based; symmetric coordinate files
    store the lower triangle. The body is converted in bulk with Python's
    ``int`` and ``float``; an error names the first offending line.
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

    # Body lines and their 1-based numbers: blank and % lines (the banner
    # among them) are dropped by their first character.
    text = list(map(str.lstrip, lines))
    keep = list(map(operator.not_, map(
        _SKIPPED, map(operator.itemgetter(slice(1)), text))))
    body = list(compress(text, keep))
    if not body:
        raise ParseError(len(lines), "missing size line")
    nos = np.flatnonzero(keep) + 1

    size_no = int(nos[0])
    toks = body[0].split()
    if fmt == "coordinate":
        if len(toks) != 3:
            raise ParseError(size_no, "coordinate size line needs 'rows cols nnz'")
        nrows, ncols, nnz = (_parse_int(t, size_no) for t in toks)
    else:
        if len(toks) != 2:
            raise ParseError(size_no, "array size line needs 'rows cols'")
        nrows, ncols = (_parse_int(t, size_no) for t in toks)
    if nrows != ncols:
        raise NotSymmetric(f"matrix is {nrows}x{ncols}, not square")
    if nrows < 1:
        raise ParseError(size_no, "order must be positive")
    n = nrows
    entries, nos = body[1:], nos[1:]

    if fmt == "coordinate":
        if len(entries) != nnz:
            raise ParseError(size_no, f"expected {nnz} entries, found {len(entries)}")
    else:
        want = n * (n + 1) // 2 if symkind == "symmetric" else n * n
        found = sum(map(len, map(str.split, entries)))
        if found != want:
            raise ParseError(size_no, f"expected {want} values, found {found}")
    try:  # only once the file holds as many entries as it declares
        a = np.zeros((n, n))
        seen = np.zeros(n * n if fmt == "coordinate" else 0, dtype=bool)
    except (MemoryError, ValueError):
        raise ParseError(size_no, f"order {n} is too large to allocate") from None

    if fmt == "coordinate":
        for cols, check in _blocks(entries, nos, 2 if fieldkind == "pattern" else 3):
            _place_entries(a, seen, cols, check, symkind == "symmetric")
    else:
        vals = np.concatenate([_floats(cols[0], check.nos)
                               for cols, check in _blocks(entries, nos, None)])
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
    vals = a[rows, cols]
    keep = vals != 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {np.count_nonzero(keep)}\n")
        fh.write("".join(map("{} {} {!r}\n".format, (rows[keep] + 1).tolist(),
                             (cols[keep] + 1).tolist(), vals[keep].tolist())))


def read_matrix(path) -> SymMatrix:
    """Dispatch on extension: .csv reads a dense square grid, else Matrix Market."""
    if str(path).lower().endswith(".csv"):
        a = _read_grid(_read_csv_rows(path))
        if a.shape[0] != a.shape[1]:
            raise NotSymmetric(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
        return _numerically_symmetric(a, "matrix CSV")
    return read_matrix_market(path)


def _read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """Non-blank records, each numbered by its first physical line (a quoted
    cell may span lines)."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        no = 1
        for cells in reader:
            cells = [c.strip() for c in cells]
            if any(cells):
                out.append((no, cells))
            no = reader.line_num + 1
    return out


def _read_grid(rows: list[tuple[int, list[str]]]) -> np.ndarray:
    """Parse numbered CSV rows into a float array. Each row's width is
    checked before its cells, so errors name the first offending row."""
    if not rows:
        raise ParseError(1, "no data rows")
    nos, cells = zip(*rows)
    width = len(cells[0])
    check = _widths(np.fromiter(map(len, cells), np.intp, len(cells)),
                    nos, width, "columns")
    grid = _floats(list(chain.from_iterable(cells[:check.stop])),
                   np.repeat(nos[:check.stop], width))
    check.raise_first()
    return grid.reshape(check.stop, width)


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
