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
import warnings
from dataclasses import astuple, dataclass
from itertools import chain, compress, islice, repeat

import numpy as np

from .diagnostics import alpha
from .errors import AsymmetricInput, NotSymmetric, ParseError, UnsupportedField
from .matcore import SymMatrix, _is_int, as_symmatrix
from .solver import SweepRecord
from .spectral import PointCloud

__all__ = ["HistoryRow", "read_matrix_market", "write_matrix_market",
           "read_matrix", "read_points_csv", "write_history_csv",
           "read_history_csv", "gen_example1", "gen_diag_rank1",
           "gen_random_dd"]

HISTORY_HEADER = "sweep,off_row_m,off_total,a_mm,alpha,err_vs_ref"
_BLOCK = 4096  # body lines parsed at once, bounding the live arrays
_ENTRY = {3: np.dtype("i8,i8,f8"), 2: np.dtype("i8,i8")}  # by fields per line


@dataclass
class HistoryRow:
    """One line of the history CSV, fields in column order; optional cells
    serialize as empty. ``off_total`` and ``alpha`` are None on the records
    a solve keeps at O(n) (all but its first and last)."""

    sweep: int
    off_row_m: float
    off_total: float | None
    a_mm: float
    alpha: float | None = None
    err_vs_ref: float | None = None

    @classmethod
    def from_record(cls, rec: SweepRecord, err_vs_ref: float | None = None) -> "HistoryRow":
        return cls(rec.sweep, rec.off_row_m, rec.off_total, rec.a_mm, rec.alpha, err_vs_ref)


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
    """:meth:`SymMatrix.symmetrized` on the reader's own finite matrix, in
    place, reporting asymmetry as NotSymmetric."""
    try:
        return SymMatrix._symmetrize(a)
    except AsymmetricInput as exc:
        raise NotSymmetric(f"{what} is not numerically symmetric") from exc


def _bulk_floats(toks) -> np.ndarray | None:
    """Python's ``float`` of every token, or None unless all are finite."""
    try:
        vals = np.fromiter(map(float, toks), np.float64, len(toks))
    except ValueError:
        return None
    return vals if np.isfinite(vals).all() else None


def _floats(toks, nos) -> np.ndarray:
    """Python's ``float`` of every token, in bulk or else one at a time, where
    the first that is no finite number raises a ParseError on its line:
    ``nos`` yields each token's line and is read only then."""
    vals = _bulk_floats(toks)
    if vals is None:
        vals = np.array([_parse_float(t, no) for t, no in zip(toks, nos)])
    return vals


def _place_line(a: np.ndarray, seen: np.ndarray, line: str, no: int,
                width: int, symmetric: bool) -> None:
    """Place one coordinate line's entry, checking in order what makes a line
    valid: ``width`` fields (2 for pattern entries, read as 1.0), two integers
    in range, not above a symmetric file's diagonal, not yet in ``seen``, and
    a finite value. The first check to fail raises a ParseError on line ``no``."""
    toks = line.split()
    if len(toks) != width:
        raise ParseError(no, f"expected {width} fields, got {len(toks)}")
    n = a.shape[0]
    i, j = _parse_int(toks[0], no), _parse_int(toks[1], no)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ParseError(no, f"index ({i}, {j}) out of range")
    if symmetric and j > i:
        raise ParseError(no, "entry above the diagonal in a symmetric file")
    if seen[(i - 1) * n + j - 1]:
        raise ParseError(no, f"duplicate entry ({i}, {j})")
    seen[(i - 1) * n + j - 1] = True
    a[i - 1, j - 1] = _parse_float(toks[2], no) if width == 3 else 1.0


def _bulk_entries(a: np.ndarray, seen: np.ndarray, block: list, width: int,
                  symmetric: bool) -> bool:
    """Place a block of coordinate lines if all pass the checks of
    :func:`_place_line`, each made over the whole block at once, and say
    whether it did. A block that numpy's C reader rejects, warns about or
    reads short is in doubt, and a block in doubt is left untouched."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            i, j, *vals = np.loadtxt(block, _ENTRY[width], comments=None, ndmin=1,
                                     unpack=True)
        except (ValueError, Warning):
            return False
    n = a.shape[0]
    key = (i - 1) * n + (j - 1)
    # Sorted, a repeated key sits next to its twin; the writer's keys ascend.
    ordered = key if (key[1:] > key[:-1]).all() else np.sort(key)
    vals = vals[0] if vals else np.ones(len(block))
    if (len(i) != len(block) or ((i < 1) | (i > n) | (j < 1) | (j > n)).any()
            or symmetric and (j > i).any() or (ordered[1:] == ordered[:-1]).any()
            or seen[key].any() or not np.isfinite(vals).all()):
        return False
    seen[key] = True
    a[i - 1, j - 1] = vals
    return True


def _chunks(fh):
    """The text of ``fh`` in chunks of ``32 * _BLOCK`` characters (about
    ``_BLOCK`` lines of the writer's) completed by ``readline``. The file is
    read with universal newlines, so each chunk ends at a ``\\n`` or at the end
    of the file, and the chunks' ``str.splitlines`` split the whole text's."""
    while chunk := fh.read(32 * _BLOCK):
        yield chunk + fh.readline()


def read_matrix_market(path) -> SymMatrix:
    """Parse a Matrix Market file into a symmetric matrix.

    Accepts ``coordinate`` and ``array`` formats with ``real``, ``integer``
    or ``pattern`` fields (pattern entries read as 1.0) and ``symmetric`` or
    ``general`` storage. General files must be numerically symmetric by the
    rule of :meth:`SymMatrix.symmetrized`. Indices are 1-based; symmetric
    coordinate files store the lower triangle. The file is read in one pass,
    in chunks of about ``_BLOCK`` whole lines, and the matrix is allocated
    once the size line is read. Blocks of coordinate lines go through numpy's
    C reader in bulk; a block in doubt is read again line by line with
    Python's ``int`` and ``float``. Array values are placed as each block is
    parsed, row by row of A.T; a symmetric file fills each row from the
    diagonal on, and its lower triangle is copied onto the upper one at the
    end. Past the first offending line, or past the declared count, lines are
    only counted; at the end a wrong entry or value count is raised first,
    then an order too large to allocate, then the first offending line's error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        chunks = _chunks(fh)
        text = next(chunks, "")
        if not text:
            raise ParseError(1, "empty file")
        lines = text.splitlines()

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

        symmetric, width = symkind == "symmetric", 2 if fieldkind == "pattern" else 3
        size_no = a = error = None
        found = read = row = col = 0
        while text:
            # Body lines and their 1-based numbers. An ASCII chunk whose least
            # line sorts after "%" (so after every ASCII blank) is all body;
            # elsewhere blank and % lines (the banner among them) are dropped
            # by their first non-blank character.
            if text.isascii() and min(lines) >= "&":
                body, nos = lines, range(read + 1, read + 1 + len(lines))
            else:  # a blank's "" and a comment's "%" are both in "%"
                keep = [ln.lstrip()[:1] not in "%" for ln in lines]
                body = list(compress(lines, keep))
                nos = np.flatnonzero(np.fromiter(keep, bool, len(keep))) + read + 1
            read += len(lines)
            if size_no is None and body:
                size_no = int(nos[0])
                n, want = _size_line(body[0], size_no, fmt, symmetric)
                body, nos = body[1:], nos[1:]
                try:  # np.zeros pages take no memory until written
                    a = np.zeros((n, n))
                    seen = np.zeros(n * n if fmt == "coordinate" else 0, dtype=bool)
                except (MemoryError, ValueError):
                    a = None
            for s in range(0, len(body), _BLOCK):
                block, block_nos = body[s:s + _BLOCK], map(int, nos[s:s + _BLOCK])
                toks = " ".join(block).split() if fmt == "array" else block
                found += len(toks)
                if a is None or error is not None or found > want:
                    continue
                try:
                    if fmt == "array":  # column-major: a.T's rows, from the cursor on
                        vals = _floats(toks, (
                            no for ln, no in zip(block, block_nos) for _ in ln.split()))
                        while len(vals):
                            e = min(n, col + len(vals))
                            a[col:e, row] = vals[:e - col]
                            vals, col = vals[e - col:], e
                            if col == n:  # a symmetric file's rows start at the diagonal
                                row, col = row + 1, row + 1 if symmetric else 0
                    elif not _bulk_entries(a, seen, block, width, symmetric):
                        for line, no in zip(block, block_nos):
                            _place_line(a, seen, line, no, width, symmetric)
                except ParseError as exc:
                    error = exc
            text = next(chunks, "")
            lines = text.splitlines()

    if size_no is None:
        raise ParseError(read, "missing size line")
    if found != want:
        what = "entries" if fmt == "coordinate" else "values"
        raise ParseError(size_no, f"expected {want} {what}, found {found}")
    if a is None:
        raise ParseError(size_no, f"order {n} is too large to allocate")
    if error is not None:
        try:
            raise error
        finally:  # the frame would hold the error, and its traceback the frame
            error = None
    del seen
    if not symmetric:
        return _numerically_symmetric(a, "general file")
    # The lower triangle onto the upper, 64 rows at a time: no n x n temporary,
    # and copies, not adds, so -0.0 keeps its sign.
    for s in range(0, n, 64):
        a[s:s + 64, s + 64:] = a[s + 64:, s:s + 64].T
        block = a[s:s + 64, s:s + 64]
        np.copyto(block, block.T, where=~np.tri(len(block), dtype=bool))
    return SymMatrix._wrap(a)


def _size_line(line: str, no: int, fmt: str, symmetric: bool) -> tuple[int, int]:
    """The order and the number of entries (coordinate) or values (array) a
    size line declares, checked to describe a square matrix of positive order."""
    toks = line.split()
    if fmt == "coordinate":
        if len(toks) != 3:
            raise ParseError(no, "coordinate size line needs 'rows cols nnz'")
        nrows, ncols, nnz = (_parse_int(t, no) for t in toks)
    else:
        if len(toks) != 2:
            raise ParseError(no, "array size line needs 'rows cols'")
        nrows, ncols = (_parse_int(t, no) for t in toks)
        nnz = nrows * (nrows + 1) // 2 if symmetric else nrows * nrows
    if nrows != ncols:
        raise NotSymmetric(f"matrix is {nrows}x{ncols}, not square")
    if nrows < 1:
        raise ParseError(no, "order must be positive")
    return nrows, nnz


def write_matrix_market(path, A) -> None:
    """Write the lower triangle as coordinate/real/symmetric, losslessly, a
    row at a time: one ``%`` formats the row's nonzero values into their lines
    ``"\\0 j %r\\n"``, with the row's index put for ``\\0``."""
    a = as_symmatrix(A).a
    n = a.shape[0]
    # The triangles are the same, so each holds half the off-diagonal nonzeros.
    nnz = (np.count_nonzero(a) + np.count_nonzero(a.diagonal())) // 2
    lines, template = [f"\0 {j} %r\n" for j in range(1, n + 1)], ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {nnz}\n")
        for i in range(n):
            template += lines[i]
            text, vals = template, a[i, :i + 1].tolist()  # floats whose %r is repr
            if not all(vals):  # zeros, -0.0 among them, are left out
                text, vals = "".join(compress(lines, vals)), list(filter(None, vals))
            fh.write(text.replace("\0", str(i + 1)) % tuple(vals))


def read_matrix(path) -> SymMatrix:
    """Dispatch on extension: .csv reads a dense square grid, else Matrix Market."""
    if str(path).lower().endswith(".csv"):
        a = _read_grid(_records(path))
        if a.shape[0] != a.shape[1]:
            raise NotSymmetric(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
        return _numerically_symmetric(a, "matrix CSV")
    return read_matrix_market(path)


def _records(path):
    """Yield each non-blank CSV record as it is read: its first physical line
    (a quoted cell may span lines) and its stripped cells."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        no = 1
        try:
            for cells in reader:
                cells = [c.strip() for c in cells]
                if any(cells):
                    yield no, cells
                no = reader.line_num + 1
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            raise ParseError(no, str(exc)) from None


def _read_grid(records) -> np.ndarray:
    """Parse numbered CSV records into a float array, one record at a time:
    each must hold as many cells as the first, and is then read by
    :func:`_floats`, so an error names the first offending record."""
    rows = []
    for no, cells in records:
        width = len(rows[0]) if rows else len(cells)
        if len(cells) != width:
            raise ParseError(no, f"expected {width} columns, got {len(cells)}")
        rows.append(_floats(cells, repeat(no)))
    if not rows:
        raise ParseError(1, "no data rows")
    return np.array(rows)


def read_points_csv(path) -> PointCloud:
    """n x d numeric CSV, optional single header row (auto-detected)."""
    records = _records(path)
    first = list(islice(records, 1))
    try:
        list(map(float, first[0][1] if first else []))
    except ValueError:  # a non-numeric first row is the header
        first = list(islice(records, 1))
        if not first:
            raise ParseError(1, "no data rows after the header") from None
    return PointCloud(_read_grid(chain(first, records)))


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
    """Inverse of :func:`write_history_csv`, record by record through
    :func:`_records`; an empty off_total, alpha or err_vs_ref cell is None."""
    records = _records(path)
    no, cells = next(records, (1, None))
    if cells != HISTORY_HEADER.split(","):
        raise ParseError(no, f"expected header {HISTORY_HEADER!r}")
    out = []
    for no, cells in records:
        if len(cells) != 6:
            raise ParseError(no, f"expected 6 cells, got {len(cells)}")
        out.append(HistoryRow(_parse_int(cells[0], no), *[
            None if i in (2, 4, 5) and cells[i] == "" else _parse_float(cells[i], no)
            for i in range(1, 6)]))
    return out


def gen_example1() -> SymMatrix:
    """The 11x11 demonstration matrix: diagonal 1..11, off-diagonal 1/121,
    except 1/100 in row/column 6."""
    a = np.full((11, 11), 1.0 / 121.0)
    a[5, :] = 1.0 / 100.0
    a[:, 5] = 1.0 / 100.0
    np.fill_diagonal(a, np.arange(1.0, 12.0))
    return SymMatrix._wrap(a)


def gen_diag_rank1(n: int) -> SymMatrix:
    """Diagonal-plus-rank-one family on a uniform grid.

    A = diag(1 + x_i) + (1/n) u u^T with x_i = i/(n+1) and
    u_i = sin(sqrt(2) pi x_i). Positive definite and row-sum diagonally
    dominant; the spectrum has tight relative gaps at the low end and wide
    ones at the top.
    """
    if not _is_int(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    x = np.arange(1, n + 1) / (n + 1)
    u = np.sin(math.sqrt(2.0) * math.pi * x)
    a = np.outer(u, u)  # u_i u_j and u_j u_i are one product
    a /= n
    np.fill_diagonal(a, a.diagonal() + 1.0 + x)
    return SymMatrix._wrap(a)


def gen_random_dd(n: int, alpha_target: float, seed: int) -> SymMatrix:
    """Scaled diagonally dominant random matrix with alpha pinned.

    Diagonal 1..n; off-diagonal uniform(-1, 1) symmetrized, then rescaled so
    the off-norm of the scaled view equals ``alpha_target`` (exact up to
    rounding, well within 1e-12). Deterministic per seed.
    """
    if not _is_int(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not 0.0 < alpha_target < 1.0:
        raise ValueError("alpha_target must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    # The upper triangle mirrored has the bits of triu(a, 1) + triu(a, 1).T:
    # x + 0.0 is x for every draw, as -1 + 2u is never -0.0.
    for i in range(1, n):
        a[i, :i] = a[:i, i]
    d = np.arange(1.0, n + 1.0)
    np.fill_diagonal(a, d)
    a *= alpha_target / alpha(a)  # finite: nonzero draws are at least 2**-52
    np.fill_diagonal(a, d)
    return SymMatrix._wrap(a)
