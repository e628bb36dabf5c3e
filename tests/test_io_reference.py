"""The bulk Matrix Market and CSV-grid readers and the bulk writer against
their former per-entry versions, kept here as the reference: the same
matrix, or the same exception type, line and message, and the same bytes."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddjacobi.io as dio
from ddjacobi import AsymmetricInput, NotSymmetric, ParseError, SymMatrix, UnsupportedField


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


def reference_read(path) -> SymMatrix:
    """The per-entry Matrix Market reader."""
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
            upper = np.triu_indices(n)
            a[upper] = vals
            a.T[upper] = vals
        else:
            a[:] = np.reshape(vals, (n, n)).T

    if symkind == "general":
        try:
            return SymMatrix.symmetrized(a)
        except AsymmetricInput as exc:
            raise NotSymmetric("general file is not numerically symmetric") from exc
    return SymMatrix(a)


def reference_write(path, A) -> None:
    """The per-entry Matrix Market writer."""
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


def reference_grid(rows) -> np.ndarray:
    """The per-cell CSV grid parser."""
    if not rows:
        raise ParseError(1, "no data rows")
    width = len(rows[0][1])
    grid = []
    for no, cells in rows:
        if len(cells) != width:
            raise ParseError(no, f"expected {width} columns, got {len(cells)}")
        grid.append([_parse_float(c, no) for c in cells])
    return np.asarray(grid)


def outcome(parse, *args):
    """What a parser makes of its input: the bytes of the result, or the
    exception's type, line and message."""
    try:
        out = parse(*args)
    except (ParseError, NotSymmetric, UnsupportedField) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    a = out.a if isinstance(out, SymMatrix) else out
    return a.shape, a.tobytes()


VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers(-9, 9).map(str))
BAD_INTS = ["x", "1.5", "1e0", "--1", "0x1"]
BAD_FLOATS = ["oops", "1.2.3", "0x10", "1e", "--1"]
NON_FINITE = ["nan", "inf", "-inf", "Infinity", "NaN", "1e999"]
FILLERS = ["", "   ", "% note", "  % indented note", "%"]


@st.composite
def mtx_texts(draw):
    """A small valid Matrix Market file, then a few corruptions, each at a
    random line: wrong field counts, bad integers and numbers, indices out of
    range or above the diagonal, duplicates, non-finite values, and comment
    and blank lines in between."""
    fmt = draw(st.sampled_from(["coordinate", "array"]))
    kinds = ["real", "integer", "pattern"] if fmt == "coordinate" else ["real", "integer"]
    field = draw(st.sampled_from(kinds))
    sym = draw(st.sampled_from(["symmetric", "general"]))
    n = draw(st.integers(1, 4))
    pair = {(i, j): draw(VALUES) for i in range(1, n + 1) for j in range(1, i + 1)}
    value = {(i, j): pair[max(i, j), min(i, j)]
             for i in range(1, n + 1) for j in range(1, n + 1)}
    if fmt == "coordinate":
        cells = [c for c in value if sym == "general" or c[1] <= c[0]]
        chosen = draw(st.permutations(cells))[:draw(st.integers(0, len(cells)))]
        rows = [[str(i), str(j)] + ([] if field == "pattern" else [value[i, j]])
                for i, j in chosen]
    else:
        order = [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)
                 if sym == "general" or i >= j]
        toks = [value[c] for c in order]
        rows = []
        while toks:
            k = draw(st.integers(1, 3))
            rows.append(toks[:k])
            toks = toks[k:]

    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        row = list(rows[r])
        kind = draw(st.sampled_from(["fields", "int", "float", "range", "above",
                                     "dup", "nonfinite"]))
        col = draw(st.integers(0, len(row) - 1))
        if kind == "fields":
            if draw(st.booleans()) and len(row) > 1:
                del row[col]
            else:
                row.insert(col, draw(VALUES))
        elif kind in ("float", "nonfinite") or fmt == "array":
            pool = NON_FINITE if kind == "nonfinite" else BAD_FLOATS
            if fmt == "array":
                row[col] = draw(st.sampled_from(pool))
            elif len(row) > 2:
                row[2] = draw(st.sampled_from(pool))
        elif len(row) < 2:
            pass
        elif kind == "int":
            row[min(col, 1)] = draw(st.sampled_from(BAD_INTS))
        elif kind == "range":
            row[min(col, 1)] = draw(st.sampled_from(
                ["0", "-1", str(n + 1), "99999999999999999999", "-99999999999999999999"]))
        elif kind == "above":
            row[0], row[1] = row[1], row[0]
        else:  # dup
            copy = row[:2] + [draw(VALUES) for _ in row[2:]]
            rows.insert(draw(st.integers(r + 1, len(rows))), copy)
        rows[r] = row

    lines = [" ".join(row) for row in rows]
    count = len(lines) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    size = f"{n} {n} {count}" if fmt == "coordinate" else f"{n} {n}"
    lines.insert(0, size)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLERS)))
    return "\n".join([f"%%MatrixMarket matrix {fmt} {field} {sym}"] + lines) + "\n"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ref") / "a.mtx"


@settings(max_examples=400, deadline=None)
@given(text=mtx_texts(), block=st.sampled_from([1, 2, 3, 4096]))
def test_reader_matches_reference(scratch, text, block):
    scratch.write_text(text, encoding="utf-8")
    with mock.patch.object(dio, "_BLOCK", block):
        got = outcome(dio.read_matrix_market, scratch)
    assert got == outcome(reference_read, scratch)


def test_duplicate_across_blocks_matches_reference(tmp_path):
    # 5000 entries span two blocks; line 4105 repeats the entry of line 10.
    cells = [(i, j) for i in range(1, 101) for j in range(1, 101)][:5000]
    lines = [f"{i} {j} {0.5 if i != j else 2.0}" for i, j in cells]
    lines[4102] = lines[7]
    p = tmp_path / "d.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n100 100 5000\n"
                 + "\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        dio.read_matrix_market(p)
    assert exc.value.line == 4105
    assert outcome(dio.read_matrix_market, p) == outcome(reference_read, p)


CELLS = st.one_of(VALUES, st.sampled_from(BAD_FLOATS + NON_FINITE))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=6),
       gaps=st.lists(st.integers(1, 3), min_size=6, max_size=6))
def test_csv_grid_matches_reference(rows, gaps):
    numbered = list(zip(np.cumsum(gaps[:len(rows)]).tolist(), rows))
    assert outcome(dio._read_grid, numbered) == outcome(reference_grid, numbered)


def _matrices():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 40):
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-300, 300, (n, n))
        a[rng.random((n, n)) < 0.3] = 0.0
        a[rng.random((n, n)) < 0.1] = -0.0
        a[rng.random((n, n)) < 0.1] = 5e-324
        yield a
        yield rng.integers(-3, 4, (n, n)).astype(float)
    yield dio.gen_example1()
    yield dio.gen_random_dd(50, 0.005, 3)
    yield dio.gen_diag_rank1(63)


@pytest.mark.parametrize("k", range(11))
def test_writer_bytes_match_reference(tmp_path, k):
    A = list(_matrices())[k]
    dio.write_matrix_market(tmp_path / "new.mtx", A)
    reference_write(tmp_path / "ref.mtx", A)
    assert (tmp_path / "new.mtx").read_bytes() == (tmp_path / "ref.mtx").read_bytes()


def _valid_files(tmp_path):
    """Valid files of every body kind the bulk checks accept."""
    rng = np.random.default_rng(5)
    out = []
    for name, A in [("example1", dio.gen_example1()),
                    ("random-dd50", dio.gen_random_dd(50, 0.005, 3)),
                    ("drk1-63", dio.gen_diag_rank1(63))]:
        dio.write_matrix_market(tmp_path / f"{name}.mtx", A)
        out.append(tmp_path / f"{name}.mtx")
    cells = [(i, j) for i in range(1, 31) for j in range(1, i + 1) if (i * j) % 3]
    pattern = "\n".join(f"{i} {j}" for i, j in cells)
    a = dio.gen_random_dd(30, 0.05, 7).a.tolist()
    full = [f"{i + 1} {j + 1} {a[i][j]!r}" for i, j in rng.permutation(
        [(i, j) for i in range(30) for j in range(30)])]
    upper = " ".join(repr(a[i][j]) for j in range(30) for i in range(j, 30))
    for name, text in [
            ("pattern", f"coordinate pattern symmetric\n30 30 {len(cells)}\n{pattern}"),
            ("general", "coordinate real general\n% shuffled\n30 30 900\n"
                        + "\n".join(full)),
            ("array", f"array real symmetric\n30 30\n{upper}")]:
        (tmp_path / f"{name}.mtx").write_text(
            f"%%MatrixMarket matrix {text}\n", encoding="utf-8")
        out.append(tmp_path / f"{name}.mtx")
    return out


@contextlib.contextmanager
def per_line():
    """Make every bulk check defer: coordinate blocks go to the per-line
    checks, and float tokens are parsed one at a time. Yields the mock that
    stands in for the bulk test of coordinate blocks."""
    with mock.patch.object(dio, "_bulk_entries", return_value=False) as deferred, \
            mock.patch.object(dio, "_bulk_floats", return_value=None):
        yield deferred


@pytest.mark.parametrize("block", [7, 4096])
def test_per_line_path_reads_valid_files_to_the_same_bytes(tmp_path, block):
    files = _valid_files(tmp_path)
    with mock.patch.object(dio, "_BLOCK", block):
        bulk = [outcome(dio.read_matrix_market, p) for p in files]
        with per_line() as deferred:
            lines = [outcome(dio.read_matrix_market, p) for p in files]
    assert deferred.call_count > 0
    assert lines == bulk == [outcome(reference_read, p) for p in files]
    assert all(not isinstance(o[0], type) for o in bulk)  # every file read
    rows = [(no, [repr(x) for x in row])
            for no, row in enumerate(dio.gen_example1().a.tolist(), start=2)]
    with per_line():
        assert outcome(dio._read_grid, rows) == outcome(reference_grid, rows)


@settings(max_examples=200, deadline=None)
@given(text=mtx_texts(), block=st.sampled_from([1, 2, 3, 4096]))
def test_per_line_reader_matches_reference(scratch, text, block):
    scratch.write_text(text, encoding="utf-8")
    with mock.patch.object(dio, "_BLOCK", block), per_line():
        got = outcome(dio.read_matrix_market, scratch)
    assert got == outcome(reference_read, scratch)


@pytest.mark.parametrize("field, body", [
    ("real", ["1 1 2", "2 2", "3 3 4 1"]),  # as many tokens as three valid lines
    ("pattern", ["1 1 1", "2"]),
    ("real", ["1 1"]),
], ids=["real-shifted", "pattern-shifted", "real-short"])
def test_lines_of_another_width_match_reference(scratch, field, body):
    scratch.write_text(f"%%MatrixMarket matrix coordinate {field} general\n"
                       f"4 4 {len(body)}\n" + "\n".join(body) + "\n", encoding="utf-8")
    got = outcome(dio.read_matrix_market, scratch)
    assert got == outcome(reference_read, scratch)
    assert got[0] is ParseError
