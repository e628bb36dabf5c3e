import math

import numpy as np
import pytest
from conftest import peak_matrices

import ddjacobi.io as dio
from ddjacobi.diagnostics import alpha
from ddjacobi import (
    AsymmetricInput,
    NotSymmetric,
    ParseError,
    SweepRecord,
    SymMatrix,
    UnsupportedField,
    as_symmatrix,
)


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestReadMatrixMarket:
    def test_coordinate_real_symmetric(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "% a comment",
            "3 3 4",
            "1 1 2.5",
            "",
            "2 1 -0.125",
            "3 3 1e2",
            "3 2 0.75",
        ]) + "\n")
        A = dio.read_matrix_market(p)
        expect = np.array([[2.5, -0.125, 0.0],
                           [-0.125, 0.0, 0.75],
                           [0.0, 0.75, 100.0]])
        assert np.array_equal(A.to_array(), expect)

    def test_header_is_case_insensitive(self, tmp_path):
        p = put(tmp_path, "a.mtx",
                "%%matrixmarket MATRIX Coordinate Real Symmetric\n2 2 1\n1 1 3.0\n")
        assert dio.read_matrix_market(p).a[0, 0] == 3.0

    def test_coordinate_integer(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate integer symmetric",
            "2 2 2",
            "1 1 4",
            "2 1 -7",
        ]) + "\n")
        A = dio.read_matrix_market(p)
        assert np.array_equal(A.to_array(), [[4.0, -7.0], [-7.0, 0.0]])

    def test_coordinate_pattern(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate pattern symmetric",
            "3 3 2",
            "2 1",
            "3 3",
        ]) + "\n")
        A = dio.read_matrix_market(p)
        expect = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(A.to_array(), expect)

    def test_coordinate_general_numerically_symmetric(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate real general",
            "2 2 4",
            "1 1 1.0",
            "1 2 0.5",
            "2 1 0.5",
            "2 2 2.0",
        ]) + "\n")
        A = dio.read_matrix_market(p)
        assert np.array_equal(A.to_array(), [[1.0, 0.5], [0.5, 2.0]])

    def test_array_real_general_is_column_major(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix array real general",
            "2 2",
            "1.0",
            "3.0",
            "3.0",
            "4.0",
        ]) + "\n")
        A = dio.read_matrix_market(p)
        assert np.array_equal(A.to_array(), [[1.0, 3.0], [3.0, 4.0]])

    def test_array_real_symmetric_lower_triangle(self, tmp_path):
        # columns of the lower triangle: (1,1) (2,1) (3,1) (2,2) (3,2) (3,3)
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix array real symmetric",
            "3 3",
            "1.0 0.25",
            "0.5",
            "2.0 -1.0",
            "3.0",
        ]) + "\n")
        A = dio.read_matrix_market(p)
        expect = np.array([[1.0, 0.25, 0.5],
                           [0.25, 2.0, -1.0],
                           [0.5, -1.0, 3.0]])
        assert np.array_equal(A.to_array(), expect)

    def test_array_bodies_place_every_value(self, tmp_path):
        # Order 4, values 1..10 down the columns of the lower triangle,
        # spread unevenly over the lines and mixed with a comment.
        p = put(tmp_path, "s.mtx", "\n".join([
            "%%MatrixMarket matrix array real symmetric",
            "4 4",
            "1 2 3",
            "% comment",
            "4",
            "5 6 7 8",
            "9",
            "-10",
        ]) + "\n")
        sym = np.array([[1.0, 2.0, 3.0, 4.0],
                        [2.0, 5.0, 6.0, 7.0],
                        [3.0, 6.0, 8.0, 9.0],
                        [4.0, 7.0, 9.0, -10.0]])
        A = dio.read_matrix_market(p)
        assert np.array_equal(A.to_array(), sym)
        assert A.a.flags.c_contiguous
        # The same matrix stored in full, column by column.
        g = put(tmp_path, "g.mtx", "%%MatrixMarket matrix array real general\n4 4\n"
                + "\n".join(repr(float(x)) for x in sym.T.ravel()) + "\n")
        G = dio.read_matrix_market(g)
        assert np.array_equal(G.to_array(), sym)
        assert G.a.flags.c_contiguous

    def test_zero_nnz(self, tmp_path):
        p = put(tmp_path, "a.mtx",
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 0\n")
        assert np.array_equal(dio.read_matrix_market(p).to_array(), np.zeros((2, 2)))


class TestMatrixMarketErrors:
    def test_empty_file(self, tmp_path):
        p = put(tmp_path, "a.mtx", "")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 1

    @pytest.mark.parametrize("header", [
        "not a banner",
        "%%MatrixMarket matrix coordinate real",
        "%%MatrixMarket tensor coordinate real symmetric",
        "%%MatrixMarket matrix sparse real symmetric",
        "%%MatrixMarket matrix array pattern symmetric",
    ])
    def test_bad_headers(self, tmp_path, header):
        p = put(tmp_path, "a.mtx", header + "\n2 2 1\n1 1 1.0\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 1

    @pytest.mark.parametrize("header", [
        "%%MatrixMarket matrix coordinate complex symmetric",
        "%%MatrixMarket matrix coordinate real hermitian",
        "%%MatrixMarket matrix coordinate real skew-symmetric",
    ])
    def test_unsupported_variants(self, tmp_path, header):
        p = put(tmp_path, "a.mtx", header + "\n2 2 1\n1 1 1.0\n")
        with pytest.raises(UnsupportedField):
            dio.read_matrix_market(p)

    def test_missing_size_line(self, tmp_path):
        p = put(tmp_path, "a.mtx",
                "%%MatrixMarket matrix coordinate real symmetric\n% only comments\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 2

    def test_bad_size_lines(self, tmp_path):
        p = put(tmp_path, "a.mtx",
                "%%MatrixMarket matrix coordinate real symmetric\n3 3\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 2
        p = put(tmp_path, "b.mtx",
                "%%MatrixMarket matrix array real general\n2 2 4\n")
        with pytest.raises(ParseError):
            dio.read_matrix_market(p)

    def test_not_square(self, tmp_path):
        p = put(tmp_path, "a.mtx",
                "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n")
        with pytest.raises(NotSymmetric):
            dio.read_matrix_market(p)

    def test_zero_order(self, tmp_path):
        p = put(tmp_path, "a.mtx",
                "%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n")
        with pytest.raises(ParseError):
            dio.read_matrix_market(p)

    @pytest.mark.parametrize("body,msgpart", [
        ("coordinate real symmetric\n100000000 100000000 5\n1 1 1.0", "expected 5 entries"),
        ("coordinate real symmetric\n100000000 100000000 1\n1 1 1.0", "too large to allocate"),
        ("array real symmetric\n100000000 100000000\n1.0", "values, found 1"),
    ], ids=["count", "unallocatable", "array-count"])
    def test_huge_order_fails_on_the_size_line(self, tmp_path, body, msgpart):
        p = put(tmp_path, "a.mtx", "%%MatrixMarket matrix " + body + "\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 2
        assert msgpart in str(exc.value)

    def test_nnz_mismatch(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "2 2 2",
            "1 1 1.0",
        ]) + "\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 2

    def test_entry_errors_carry_file_line_numbers(self, tmp_path):
        # the bad entry sits on line 5, after an interleaved comment
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "2 2 2",
            "1 1 1.0",
            "% interleaved",
            "2 1 oops",
        ]) + "\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 5
        assert "oops" in str(exc.value)

    @pytest.mark.parametrize("entry,msgpart", [
        ("1 1 1.0 9.9", "fields"),
        ("1 x 1.0", "integer"),
        ("9 1 1.0", "range"),
        ("0 1 1.0", "range"),
        ("99999999999999999999 1 1.0", "out of range"),
        ("1 2 1.0", "above the diagonal"),
        ("1 1 nan", "non-finite"),
        ("1 1 inf", "non-finite"),
    ])
    def test_bad_entries(self, tmp_path, entry, msgpart):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "2 2 1",
            entry,
        ]) + "\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 3
        assert msgpart in str(exc.value)

    def test_duplicate_entry(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "2 2 2",
            "2 1 1.0",
            "2 1 3.0",
        ]) + "\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 4

    def test_array_value_count_mismatch(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix array real symmetric",
            "2 2",
            "1.0 0.5",
        ]) + "\n")
        with pytest.raises(ParseError):
            dio.read_matrix_market(p)

    def test_array_bad_value_reports_its_line(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix array real general",
            "2 2",
            "1.0 3.0",
            "3.0 x",
        ]) + "\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == 4

    def test_general_asymmetric_rejected(self, tmp_path):
        p = put(tmp_path, "a.mtx", "\n".join([
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 2 0.5",
            "2 1 0.6",
        ]) + "\n")
        with pytest.raises(NotSymmetric):
            dio.read_matrix_market(p)

    @staticmethod
    def past_the_first_chunk(tmp_path, bad=None):
        """random-dd(400) as the writer writes it, with a comment, an empty, a
        whitespace-only and an indented line put in past the reader's first
        chunk (32 * 4096 characters, completed to its line), 6000 lines apart
        so that no two share a chunk; ``bad`` changes the entry after the
        indented one. Returns the matrix, the file and that entry's line."""
        A = dio.gen_random_dd(400, 0.005, 1)
        dio.write_matrix_market(tmp_path / "a.mtx", A)
        text = (tmp_path / "a.mtx").read_text(encoding="utf-8")
        lines = text.splitlines()
        first = text[:32 * 4096].count("\n") + 1  # the first chunk's lines
        for at, filler in zip(range(first, first + 24000, 6000),
                              ["% a comment", "", " \t ", None]):
            assert len("\n".join(lines[at - 6000:at])) > 33 * 4096 or at == first
            if filler is None:
                lines[at] = "   " + lines[at]
            else:
                lines.insert(at, filler)
        if bad is not None:
            lines[at + 1] = bad(lines[at + 1])
        (tmp_path / "b.mtx").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return A, tmp_path / "b.mtx", at + 2

    def test_filler_lines_past_the_first_chunk(self, tmp_path):
        A, p, _ = self.past_the_first_chunk(tmp_path)
        assert dio.read_matrix_market(p).a.tobytes() == A.a.tobytes()

    @pytest.mark.parametrize("bad,msg", [
        (lambda line: line.rsplit(" ", 1)[0] + " oops", "bad number 'oops'"),
        (lambda line: "401 1 1.0", "index (401, 1) out of range"),
    ], ids=["value", "index"])
    def test_bad_entry_past_the_first_chunk_names_its_line(self, tmp_path, bad, msg):
        _, p, no = self.past_the_first_chunk(tmp_path, bad)
        line = p.read_text(encoding="utf-8").splitlines()[no - 1]
        assert line == "401 1 1.0" or line.endswith(" oops")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix_market(p)
        assert exc.value.line == no
        assert str(exc.value) == f"line {no}: {msg}"


class TestWriteMatrixMarket:
    def test_round_trip_is_bit_exact(self, tmp_path):
        A = dio.gen_random_dd(9, 0.3, seed=2)
        p = tmp_path / "rt.mtx"
        dio.write_matrix_market(p, A)
        B = dio.read_matrix_market(p)
        assert np.array_equal(A.to_array(), B.to_array())

    def test_example_matrix_round_trip(self, tmp_path):
        A = dio.gen_example1()
        p = tmp_path / "rt.mtx"
        dio.write_matrix_market(p, A)
        assert np.array_equal(dio.read_matrix_market(p).to_array(), A.to_array())

    def test_zeros_are_dropped(self, tmp_path):
        a = np.array([[1.0, 0.0, 0.25],
                      [0.0, 2.0, 0.0],
                      [0.25, 0.0, 0.0]])
        p = tmp_path / "z.mtx"
        dio.write_matrix_market(p, a)  # plain ndarray accepted
        lines = p.read_text().splitlines()
        assert lines[1] == "3 3 3"
        assert np.array_equal(dio.read_matrix_market(p).to_array(), a)

    def test_nonfinite_array_is_rejected_before_writing(self, tmp_path):
        # It used to write "2 1 nan", which the reader rejects.
        p = tmp_path / "nan.mtx"
        with pytest.raises(ValueError, match="finite"):
            dio.write_matrix_market(p, np.array([[1.0, np.nan], [np.nan, 2.0]]))
        assert not p.exists()

    def test_asymmetric_array_is_rejected_before_writing(self, tmp_path):
        # It used to keep the lower triangle: [[1, 5], [-5, 2]] read back
        # as [[1, -5], [-5, 2]].
        p = tmp_path / "asym.mtx"
        with pytest.raises(AsymmetricInput):
            dio.write_matrix_market(p, np.array([[1.0, 5.0], [-5.0, 2.0]]))
        assert not p.exists()

    def test_empty_matrix_body(self, tmp_path):
        p = tmp_path / "one.mtx"
        dio.write_matrix_market(p, np.array([[0.0]]))
        assert np.array_equal(dio.read_matrix_market(p).to_array(), [[0.0]])

    def test_bytes_are_the_nonzero_lower_entries_by_rows(self, tmp_path):
        # Row 2 holds only its diagonal, row 3 nothing, rows 4 and 5 signed
        # zeros and the extremes; random-dd(40)'s rows are full.
        a = np.zeros((45, 45))
        a[:5, :5] = [[1.5, 0.0, 0.0, -0.0, 0.25],
                     [0.0, 3.0, 0.0, 5e-324, -0.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0],
                     [-0.0, 5e-324, 0.0, 1e308, -1e308],
                     [0.25, -0.0, 0.0, -1e308, -5e-324]]
        a[5:, 5:] = dio.gen_random_dd(40, 0.3, 4).a
        a[9, 6] = a[6, 9] = -0.0
        rows = a.tolist()
        body = [f"{i + 1} {j + 1} {rows[i][j]!r}\n" for i in range(45)
                for j in range(i + 1) if rows[i][j] != 0.0]
        dio.write_matrix_market(tmp_path / "w.mtx", a)
        assert (tmp_path / "w.mtx").read_bytes() == (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            f"45 45 {len(body)}\n" + "".join(body)).encode("ascii")
        assert body[:3] == ["1 1 1.5\n", "2 2 3.0\n", "4 2 5e-324\n"]


class TestReadMatrixCsv:
    def test_square_grid(self, tmp_path):
        p = put(tmp_path, "m.csv", "1.0, 0.5\n0.5, 2.0\n")
        A = dio.read_matrix(p)
        assert isinstance(A, SymMatrix)
        assert np.array_equal(A.to_array(), [[1.0, 0.5], [0.5, 2.0]])

    def test_uppercase_extension_and_blank_lines(self, tmp_path):
        p = put(tmp_path, "m.CSV", "\n1.0,0.0\n\n0.0,1.0\n\n")
        assert np.array_equal(dio.read_matrix(p).to_array(), np.eye(2))

    def test_tiny_asymmetry_is_averaged(self, tmp_path):
        p = put(tmp_path, "m.csv", "1.0,0.5\n0.5000000000000001,2.0\n")
        A = dio.read_matrix(p)
        assert A.a[0, 1] == A.a[1, 0]

    def test_asymmetric_rejected(self, tmp_path):
        p = put(tmp_path, "m.csv", "1.0,0.5\n0.6,2.0\n")
        with pytest.raises(NotSymmetric):
            dio.read_matrix(p)

    def test_non_square_rejected(self, tmp_path):
        p = put(tmp_path, "m.csv", "1.0,0.5,0.0\n0.5,2.0,0.0\n")
        with pytest.raises(NotSymmetric):
            dio.read_matrix(p)

    def test_ragged_rows(self, tmp_path):
        p = put(tmp_path, "m.csv", "1.0,0.5\n0.5\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix(p)
        assert exc.value.line == 2

    def test_bad_cell(self, tmp_path):
        p = put(tmp_path, "m.csv", "1.0,0.5\n0.5,x\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix(p)
        assert exc.value.line == 2

    def test_empty(self, tmp_path):
        p = put(tmp_path, "m.csv", "")
        with pytest.raises(ParseError):
            dio.read_matrix(p)

    def test_first_offending_row_is_reported(self, tmp_path):
        # A bad cell on line 2 comes before a ragged row on line 3.
        p = put(tmp_path, "m.csv", "1.0,0.5,0.0\n0.5,x,0.0\n0.0,0.0\n")
        with pytest.raises(ParseError) as exc:
            dio.read_matrix(p)
        assert exc.value.line == 2

    def test_lines_count_inside_a_quoted_cell(self, tmp_path):
        # The quoted cell spans lines 1-2, so the bad cell is on line 3.
        p = put(tmp_path, "m.csv", '1.0,"0.5\n"\n0.5,x\n')
        with pytest.raises(ParseError, match=r"^line 3: bad number 'x'$"):
            dio.read_matrix(p)

    def test_same_symmetry_rule_as_arrays(self, tmp_path):
        # Asymmetry 5e-15 lies above 4*eps*max|a_ij| (~9e-16) but below
        # 4*eps*||A||_F (~9e-15): arrays and files must both reject it.
        a = np.full((100, 100), 0.01)
        np.fill_diagonal(a, 1.01)
        a[0, 1] += 5e-15
        with pytest.raises(AsymmetricInput):
            as_symmatrix(a)
        p = put(tmp_path, "m.csv",
                "\n".join(",".join(repr(float(x)) for x in row) for row in a))
        with pytest.raises(NotSymmetric):
            dio.read_matrix(p)

    def test_graded_asymmetry_judged_in_scaled_units(self, tmp_path):
        # |a_12 - a_21| = 2e-4 is below 4*eps*max|a_ij| (~9e-4), but in the
        # scaled matrix that entry is +100 against -100.
        a = np.diag([1e12, 1.0, 1e-12])
        a[1, 2], a[2, 1] = 1e-4, -1e-4
        with pytest.raises(AsymmetricInput):
            as_symmatrix(a)
        p = put(tmp_path, "m.csv",
                "\n".join(",".join(repr(float(x)) for x in row) for row in a))
        with pytest.raises(NotSymmetric):
            dio.read_matrix(p)
        # One ulp (~2e-22) is within 4*eps*sqrt|a_22*a_33| (~9e-22): averaged.
        a[1, 2], a[2, 1] = np.nextafter(1e-6, 1.0), 1e-6
        b = as_symmatrix(a).a
        assert b[1, 2] == b[2, 1] == 0.5 * (a[1, 2] + a[2, 1])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = put(tmp_path, "m.csv", "\ufeff2.0,0.5\n0.5,1.0\n")
        assert np.array_equal(dio.read_matrix(p).a, [[2.0, 0.5], [0.5, 1.0]])

    def test_reader_holds_under_two_and_a_half_matrices(self, tmp_path):
        # Each record is converted before the next is read, so the cells'
        # strings never outnumber one row.
        n = 400
        a = dio.gen_random_dd(n, 0.005, 1).a
        p = put(tmp_path, "m.csv", "\n".join(",".join(map(repr, r)) for r in a.tolist()))
        assert dio.read_matrix(p).a.tobytes() == a.tobytes()
        assert peak_matrices(lambda: dio.read_matrix(p), n) < 2.5

    def test_non_csv_extension_goes_to_matrix_market(self, tmp_path):
        p = put(tmp_path, "m.txt",
                "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 5.0\n")
        assert dio.read_matrix(p).a[0, 0] == 5.0


class TestReadPointsCsv:
    def test_with_header(self, tmp_path):
        p = put(tmp_path, "pts.csv", "x,y\n0.0,1.0\n2.0,3.5\n")
        pc = dio.read_points_csv(p)
        assert np.array_equal(pc.points, [[0.0, 1.0], [2.0, 3.5]])

    def test_without_header(self, tmp_path):
        p = put(tmp_path, "pts.csv", "0.0,1.0\n2.0,3.5\n-1.0,0.25\n")
        pc = dio.read_points_csv(p)
        assert pc.points.shape == (3, 2)
        assert pc.points[2, 0] == -1.0

    def test_header_only(self, tmp_path):
        p = put(tmp_path, "pts.csv", "x,y\n")
        with pytest.raises(ParseError):
            dio.read_points_csv(p)

    def test_empty(self, tmp_path):
        p = put(tmp_path, "pts.csv", "")
        with pytest.raises(ParseError):
            dio.read_points_csv(p)

    def test_ragged(self, tmp_path):
        p = put(tmp_path, "pts.csv", "x,y\n0.0,1.0\n2.0\n")
        with pytest.raises(ParseError) as exc:
            dio.read_points_csv(p)
        assert exc.value.line == 3

    def test_bad_value_mid_file(self, tmp_path):
        p = put(tmp_path, "pts.csv", "0.0,1.0\n2.0,oops\n")
        with pytest.raises(ParseError) as exc:
            dio.read_points_csv(p)
        assert exc.value.line == 2

    def test_first_offending_row_is_reported(self, tmp_path):
        p = put(tmp_path, "pts.csv", "0.0,1.0\n2.0,oops\n3.0\n")
        with pytest.raises(ParseError) as exc:
            dio.read_points_csv(p)
        assert exc.value.line == 2

    def test_lines_count_inside_a_quoted_cell(self, tmp_path):
        p = put(tmp_path, "pts.csv", '1.0,"0.5\n"\n0.5,x\n')
        with pytest.raises(ParseError, match=r"^line 3: bad number 'x'$"):
            dio.read_points_csv(p)

    def test_byte_order_mark_does_not_make_a_header(self, tmp_path):
        p = put(tmp_path, "pts.csv", "\ufeff1,2\n3,4\n5,6\n")
        assert np.array_equal(dio.read_points_csv(p).points, [[1, 2], [3, 4], [5, 6]])


class TestHistoryCsv:
    def rows(self):
        return [
            dio.HistoryRow(sweep=0, off_row_m=0.123456789012345e-3,
                           off_total=1.0 / 3.0, a_mm=2.0,
                           alpha=0.25, err_vs_ref=None),
            dio.HistoryRow(sweep=1, off_row_m=5e-9, off_total=0.1,
                           a_mm=2.0000001, alpha=None, err_vs_ref=1e-12),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "h.csv"
        dio.write_history_csv(p, self.rows())
        back = dio.read_history_csv(p)
        assert back == self.rows()
        # Blank lines between and after the rows are skipped.
        lines = p.read_text().splitlines()
        p.write_text("\n".join([lines[0], lines[1], "", "  ", lines[2], ""]) + "\n")
        assert dio.read_history_csv(p) == self.rows()

    def test_header_line(self, tmp_path):
        p = tmp_path / "h.csv"
        dio.write_history_csv(p, [])
        assert p.read_text().splitlines()[0] == dio.HISTORY_HEADER

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        dio.write_history_csv(p, self.rows())
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        assert dio.read_history_csv(p) == self.rows()

    def test_wrong_header_rejected(self, tmp_path):
        p = put(tmp_path, "h.csv", "sweep,resid\n0,1.0\n")
        with pytest.raises(ParseError) as exc:
            dio.read_history_csv(p)
        assert exc.value.line == 1

    def test_wrong_cell_count(self, tmp_path):
        p = put(tmp_path, "h.csv", dio.HISTORY_HEADER + "\n0,1.0,2.0\n")
        with pytest.raises(ParseError) as exc:
            dio.read_history_csv(p)
        assert exc.value.line == 2

    def test_bad_cells(self, tmp_path):
        p = put(tmp_path, "h.csv", dio.HISTORY_HEADER + "\nzero,1.0,2.0,3.0,,\n")
        with pytest.raises(ParseError):
            dio.read_history_csv(p)

    def test_empty_off_total_reads_as_none(self, tmp_path):
        # A record between a solve's first and last keeps no n x n norms.
        p = put(tmp_path, "h.csv", dio.HISTORY_HEADER + "\n1,0.5,,2.0,,\n")
        assert dio.read_history_csv(p) == [dio.HistoryRow(
            sweep=1, off_row_m=0.5, off_total=None, a_mm=2.0, alpha=None, err_vs_ref=None)]

    @pytest.mark.parametrize("text", [
        "\n  \n" + dio.HISTORY_HEADER + "\n0,0.5,0.25,2.0,,\n",
        dio.HISTORY_HEADER + '\n"0",0.5,"0.25",2.0,"",\n',
        dio.HISTORY_HEADER + "\n0,0.5,0.25,2.0, ,\t\n",
    ], ids=["blank-lines-before-header", "quoted-cells", "whitespace-only-optional-cells"])
    def test_read_as_the_other_csv_readers_read(self, tmp_path, text):
        # The points and grid readers' dialect: blank records are skipped
        # wherever they are, quotes are CSV quoting, and cells are stripped,
        # so a whitespace-only optional cell is empty and reads as None.
        assert dio.read_history_csv(put(tmp_path, "h.csv", text)) == [dio.HistoryRow(
            sweep=0, off_row_m=0.5, off_total=0.25, a_mm=2.0, alpha=None, err_vs_ref=None)]

    def test_errors_name_the_line_past_blank_lines(self, tmp_path):
        p = put(tmp_path, "h.csv", "\n" + dio.HISTORY_HEADER + "\n\n0,0.5,0.25\n")
        with pytest.raises(ParseError) as exc:
            dio.read_history_csv(p)
        assert exc.value.line == 4
        p = put(tmp_path, "h.csv", "\n\nsweep,resid\n")
        with pytest.raises(ParseError) as exc:
            dio.read_history_csv(p)
        assert exc.value.line == 3

    def test_from_record(self):
        rec = SweepRecord(sweep=3, off_row_m=1e-4, off_total=2e-3, a_mm=5.5,
                          alpha=0.1, off_row_h=0.05, rotations_applied=7)
        row = dio.HistoryRow.from_record(rec, err_vs_ref=1e-8)
        assert row == dio.HistoryRow(sweep=3, off_row_m=1e-4, off_total=2e-3,
                                     a_mm=5.5, alpha=0.1, err_vs_ref=1e-8)


def random_dd_reference(n, alpha_target, seed):
    """gen_random_dd as it was built through np.triu and the strict
    constructor's copy, kept as the reference for its bits."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    off = upper + upper.T
    d = np.arange(1.0, n + 1.0)
    a = off * (alpha_target / alpha(off + np.diag(d)))
    np.fill_diagonal(a, d)
    return SymMatrix(a).a


def diag_rank1_reference(n):
    """gen_diag_rank1 as it was built through a divided copy and the strict
    constructor's copy, kept as the reference for its bits."""
    x = np.arange(1, n + 1) / (n + 1)
    u = np.sin(math.sqrt(2.0) * math.pi * x)
    a = np.outer(u, u) / n
    np.fill_diagonal(a, a.diagonal() + 1.0 + x)
    return SymMatrix(a).a


class TestGenerators:
    def test_example_matrix_layout(self):
        A = dio.gen_example1().to_array()
        assert A.shape == (11, 11)
        assert np.array_equal(A.diagonal(), np.arange(1.0, 12.0))
        assert A[0, 1] == 1.0 / 121.0
        assert A[10, 2] == 1.0 / 121.0
        assert A[5, 2] == 1.0 / 100.0
        assert A[2, 5] == 1.0 / 100.0
        assert np.array_equal(A, A.T)

    @pytest.mark.parametrize("n", [15, 127])
    def test_diag_rank_one_family(self, n):
        A = dio.gen_diag_rank1(n).to_array()
        x = np.arange(1, n + 1) / (n + 1)
        u = np.sin(np.sqrt(2.0) * np.pi * x)
        assert A[0, 1] == u[0] * u[1] / n
        assert A[3, 3] == 1.0 + x[3] + u[3] * u[3] / n
        # positive definite and row-sum diagonally dominant
        assert np.linalg.eigvalsh(A).min() > 0.0
        off_rowsum = np.abs(A).sum(axis=1) - np.abs(A.diagonal())
        assert np.all(A.diagonal() > off_rowsum)

    def test_diag_rank_one_needs_two(self):
        with pytest.raises(ValueError):
            dio.gen_diag_rank1(1)
        for n in (3.5, 4.0, True):  # 3.5 gave a 4 x 4 matrix on the grid i/4.5
            with pytest.raises(ValueError):
                dio.gen_diag_rank1(n)

    def test_random_dd_diag_and_alpha(self):
        n = 12
        A = dio.gen_random_dd(n, 0.25, seed=7).to_array()
        d = np.arange(1.0, n + 1.0)
        assert np.array_equal(A.diagonal(), d)
        off = A - np.diag(d)
        got = float(np.linalg.norm(off / np.sqrt(np.outer(d, d))))
        assert got == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_dd_bits_of_the_triu_build(self, seed):
        for n in range(2, 102):
            for target in (0.005, 0.5):
                want = random_dd_reference(n, target, seed)
                assert dio.gen_random_dd(n, target, seed).a.tobytes() == want.tobytes()

    def test_diag_rank_one_bits_of_the_copying_build(self):
        for n in range(2, 102):
            assert dio.gen_diag_rank1(n).a.tobytes() == diag_rank1_reference(n).tobytes()

    def test_generators_hold_their_one_matrix(self):
        # gen_random_dd adds alpha's scaled copy to its own.
        n = 400
        assert peak_matrices(lambda: dio.gen_random_dd(n, 0.005, 1), n) < 2.5
        assert peak_matrices(lambda: dio.gen_diag_rank1(n), n) < 1.5

    def test_random_dd_deterministic(self):
        a = dio.gen_random_dd(8, 0.1, seed=3).to_array()
        b = dio.gen_random_dd(8, 0.1, seed=3).to_array()
        c = dio.gen_random_dd(8, 0.1, seed=4).to_array()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n,alpha", [(1, 0.1), (5, 0.0), (5, 1.0), (5, -0.2),
                                         (4.0, 0.1), (3.5, 0.1), (True, 0.1)])
    def test_random_dd_validation(self, n, alpha):
        with pytest.raises(ValueError):
            dio.gen_random_dd(n, alpha, seed=0)


class TestMatrixMarketMemory:
    """Beyond the n x n matrix (8 n^2 bytes) and the reader's n^2-byte mask
    of placed entries, each path holds a few thousand lines at a time."""

    N = 400

    def test_writer_holds_under_one_matrix(self, tmp_path):
        A = dio.gen_random_dd(self.N, 0.005, 1)
        peak = peak_matrices(lambda: dio.write_matrix_market(tmp_path / "a.mtx", A), self.N)
        assert peak < 1.0

    def test_reader_holds_under_three_matrices(self, tmp_path):
        A = dio.gen_random_dd(self.N, 0.005, 1)
        dio.write_matrix_market(tmp_path / "a.mtx", A)
        peak = peak_matrices(lambda: dio.read_matrix_market(tmp_path / "a.mtx"), self.N)
        assert peak < 3.0

    # Array values are placed as they are parsed, and a general file's matrix
    # is checked for symmetry and averaged in place, in one pass by blocks of rows.
    @pytest.mark.parametrize("fmt,symmetry,matrices", [
        ("array", "symmetric", 2.5), ("coordinate", "general", 2.5),
        ("array", "general", 2.5)])
    def test_reader_peaks_by_format(self, tmp_path, fmt, symmetry, matrices):
        n, a = self.N, dio.gen_random_dd(self.N, 0.005, 1).a
        if fmt == "array":  # column-major values, the lower triangle's if symmetric
            vals = a.T[np.triu_indices(n)] if symmetry == "symmetric" else a.T.ravel()
            body = [f"{n} {n}", *map(repr, vals.tolist())]
        else:  # all n^2 entries
            i, j = np.indices((n, n)).reshape(2, -1).tolist()
            body = [f"{n} {n} {n * n}", *(f"{p + 1} {q + 1} {v!r}" for p, q, v
                                          in zip(i, j, a.ravel().tolist()))]
        path = tmp_path / "a.mtx"
        path.write_text("\n".join([f"%%MatrixMarket matrix {fmt} real {symmetry}", *body]))
        assert dio.read_matrix_market(path).a.tobytes() == a.tobytes()
        assert peak_matrices(lambda: dio.read_matrix_market(path), n) < matrices
