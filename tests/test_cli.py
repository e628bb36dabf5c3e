import gc

import numpy as np
import pytest

import ddjacobi.cli as cli
import ddjacobi.io as dio
import ddjacobi.solver as solver
from ddjacobi import NoConvergence, StepLimit, full_jacobi
from ddjacobi.cli import ExitCode, main
from conftest import rand_sym


def no_snapshot(*args, **kwargs):
    raise AssertionError("a history snapshot was taken without --history")


def kv(capsys):
    """Parse the key=value stdout lines of the last invocation."""
    out = capsys.readouterr().out
    return dict(ln.split("=", 1) for ln in out.strip().splitlines() if "=" in ln)


@pytest.fixture
def dom_mtx(tmp_path):
    """Well-separated diagonally dominant 8x8 instance on disk."""
    p = tmp_path / "dom.mtx"
    dio.write_matrix_market(p, dio.gen_random_dd(8, 0.05, seed=0))
    return p


class TestEig:
    def test_converged(self, dom_mtx, capsys):
        code = main(["eig", "--input", str(dom_mtx), "--m", "1"])
        got = kv(capsys)
        assert code == 0
        assert got["status"] == "Converged"
        w = np.linalg.eigvalsh(dio.read_matrix(dom_mtx).to_array())
        assert float(got["lambda_hat"]) == pytest.approx(w[0], abs=1e-9)
        assert int(got["sweeps"]) >= 1

    def test_vector_output(self, dom_mtx, capsys):
        code = main(["eig", "--input", str(dom_mtx), "--m", "3", "--vector"])
        got = kv(capsys)
        assert code == 0
        v = np.array([float(x) for x in got["vector"].split(",")])
        assert v.shape == (8,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        A = dio.read_matrix(dom_mtx).to_array()
        lam = float(got["lambda_hat"])
        assert np.linalg.norm(A @ v - lam * v) < 1e-7

    def test_history_with_reference_errors(self, dom_mtx, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        code = main(["eig", "--input", str(dom_mtx), "--m", "2",
                     "--history", str(hist), "--ref"])
        assert code == 0
        rows = dio.read_history_csv(hist)
        assert rows[0].sweep == 0
        assert all(r.err_vs_ref is not None for r in rows)
        assert rows[-1].err_vs_ref < 1e-8
        capsys.readouterr()

    def test_reference_spectrum_only_for_a_history(self, dom_mtx, tmp_path,
                                                   monkeypatch, capsys):
        calls, exact = [], cli._exact_values

        def counted(A):
            calls.append(A.n)
            return exact(A)

        argv = ["eig", "--input", str(dom_mtx), "--m", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setattr(cli, "_exact_values", counted)
        assert main(argv + ["--ref"]) == 0
        assert capsys.readouterr().out == plain
        assert calls == []
        assert main(argv + ["--ref", "--history", str(tmp_path / "h.csv")]) == 0
        assert capsys.readouterr().out == plain
        assert calls == [8]

    def test_history_round_trip(self, tmp_path, capsys):
        # drk1(63) takes many sweeps: off_total and alpha cells are empty on
        # every row but the first and last, and each row reads back as written.
        p, hist = tmp_path / "drk1.mtx", tmp_path / "h.csv"
        A = dio.gen_diag_rank1(63)
        dio.write_matrix_market(p, A)
        code = main(["eig", "--input", str(p), "--m", "32", "--stop-rel", "1e-9",
                     "--history", str(hist)])
        assert code == 0
        res = solver.solve(A, solver.SolveOptions(m=32, stop_rel=1e-9))
        rows = dio.read_history_csv(hist)
        assert len(rows) == res.sweeps_used + 1 > 3
        assert rows == [dio.HistoryRow.from_record(r) for r in res.history]
        cells = [ln.split(",") for ln in hist.read_text().splitlines()[1:]]
        assert all(c[2] != "" and c[4] != "" for c in (cells[0], cells[-1]))
        assert all(c[2] == "" and c[4] == "" for c in cells[1:-1])
        capsys.readouterr()

    def test_history_only_when_asked(self, dom_mtx, tmp_path, monkeypatch,
                                     capsys):
        argv = ["eig", "--input", str(dom_mtx), "--m", "2", "--vector"]
        assert main(argv + ["--history", str(tmp_path / "h.csv")]) == 0
        with_history = capsys.readouterr().out
        monkeypatch.setattr(solver, "_snapshot", no_snapshot)
        assert main(argv) == 0
        assert capsys.readouterr().out == with_history

    def test_reference_errors_above_the_oracle_cutoff(self, tmp_path,
                                                       no_oracle, capsys):
        p, hist = tmp_path / "big.mtx", tmp_path / "h.csv"
        A = dio.gen_random_dd(130, 0.005, seed=5)
        dio.write_matrix_market(p, A)
        code = main(["eig", "--input", str(p), "--m", "40", "--ref",
                     "--history", str(hist)])
        assert code == 0
        lam = np.linalg.eigvalsh(A.a)[39]
        rows = dio.read_history_csv(hist)
        assert [r.err_vs_ref for r in rows] == [abs(r.a_mm - lam) for r in rows]
        assert rows[-1].err_vs_ref < 1e-8
        capsys.readouterr()

    def test_tolerance_floor_exit(self, dom_mtx, capsys):
        code = main(["eig", "--input", str(dom_mtx), "--m", "2",
                     "--tol", "10.0", "--stop-rel", "0"])
        assert code == ExitCode.TOLERANCE_FLOOR == 2
        assert kv(capsys)["status"] == "ToleranceFloor"

    def test_max_sweeps_exit(self, dom_mtx, capsys):
        code = main(["eig", "--input", str(dom_mtx), "--m", "2",
                     "--max-sweeps", "1", "--stop-rel", "1e-30"])
        assert code == ExitCode.MAX_SWEEPS == 3
        assert kv(capsys)["status"] == "MaxSweeps"

    def test_stagnated_exit(self, tmp_path, capsys):
        p = tmp_path / "hard.mtx"
        dio.write_matrix_market(p, rand_sym(np.random.default_rng(4), 10))
        code = main(["eig", "--input", str(p), "--m", "5", "--stop-rel", "0"])
        assert code == ExitCode.STAGNATED == 4
        assert kv(capsys)["status"] == "Stagnated"

    def test_csv_input(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("2.0,0.01\n0.01,5.0\n")
        code = main(["eig", "--input", str(p), "--m", "2"])
        got = kv(capsys)
        assert code == 0
        assert float(got["lambda_hat"]) == pytest.approx(5.0, abs=1e-4)


class TestUsageErrors:
    def test_rank_zero_checked_before_reading(self, capsys):
        code = main(["eig", "--input", "/no/such/file.mtx", "--m", "0"])
        assert code == ExitCode.USAGE == 64
        assert "usage error" in capsys.readouterr().err

    def test_rank_beyond_order(self, dom_mtx, capsys):
        assert main(["eig", "--input", str(dom_mtx), "--m", "99"]) == 64
        capsys.readouterr()

    def test_invalid_solver_options(self, dom_mtx, capsys):
        assert main(["eig", "--input", str(dom_mtx), "--m", "1",
                     "--max-sweeps", "0"]) == 64
        capsys.readouterr()

    def test_bad_sigma(self, capsys):
        assert main(["cluster", "--points", "x.csv", "--sigma", "0"]) == 64
        capsys.readouterr()

    def test_nan_sigma(self, capsys):
        assert main(["cluster", "--points", "x.csv", "--sigma", "nan"]) == 64
        assert "--sigma must be positive" in capsys.readouterr().err

    def test_bad_step_constant(self, capsys):
        assert main(["track", "--input", "x.mtx", "--c", "-1"]) == 64
        capsys.readouterr()

    def test_nan_step_constant(self, capsys):
        assert main(["track", "--input", "x.mtx", "--c", "nan"]) == 64
        assert "--c must be positive" in capsys.readouterr().err

    def test_gen_needs_n(self, tmp_path, capsys):
        assert main(["gen", "--kind", "drk1", "--out", str(tmp_path / "o")]) == 64
        assert main(["gen", "--kind", "random-dd",
                     "--out", str(tmp_path / "o")]) == 64
        capsys.readouterr()

    def test_gen_bad_n_is_a_usage_error(self, tmp_path, capsys):
        for kind in ("drk1", "random-dd"):
            out = tmp_path / f"{kind}.mtx"
            assert main(["gen", "--kind", kind, "--n", "1",
                         "--out", str(out)]) == ExitCode.USAGE
            assert not out.exists()
        capsys.readouterr()

    def test_gen_bad_alpha(self, tmp_path, capsys):
        assert main(["gen", "--kind", "random-dd", "--n", "5", "--alpha", "1.5",
                     "--out", str(tmp_path / "o")]) == 64
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["eig", "--input", "x.mtx"],
        ["eig", "--input", "x.mtx", "--m", "2.5"],
        ["gen", "--kind", "bogus", "--out", "o"],
        ["cluster", "--sigma", "1.0"],
        ["cluster", "--points", "a.csv", "--weights", "b.mtx"],
    ])
    def test_argparse_rejections(self, argv, capsys):
        assert main(argv) == 64
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["eig", "--help"]) == 0
        capsys.readouterr()


def test_repeated_calls_leave_no_reference_cycles(tmp_path, capsys):
    argv = ["gen", "--kind", "random-dd", "--n", "8", "--out", str(tmp_path / "g.mtx")]
    main(argv)  # warm-up: builds the parser once
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() < 20
    finally:
        gc.enable()
    capsys.readouterr()


class TestDataErrors:
    def test_missing_file(self, capsys):
        code = main(["eig", "--input", "/no/such/file.mtx", "--m", "1"])
        assert code == ExitCode.DATA == 65
        assert "cannot read/write" in capsys.readouterr().err

    def test_corrupt_file(self, tmp_path, capsys):
        p = tmp_path / "bad.mtx"
        p.write_text("this is not a matrix\n")
        assert main(["eig", "--input", str(p), "--m", "1"]) == 65
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "coordinate real symmetric\n100000000 100000000 5\n1 1 1.0",
        "coordinate real symmetric\n100000000 100000000 1\n1 1 1.0",
        "array real symmetric\n100000000 100000000\n1.0",
    ], ids=["count", "unallocatable", "array-count"])
    def test_huge_order(self, tmp_path, capsys, body):
        p = tmp_path / "huge.mtx"
        p.write_text("%%MatrixMarket matrix " + body + "\n")
        assert main(["eig", "--input", str(p), "--m", "1"]) == 65
        assert capsys.readouterr().err.startswith("ParseError: line 2: ")

    def test_asymmetric_csv(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,0.5\n0.6,2.0\n")
        assert main(["eig", "--input", str(p), "--m", "1"]) == 65
        capsys.readouterr()

    @pytest.mark.parametrize("args", [["eig", "--m", "1", "--input"], ["cluster", "--points"]],
                             ids=["eig", "cluster"])
    def test_csv_cell_over_the_field_limit(self, tmp_path, capsys, args):
        p = tmp_path / "big.csv"
        p.write_text("1.0,0.0\n" + "0" * 200_000 + ",1.0\n")
        assert main([*args, str(p)]) == 65
        assert capsys.readouterr().err.startswith(
            "ParseError: line 2: field larger than field limit")

    def test_negative_weights(self, tmp_path, capsys):
        p = tmp_path / "w.csv"
        p.write_text("0.0,-1.0\n-1.0,0.0\n")
        assert main(["cluster", "--weights", str(p)]) == 65
        capsys.readouterr()

    def test_single_point_cloud(self, tmp_path, capsys):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,1.0\n")
        assert main(["cluster", "--points", str(p), "--sigma", "1.0"]) == 65
        capsys.readouterr()


class TestFull:
    def test_values_line_is_the_oracle(self, tmp_path, capsys):
        p = tmp_path / "a.mtx"
        dio.write_matrix_market(p, dio.gen_random_dd(17, 0.3, seed=3))
        assert main(["full", "--input", str(p)]) == 0
        values = full_jacobi(dio.read_matrix(p)).values
        assert capsys.readouterr().out == f"values={dio._csv_row(values)}\n"

    def test_values_and_out_csv(self, dom_mtx, tmp_path, capsys):
        out = tmp_path / "values.csv"
        code = main(["full", "--input", str(dom_mtx), "--out", str(out)])
        got = kv(capsys)
        assert code == 0
        vals = np.array([float(x) for x in got["values"].split(",")])
        w = np.linalg.eigvalsh(dio.read_matrix(dom_mtx).to_array())
        np.testing.assert_allclose(vals, w, rtol=0, atol=1e-10)
        lines = out.read_text().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 9
        assert float(lines[1].split(",")[1]) == vals[0]


class TestIterationBudget:
    """Exit 3 when the classical oracle or the tracker runs out of budget."""

    def test_full_no_convergence(self, dom_mtx, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise NoConvergence("budget spent")
        monkeypatch.setattr(cli, "full_jacobi", no_convergence)
        assert main(["full", "--input", str(dom_mtx)]) == ExitCode.MAX_SWEEPS == 3
        assert capsys.readouterr().err == "NoConvergence: budget spent\n"

    def test_track_step_limit(self, dom_mtx, monkeypatch, capsys):
        def step_limit(*args, **kwargs):
            raise StepLimit("no arrival")
        monkeypatch.setattr(cli, "track", step_limit)
        assert main(["track", "--input", str(dom_mtx)]) == ExitCode.MAX_SWEEPS == 3
        assert capsys.readouterr().err == "StepLimit: no arrival\n"


class TestCluster:
    @pytest.fixture
    def blobs_csv(self, tmp_path):
        rng = np.random.default_rng(7)
        half = np.array([0.0, 0.0]), np.array([8.0, 8.0])
        pts = np.vstack([c + 0.2 * rng.standard_normal((6, 2)) for c in half])
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n"
                     + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts)
                     + "\n")
        return p

    def test_partitions_blobs(self, blobs_csv, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        hist = tmp_path / "hist.csv"
        code = main(["cluster", "--points", str(blobs_csv), "--sigma", "1.0",
                     "--labels", str(labels), "--history", str(hist), "--exact"])
        got = kv(capsys)
        assert code == 0
        assert got["status"] == "Converged"
        assert 0.0 < float(got["lambda2"]) < 1.0
        assert float(got["gamma"]) > 0.0
        assert float(got["gamma_m"]) > 0.0

        lines = labels.read_text().splitlines()
        assert lines[0] == "index,label,fiedler_entry"
        labs = [int(ln.split(",")[1]) for ln in lines[1:]]
        assert len(labs) == 12
        assert len(set(labs[:6])) == 1 and len(set(labs[6:])) == 1
        assert labs[0] != labs[6]
        assert len(dio.read_history_csv(hist)) >= 1

    def test_precomputed_weights(self, blobs_csv, tmp_path, capsys):
        from ddjacobi import gaussian_similarity
        W = gaussian_similarity(dio.read_points_csv(blobs_csv), 1.0)
        wfile = tmp_path / "w.mtx"
        dio.write_matrix_market(wfile, W)
        code = main(["cluster", "--weights", str(wfile)])
        assert code == 0
        assert kv(capsys)["status"] == "Converged"

    def test_history_only_when_asked(self, blobs_csv, tmp_path, monkeypatch,
                                     capsys):
        argv = ["cluster", "--points", str(blobs_csv), "--sigma", "1.0"]
        assert main(argv + ["--history", str(tmp_path / "h.csv")]) == 0
        with_history = capsys.readouterr().out
        monkeypatch.setattr(solver, "_snapshot", no_snapshot)
        assert main(argv) == 0
        assert capsys.readouterr().out == with_history


class TestTrack:
    def test_path_csv(self, tmp_path, capsys):
        p = tmp_path / "a.mtx"
        dio.write_matrix_market(p, dio.gen_random_dd(6, 0.1, seed=2))
        path_csv = tmp_path / "path.csv"
        code = main(["track", "--input", str(p), "--path", str(path_csv)])
        got = kv(capsys)
        assert code == 0
        steps = int(got["steps"])
        assert steps >= 1
        lines = path_csv.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["t", "s", "gamma_hat", "avg_iters"]
        assert lines[0].split(",")[4:] == [f"sigma_{i}" for i in range(1, 7)]
        assert len(lines) == steps + 1
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == 1.0
        w = np.linalg.eigvalsh(dio.read_matrix(p).to_array())
        np.testing.assert_allclose(np.sort(last[4:]), w, rtol=0, atol=1e-8)

    def test_collapsed_gap_exit(self, tmp_path, capsys):
        p = tmp_path / "tied.csv"
        p.write_text("2.0,0.1,0.0\n0.1,2.0,0.1\n0.0,0.1,5.0\n")
        assert main(["track", "--input", str(p)]) == 4
        assert "CollapsedGap" in capsys.readouterr().err


class TestGen:
    def test_example_kind(self, tmp_path, capsys):
        out = tmp_path / "ex.mtx"
        code = main(["gen", "--kind", "example1", "--out", str(out)])
        got = kv(capsys)
        assert code == 0
        assert got["n"] == "11"
        assert np.array_equal(dio.read_matrix(out).to_array(),
                              dio.gen_example1().to_array())

    def test_drk1_kind(self, tmp_path, capsys):
        out = tmp_path / "d.mtx"
        assert main(["gen", "--kind", "drk1", "--n", "16",
                     "--out", str(out)]) == 0
        assert np.array_equal(dio.read_matrix(out).to_array(),
                              dio.gen_diag_rank1(16).to_array())
        capsys.readouterr()

    def test_random_dd_kind(self, tmp_path, capsys):
        out = tmp_path / "r.mtx"
        assert main(["gen", "--kind", "random-dd", "--n", "10", "--alpha", "0.2",
                     "--seed", "3", "--out", str(out)]) == 0
        assert np.array_equal(dio.read_matrix(out).to_array(),
                              dio.gen_random_dd(10, 0.2, seed=3).to_array())
        capsys.readouterr()


class TestDiagnose:
    def test_estimated_mode(self, dom_mtx, capsys):
        code = main(["diagnose", "--input", str(dom_mtx), "--m", "3"])
        got = kv(capsys)
        assert code == 0
        assert float(got["alpha0"]) == pytest.approx(0.05, rel=1e-10)
        assert float(got["gamma_hat"]) > 0.0
        assert "gamma" not in {k for k in got if k != "gamma_hat"}

    def test_exact_mode(self, dom_mtx, capsys):
        code = main(["diagnose", "--input", str(dom_mtx), "--m", "3", "--exact"])
        got = kv(capsys)
        assert code == 0
        for key in ("alpha0", "gamma_hat", "foa_factor", "gamma", "gamma_m",
                    "rho", "thm2_rate_bound"):
            assert float(got[key]) > 0.0
        assert got["thm2_applicable"] in ("True", "False")
