"""Command-line frontend.

Subcommands: eig (targeted solve), full (classical Jacobi), cluster
(spectral 2-way partition), track (homotopy eigenpaths), gen (test-matrix
generators), diagnose (convergence quantities). Results go to stdout as
``key=value`` lines; diagnostics and errors go to stderr. Exit codes: 0
success/Converged, 2 ToleranceFloor, 3 MaxSweeps (or an exhausted iteration
budget), 4 Stagnated or a stalled/collapsed tracker, 64 usage errors, 65
data/parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from enum import IntEnum

import numpy as np

from . import io as dio
from .diagnostics import diagnose, min_relative_gap
from .errors import (
    CollapsedGap,
    InvalidOptions,
    NoConvergence,
    StepLimit,
    TrackerStalled,
)
from .homotopy import TrackerConfig, track
from .reference import _exact_values, full_jacobi
from .solver import SolveOptions, SolveStatus, solve
from .spectral import fiedler_partition, gaussian_similarity, normalized_laplacian

__all__ = ["ExitCode", "main", "entry"]


class ExitCode(IntEnum):
    OK = 0
    TOLERANCE_FLOOR = 2
    MAX_SWEEPS = 3
    STAGNATED = 4
    USAGE = 64
    DATA = 65


_STATUS_CODE = {
    SolveStatus.CONVERGED: ExitCode.OK,
    SolveStatus.TOLERANCE_FLOOR: ExitCode.TOLERANCE_FLOOR,
    SolveStatus.MAX_SWEEPS: ExitCode.MAX_SWEEPS,
    SolveStatus.STAGNATED: ExitCode.STAGNATED,
}

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit(2)
        raise _UsageError(message)


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        value = repr(value)
    print(f"{key}={value}")


def _check_rank(m: int, n: int | None = None) -> None:
    if m < 1:
        raise _UsageError(f"--m must be at least 1, got {m}")
    if n is not None and m > n:
        raise _UsageError(f"--m {m} exceeds the matrix order {n}")


def cmd_eig(args) -> int:
    _check_rank(args.m)
    A = dio.read_matrix(args.input)
    _check_rank(args.m, A.n)
    opts = SolveOptions(m=args.m, tol=args.tol, stop_rel=args.stop_rel,
                        max_sweeps=args.max_sweeps, want_vector=args.vector,
                        record_history=args.history is not None)
    res = solve(A, opts)
    lam = _exact_values(A)[args.m - 1] if args.ref else None
    _emit("lambda_hat", res.lambda_hat)
    _emit("status", res.status.value)
    _emit("sweeps", res.sweeps_used)
    if args.vector:
        _emit("vector", dio._csv_row(res.vector))
    if args.history:
        rows = [dio.HistoryRow.from_record(
                    rec, None if lam is None else abs(rec.a_mm - lam))
                for rec in res.history]
        dio.write_history_csv(args.history, rows)
    return int(_STATUS_CODE[res.status])


def cmd_full(args) -> int:
    A = dio.read_matrix(args.input)
    dec = full_jacobi(A, _vectors=False)
    _emit("values", dio._csv_row(dec.values))
    if args.out:
        dio._write_csv(args.out, "index,value", enumerate(dec.values, start=1))
    return int(ExitCode.OK)


def cmd_cluster(args) -> int:
    if not args.sigma > 0.0:
        raise _UsageError(f"--sigma must be positive, got {args.sigma}")
    if args.points:
        pc = dio.read_points_csv(args.points)
        W = gaussian_similarity(pc, args.sigma)
    else:
        W = dio.read_matrix(args.weights)
    L = normalized_laplacian(W)
    res = fiedler_partition(
        L, SolveOptions(m=2, record_history=args.history is not None))
    _emit("lambda2", res.lambda2)
    _emit("status", res.solve_status.value)
    if args.exact:
        gaps = min_relative_gap(_exact_values(L))
        _emit("gamma", gaps.gamma)
        _emit("gamma_m", float(gaps.gamma_j[1]))
    if args.labels:
        dio._write_csv(args.labels, "index,label,fiedler_entry",
                       zip(range(1, res.labels.size + 1), res.labels, res.fiedler))
    if args.history:
        dio.write_history_csv(
            args.history, [dio.HistoryRow.from_record(r) for r in res.history])
    return int(_STATUS_CODE[res.solve_status])


def cmd_track(args) -> int:
    if not args.c > 0.0:
        raise _UsageError(f"--c must be positive, got {args.c}")
    A = dio.read_matrix(args.input)
    path = track(A, TrackerConfig(c=args.c))
    _emit("steps", path.total_steps)
    _emit("avg_iters", path.avg_iters)
    if args.path:
        sig = ",".join(f"sigma_{i}" for i in range(1, A.n + 1))
        dio._write_csv(args.path, f"t,s,gamma_hat,avg_iters,{sig}",
                       ([st.t, st.s, st.gamma_hat, np.mean(st.iters_per_eig),
                         *st.sigma] for st in path.steps))
    return int(ExitCode.OK)


def cmd_gen(args) -> int:
    if args.kind != "example1" and args.n is None:
        raise _UsageError(f"--kind {args.kind} needs --n")
    try:
        if args.kind == "example1":
            A = dio.gen_example1()
        elif args.kind == "drk1":
            A = dio.gen_diag_rank1(args.n)
        else:
            A = dio.gen_random_dd(args.n, args.alpha, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    dio.write_matrix_market(args.out, A)
    _emit("n", A.n)
    _emit("out", args.out)
    return int(ExitCode.OK)


def cmd_diagnose(args) -> int:
    _check_rank(args.m)
    A = dio.read_matrix(args.input)
    _check_rank(args.m, A.n)
    rep = diagnose(A, args.m, exact=args.exact)
    _emit("alpha0", rep.alpha0)
    _emit("gamma_hat", rep.gamma_hat)
    _emit("foa_factor", rep.foa_factor)
    if args.exact:
        _emit("gamma", rep.gamma)
        _emit("gamma_m", rep.gamma_m)
        _emit("rho", rep.rho)
        _emit("thm2_applicable", rep.thm2_applicable)
        _emit("thm2_rate_bound", rep.thm2_rate_bound)
    return int(ExitCode.OK)


# Built once: parse_args returns a fresh Namespace per call, and each build
# leaves ~300 objects in reference cycles for the collector.
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="ddjacobi",
                description="Targeted Jacobi eigensolver toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    eig = sub.add_parser("eig", help="compute one eigenpair")
    eig.add_argument("--input", required=True)
    eig.add_argument("--m", type=int, required=True,
                     help="1-based eigenvalue rank (ascending)")
    eig.add_argument("--tol", type=float, default=SolveOptions.tol)
    eig.add_argument("--stop-rel", dest="stop_rel", type=float,
                     default=SolveOptions.stop_rel)
    eig.add_argument("--max-sweeps", dest="max_sweeps", type=int,
                     default=SolveOptions.max_sweeps)
    eig.add_argument("--vector", action="store_true")
    eig.add_argument("--history", help="write per-sweep CSV here")
    eig.add_argument("--ref", action="store_true",
                     help="also compute the exact spectrum for err_vs_ref")
    eig.set_defaults(fn=cmd_eig)

    full = sub.add_parser("full", help="full spectrum via classical Jacobi")
    full.add_argument("--input", required=True)
    full.add_argument("--out", help="write index,value CSV here")
    full.set_defaults(fn=cmd_full)

    clu = sub.add_parser("cluster", help="2-way spectral partition")
    src = clu.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="points CSV")
    src.add_argument("--weights", help="precomputed weight matrix")
    clu.add_argument("--sigma", type=float, default=10.0)
    clu.add_argument("--labels", help="write index,label,fiedler_entry CSV here")
    clu.add_argument("--history", help="write solver history CSV here")
    clu.add_argument("--exact", action="store_true",
                     help="also compute exact gamma, gamma_2")
    clu.set_defaults(fn=cmd_cluster)

    trk = sub.add_parser("track", help="homotopy eigenpath tracking")
    trk.add_argument("--input", required=True)
    trk.add_argument("--c", type=float, default=TrackerConfig.c,
                     help="step constant: s * ||Omega||_F <= c * gap * ||A||_F")
    trk.add_argument("--path", help="write per-step CSV here")
    trk.set_defaults(fn=cmd_track)

    gen = sub.add_parser("gen", help="write a generated test matrix")
    gen.add_argument("--kind", required=True,
                     choices=["example1", "drk1", "random-dd"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--alpha", type=float, default=0.005)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen)

    dia = sub.add_parser("diagnose", help="convergence quantities for rank m")
    dia.add_argument("--input", required=True)
    dia.add_argument("--m", type=int, required=True)
    dia.add_argument("--exact", action="store_true",
                     help="compute the exact spectrum for gamma/rho")
    dia.set_defaults(fn=cmd_diagnose)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (_UsageError, InvalidOptions) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return int(ExitCode.USAGE)
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return int(ExitCode.DATA)
    except OSError as exc:
        print(f"cannot read/write: {exc}", file=sys.stderr)
        return int(ExitCode.DATA)
    except (NoConvergence, StepLimit) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return int(ExitCode.MAX_SWEEPS)
    except (TrackerStalled, CollapsedGap) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return int(ExitCode.STAGNATED)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
