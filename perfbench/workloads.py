"""The benchmark's workloads: seeded inputs, one timed job, and its gate.

Every workload reaches the package only through its public functions and
``ddjacobi.cli.main``, looked up on the module at call time so that the
tracer in ``tracing.py`` can wrap them. A job is one thing a user asks for;
its gate runs outside the timed region and any problem it finds counts the
job as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time

import numpy as np

import ddjacobi as dj
import ddjacobi.cli

# Accuracy budget shared by the acceptance checks c08-c10: 1e-8 * ||A||_F.
REL_BUDGET = 1e-8


def _kv(text: str) -> dict[str, str]:
    return dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln)


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ddjacobi.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _permuted(A: dj.SymMatrix, seed: int) -> dj.SymMatrix:
    """Seeded symmetric permutation: new inputs, the same sorted problem."""
    p = np.random.default_rng(seed).permutation(A.n)
    return dj.SymMatrix(A.a[np.ix_(p, p)])


class Workload:
    """Base class; subclasses set ``name`` and fill in the hooks below."""

    name = ""
    mtx_bytes = 0  # size of the Matrix Market file a job writes, if any

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Build and write the inputs (counted in ``setup_s``)."""

    def reference(self) -> None:
        """LAPACK reference the gate compares against (not timed as setup)."""

    def job(self):
        raise NotImplementedError

    def check(self, result) -> tuple[list[str], float]:
        """Problems found in ``result`` and its relative eigenvalue error."""
        raise NotImplementedError

    def solve_case(self) -> tuple[dj.SymMatrix, dj.SolveOptions, int]:
        """(matrix, options, repeats) of the solve the option probe varies.

        The matrix is also the one the gate's LAPACK reference factors.
        """
        raise NotImplementedError

    def counts(self, result) -> dict[str, float]:
        """Exact per-job counts read from the result."""
        return {}


class CliMtxFast(Workload):
    """``gen`` then ``eig`` through the CLI on a fast-regime random-dd file."""

    name = "cli-mtx-fast"

    def setup(self):
        self.n = 40 if self.tiny else 400
        self.m = self.n // 2
        self.mtx = self.path("A.mtx")
        self.hist = self.path("H.csv")
        self._roundtrip: dict[str, bool] = {}

    def reference(self):
        self.A = dj.io.gen_random_dd(self.n, 0.005, self.seed)
        self.values = np.linalg.eigvalsh(self.A.a)
        self.frob = dj.frob_norm(self.A)

    def job(self):
        gen = _cli(["gen", "--kind", "random-dd", "--n", str(self.n),
                    "--alpha", "0.005", "--seed", str(self.seed),
                    "--out", self.mtx])
        eig = _cli(["eig", "--input", self.mtx, "--m", str(self.m),
                    "--vector", "--history", self.hist])
        return gen, eig

    def check(self, result):
        (gen_code, gen_out), (eig_code, eig_out) = result
        problems = []
        if gen_code != 0:
            problems.append(f"gen exit {gen_code}: {gen_out.strip()}")
        if eig_code != 0:
            problems.append(f"eig exit {eig_code}: {eig_out.strip()}")
        kv = _kv(eig_out)
        lam_ref = self.values[self.m - 1]
        err = abs(float(kv.get("lambda_hat", "nan")) - lam_ref)
        if not err <= REL_BUDGET * self.frob:
            problems.append(f"lambda error {err:.3e}")
        with open(self.mtx, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.mtx_bytes = os.path.getsize(self.mtx)
        # The reader is deterministic, so one re-read per distinct file suffices.
        if digest not in self._roundtrip:
            back = dj.io.read_matrix_market(self.mtx)
            self._roundtrip[digest] = np.array_equal(back.a, self.A.a)
        if not self._roundtrip[digest]:
            problems.append("re-read file differs from the generated matrix")
        return problems, err / abs(lam_ref)

    def solve_case(self):
        return self.A, dj.SolveOptions(m=self.m), 3


class SolveDrk1Slow(Workload):
    """Library ``solve`` in the slow regime: drk1(383), middle eigenpair, V and history."""

    name = "solve-drk1-slow"

    def setup(self):
        self.n = 63 if self.tiny else 383
        self.m = (self.n + 1) // 2
        self.A = _permuted(dj.io.gen_diag_rank1(self.n), self.seed)
        # c08's options: its residual budget needs the tighter stop_rel.
        self.opts = dj.SolveOptions(m=self.m, stop_rel=1e-9, want_vector=True)

    def reference(self):
        self.values = np.linalg.eigvalsh(self.A.a)
        self.frob = dj.frob_norm(self.A)

    def job(self):
        return dj.solve(self.A, self.opts)

    def check(self, res):
        problems = []
        if res.status is not dj.SolveStatus.CONVERGED:
            problems.append(f"status {res.status.value}")
        budget = REL_BUDGET * self.frob
        lam_ref = self.values[self.m - 1]
        err = abs(res.lambda_hat - lam_ref)
        if not err <= budget:
            problems.append(f"lambda error {err:.3e} > {budget:.3e}")
        v = res.vector
        resid = float(np.linalg.norm(self.A.a @ v - res.lambda_hat * v))
        if not resid <= budget:
            problems.append(f"residual {resid:.3e} > {budget:.3e}")
        return problems, err / abs(lam_ref)

    def solve_case(self):
        return self.A, self.opts, 1


class TrackDd20(Workload):
    """Homotopy ``track`` of c09's matrix family at order 20: ~1.3k small solves."""

    name = "track-dd20"

    def setup(self):
        n = 8 if self.tiny else 20
        # c09's generator (random-dd, alpha 0.3, seed 1), permuted by the run
        # seed; track's work does not depend on the order, so every seed
        # measures the same path.
        self.A = _permuted(dj.io.gen_random_dd(n, 0.3, seed=1), self.seed)

    def reference(self):
        self.values = np.linalg.eigvalsh(self.A.a)
        self.frob = dj.frob_norm(self.A)

    def job(self):
        return dj.track(self.A)

    def check(self, path):
        problems = []
        n = self.A.n
        if path.steps[-1].t != 1.0:
            problems.append(f"stopped at t = {path.steps[-1].t}")
        if not path.max_orth_defect <= 1e-10 * n:
            problems.append(f"orthogonality defect {path.max_orth_defect:.3e}")
        diff = np.abs(np.sort(path.steps[-1].sigma) - self.values)
        err = float(np.max(diff))
        if not err <= REL_BUDGET * self.frob:
            problems.append(f"spectrum error {err:.3e}")
        return problems, float(np.max(diff / np.abs(self.values)))

    def solve_case(self):
        return self.A, dj.SolveOptions(m=(self.A.n + 1) // 2), 20

    def counts(self, path):
        return {"homotopy.steps": path.total_steps,
                "homotopy.accepted_solves": path.total_steps * self.A.n}


class ClusterExact(Workload):
    """``cluster --exact`` through the CLI on seeded two-blob points (c10)."""

    name = "cluster-exact"

    def setup(self):
        per_blob = 10 if self.tiny else 50
        rng = np.random.default_rng(self.seed)
        pts = np.vstack([
            np.array([0.0, 0.0]) + 0.5 * rng.standard_normal((per_blob, 2)),
            np.array([8.0, 8.0]) + 0.5 * rng.standard_normal((per_blob, 2)),
        ])
        self.points = self.path("P.csv")
        self.labels = self.path("labels.csv")
        self.hist = self.path("H.csv")
        with open(self.points, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")
            for x, y in pts:
                fh.write(f"{float(x)!r},{float(y)!r}\n")

    def reference(self):
        pc = dj.io.read_points_csv(self.points)
        self.L = dj.normalized_laplacian(dj.gaussian_similarity(pc, 1.0))
        values, vectors = np.linalg.eigh(self.L.a)
        self.lambda2 = values[1]
        self.oracle = np.where(vectors[:, 1] < 0.0, 0, 1)
        self.frob = dj.frob_norm(self.L)

    def job(self):
        return _cli(["cluster", "--points", self.points, "--sigma", "1.0",
                     "--exact", "--labels", self.labels,
                     "--history", self.hist])

    def check(self, result):
        code, out = result
        problems = []
        if code != 0:
            problems.append(f"cluster exit {code}: {out.strip()}")
        kv = _kv(out)
        err = abs(float(kv.get("lambda2", "nan")) - self.lambda2)
        if not err <= REL_BUDGET * self.frob:
            problems.append(f"lambda2 error {err:.3e}")
        labels = np.loadtxt(self.labels, delimiter=",", skiprows=1, usecols=1)
        if labels.shape != self.oracle.shape:
            problems.append(f"{labels.size} labels for {self.oracle.size} points")
        else:
            same = float(np.mean(labels == self.oracle))
            agree = max(same, 1.0 - same)
            if agree < 0.98:
                problems.append(f"partition agreement {agree:.2%}")
        return problems, err / abs(self.lambda2)

    def solve_case(self):
        return self.L, dj.SolveOptions(m=2), 10


WORKLOADS = {w.name: w for w in (CliMtxFast, SolveDrk1Slow, TrackDd20, ClusterExact)}


class Tally:
    """Per-job wall times, failures, and (job id, result) pairs if kept."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.err_rel: list[float] = []
        self.results: list = []

    @property
    def attempted(self) -> int:
        return len(self.times)


def run_job(w: Workload, tally: Tally, tracer=None, keep_result: bool = False) -> None:
    """Time one job, gate it outside the timed region, record the outcome.

    With a ``tracer``, the job (and only the job) runs traced, with the
    job id ``tally.attempted``.
    """
    if tracer is not None:
        tracer.job = tally.attempted
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = w.job()
    except Exception as exc:  # a raising job is a failed job, not a crash
        tally.failed += 1
        tally.problems.append(f"{type(exc).__name__}: {exc}")
        return
    finally:
        tally.times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
    try:
        problems, err_rel = w.check(result)
    except Exception as exc:  # output the gate cannot even read is wrong output
        problems, err_rel = [f"gate: {type(exc).__name__}: {exc}"], None
    if err_rel is not None:
        tally.err_rel.append(err_rel)
    if problems:
        tally.failed += 1
        tally.problems.extend(problems)
    if keep_result:
        tally.results.append((tally.attempted - 1, result))


def run_jobs(w: Workload, seconds: float) -> Tally:
    """Run jobs until their summed wall time reaches ``seconds`` (at least one)."""
    tally = Tally()
    while True:
        run_job(w, tally)
        if sum(tally.times) >= seconds:
            return tally


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0
