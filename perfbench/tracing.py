"""Traced run: spans around calls into each ddjacobi layer, probes, layer metrics.

The tracer wraps public functions from outside the package: every module
global under ``ddjacobi`` that refers to a wrapped function is rebound to the
wrapper while the tracer is installed, so calls between modules (``cli`` ->
``solve``, ``track`` -> ``solve`` -> ``sweep``) are seen too. Spans (id, name,
job, parent, start, end, child seconds) stay in memory and are written as
JSON lines at exit. The rotation primitives run tens of thousands of times
per job, so they are kept as per-job call counts and summed time instead of
one span each; their time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import sys
import time

import numpy as np

import ddjacobi as dj

# Public functions wrapped per module, named "<module>.<function>".
TARGETS = {
    "io": ["read_matrix", "read_matrix_market", "write_matrix_market",
           "read_points_csv", "write_history_csv", "gen_random_dd",
           "gen_diag_rank1"],
    "matcore": ["sort_by_diagonal"],
    "solver": ["solve", "sweep"],
    "homotopy": ["track"],
    "diagnostics": ["min_relative_gap"],
    "reference": ["full_jacobi"],
    "rotation": ["apply_two_sided", "apply_right"],
    "spectral": ["gaussian_similarity", "normalized_laplacian",
                 "fiedler_partition"],
    "cli": ["main"],
}
LEAVES = {"rotation.apply_two_sided", "rotation.apply_right"}

# Per-layer metrics of the traced run: (name, unit, better, which
# end-to-end metric it should move on which workload). BENCHMARK.json lists the same names, units and directions; the smoke
# test holds the two together. A layer that a workload never enters reports 0.
SWEEP_SIZES = (512, 1024, 2048)
_IO = "moves job_rel on cli-mtx-fast; negligible elsewhere"
_SOLVE = "moves job_rel on solve-drk1-slow most; cli-mtx-fast little"
_SWEEP = "moves job_rel on solve-drk1-slow; c08's 512->1024 ratio window [3, 6]"
_TRACK = "moves job_rel on track-dd20"
_EXACT = "moves job_rel on cluster-exact; no effect on solve-drk1-slow"
METRICS = [
    ("io.read_mtx_s", "s", "lower", _IO),
    ("io.write_mtx_s", "s", "lower", _IO),
    ("io.mtx_mb", "MB", "lower", _IO),
    ("io.read_mb_per_s", "MB/s", "higher", _IO),
    ("io.write_mb_per_s", "MB/s", "higher", _IO),
    ("io.history_csv_s", "s", "lower", _IO),
    ("io.points_csv_s", "s", "lower", "moves job_rel on cluster-exact; negligible"),
    ("matcore.sort_s", "s", "lower",
     "moves job_rel on cli-mtx-fast, where one sweep leaves the O(n^2) copy visible; not solve-drk1-slow"),
    ("solver.sweeps", "count", "lower", "exact count: any change on any solver workload is a regression signal"),
    ("solver.rotations", "count", "lower", "exact count: any change on any solver workload is a regression signal"),
    ("solver.bare_s", "s", "lower", _SOLVE),
    ("solver.vector_s", "s", "lower", _SOLVE),
    ("solver.history_s", "s", "lower", _SOLVE),
    ("solver.us_per_rotation", "us", "lower", _SOLVE + "; track-dd20 too"),
    *[(f"solver.sweep_s.n{n}", "s", "lower", _SWEEP) for n in SWEEP_SIZES],
    *[(f"solver.sweep_v_s.n{n}", "s", "lower", _SWEEP) for n in SWEEP_SIZES],
    ("solver.sweep_ratio_1024_512", "ratio", "higher", _SWEEP),
    ("solver.rot_fixed_us", "us", "lower", _SWEEP + "; track-dd20"),
    ("solver.rot_entry_ns", "ns", "lower", _SWEEP),
    ("solver.rot_fixed_v_us", "us", "lower", _SWEEP),
    ("solver.rot_entry_v_ns", "ns", "lower", _SWEEP),
    ("solver.sweep_ratio_pred", "ratio", "higher", _SWEEP),
    ("solver.lambda_err_rel", "1", "lower", "informational, against LAPACK"),
    ("homotopy.steps", "count", "lower", _TRACK),
    ("homotopy.solve_calls", "count", "lower", _TRACK),
    ("homotopy.useful_solve_frac", "1", "higher", _TRACK),
    ("homotopy.solve_s", "s", "lower", _TRACK),
    ("homotopy.self_s", "s", "lower", _TRACK),
    ("diagnostics.gap_s", "s", "lower", "moves job_rel on track-dd20 and cluster-exact"),
    ("reference.full_jacobi_s", "s", "lower", _EXACT),
    ("rotation.apply_two_sided_us", "us", "lower", _EXACT),
    ("rotation.apply_right_us", "us", "lower", _EXACT),
    ("spectral.similarity_s", "s", "lower", "moves job_rel on cluster-exact"),
    ("spectral.laplacian_s", "s", "lower", "moves job_rel on cluster-exact"),
    ("spectral.fiedler_s", "s", "lower", "moves job_rel on cluster-exact"),
    ("cli.import_s", "s", "lower", "moves setup_s on every workload; job_rel on none"),
    ("cli.self_s", "s", "lower", "moves job_rel on cli-mtx-fast; cluster-exact little"),
    ("ref.lapack_eigvalsh_s", "s", "lower", "reference line only, not a gate"),
    ("trace.job_s", "s", "lower", "min traced job seconds; includes the tracer's own cost"),
    ("trace.untraced_job_s", "s", "lower", "min untraced job seconds, measured between the traced jobs"),
    ("trace.overhead_s", "s", "lower", "tracing overhead: trace.job_s - trace.untraced_job_s"),
]


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.job: int | None = None
        self.spans: list[tuple] = []
        self.leaves: dict[tuple[int | None, str], list] = {}
        self.rotations: dict[int | None, int] = {}
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        if name in LEAVES:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    agg = tracer.leaves.setdefault((tracer.job, name), [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                    if tracer._stack:
                        tracer._stack[-1][1] += dt
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                tracer.spans.append((frame[0], name, tracer.job,
                                     None if parent is None else parent[0],
                                     t0, t1, frame[1]))
            if name == "solver.sweep":
                tracer.rotations[tracer.job] = tracer.rotations.get(tracer.job, 0) + ret
            return ret
        return span

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if k == "ddjacobi" or k.startswith("ddjacobi.")]
        for modname, names in TARGETS.items():
            owner = importlib.import_module(f"ddjacobi.{modname}")
            for fname in names:
                orig = getattr(owner, fname)
                wrapped = self._wrap(f"{modname}.{fname}", orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                            self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def layer_totals(self, job: int) -> dict[str, list]:
        """name -> [calls, seconds, self seconds] for one job.

        Span names also appear as ``"<name><<parent name>"`` so a layer can
        be read under one caller (``solver.solve<homotopy.track``).
        """
        names = {s[0]: s[1] for s in self.spans if s[2] == job}
        out: dict[str, list] = {}
        for sid, name, j, parent, t0, t1, child in self.spans:
            if j != job:
                continue
            keys = [name]
            if parent is not None:
                keys.append(f"{name}<{names.get(parent)}")
            for key in keys:
                agg = out.setdefault(key, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += t1 - t0 - child
        for (j, name), (calls, secs) in self.leaves.items():
            if j == job:
                out[name] = [calls, secs, secs]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, job, parent, t0, t1, child in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "job": job,
                                     "parent": parent, "start": t0, "end": t1,
                                     "self": t1 - t0 - child}) + "\n")
            for (job, name), (calls, secs) in self.leaves.items():
                fh.write(json.dumps({"name": name, "job": job, "calls": calls,
                                     "seconds": secs}) + "\n")


def sweep_scaling(sizes=SWEEP_SIZES, reps: int = 5) -> dict[str, float]:
    """Time public ``sweep`` on sorted drk1(n), m = n/2, without and with V.

    Each timing is the minimum over ``reps`` fresh copies, as in c08. The
    per-rotation cost is fitted as ``fixed + per_entry * n`` by least
    squares, which predicts the 1024/512 ratio c08 gates on. ``sizes`` are
    reported under the labels of ``SWEEP_SIZES`` (the smoke test passes
    smaller ones).
    """
    out: dict[str, float] = {}
    for with_v, tag, fixed, entry in ((False, "sweep_s", "rot_fixed_us", "rot_entry_ns"),
                                      (True, "sweep_v_s", "rot_fixed_v_us", "rot_entry_v_ns")):
        per_rot, times, rots = [], [], []
        for label, n in zip(SWEEP_SIZES, sizes):
            b0 = dj.sort_by_diagonal(dj.io.gen_diag_rank1(n))[0].a
            best = math.inf
            for _ in range(reps):
                work = b0.copy()
                V = np.eye(n) if with_v else None
                t0 = time.perf_counter()
                r = dj.sweep(work, n // 2, 0.0, V)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
            rots.append(r)
            per_rot.append(best / r)
            out[f"solver.{tag}.n{label}"] = best
        slope, intercept = np.polyfit(np.array(sizes, dtype=float), per_rot, 1)
        out[f"solver.{fixed}"] = float(intercept) * 1e6
        out[f"solver.{entry}"] = float(slope) * 1e9
        if not with_v:
            out["solver.sweep_ratio_1024_512"] = times[1] / times[0]
            model = [r * (intercept + slope * n) for r, n in zip(rots, sizes)]
            out["solver.sweep_ratio_pred"] = float(model[1] / model[0])
    return out


def option_costs(A, opts, reps: int) -> dict[str, float]:
    """Median seconds of public ``solve`` as options are switched on.

    ``bare_s`` runs ``opts`` with neither eigenvector nor history;
    ``vector_s`` and ``history_s`` are what each option adds on its own.
    """
    def timed(vector: bool, history: bool) -> float:
        o = dataclasses.replace(opts, want_vector=vector, record_history=history)
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            dj.solve(A, o)
            ts.append(time.perf_counter() - t0)
        return float(np.median(ts))

    bare = timed(False, False)
    return {"solver.bare_s": bare,
            "solver.vector_s": timed(True, False) - bare,
            "solver.history_s": timed(False, True) - bare}


def layer_metrics(tracer: Tracer, w, results: list, extra: dict[str, float]) -> dict[str, float]:
    """Median over the traced jobs of each per-layer metric.

    ``results`` are the traced jobs' (job id, result) pairs, read for exact
    counts; ``extra`` holds the probes' values and is merged in last.
    """
    jobs = [j for j, _ in results]
    totals = {j: tracer.layer_totals(j) for j in jobs}
    counts = {j: w.counts(r) for j, r in results}

    def med(fn):
        return float(np.median([fn(totals[j], j) for j in jobs]))

    def field(name, i):  # i: 0 calls, 1 seconds, 2 self seconds
        return lambda t, j: t.get(name, (0, 0.0, 0.0))[i]

    def per_call_us(name):
        def f(t, j):
            c, s, _ = t.get(name, (0, 0.0, 0.0))
            return s / c * 1e6 if c else 0.0
        return f

    def per_rotation_us(t, j):
        rot = tracer.rotations.get(j, 0)
        return t.get("solver.sweep", (0, 0.0, 0.0))[1] / rot * 1e6 if rot else 0.0

    def useful_solves(t, j):
        calls = t.get("solver.solve<homotopy.track", (0,))[0]
        return counts[j]["homotopy.accepted_solves"] / calls if calls else 0.0

    out = {
        "io.read_mtx_s": med(field("io.read_matrix_market", 1)),
        "io.write_mtx_s": med(field("io.write_matrix_market", 1)),
        "io.history_csv_s": med(field("io.write_history_csv", 1)),
        "io.points_csv_s": med(field("io.read_points_csv", 1)),
        "matcore.sort_s": med(field("matcore.sort_by_diagonal", 1)),
        "solver.sweeps": med(field("solver.sweep", 0)),
        "solver.rotations": med(lambda t, j: tracer.rotations.get(j, 0)),
        "solver.us_per_rotation": med(per_rotation_us),
        "homotopy.steps": med(lambda t, j: counts[j].get("homotopy.steps", 0)),
        "homotopy.solve_calls": med(field("solver.solve<homotopy.track", 0)),
        "homotopy.useful_solve_frac": med(useful_solves),
        "homotopy.solve_s": med(field("solver.solve<homotopy.track", 1)),
        "homotopy.self_s": med(field("homotopy.track", 2)),
        "diagnostics.gap_s": med(field("diagnostics.min_relative_gap", 1)),
        "reference.full_jacobi_s": med(field("reference.full_jacobi", 1)),
        "rotation.apply_two_sided_us": med(per_call_us("rotation.apply_two_sided")),
        "rotation.apply_right_us": med(per_call_us("rotation.apply_right")),
        "spectral.similarity_s": med(field("spectral.gaussian_similarity", 1)),
        "spectral.laplacian_s": med(field("spectral.normalized_laplacian", 1)),
        "spectral.fiedler_s": med(field("spectral.fiedler_partition", 1)),
        "cli.self_s": med(field("cli.main", 2)),
    }
    mb = w.mtx_bytes / 1e6
    out["io.mtx_mb"] = mb
    out["io.read_mb_per_s"] = mb / out["io.read_mtx_s"] if out["io.read_mtx_s"] else 0.0
    out["io.write_mb_per_s"] = mb / out["io.write_mtx_s"] if out["io.write_mtx_s"] else 0.0
    out.update(extra)
    return out
