"""Benchmark for ddjacobi: one workload, one seed, one measured run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` says why each
was chosen. The package under test is imported from ``src/`` of the same
checkout, with BLAS threads capped at the CPUs the process may use.

``--trace 0`` starts two fresh ``worker.py`` processes for the workload: one
on ``src/`` and one on ``frozen/``, an unchanged copy of the package as it
was when the benchmark was defined. They run jobs in turn, alternating who
goes first, until the jobs of both add up to ``S`` seconds. The shared
machine this was built on changes speed by up to 1.5x for tens of seconds
at a time, which no statistic of one process's wall time survives; the
frozen copy running beside the program sees the same slow spells, so the
ratio cancels them. End-to-end metrics:

- ``job_rel``: the median over pairs of the program's job seconds over the
  frozen copy's (1.0 means as fast as when the benchmark was defined); the
  wall seconds of each side's jobs, and the program's min, median, tail
  percentile and sample count, are printed above the result;
- ``setup_s``: median over several fresh processes of importing ddjacobi
  plus building and writing the inputs;
- ``peak_rss_mb``: ``ru_maxrss`` of the worker that ran the program's jobs;
- ``ok_frac``: 1 - fail_frac; a job fails if it raises, exits nonzero, does
  not converge or fails its gate.

``--trace 1`` runs in this process on ``src/`` only: it alternates untraced
and traced jobs, runs the layer probes, and reports the per-layer metrics of
``tracing.METRICS``; the spans go to ``perfbench/out/trace-<workload>-s<seed>.jsonl``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FROZEN = HERE / "frozen"
OUT = HERE / "out"

# Fresh processes timed for setup_s, besides the measuring process itself.
SETUP_PROBES = 5
END_TO_END = {"job_rel": "1", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


class Worker:
    """A fresh ``worker.py`` process that imports ddjacobi from ``src``.

    Replies are read from its stdout; the job, its gate and ``ru_maxrss``
    are measured inside it.
    """

    def __init__(self, args, src: Path):
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise SystemExit(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def call(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def _tail(times: list[float]) -> str:
    """Highest of p75..p99 with at least ten samples beyond it, if any."""
    for p in (99, 95, 90, 75):
        if len(times) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(times, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.6g} s"
    return "p75=n/a (under ten samples beyond it)"


def _untraced(args) -> dict:
    setup = []
    for _ in range(SETUP_PROBES if args.scale == "full" else 1):
        probe = Worker(args, SRC)
        setup.append(probe.hello["setup_s"])
        probe.close()
    cur = ref = None
    try:
        cur = Worker(args, SRC)
        ref = Worker(args, FROZEN)
        setup.append(cur.hello["setup_s"])
        times = {cur: [], ref: []}
        failed, problems = 0, []
        cpus = sorted(os.sched_getaffinity(0))
        # Both jobs of a pair run on one CPU, since the CPUs of a shared
        # machine are slowed at different times; pairs take the CPUs in
        # turn and alternate who goes first, so drift within a pair cancels.
        while not times[cur] or sum(times[cur]) + sum(times[ref]) < args.seconds:
            i = len(times[cur])
            for wk in ((cur, ref) if i % 2 == 0 else (ref, cur)):
                r = wk.call(f"job {cpus[i % len(cpus)]}")
                times[wk].append(r["t"])
                if wk is cur and r["problems"]:
                    failed += 1
                    problems += r["problems"]
                elif r["problems"]:
                    raise SystemExit(f"reference job failed: {r['problems']}")
        rss_mb = cur.call("rss")["rss_mb"]
    finally:
        for wk in (cur, ref):
            if wk is not None:
                wk.close()
    t_cur, t_ref = times[cur], times[ref]
    attempted = len(t_cur)
    job_rel = statistics.median(c / r for c, r in zip(t_cur, t_ref))
    print(f"job_s={min(t_cur):.6g} s (min) median={statistics.median(t_cur):.6g} s "
          f"{_tail(t_cur)} samples={attempted}")
    print(f"reference job_s={min(t_ref):.6g} s (min) median={statistics.median(t_ref):.6g} s "
          f"samples={len(t_ref)}")
    for label, ts in (("program", t_cur), ("reference", t_ref)):
        print(f"{label} job seconds: " + " ".join(f"{t:.4f}" for t in ts))
    print(f"job_rel={job_rel:.6g} (median over pairs of program/reference seconds) "
          f"samples={attempted}")
    print(f"setup_s median={statistics.median(setup):.6g} s samples={len(setup)}")
    print(f"peak_rss_mb={rss_mb:.6g} MB samples=1")
    print(f"fail_frac={failed / attempted:.6g} ({failed}/{attempted}) samples={attempted}")
    for problem in problems:
        print(f"FAILED: {problem}")
    metrics = {"job_rel": job_rel, "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_mb, "ok_frac": 1.0 - failed / attempted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}


def _traced(args) -> dict:
    from worker import cap_blas_threads, setup
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        w, import_s, _ = setup(args.workload, args.seed, args.scale == "tiny", workdir)
        w.reference()
        return _trace_run(args, w, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _trace_run(args, w, import_s) -> dict:
    import numpy as np

    import tracing
    from workloads import Tally, median, run_job

    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    # Alternate so slow drift of the machine hits both sides alike.
    while not traced.attempted or sum(plain.times) + sum(traced.times) < args.seconds:
        run_job(w, plain)
        run_job(w, traced, tracer=tracer, keep_result=True)

    extra = tracing.option_costs(*w.solve_case())
    if w.name == "solve-drk1-slow":
        tiny = args.scale == "tiny"
        extra.update(tracing.sweep_scaling((32, 64, 128) if tiny else tracing.SWEEP_SIZES,
                                           reps=2 if tiny else 5))
    ref = w.solve_case()[0].a
    eig_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.linalg.eigvalsh(ref)
        eig_times.append(time.perf_counter() - t0)
    extra["ref.lapack_eigvalsh_s"] = median(eig_times)
    extra["solver.lambda_err_rel"] = median(traced.err_rel)
    extra["cli.import_s"] = import_s
    extra["trace.job_s"] = min(traced.times)
    extra["trace.untraced_job_s"] = min(plain.times)
    extra["trace.overhead_s"] = extra["trace.job_s"] - extra["trace.untraced_job_s"]

    values = tracing.layer_metrics(tracer, w, traced.results, extra)
    tracer.write(str(OUT / f"trace-{w.name}-s{args.seed}.jsonl"))
    for name, unit, _, moves in tracing.METRICS:
        print(f"{name}={values.get(name, 0.0):.6g} {unit}  # {moves}")
    print(f"traced jobs={traced.attempted} untraced jobs={plain.attempted} "
          f"spans={len(tracer.spans)}")
    problems = plain.problems + traced.problems
    failed = plain.failed + traced.failed
    for problem in problems:
        print(f"FAILED: {problem}")
    return {"correct": failed == 0, "attempted": plain.attempted + traced.attempted,
            "failed": failed,
            "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                        for name, unit, *_ in tracing.METRICS}}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ddjacobi" / "__init__.py").is_file():
        print(f"error: no ddjacobi sources under {SRC}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    result = _traced(args) if args.trace else _untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
