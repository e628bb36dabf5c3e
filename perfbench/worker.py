"""One workload in one fresh process, driven line by line from ``run.py``.

    python3 perfbench/worker.py --src DIR --workload NAME --seed N [--scale tiny]

Imports ``ddjacobi`` from DIR (the checkout's ``src`` or the frozen reference
copy), builds the workload's inputs and its LAPACK reference, and prints one
JSON line with the seconds the import and set-up took (``setup_s``). Then it answers one
JSON line per command read from stdin: ``job CPU`` pins this thread to CPU
and runs one job and its gate (``t`` seconds, ``problems``), ``rss``
reports ``ru_maxrss`` in MB, and ``exit`` (or end of input) ends the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use (before numpy loads)."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc


def setup(name: str, seed: int, tiny: bool, workdir: str):
    """Import the package and build the inputs; returns (w, import_s, setup_s)."""
    t0 = time.perf_counter()
    import ddjacobi.cli  # noqa: F401  (timed: what every user pays first)
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[name](seed, workdir, tiny=tiny)
    w.setup()
    return w, import_s, time.perf_counter() - t0


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    cap_blas_threads()
    sys.path.insert(0, args.src)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        w, _, setup_s = setup(args.workload, args.seed, args.scale == "tiny", workdir)
        w.reference()
        from workloads import Tally, run_job
        _reply({"setup_s": setup_s})
        for line in sys.stdin:
            cmd, *arg = line.split()
            if cmd == "job":
                os.sched_setaffinity(0, {int(arg[0])})
                tally = Tally()
                run_job(w, tally)
                _reply({"t": tally.times[0], "problems": tally.problems})
            elif cmd == "rss":
                _reply({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
            elif cmd == "exit":
                break
            else:
                raise SystemExit(f"unknown command {cmd!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
