"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]
                                [--seconds S] [--out perfbench/baseline/NAME.json]

Runs ``run.py`` once per workload and seed, one after another, from the root
of the checkout. For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. For end-to-end
metrics it compares the spread with the bound in ``BENCHMARK.json`` (the
benchmark is steady when every spread except ``setup_s``'s is below a third
of its bound). It also prints fail_frac and the wall time of each run. With
``--seeds 1`` it is the one command that prints every end-to-end metric of
every workload with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the runs and their summary as JSON here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            samples = [ln for ln in lines if "samples=" in ln]
            print(f"{name} seed={seed} wall={wall:.1f}s "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
            for ln in samples:
                print("    " + ln, flush=True)
            runs.append({"seed": seed, "wall_s": wall, "attempted": res["attempted"],
                         "failed": res["failed"], "correct": res["correct"],
                         "metrics": res["metrics"], "log": lines[:-1]})
        summary = {}
        for metric, info in runs[0]["metrics"].items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = info["unit"]
            summary[metric] = s
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                ok = s["spread"] <= bound / 3 or metric == "setup_s"
                steady &= ok
                verdict = f"bound={bound} {'ok' if ok else 'NOT STEADY'}"
            print(f"  {name} {metric}: median={s['median']:.6g} {info['unit']} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} {verdict}",
                  flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  {name} fail_frac={failed / attempted:.6g} ({failed}/{attempted}) "
              f"wall per run: max={max(r['wall_s'] for r in runs):.1f}s "
              f"mean={statistics.fmean(r['wall_s'] for r in runs):.1f}s", flush=True)
        report["workloads"][name] = {"runs": runs, "summary": summary,
                                     "fail_frac": failed / attempted}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "not steady: some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
