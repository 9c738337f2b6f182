"""Run the benchmark over several seeds and print every metric's median.

    python3 perfbench/baseline.py --seeds 1
    python3 perfbench/baseline.py --out perfbench/baselines/NAME.json \
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 1 [--workloads corpus m4]

Each call of ``perfbench/run.py`` runs in turn, one at a time, with
``run_seconds`` from ``BENCHMARK.json``.  It prints, per workload, each
metric with its unit, median and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them).  ``--out`` also keeps the
details and result line of every run in one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run as bench


def one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode,
            "details": json.loads(lines[-2]) if len(lines) > 1 else None,
            "result": json.loads(lines[-1]) if lines else None,
            "stderr": proc.stderr[-2000:]}


def summarize(runs: list) -> dict:
    out: dict = {}
    for r in runs:
        if r["result"] is None:
            continue
        w = out.setdefault(f"{r['workload']}/trace{r['trace']}", {})
        for name, m in r["result"]["metrics"].items():
            w.setdefault(name, (m["unit"], []))[1].append(m["value"])
    for w in out.values():
        for name, (unit, values) in w.items():
            med = statistics.median(values)
            entry = {"unit": unit, "n": len(values), "median": med}
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / med if med else 0.0)
            w[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    ap.add_argument("--workloads", nargs="+", default=list(bench.WORKLOADS))
    args = ap.parse_args(argv)
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for w in args.workloads:
        for seed in args.seeds:
            runs.append(one(w, seed, seconds, 0))
            print(w, seed, "exit", runs[-1]["exit"], flush=True)
        for seed in args.trace_seeds:
            runs.append(one(w, seed, seconds, 1))
            print(w, seed, "traced, exit", runs[-1]["exit"], flush=True)
    summary = summarize(runs)
    for w, metrics in summary.items():
        for name, e in metrics.items():
            print(f"{w:14s} {name:28s} {e['median']:14.6g} {e['unit']:6s} "
                  f"n={e['n']} spread={e.get('spread', 0.0):.3f}")
    if args.out:
        record = {
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                     "python": platform.python_version()},
            "seconds": seconds,
            "summary": summary,
            "runs": runs,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
