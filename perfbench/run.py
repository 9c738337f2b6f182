"""Benchmark of the exlift pipeline, one workload per call.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every repetition is a fresh
interpreter (``perfbench/workloads.py``) with ``src`` on ``PYTHONPATH``, so
each pays for ring builds, V-monoid builds and the E_n BFS from cold.
Repetitions start while the previous one's duration still fits in
``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics.  Before the repetitions it runs
set-up only, several times, so ``setup_s`` is a median of many samples.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the details (repetitions, sample counts, failures).
Exit codes: 0 success, 1 a wrong output (the result line says
``"correct": false``), 2 the benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "workloads.py")
WORKLOADS = ("corpus", "tri4", "m4")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("lift_p50_ms", "ms", "lower"),
    ("lift_tail_ms", "ms", "lower"),
    ("verify_p50_ms", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = METRICS + (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env.pop("EXLIFT_GUARD", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    t0 = time.perf_counter()
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} repetition exceeded the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} repetition exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise HarnessError(f"{workload} repetition printed no record: {exc}")


def repetitions(workload: str, seed: int, seconds: float, trace: bool):
    """(setup records, untraced records, traced records) of one run."""
    start = time.perf_counter()
    limit = start + TIME_LIMIT_S
    setups, plain, traced = [], [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(child(workload, seed, limit, "--setup-only"))
    while True:
        t = time.perf_counter()
        plain.append(child(workload, seed, limit))
        if trace:
            traced.append(child(workload, seed, limit, "--trace"))
        step = time.perf_counter() - t
        if time.perf_counter() + step > start + seconds:
            return setups, plain, traced


def _problems(recs: list) -> list:
    out = [p for r in recs for p in r["problems"]]
    if any(not r["lift_ms"] for r in recs):
        out.append("a repetition produced no verified lift")
    counts = {(r["attempted"], r["failed"]) for r in recs}
    if len(counts) > 1:
        out.append(f"attempted/failed differ between repetitions of one "
                   f"seed: {sorted(counts)}")
    return out


def _median(recs: list, key: str) -> float:
    return statistics.median(r[key] for r in recs)


def end_to_end(setups: list, plain: list) -> dict:
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    return {
        "wall_s": _median(plain, "wall_s"),
        "setup_s": _median(setups + plain, "setup_s"),
        "lift_p50_ms": _median(plain, "lift_p50_ms"),
        "lift_tail_ms": _median(plain, "lift_tail_ms"),
        "verify_p50_ms": _median(plain, "verify_p50_ms"),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
    }


def per_layer(plain: list, traced: list) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name, _, _ in METRICS}
    t_wall, u_wall = _median(traced, "wall_s"), _median(plain, "wall_s")
    out.update({
        "trace.wall_s": t_wall,
        "trace.untraced_wall_s": u_wall,
        "trace.overhead_s": t_wall - u_wall,
        "trace.overhead_frac": (t_wall - u_wall) / u_wall,
    })
    return out


def details(workload, seed, setups, plain, traced) -> dict:
    r = plain[0]
    return {
        "workload": workload, "seed": seed,
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "wall_s": [x["wall_s"] for x in plain],
        "raw_wall_s": [x["raw"]["wall_s"] for x in plain],
        "traced_wall_s": [x["wall_s"] for x in traced],
        "setup_s": [x["setup_s"] for x in setups + plain],
        "raw_setup_s": [x["raw"]["setup_s"] for x in setups + plain],
        "lift_tail_pct": r.get("lift_tail_pct"), "lift_n": r.get("lift_n"),
        "attempted_per_repetition": r["attempted"],
        "failed_per_repetition": r["failed"],
        "failures": r["failures"],
        "pairs": r["pairs"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exlift", "__init__.py")):
        print(f"error: no exlift sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setups, plain, traced = repetitions(args.workload, args.seed,
                                            args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = _problems(plain + traced)
    info = details(args.workload, args.seed, setups, plain, traced)
    info["problems"] = problems
    print(json.dumps(info))
    if problems:
        values = {}
    elif args.trace:
        values = per_layer(plain, traced)
    else:
        values = end_to_end(setups, plain)
    table = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in plain + traced),
        "failed": sum(r["failed"] for r in plain + traced),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table if name in values},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
