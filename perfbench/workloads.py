"""One repetition of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/workloads.py --workload corpus --seed 1 \
        --t0 <time.perf_counter() of the parent> [--trace] [--setup-only]

Set-up (interpreter start, ``import exlift``, ring and ideal construction,
element sampling) ends where the timed phase starts.  The timed phase runs
the structure checks and the lift + verify operations, and checks every
output.  The last stdout line is one JSON object describing the repetition.

Workloads, all drawn from ``exlift.corpus`` (the seed picks which Fredholm
elements each pair lifts, and in what order):

- ``corpus``: what ``exlift corpus`` does: every default pair, structure
  checks, then lift + emit + verify of 3 Fredholm elements per pair.
- ``tri4``: the ``--full``-only pair ``triangular(zmod(4),2)``: structure
  checks, then all 16 Fredholm elements.
- ``m4``: every default pair whose quotient R/I has at most 2 elements:
  structure checks, then one Fredholm element lifted with ``start_m=4``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

from exlift import certificates, corpus, exchange, ktheory, lifting, rings, \
    vmonoid
from exlift.config import Guards
from exlift.errors import ExliftError
from speed import Speed
from tracing import Tracer

WORKLOADS = ("corpus", "tri4", "m4")
LIFTS_PER_PAIR = 3          # as `exlift corpus --lifts-per-pair` defaults
M4_MAX_QUOTIENT = 2         # larger quotients hit the E_4 BFS guard, see NOTES.md


@dataclass
class Job:
    """One (ring, ideal) pair: its structure check and the elements to lift."""
    name: str
    ring: object
    ideal: object
    elements: list
    start_m: int = 2


def _pick(elements: list, k: int, rng) -> list:
    """k elements in seed order; without a generator, the first k ascending
    (the choice `exlift corpus` makes)."""
    k = min(k, len(elements))
    return elements[:k] if rng is None else rng.sample(elements, k)


def setup(workload: str, seed, guards) -> list:
    rng = None if seed is None else random.Random(seed)
    if workload == "tri4":
        entry = next(e for e in corpus.CORPUS
                     if e.name == "triangular(zmod(4),2)")
        ring = rings.build_ring(entry.spec, guards)
        gens = [rings.element_from_descriptor(ring, json.loads(json.dumps(g)))
                for g in entry.generators]
        ideal = rings.ideal_closure(ring, gens)
        fl = ktheory.fredholm_elements(ring, ideal)
        return [Job(entry.name, ring, ideal, _pick(fl, len(fl), rng))]
    jobs = []
    for name, ring, ideal, _tags in corpus.corpus_pairs(guards,
                                                        include_slow=False):
        fl = ktheory.fredholm_elements(ring, ideal)
        if workload == "corpus":
            jobs.append(Job(name, ring, ideal, _pick(fl, LIFTS_PER_PAIR, rng)))
        elif (rings.quotient_by(ring, ideal, guards).target.size
              <= M4_MAX_QUOTIENT):
            jobs.append(Job(name, ring, ideal, _pick(fl, 1, rng), start_m=4))
    return jobs


class Run:
    """Counts, samples and problems of one timed phase."""

    def __init__(self, speed, tracer=None):
        self.speed = speed
        self.clock = speed.clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.problems: list = []
        self.lift_ms: list = []     # reference ms of each verified lift
        self.verify_ms: list = []
        self.raw_lift_ms: list = []   # as measured
        self.raw_verify_ms: list = []
        self.pairs: list = []

    def span(self, name):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def fail(self, what: str, exc) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def problem(self, what: str) -> None:
        self.problems.append(what)


def structure(run: Run, job: Job, guards) -> dict:
    """The `exlift corpus` structure verdicts of one pair."""
    ring, ideal = job.ring, job.ideal
    entry = {"pair": job.name}
    run.attempted += 1
    try:
        with run.span("harness.structure"):
            entry["exchange"] = (exchange.is_exchange_ring(ring)
                                 and exchange.is_exchange_ideal(ring, ideal))
            K = lifting.effective_truncation(ring, guards)
            vm = vmonoid.build_v_monoid(ring, K, guards)
            s = vmonoid.v_order_ideal(vm, ideal)
            entry["refinement"] = vmonoid.has_refinement_wrt(vm.monoid, s).holds
            status = lifting.separative_exchange_status(ring, ideal, guards)
            entry["separative_exchange"] = status["ok"]
    except ExliftError as exc:
        run.fail(f"structure {job.name}", exc)
    for verdict in ("exchange", "refinement", "separative_exchange"):
        if entry.get(verdict) is not True:
            run.problem(f"{job.name}: {verdict} verdict is "
                        f"{entry.get(verdict)!r}, expected True")
    return entry


def lift_and_verify(run: Run, job: Job, x: int, guards) -> bool:
    """Lift x, emit its certificate and verify its JSON round trip; True
    when the certificate verifies."""
    ring, ideal = job.ring, job.ideal
    what = f"{job.name} x={x}"
    run.attempted += 1
    first = run.speed.bracket()
    try:
        with run.span("harness.lift"):
            t = run.clock()
            res = lifting.lift_unit(ring, ideal, x, guards,
                                    start_m=job.start_m)
            cert = res.certificate
            payload = None if cert is None else cert.to_payload()
            lift_s = run.clock() - t
    except ExliftError as exc:
        run.fail(what, exc)
        return False
    if cert is None:
        run.fail(what, RuntimeError("lift returned no certificate"))
        return False
    with run.span("harness.verify"):
        text = certificates.dumps_certificate(payload)
        loaded = json.loads(text)
        t = run.clock()
        ok, checks = certificates.verify_payload(loaded, guards)
        verify_s = run.clock() - t
    run.speed.bracket()
    f = run.speed.factor(first)
    run.lift_ms.append(lift_s * f * 1e3)
    run.verify_ms.append(verify_s * f * 1e3)
    run.raw_lift_ms.append(lift_s * 1e3)
    run.raw_verify_ms.append(verify_s * 1e3)
    y = cert.y
    if not ok:
        bad = next(c for c in checks if not c["ok"])
        run.problem(f"{what}: certificate fails '{bad['check']}'")
    if rings.element_from_descriptor(ring, loaded["x"]) != x:
        run.problem(f"{what}: certificate names another x")
    if rings.element_from_descriptor(ring, loaded["y"]) != y:
        run.problem(f"{what}: certificate names another y")
    inv = ring.inverse(y)
    if inv is None or ring.mul(y, inv) != ring.one or ring.mul(inv, y) != ring.one:
        run.problem(f"{what}: y={y} is not a unit")
    if not ideal.contains(ring.sub(x, y)):
        run.problem(f"{what}: x - y={y} is not in I")
    return ok


def timed(jobs: list, guards, speed=None, tracer=None) -> Run:
    run = Run(speed or Speed(), tracer)
    for job in jobs:
        entry = structure(run, job, guards)
        entry["lifts_verified"] = sum(
            lift_and_verify(run, job, x, guards) for x in job.elements)
        run.pairs.append(entry)
    return run


def tail(samples: list):
    """(value, percentile, n): the highest percentile with at least 10 samples
    beyond it.  Below 21 samples that would be below the median, so there is
    no tail to measure and this is the median."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0, n
    return s[n - 11], 100.0 * (n - 11) / (n - 1), n


def repetition(workload: str, seed: int, t0: float, trace: bool,
               setup_only: bool) -> dict:
    """One repetition.  Times are in reference seconds (see speed.py); the
    ``raw`` entry keeps the probe-free times as measured."""
    speed = Speed()
    tracer = None
    if trace:
        tracer = Tracer(clock=speed.clock)
        tracer.install()
    guards = Guards()
    jobs = setup(workload, seed, guards)
    setup_raw = perf_counter() - t0
    at_setup = Speed()
    at_setup.bracket()
    out = {"workload": workload, "seed": seed,
           "setup_s": setup_raw * at_setup.factor(),
           "raw": {"setup_s": setup_raw}}
    if setup_only:
        return out
    if tracer is not None:
        tracer.phase = "timed"
    t_start = speed.clock()
    with speed:
        run = timed(jobs, guards, speed, tracer)
    wall_raw = speed.clock() - t_start
    scale = speed.average_factor()
    out.update({
        "wall_s": wall_raw * scale,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "problems": run.problems,
        "correct": not run.problems,
        "pairs": run.pairs,
        "lift_ms": run.lift_ms,
        "verify_ms": run.verify_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "speed_ticks": len(speed.ticks),
    })
    out["raw"].update({
        "wall_s": wall_raw,
        "lift_ms": run.raw_lift_ms,
        "verify_ms": run.raw_verify_ms,
    })
    if run.lift_ms:
        out["lift_p50_ms"] = statistics.median(run.lift_ms)
        out["lift_tail_ms"], out["lift_tail_pct"], out["lift_n"] = tail(
            run.lift_ms)
        out["verify_p50_ms"] = statistics.median(run.verify_ms)
    if tracer is not None:
        out["layers"] = tracer.summary(wall_raw, scale)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's time.perf_counter() at spawn")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = repetition(args.workload, args.seed, args.t0, args.trace,
                     args.setup_only)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
