"""Checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The equivalence test runs `exlift corpus --format machine` and the `corpus`
workload with the same element choice (about 25 s together).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import tracing
import workloads

ROOT = run.ROOT


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([run.SRC, run.HERE])
    env.pop("EXLIFT_GUARD", None)
    return env


def test_corpus_workload_matches_cli():
    """The `corpus` workload reaches the same per-pair verdicts and
    `lifts_verified` counts as `exlift corpus` when it lifts the same
    elements (the first three of each pair, ascending)."""
    proc = subprocess.run(
        [sys.executable, "-m", "exlift.cli", "corpus", "--format", "machine"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    cli = json.loads(proc.stdout)["pairs"]

    guards = workloads.Guards()
    got = workloads.timed(workloads.setup("corpus", None, guards), guards)
    assert not got.problems and got.failed == 0
    keys = ("pair", "exchange", "refinement", "separative_exchange",
            "lifts_verified")
    assert [{k: p[k] for k in keys} for p in got.pairs] == \
        [{k: p[k] for k in keys} for p in cli]
    assert len(got.lift_ms) == sum(p["lifts_verified"] for p in cli)


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = workloads.tail(list(range(94)))
    assert (value, n) == (83, 94) and 89 < pct < 90
    # too few samples for a tail: report the median
    assert workloads.tail(list(range(16)))[:2] == (7.5, 50.0)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["lifting.lift_unit", None, 0.0, 10.0, "timed"],
               ["matrices.e_orbit_factor", 0, 1.0, 7.0, "timed"],
               ["matrices.try_inverse", 1, 2.0, 3.0, "timed"],
               ["rings.build_ring", None, 0.0, 2.0, "setup"]]
    out = t.summary(wall_s=10.0)
    assert out["lifting.lift_unit_s"] == 4.0
    assert out["matrices.e_orbit_factor_s"] == 5.0
    assert out["matrices.try_inverse_s"] == 1.0
    assert out["rings.build_ring_s"] == 2.0
    assert out["share.matrices"] == 0.6 and out["share.rings"] == 0.0


def test_tracer_wraps_every_binding():
    code = ("from tracing import Tracer; Tracer().install()\n"
            "from exlift import certificates, lifting, matrices, vmonoid\n"
            "fns = [lifting.e_orbit_factor, matrices.e_orbit_factor,\n"
            "       lifting.try_inverse, certificates.try_inverse,\n"
            "       matrices.try_inverse, lifting.build_v_monoid]\n"
            "assert all(hasattr(f, '__wrapped__') for f in fns)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
