import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exlift",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exlift")


@pytest.fixture(scope="session")
def corpus_pairs():
    from exlift.corpus import corpus_pairs
    return corpus_pairs(include_slow=False)


@pytest.fixture(scope="session")
def corpus_pairs_full():
    from exlift.corpus import corpus_pairs
    return corpus_pairs(include_slow=True)


@pytest.fixture(scope="session")
def corpus_rings():
    """(entry, ring) for every corpus entry, building each spec once."""
    from exlift.corpus import CORPUS
    from exlift.rings import build_ring
    return [(e, build_ring(e.spec)) for e in CORPUS]


@pytest.fixture(scope="session")
def scan_rings(corpus_rings):
    """Every corpus ring, M_2(R) for each corpus ring R with |M_2(R)| <=
    4096, and the opposite of each: the rings the 2x2 step runs on, with
    and without list mirrors (M_2(Z/6), M_2(Z/8) and M_2(T_2(Z/2)) have
    none)."""
    from exlift import rings as R
    bases = list({r.spec: r for _, r in corpus_rings}.values())
    rings = bases + [R.build_ring(R.MatrixSpec(base.spec, 2))
                     for base in bases if base.size ** 4 <= 4096]
    return rings + [ring.op() for ring in rings]


@pytest.fixture(scope="session")
def cold_python():
    """Run Python source in a fresh interpreter that imports this checkout's
    ``exlift``; returns its stdout."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))

    def run(code: str, *args: str) -> str:
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300).stdout
    return run
