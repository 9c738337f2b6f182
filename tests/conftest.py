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
    from exlift.corpus import corpus_rings
    return corpus_rings()


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
