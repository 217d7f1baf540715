import os
import subprocess
import sys

import pytest

from coxkit.blueprint import GroupCache
from coxkit.coxeter import standard_coxeter

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="session")
def run_optimized():
    """Run a snippet under `python -O`, where assert statements are
    stripped, with src on PYTHONPATH; returns the CompletedProcess."""
    guard = "import sys\nif not sys.flags.optimize:\n    sys.exit('not under -O')\n"

    def run(snippet: str) -> subprocess.CompletedProcess:
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-O", "-c", guard + snippet],
                              env=dict(os.environ, PYTHONPATH=path),
                              stdout=subprocess.PIPE, text=True, timeout=60)
    return run


@pytest.fixture(scope="session")
def ctx():
    return standard_coxeter()


@pytest.fixture(scope="session")
def cache(ctx):
    return GroupCache(ctx)


@pytest.fixture(scope="session")
def st_model():
    from coxkit.quadrangle import build_model
    return build_model(("s", "t"))


@pytest.fixture(scope="session")
def rt_model():
    from coxkit.quadrangle import build_model
    return build_model(("r", "t"))


@pytest.fixture(scope="session")
def theorem_setup(cache):
    from coxkit.reduction import TheoremSetup
    return TheoremSetup(cache)
