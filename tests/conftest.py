import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsebss
from sparsebss import load_preset

# Ten 2-component velocity vectors of the worked clustering example; the
# golden tables in test_clustering derive from these.
WORKED_VELOCITIES = np.array(
    [
        [1, 2],
        [-2, 3],
        [1, 2],
        [2, 4],
        [5, 3],
        [-1, -2],
        [-4, 6],
        [5, 5],
        [-4, 6],
        [5, 10],
    ],
    dtype=float,
)


@pytest.fixture
def worked_velocities():
    return WORKED_VELOCITIES.copy()


@pytest.fixture(scope="session")
def example1():
    """(config, sources, clean mixtures) of the two-pulse 250 Hz scenario."""
    config = load_preset("example1")
    sources, mixtures = config.generate()
    return config, sources, mixtures


def run_fresh(code, timeout=None, **env):
    """Stdout of ``code`` run by a fresh interpreter that imports this package.

    ``env`` sets environment variables for it on top of this process's.  A
    run that outlasts ``timeout`` seconds fails the test rather than hang it.
    """
    path = os.pathsep.join(
        filter(None, [str(Path(sparsebss.__file__).parent.parent), os.environ.get("PYTHONPATH")])
    )
    env = dict(os.environ, **env, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        timeout=timeout,
    )
    return result.stdout.strip()
