"""Shared test fixtures."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_optimized():
    """Run a script under ``python -O`` (which strips assert statements)
    with the package source first on the path; return its stdout once it
    exits 0."""
    def run(script: str) -> str:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env,
                              check=False)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run
