import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def run_cli():
    """Run the CLI in a subprocess; returns CompletedProcess with text output."""

    def runner(*args, env=None, timeout=None):
        full_env = dict(os.environ)
        full_env["PYTHONPATH"] = str(SRC) + os.pathsep + full_env.get("PYTHONPATH", "")
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "friendly", *args],
            capture_output=True,
            text=True,
            env=full_env,
            timeout=timeout,
        )

    return runner
