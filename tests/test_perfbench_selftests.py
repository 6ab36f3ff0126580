"""The benchmark's own self-tests run with the tier-1 suite.

``perfbench/test_checker.py`` pins library names the benchmark reaches
into, such as ``twistscl.cli.culler_expand``, so a library change that
would break the benchmark fails here instead of only when it runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
