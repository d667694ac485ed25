"""The benchmark's self-test runs against the current package.

``perfbench/spans.py`` wraps entry points of ``src/groupaut`` by name, so
renaming or deleting one of them breaks the traced benchmark run; this
test makes that a suite failure.  ``perfbench/selftest.py`` runs tiny
inputs in about a second and writes nothing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
