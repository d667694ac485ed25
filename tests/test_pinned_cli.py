"""The pinned CLI contract: every query of the benchmark's query universe
still exits with the pinned code and prints the pinned stdout bytes.

``perfbench/pin.py --check`` compares against ``perfbench/pinned.json``
and writes nothing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pinned_cli_answers_unchanged():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "pin.py"),
                           "--check"], capture_output=True, text=True,
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith(" 0 changed"), proc.stdout
