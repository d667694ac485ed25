"""The fingerprint that ``tools/corpus_hash.py`` prints for the referee's
reports on the benchmark corpus.

The reports must not move: the line is pinned as the script prints it, in a
process of its own, so that its caches start cold as a CLI process does.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import corpus_hash  # noqa: E402


def test_the_corpus_reports_are_pinned():
    out = subprocess.run([sys.executable, str(TOOLS / "corpus_hash.py")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "176 8242144a6a03d928\n"


def test_the_fingerprint_is_the_sha256_of_the_newline_joined_dumps():
    dumps = ['{"a":1}', '{"b":[2,3]}']
    digest = hashlib.sha256(b'{"a":1}\n{"b":[2,3]}').hexdigest()
    assert corpus_hash.fingerprint(dumps) == f"2 {digest[:16]}"
