"""Print a fingerprint of the referee's reports on the benchmark corpus.

    python3 tools/corpus_hash.py

The reports are ``report_to_json(cross_check(g, h))`` for every group g of
``corpus.all_line_groups() + corpus.all_plane_groups()``, parsed from its
text, at heights h = 1 and 2, in that order (group-major).  Each is dumped
with ``json.dumps(..., separators=(",", ":"))`` and the dumps are joined by
newlines.  The script prints the number of reports and the first 16 hex
digits of the sha256 of the joined text, so that two revisions can be
checked for the same answers on the corpus without storing the reports.

It reads ``perfbench/corpus.py`` and writes nothing.  Only the standard
library is used.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEIGHTS = (1, 2)


def reports():
    """The compact JSON text of every corpus report, in group-major order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import corpus
    from groupaut.dsl import parse_descriptor
    from groupaut.oracle import cross_check, report_to_json

    return [json.dumps(report_to_json(cross_check(parse_descriptor(g["text"]), h)),
                       separators=(",", ":"))
            for g in corpus.all_line_groups() + corpus.all_plane_groups()
            for h in HEIGHTS]


def fingerprint(dumps):
    """'<count> <first 16 hex digits of the sha256 of the joined dumps>'."""
    digest = hashlib.sha256("\n".join(dumps).encode()).hexdigest()
    return f"{len(dumps)} {digest[:16]}"


def main():
    print(fingerprint(reports()))


if __name__ == "__main__":
    main()
