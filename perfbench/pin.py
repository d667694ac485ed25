"""Record the expected answer of every query of the query universe.

    python3 perfbench/pin.py            # rewrite perfbench/pinned.json
    python3 perfbench/pin.py --check    # compare against it, write nothing

Each query of ``corpus.query_universe()`` runs once through the in-process
CLI with cold caches.  Its exit code and stdout bytes are pinned, so the
benchmark holds the program to the byte-identical CLI contract.  Where the
paper decides the answer, the pinned answer must agree with the paper, and
every query must end in a decided answer (exit 0) or honest bounds
(exit 2); anything else stops the script.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import workloads  # noqa: E402


def record():
    entries, problems = [], []
    for argv in corpus.query_universe():
        workloads.clear_caches()
        code, stdout, stderr, _ = workloads.run_cli(argv)
        if code not in (0, 2):
            problems.append(f"{argv}: exit {code} {stderr.strip()}")
        elif corpus.paper_verdict(argv, code, stdout) is False:
            problems.append(f"{argv}: contradicts the paper: {stdout.strip()}")
        entries.append([argv, code, stdout])
    return entries, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the pinned file instead of writing")
    args = parser.parse_args()
    entries, problems = record()
    for p in problems:
        print("problem:", p)
    if problems:
        return 1
    if args.check:
        pinned = corpus.load_pinned()
        changed = [argv for argv, code, out in entries
                   if pinned.get(json.dumps(argv)) != (code, out)]
        for argv in changed:
            print("changed:", argv)
        print(f"{len(entries)} queries, {len(changed)} changed")
        return 1 if changed else 0
    with open(corpus.PINNED, "w") as fh:
        fh.write('{"queries": [\n')
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]}\n")
    print(f"pinned {len(entries)} queries to {corpus.PINNED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
