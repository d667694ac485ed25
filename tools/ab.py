"""Alternate the benchmark on two revisions; compare their end-to-end metrics.

    python3 tools/ab.py BASE CHANGE --workload query_mix --seed 9301 \
        --pairs 10 --seconds 30
    python3 tools/ab.py BASE CHANGE --workload all --pairs 10 --seconds 30

Each revision (anything ``git archive`` takes: a commit, a branch, the
output of ``git stash create``) is exported into a temporary directory, and
``python3 -m compileall -q src perfbench`` is run in each export.  Without
that step a copy whose ``.pyc`` files are missing or stale recompiles on
every import when PYTHONDONTWRITEBYTECODE is set, which inflates its
``setup_s`` and ``peak_rss_mb``.  Then N pairs of
``perfbench/run.py --trace 0`` run, pair i on seed SEED + i, alternating
which side goes first.  With ``--workload all`` each pair runs every
workload that BENCHMARK.json declares, in its order, each on the pair's seed
and in the pair's side order, and a report is printed per workload.  A
report gives the failed operations of each side and, for each metric, each
side's median and quartiles, the ratio of the medians (change over base),
the pairs the change won by the metric's direction in BENCHMARK.json (ties
count for neither), and whether the gain is clear: won in at least nine
tenths of the pairs, with medians further apart than the base's quartiles.

Only the standard library is used.  Nothing is written in the repository;
the exports live in a temporary directory that is removed at exit.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, dest):
    """Write the tree of ``rev`` under ``dest`` and compile its modules."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=dest, check=True)


def run_once(tree, workload, seed, seconds):
    """The JSON summary line of one untraced benchmark run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
        timeout=3 * seconds + 600)
    return proc.stdout.strip().splitlines()[-1]


def quartiles(xs):
    """(first quartile, median, third quartile) of ``xs``."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def summarize(pairs, better):
    """Per-metric comparison of (base line, change line) result pairs.

    ``better`` maps each metric name to "lower" or "higher".  Returns one
    dict per metric, in the order of ``better``."""
    results = [(json.loads(a)["metrics"], json.loads(b)["metrics"])
               for a, b in pairs]
    rows = []
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        base = [a[name]["value"] for a, _ in results]
        change = [b[name]["value"] for _, b in results]
        wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        rows.append({
            "name": name, "unit": results[0][0][name]["unit"],
            "base": bq, "change": cq,
            "ratio": cq[1] / bq[1] if bq[1] else float("nan"),
            "wins": wins, "pairs": len(results),
            "clear": (10 * wins >= 9 * len(results)
                      and abs(cq[1] - bq[1]) > bq[2] - bq[0])})
    return rows


def failures(pairs):
    """(failed, attempted) summed over each side of the pairs."""
    sides = ([json.loads(a) for a, _ in pairs],
             [json.loads(b) for _, b in pairs])
    return [(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))
            for s in sides]


def report(rows):
    for r in rows:
        (b1, bm, b3), (c1, cm, c3) = r["base"], r["change"]
        print(f"{r['name']} ({r['unit']}): base {bm:.6g} [{b1:.6g}, {b3:.6g}]"
              f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  ratio {r['ratio']:.3f}"
              f"  wins {r['wins']}/{r['pairs']}"
              f"{'  clear' if r['clear'] else ''}")


def run_pairs(trees, workloads, seed, count, seconds, run=run_once):
    """{workload: [(base line, change line)] per pair}.  Pair i runs each
    workload on seed + i, base first when i is even."""
    pairs = {w: [] for w in workloads}
    for i in range(count):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for workload in workloads:
            lines = {side: run(trees[side], workload, seed + i, seconds)
                     for side in order}
            pairs[workload].append((lines[0], lines[1]))
        first = "base" if order[0] == 0 else "change"
        print(f"pair {i + 1}/{count} seed {seed + i} ({first} first)",
              flush=True)
    return pairs


def report_all(pairs, better):
    """One report per workload, headed by its name when there are several."""
    for workload, runs in pairs.items():
        if len(pairs) > 1:
            print(f"== {workload}")
        (bf, ba), (cf, ca) = failures(runs)
        print(f"failed: base {bf} of {ba}, change {cf} of {ca}")
        report(summarize(runs, better))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=9301)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = [Path(tmp) / "base", Path(tmp) / "change"]
        for rev, tree in zip((args.base, args.change), trees):
            export(rev, tree)
        declared = json.loads((trees[1] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in declared["end_to_end"]}
        workloads = [w["name"] for w in declared["workloads"]] \
            if args.workload == "all" else [args.workload]
        pairs = run_pairs(trees, workloads, args.seed, args.pairs,
                          args.seconds)
    report_all(pairs, better)


if __name__ == "__main__":
    main()
