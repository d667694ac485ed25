"""Time each corpus slot of an oracle workload, slowest first.

    python3 tools/slots.py --workload oracle_line --seed 7 --height 2 \
        --repeats 3

The workload's passes are built from the seed as ``perfbench/run.py``
builds them (``workloads.build_inputs``): each pass holds one group per
corpus slot, with radicands drawn per pass.  Every group of every pass is
cross-checked ``--repeats`` times, with the package caches cleared before
each call, as the workload does.  Each call is preceded by two more, each
timed alone with the caches cleared: candidate generation
(what ``oracle._referee`` reads: ``oracle._scalar_classes`` on a line, and
``oracle._matrix_classes`` drained on a plane) and the referee
(``oracle._referee``).  For each slot the script
prints the median process-CPU times of the three over its calls, the
median candidate count, and the ``cross_check`` median's share of the sum
of the slots' medians, slowest first, then the slot's group text in the
first pass.  The referee less generation is the certificates' share, and
``cross_check`` less the referee is the closed form's and ``admits``'.
The workload's ``query_tail_ms`` is the p99 of the slots' ``cross_check``
medians, so with fewer than a hundred slots the first line is the slot
that sets it.  Times are raw CPU times, not scaled by the workload's
calibration loop.

With ``--against REV`` the script ranks a change instead:

    python3 tools/slots.py --against e7d051b --workload oracle_line \
        --seed 7 --height 2 --repeats 3 --runs 6

REV is exported with ``tools/ab.py``'s ``export``.  Then ``--runs`` rounds
time the slots in fresh processes, one in REV's tree and one in the
checkout, alternating which goes first.  For each slot and each of the
three stages it prints the ratio of the medians over the runs (checkout
over REV) and the runs in which the checkout was faster, slowest slot
first, and last the same for the sum over the slots.  Each process pays
its own imports, and a burst of machine load falls on one run of one
side, not on every slot of one side.

A tree from before ``oracle._scalar_classes`` has none, and there
generation on a line times ``oracle.candidate_scalars``, which its
referee read.

It reads ``perfbench/corpus.py`` and ``perfbench/workloads.py`` and writes
nothing in the repository.  Only the standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oracle_line", "oracle_plane")
STAGES = ("generation", "_referee", "cross_check")


def _timed(call, *args):
    """(process-CPU seconds, result) of call(*args)."""
    t0 = time.process_time_ns()
    result = call(*args)
    return (time.process_time_ns() - t0) / 1e9, result


def slot_times(workload, seed, height, repeats, tree=ROOT):
    """[(median seconds of generation, of _referee and of cross_check,
    median candidates, share, slot, text)] per corpus slot, slowest
    cross_check first, timing the package and the workloads of ``tree``."""
    for path in (str(tree / "perfbench"), str(tree / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from groupaut import oracle
    from groupaut.descriptors import dimension

    line = getattr(oracle, "_scalar_classes", oracle.candidate_scalars)

    def generate(g, h):
        if dimension(g) == 1:
            return line(g, h)
        return list(oracle._matrix_classes(g, h, {}))

    passes = workloads.build_inputs(workload, seed)
    times, cands, stages = {}, {}, {}
    for _ in range(repeats):
        for groups in passes:
            for g in groups:
                for stage in (generate, oracle._referee):
                    workloads.clear_caches()
                    stages.setdefault((g["slot"], stage), []).append(
                        _timed(stage, g["desc"], height)[0])
                workloads.clear_caches()
                seconds, report = _timed(
                    oracle.cross_check, g["desc"], height)
                times.setdefault(g["slot"], []).append(seconds)
                cands.setdefault(g["slot"], []).append(report.candidates)
    workloads.clear_caches()
    medians = {slot: statistics.median(ts) for slot, ts in times.items()}
    total = sum(medians.values())
    texts = {g["slot"]: g["text"] for g in passes[0]}
    rows = [(statistics.median(stages[slot, generate]),
             statistics.median(stages[slot, oracle._referee]), m,
             statistics.median(cands[slot]), m / total, slot, texts[slot])
            for slot, m in medians.items()]
    return sorted(rows, key=lambda row: (-row[2], row[5]))


def compare(trees, workload, seed, height, repeats, runs):
    """{slot: (text, {stage: ([seconds per run] in trees[0], in trees[1])})}
    from ``runs`` rounds of one fresh process per tree, alternating which
    goes first, in the order of the slots' cross_check medians in
    trees[1], slowest first; the slot None holds the sums over the slots."""
    times = {}
    for i in range(runs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--tree", str(trees[side]), "--workload", workload,
                 "--seed", str(seed), "--height", str(height),
                 "--repeats", str(repeats)],
                capture_output=True, text=True, check=True)
            rows = json.loads(proc.stdout)
            total = [sum(row[k] for row in rows) for k in range(3)]
            for *seconds, _, _, slot, text in rows + [total + [0, 1, None,
                                                               "all slots"]]:
                _, stages = times.setdefault(slot, (text, {}))
                for stage, s in zip(STAGES, seconds):
                    stages.setdefault(stage, ([], []))[side].append(s)

    def order(item):
        slot, (_, stages) = item
        return slot is None, -statistics.median(stages["cross_check"][1])
    return dict(sorted(times.items(), key=order))


def report_against(times):
    """Each slot's median ratio and runs won per stage, one line a slot."""
    for slot, (text, stages) in times.items():
        cells = []
        for stage in STAGES:
            base, change = stages[stage]
            ratio = statistics.median(change) / statistics.median(base)
            wins = sum(c < b for b, c in zip(base, change))
            cells.append(f"{ratio:6.3f}x {wins:2d}/{len(base)}")
        name = "all" if slot is None else f"{slot:>3}"
        print(f"{name} {'  '.join(cells)}  {text}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="oracle_line")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--height", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--against", metavar="REV",
                    help="rank the checkout against this revision")
    ap.add_argument("--runs", type=int, default=6,
                    help="rounds of fresh processes with --against")
    ap.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeats < 1 or args.runs < 1:
        ap.error("--repeats and --runs must be at least 1")
    sys.dont_write_bytecode = True
    if args.tree is not None:
        # one side of --against: the rows as JSON
        print(json.dumps(slot_times(args.workload, args.seed, args.height,
                                    args.repeats, args.tree)))
        return
    if args.against is not None:
        sys.path.insert(0, str(ROOT / "tools"))
        import ab
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "base"
            ab.export(args.against, base)
            times = compare((base, ROOT), args.workload, args.seed,
                            args.height, args.repeats, args.runs)
        print(f"{args.workload} seed {args.seed} height {args.height} "
              f"repeats {args.repeats} runs {args.runs}: slot, then per "
              f"generation, _referee and cross_check the median ratio of "
              f"the checkout over {args.against} and the runs it won, group")
        report_against(times)
        return
    rows = slot_times(args.workload, args.seed, args.height, args.repeats)
    print(f"{args.workload} seed {args.seed} height {args.height} "
          f"repeats {args.repeats}: slot, median ms per candidate "
          f"generation, per _referee and per cross_check, median "
          f"candidates, share, group")
    for *seconds, candidates, share, slot, text in rows:
        times = "".join(f"{1000 * s:9.3f} " for s in seconds)
        print(f"{slot:>3} {times}{candidates:7g} {100 * share:5.1f}%  {text}")


if __name__ == "__main__":
    main()
