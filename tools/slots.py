"""Time each corpus slot of an oracle workload, slowest first.

    python3 tools/slots.py --workload oracle_line --seed 7 --height 2 \
        --repeats 3

The workload's passes are built from the seed as ``perfbench/run.py``
builds them (``workloads.build_inputs``): each pass holds one group per
corpus slot, with radicands drawn per pass.  Every group of every pass is
cross-checked ``--repeats`` times, with the package caches cleared before
each call, as the workload does.  Each call is preceded by two more, each
timed alone with the caches cleared: candidate generation
(``oracle.candidate_scalars``, or ``oracle._matrix_classes`` drained on a
plane) and the referee (``oracle._referee``).  For each slot the script
prints the median process-CPU times of the three over its calls, the
median candidate count, and the ``cross_check`` median's share of the sum
of the slots' medians, slowest first, then the slot's group text in the
first pass.  The referee less generation is the certificates' share, and
``cross_check`` less the referee is the closed form's and ``admits``'.
The workload's ``query_tail_ms`` is the p99 of the slots' ``cross_check``
medians, so with fewer than a hundred slots the first line is the slot
that sets it.  Times are raw CPU times, not scaled by the workload's
calibration loop.

It reads ``perfbench/corpus.py`` and ``perfbench/workloads.py`` and writes
nothing.  Only the standard library is used.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oracle_line", "oracle_plane")


def _timed(call, *args):
    """(process-CPU seconds, result) of call(*args)."""
    t0 = time.process_time_ns()
    result = call(*args)
    return (time.process_time_ns() - t0) / 1e9, result


def slot_times(workload, seed, height, repeats):
    """[(median seconds of generation, of _referee and of cross_check,
    median candidates, share, slot, text)] per corpus slot, slowest
    cross_check first."""
    for path in (str(ROOT / "perfbench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from groupaut import oracle
    from groupaut.descriptors import dimension

    def generate(g, h):
        if dimension(g) == 1:
            return oracle.candidate_scalars(g, h)
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="oracle_line")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--height", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    sys.dont_write_bytecode = True
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
