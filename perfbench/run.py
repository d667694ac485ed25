"""Benchmark of groupaut.

    python3 perfbench/run.py --workload oracle_line --seed 1 --seconds 30 --trace 0

Runs one workload (``oracle_line``, ``oracle_plane`` or ``query_mix``, see
``DESIGN.md``) from the root of a checkout, checks every answer, and prints
one line per metric followed by a JSON summary as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced for ``--seconds``.  With ``--trace 1`` they are its
per-layer metrics: passes over the same inputs alternate untraced and
traced, for ``--seconds``, and the ratio of their times is the tracing
overhead.

Only the standard library is used.  The package is imported from ``src/``
next to this directory; without it the script exits with code 2.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("oracle_line", "oracle_plane", "query_mix")
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload, seed):
    """Inside a fresh interpreter: import groupaut and build the inputs.
    Prints their CPU time scaled to the idle machine, as requests are."""
    t0 = time.process_time_ns()
    import workloads
    workloads.build_inputs(workload, seed)
    setup_s = (time.process_time_ns() - t0) / 1e9
    print(setup_s * workloads.Speedometer().scale_now())


def measure_setup(workload, seed):
    """Median over fresh interpreters of import plus input building."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", "0"]
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def environment():
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "groupaut").glob("*.py"))
    return {"machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_sha": sha,
            "src_lines": src_lines}


def timed_run(workload, inputs, seconds):
    import workloads
    outcome = workloads.execute(workload, inputs, seconds)
    workloads.check_certificates(workload, outcome)
    return outcome


def traced_run(workload, inputs, seconds):
    """Alternate an untraced and a traced pass over the same inputs until
    ``seconds`` have passed; returns the outcomes and per-layer metrics."""
    import spans
    import workloads
    if workload != "query_mix":
        inputs = inputs[:1]
    plain_s, traced_s, passes, outcomes = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outcome = workloads.execute(workload, inputs)
        plain_s.append(outcome.busy_s)
        outcomes.append(outcome)
        with spans.Tracer().traced() as tracer:
            traced = workloads.execute(workload, inputs)
        traced_s.append(traced.busy_s)
        outcomes.append(traced)
        passes.append((tracer, traced))
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    metrics = spans.layer_metrics(passes, overhead)
    # every pass answers the same operations: replay one pass's certificates
    workloads.check_certificates(workload, outcomes[0])
    print(f"trace: {len(passes)} traced passes of {traced.attempted} "
          f"operations, "
          f"untraced {statistics.median(plain_s):.3f} s, "
          f"traced {statistics.median(traced_s):.3f} s per pass")
    return outcomes, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "groupaut" / "__init__.py").is_file():
        sys.stderr.write(f"error: no groupaut package under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s, setup_samples = measure_setup(args.workload, args.seed)

    import workloads
    inputs = workloads.build_inputs(args.workload, args.seed)
    if args.trace:
        outcomes, metrics = traced_run(args.workload, inputs, args.seconds)
        wanted = declared["per_layer"]
    else:
        outcomes = [timed_run(args.workload, inputs, args.seconds)]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = workloads.end_to_end(outcomes[0], setup_s, peak_mb)
        wanted = declared["end_to_end"]

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {missing}\n")
        return 2

    print("env:", json.dumps(environment(), sort_keys=True))
    print("setup samples (s):", " ".join(f"{s:.4f}" for s in setup_samples))
    scales = [x for o in outcomes for x in o.speed.scales]
    print(f"machine speed: the calibration loop ran at "
          f"{statistics.median(scales):.3f} (median) of its idle speed, "
          f"range {min(scales):.3f} to {max(scales):.3f}, {len(scales)} checks")
    if not args.trace:
        typical = [statistics.median(t)
                   for t, _ in outcomes[0].by_key().values()]
        tail = workloads.percentile(typical, workloads.corpus.TAIL_PERCENTILE)
        print(f"requests timed: {len(outcomes[0].request_s)}; keys (corpus "
              f"slots or stream positions): {len(typical)}, "
              f"{sum(x > tail for x in typical)} beyond the tail percentile")
    print(f"fail_share: {len(failures) / max(attempted, 1):.6f} ratio "
          f"({len(failures)} of {attempted})")
    for name, reason in failures[:20]:
        print(f"FAILED {name}: {reason}")
    result = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        print(f"{spec['name']}: {value} {unit}")
        result[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
