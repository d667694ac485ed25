"""Smoke test of the benchmark itself, on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

For each workload it checks that every metric BENCHMARK.json declares is
produced, with its declared unit, both untraced and traced.  It also checks
that a wrong answer, a certificate that does not replay, a crash and an
argparse exit are each counted as a failed operation instead of stopping
the run.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from groupaut import dsl, oracle, scalars  # noqa: E402


def declared(kind):
    """The metrics BENCHMARK.json declares: "end_to_end" or "per_layer"."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]


TINY = {
    "oracle_line": (["Zinv(3)", "R", "Q + Q*t"], 2),
    "oracle_plane": (["Q x Z"], 2),
}


def tiny_inputs(workload):
    if workload == "query_mix":
        full = workloads.build_inputs(workload, seed=1)
        stream = [q for q in full["stream"] if not q[1].startswith("image(")]
        stream = stream[:40] + [corpus.image_query(random.Random(1), 3)]
        return dict(full, stream=stream)
    texts, _ = TINY[workload]
    return [[_group(t, slot) for slot, t in enumerate(texts)]]


def _group(text, slot=0):
    return {"text": text, "desc": dsl.parse_descriptor(text), "slot": slot}


def run_tiny(workload, inputs):
    if workload == "query_mix":
        return workloads.execute(workload, inputs)
    return workloads.run_oracle(inputs, TINY[workload][1])


def check_units(metrics, declared, label):
    for spec in declared:
        name = spec["name"]
        assert name in metrics, f"{label}: {name} missing"
        value, unit = metrics[name]
        assert unit == spec["unit"], f"{label}: {name} in {unit}"
        assert isinstance(value, (int, float)), f"{label}: {name} = {value!r}"


def test_metrics(workload):
    inputs = tiny_inputs(workload)
    outcome = run_tiny(workload, inputs)
    workloads.check_certificates(workload, outcome)
    assert not outcome.failures, outcome.failures
    check_units(workloads.end_to_end(outcome, 0.1, 20.0),
                declared("end_to_end"), workload)
    with spans.Tracer().traced() as tracer:
        traced = run_tiny(workload, inputs)
    check_units(spans.layer_metrics([(tracer, traced)], 1.0),
                declared("per_layer"), f"{workload} traced")
    assert tracer.stats, "no span was recorded"


def test_wrong_answer_is_counted():
    inputs = tiny_inputs("query_mix")
    argv = inputs["stream"][0]
    pinned = dict(inputs["pinned"])
    code, out = pinned[json.dumps(argv)]
    pinned[json.dumps(argv)] = (code, out.replace("true", "false") + " ")
    outcome = workloads.run_queries([argv, ["no-such-command"]], pinned)
    reasons = [reason for _, reason in outcome.failures]
    assert len(reasons) == 2, reasons
    assert "expected" in reasons[0] and "SystemExit" in reasons[1], reasons
    assert outcome.attempted == 2


def test_bad_certificates_are_counted():
    g = _group("Zinv(3)")
    outcome = workloads.Outcome()
    one = scalars.rational(1)
    # the identity maps every member into G: this refutation cannot replay
    for direction in ("forward", "sideways"):
        r = oracle.Refutation(one, (one,), direction)
        outcome.refutations[direction] = (g, r)
    workloads.replay_refutations(outcome)
    assert len(outcome.failures) == 2 and outcome.attempted == 2

    outcome = workloads.Outcome()
    bogus = {"witness": [["1", "0"], ["0", "1"]], "failing_generator": ["1", "0"],
             "direction": "forward"}
    for stdout in (json.dumps(bogus), "not json"):
        outcome.witnesses["sl-witness", stdout] = ["sl-witness", "Q x Q"]
    workloads.replay_witnesses(outcome)
    assert len(outcome.failures) == 2 and outcome.attempted == 2


def test_crash_is_counted():
    g = _group("Q x Q x Q")
    outcome = workloads.run_oracle([[g]], 1)
    assert len(outcome.failures) == 1 and outcome.attempted == 1
    assert not outcome.request_s


def main():
    tests = [(f"metrics {w}", lambda w=w: test_metrics(w))
             for w in ("oracle_line", "oracle_plane", "query_mix")]
    tests += [("wrong answer counted", test_wrong_answer_is_counted),
              ("bad certificates counted", test_bad_certificates_are_counted),
              ("crash counted", test_crash_is_counted)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    print(f"{len(tests) - failed} of {len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
