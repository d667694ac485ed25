"""The summary of ``tools/ab.py`` on canned ``perfbench/run.py`` results."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ab  # noqa: E402


def _line(rate, tail, failed=0):
    return json.dumps({"correct": not failed, "attempted": 100,
                       "failed": failed, "metrics": {
                           "queries_per_s": {"value": rate, "unit": "1/s"},
                           "query_tail_ms": {"value": tail, "unit": "ms"}}})


BETTER = {"queries_per_s": "higher", "query_tail_ms": "lower"}


def test_summary_reads_medians_quartiles_ratio_and_wins():
    # base tails 1.0..1.9 and rates 100..109; the change wins every tail
    # pair by a clear margin and every rate pair but the tie
    pairs = [(_line(100 + i, 1.0 + i / 10),
              _line(100 + i + (i > 0), 0.5 + i / 20)) for i in range(10)]
    rate, tail = ab.summarize(pairs, BETTER)
    assert tail["name"] == "query_tail_ms" and tail["unit"] == "ms"
    assert tail["base"] == pytest.approx((1.175, 1.45, 1.725))
    assert tail["change"][1] == pytest.approx(0.725)
    assert tail["ratio"] == pytest.approx(0.5)
    assert (tail["wins"], tail["pairs"], tail["clear"]) == (10, 10, True)
    # a tie counts for neither side; 9 of 10 wins is enough, but the rate
    # medians lie within the base's quartiles
    assert (rate["wins"], rate["clear"]) == (9, False)
    assert rate["ratio"] == pytest.approx(105.5 / 104.5)


def test_summary_of_one_pair_and_failures():
    pairs = [(_line(100, 2.0), _line(90, 2.5, failed=3))]
    rate, tail = ab.summarize(pairs, BETTER)
    assert rate["base"] == (100, 100, 100)
    assert (rate["wins"], tail["wins"]) == (0, 0)
    assert ab.failures(pairs) == [(0, 100), (3, 100)]


def test_all_workloads_run_on_each_pairs_seed_in_alternating_order(capsys):
    calls = []

    def fake(tree, workload, seed, seconds):
        calls.append((tree, workload, seed))
        return _line(100 if tree == "base" else 110, 2.0, failed=seed % 2)

    pairs = ab.run_pairs(["base", "change"], ["w1", "w2"], 40, 3, 1.0,
                         run=fake)
    assert calls == [
        ("base", "w1", 40), ("change", "w1", 40),
        ("base", "w2", 40), ("change", "w2", 40),
        ("change", "w1", 41), ("base", "w1", 41),
        ("change", "w2", 41), ("base", "w2", 41),
        ("base", "w1", 42), ("change", "w1", 42),
        ("base", "w2", 42), ("change", "w2", 42)]
    assert list(pairs) == ["w1", "w2"]
    assert pairs["w1"][1] == (_line(100, 2.0, 1), _line(110, 2.0, 1))
    assert "pair 2/3 seed 41 (change first)" in capsys.readouterr().out


def test_one_report_per_workload_with_its_failures(capsys):
    pairs = {"w1": [(_line(100, 2.0), _line(110, 1.0, failed=2))],
             "w2": [(_line(100, 2.0, failed=1), _line(90, 3.0))]}
    ab.report_all(pairs, BETTER)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "== w1"
    assert out[1] == "failed: base 0 of 100, change 2 of 100"
    assert out[2].startswith("queries_per_s (1/s): base 100 ")
    assert out[2].endswith("ratio 1.100  wins 1/1  clear")
    assert out[4] == "== w2"
    assert out[5] == "failed: base 1 of 100, change 0 of 100"
    assert out[6].endswith("ratio 0.900  wins 0/1")
    assert len(out) == 8
    # a single workload prints as before, with no heading
    ab.report_all({"w1": pairs["w1"]}, BETTER)
    assert capsys.readouterr().out.splitlines()[0].startswith("failed: ")
