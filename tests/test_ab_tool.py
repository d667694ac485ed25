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
