"""A smoke run of ``tools/slots.py`` at height 1 with one repeat."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import slots  # noqa: E402


@pytest.mark.parametrize("workload, count", [("oracle_line", 9),
                                             ("oracle_plane", 7)])
def test_every_slot_is_timed_once_slowest_first(workload, count):
    rows = slots.slot_times(workload, 7, 1, 1)
    assert sorted(slot for *_, slot, _ in rows) == list(range(count))
    times = [seconds for seconds, *_ in rows]
    assert times == sorted(times, reverse=True) and times[-1] > 0
    assert sum(share for _, _, share, _, _ in rows) == pytest.approx(1)
    assert all(candidates >= 1 for _, candidates, *_ in rows)


def test_the_report_names_each_slot(capsys):
    slots.main(["--workload", "oracle_line", "--height", "1",
                "--repeats", "1"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("oracle_line seed 7 height 1 repeats 1:")
    assert len(out) == 10
    assert any(line.endswith("%  ring(Z[t,1/t])") for line in out[1:])
