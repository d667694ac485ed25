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
    times = [seconds for _, _, seconds, *_ in rows]
    assert times == sorted(times, reverse=True) and times[-1] > 0
    assert all(generate > 0 and referee > 0
               for generate, referee, *_ in rows)
    assert sum(share for *_, share, _, _ in rows) == pytest.approx(1)
    assert all(candidates >= 1 for *_, candidates, _, _, _ in rows)


@pytest.mark.parametrize("workload, count", [("oracle_line", 9),
                                             ("oracle_plane", 7)])
def test_the_report_names_each_slot(workload, count, capsys):
    slots.main(["--workload", workload, "--height", "1", "--repeats", "1"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{workload} seed 7 height 1 repeats 1:")
    assert "per candidate generation, per _referee and per cross_check" \
        in out[0]
    assert len(out) == count + 1
    assert all(len(line.split("%")[0].split()) == 6 for line in out[1:])
    if workload == "oracle_line":
        assert any(line.endswith("%  ring(Z[t,1/t])") for line in out[1:])
