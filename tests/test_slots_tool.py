"""A smoke run of ``tools/slots.py`` at height 1 with one repeat, alone
and with ``--against`` one run of each tree."""

import re
import subprocess
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


ROOT = Path(__file__).resolve().parents[1]


def test_each_slot_gets_its_runs_on_both_trees():
    times = slots.compare((ROOT, ROOT), "oracle_line", 7, 1, 1, 1)
    assert list(times)[-1] is None
    assert sorted(slot for slot in times if slot is not None) == list(range(9))
    for text, stages in times.values():
        assert text and set(stages) == set(slots.STAGES)
        assert all(len(base) == len(change) == 1 and base[0] > 0 < change[0]
                   for base, change in stages.values())
    base, change = times[None][1]["cross_check"]
    assert base[0] == pytest.approx(sum(
        stages["cross_check"][0][0] for slot, (_, stages) in times.items()
        if slot is not None))


@pytest.mark.skipif(subprocess.run(
    ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
    capture_output=True).returncode != 0, reason="not a git checkout")
def test_against_prints_a_ratio_and_the_runs_won_per_slot(capsys):
    slots.main(["--against", "HEAD", "--height", "1", "--repeats", "1",
                "--runs", "1"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("oracle_line seed 7 height 1 repeats 1 runs 1:")
    assert len(out) == 1 + 9 + 1 and out[-1].startswith("all ")
    for line in out[1:]:
        # generation, _referee and cross_check: a ratio and the runs won
        cells = re.findall(r" (\d+\.\d{3})x +([01])/1 ", line)
        assert len(cells) == 3 and all(float(r) > 0 for r, _ in cells), line
    assert any(line.endswith("  ring(Z[t,1/t])") for line in out[1:])
