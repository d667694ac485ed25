"""A fixed census of ``tools/census.py``: one seed of 500 draws.

Every question must end in one of the ways aim 3 names: a decided answer,
bounds or an exhausted budget, an input error, or a ConsistencyError (exit
3 with its message).  An exit 3 from any other exception is a crash, and
no question may take a second of CPU.  No count is pinned.
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import census  # noqa: E402

# cli.main names the type of an exception outside GroupAutError
_CRASH = re.compile(r"internal error: [A-Za-z_][\w.]*: ")


def test_a_census_ends_every_question_cleanly():
    asked = unwritable = 0
    for argv in census.questions(6, 500):
        if isinstance(argv, str):
            unwritable += 1
            continue
        code, out, err, cpu = census.ask(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert code != 3 or not _CRASH.match(err), (argv, err)
        assert (code == 0) <= (bool(out) and not err), (argv, out, err)
        assert cpu < 1.0, (argv, cpu)
        asked += 1
    assert asked + unwritable == 500 and asked > 300


def test_the_report_has_one_line_per_ending(capsys):
    census.main(["--seeds", "6", "--draws", "40"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("seeds 6, 40 draws each: ")
    assert out[1].split() == ["command", "exit", "stderr", "count", "max",
                              "CPU", "ms", "first", "argv"]
    keys = [tuple(line.split()[:3]) for line in out[2:]]
    assert keys == sorted(set(keys), key=lambda k: (k[0], int(k[1]), k[2]))
    asked = sum(int(line.split()[3]) for line in out[2:])
    assert out[0].split(": ")[1].startswith(f"{asked} asked")


def test_first_word_reads_past_the_prefix():
    assert census.first_word("") == "-"
    assert census.first_word("error: cannot join Q[t,1/t] with Q(sqrt2)\n") \
        == "cannot"
    assert census.first_word("internal error: KeyError: 3\n") == "KeyError"
    assert census.first_word("budget exceeded: no witness\n") == "no"
