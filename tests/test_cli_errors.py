"""Every bad invocation ends cleanly: usage and operand errors exit 1, any
unexpected exception exits 3, and the perm-demo operands are capped (exit 2).
None prints a traceback; an error prints nothing on stdout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupaut
from groupaut.errors import BudgetExceededError
from groupaut.oracle import (
    PERM_DEMO_MAX_K,
    PERM_MAX_ENTRY,
    finite_permutation_action,
    injectivity_demo,
)

SRC = str(Path(groupaut.__file__).resolve().parents[1])


def _run(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=30)


def _groupaut(*argv):
    return _run("-m", "groupaut", *argv)


BAD_INPUT = [
    ("bogus",),
    ("realize-ax", "abc"),
    ("oracle", "Q", "--height", "x"),
    ("circle-witness", "1", "(1,x)"),
    ("circle-witness", "1/0", "(1,0)"),
    ("circle-witness", "1", "1"),
    ("circle-witness", "1", "(1,2,3)"),
    ("perm-demo", "3", "--cycles", "(1,a)"),
    ("perm-demo", "--cycles", "(0,1)", "--seq", "x"),
    ("aut", "²"),
    ("aut", "t^²"),
    ("aut", "Q*sqrt(²)"),
    ("member", "Q", "²"),
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_one_without_a_traceback(argv):
    proc = _groupaut(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unexpected_exception_exits_three():
    code = ("import sys, groupaut.cli as cli\n"
            "def boom(g):\n"
            "    raise RuntimeError('boom')\n"
            "cli.aut_group = boom\n"
            "sys.exit(cli.main(['aut', 'Q']))\n")
    proc = _run("-c", code)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("argv", [
    ("perm-demo", str(PERM_DEMO_MAX_K + 1)),
    ("perm-demo", "--cycles", f"(0,{PERM_MAX_ENTRY + 1})"),
], ids=["k", "cycle entry"])
def test_perm_demo_above_its_caps_exits_two(argv):
    proc = _groupaut(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("depth", [200, 250])
def test_deep_nesting_answers_or_exits_two(depth):
    proc = _groupaut("aut", "(" * depth + "Q" + ")" * depth)
    assert "Traceback" not in proc.stderr
    if depth == 200:
        assert (proc.returncode, proc.stdout) == (0, '{"aut":{"kind":"RatStar"}}\n')
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "budget exceeded: nesting too deep to parse\n"


@pytest.mark.parametrize("argv, position", [
    (("aut", "²"), 0),
    (("aut", "t^²"), 2),
    (("aut", "Q*sqrt(²)"), 7),
    (("member", "Q", "²"), 0),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_a_numeral_that_int_cannot_read_is_an_unexpected_character(argv, position):
    proc = _groupaut(*argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: unexpected character '²' (at position {position})\n"


def test_a_decimal_digit_of_another_script_is_a_digit():
    proc = _groupaut("aut", "Zinv(٣)")
    assert (proc.returncode, proc.stdout) == \
        (0, '{"aut":{"kind":"PMPowers","base":"3"}}\n')


def test_negative_sl_witness_budget_is_an_input_error():
    proc = _groupaut("sl-witness", "Q x Q", "--budget", "-1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: the budget must be at least 0, got -1\n"
    # a budget of 0 is well formed, and runs out before the first check
    proc = _groupaut("sl-witness", "Q x Q", "--budget", "0")
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "witness": None, "reason": "no witness within 0 certificate checks"}


def test_perm_demo_at_its_caps_answers():
    proc = _groupaut("perm-demo", "--cycles", f"(0,{PERM_MAX_ENTRY})",
                     "--seq", "1")
    assert proc.returncode == 0
    image = json.loads(proc.stdout)["image"]
    assert image == ["0"] * PERM_MAX_ENTRY + ["1"]
    proc = _groupaut("perm-demo", str(PERM_DEMO_MAX_K))
    assert (proc.returncode, proc.stdout) \
        == (0, f'{{"k":{PERM_DEMO_MAX_K},"injective":true}}\n')


@pytest.mark.parametrize("cycles", ["(0,1", "0,1", "(0,1)x"])
def test_malformed_cycles_exit_one(cycles):
    # only balanced groups, with whitespace between them, are cycles
    proc = _groupaut("perm-demo", "--cycles", cycles, "--seq", "1,2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: not a sequence of cycles")
    assert "Traceback" not in proc.stderr


def test_well_formed_cycles_keep_their_answer():
    for cycles in ("(0,3)(1,2,5)", " (0,3) (1,2,5) "):
        proc = _groupaut("perm-demo", "--cycles", cycles, "--seq", "1,2,3,4")
        assert (proc.returncode, proc.stdout) \
            == (0, '{"image":["4","3","0","1","0","2"]}\n')


def test_perm_demo_caps_in_process():
    assert injectivity_demo(PERM_DEMO_MAX_K) is True
    with pytest.raises(BudgetExceededError):
        injectivity_demo(PERM_DEMO_MAX_K + 1)
    image = finite_permutation_action([(0, PERM_MAX_ENTRY)], [1])
    assert len(image) == PERM_MAX_ENTRY + 1 and image[PERM_MAX_ENTRY] == 1
    with pytest.raises(BudgetExceededError):
        finite_permutation_action([(0, PERM_MAX_ENTRY + 1)], [1])


# 2 * (10^30 + 57): the closed form needs the cofactor's primes, the
# certificate only gcds with m
HALF_FACTORED = "Zinv(2000000000000000000000000000114)"


@pytest.mark.parametrize("value, answer", [("2", "true"), ("3", "false")])
def test_aut_member_answers_past_the_factoring_budget(value, answer):
    proc = _groupaut("aut-member", HALF_FACTORED, value)
    assert (proc.returncode, proc.stdout) == (0, f'{{"aut_member":{answer}}}\n')


def test_aut_past_the_factoring_budget_still_exits_two():
    proc = _groupaut("aut", HALF_FACTORED)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("budget exceeded: ")
