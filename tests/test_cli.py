"""End-to-end checks of the command-line front end.

These run main() in-process and pin exact bytes for a handful of
invocations, since downstream scripts diff the output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupaut
from groupaut.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# exact bytes, not just parsed equality
PINNED = [
    (("aut", "Q + Q*sqrt(2)"), 0, '{"aut":{"kind":"FieldUnits","d":2}}\n'),
    (("realize-ax", "4"), 0, '{"realizable":false,"refuter":"2"}\n'),
    (("aut", "(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))"), 2,
     '{"bounds":{"lower":["EZ(2)","PM1"]}}\n'),
    (("aut", "Q"), 0, '{"aut":{"kind":"RatStar"}}\n'),
    (("aut", "ring(Z[t,1/t])"), 0, '{"aut":{"kind":"PMPowers","base":"t"}}\n'),
    (("realize-ax", "5"), 0, '{"realizable":true,"group":"Zinv(5)"}\n'),
    (("member", "Q + Q*sqrt(2)", "1+sqrt(2)"), 0,
     '{"member":true,"witness":["1","1"]}\n'),
    (("member", "Z*1 + Q*sqrt(2)", "1/2"), 0,
     '{"member":false,"witness":null}\n'),
    (("aut-member", "Q x Q", "[1,1;0,1]"), 0, '{"aut_member":true}\n'),
    (("aut-member", "Q x Q", "[1,sqrt(2);0,1]"), 0, '{"aut_member":false}\n'),
    (("dim", "R x R"), 0, '{"dim":4}\n'),
    (("dim", "Q x R"), 0, '{"dim":2}\n'),
    (("divisible", "Z*1 + Q*sqrt(2)"), 0, '{"divisible":false}\n'),
    (("dense", "Z*1 + Q*sqrt(2)"), 0, '{"dense":true}\n'),
    (("cyclic", "Z*sqrt(2)"), 0, '{"cyclic":true,"generator":"sqrt(2)"}\n'),
    (("circle-witness", "25", "(6,0)"), 0,
     '{"points":[["3","4"],["3","-4"]],"sum":["6","0"]}\n'),
    (("perm-demo", "4"), 0, '{"k":4,"injective":true}\n'),
]


@pytest.mark.parametrize("argv,code,out", PINNED,
                         ids=[" ".join(a) for a, _, _ in PINNED])
def test_pinned_output(capsys, argv, code, out):
    got_code, got_out, got_err = run(capsys, *argv)
    assert got_out == out
    assert got_code == code
    assert got_err == ""


def test_repeated_invocations_are_byte_identical(capsys):
    first = run(capsys, "cross-check", "Q", "--height", "3")
    second = run(capsys, "cross-check", "Q", "--height", "3")
    assert first == second
    assert first[0] == 0


def test_parse_error_goes_to_stderr_with_position(capsys):
    code, out, err = run(capsys, "aut", "Q + ")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "position" in err


def test_zero_denominator_is_an_input_error(capsys):
    code, out, err = run(capsys, "member", "Q", "1/0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "zero denominator" in err


def test_zero_denominator_process_has_no_traceback():
    src = Path(groupaut.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "groupaut", "member", "Q", "1/0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_unparseable_vector_is_an_input_error(capsys):
    code, out, err = run(capsys, "member", "Q x Q", "(1/2, ]")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_bounds_verdict_exits_two(capsys):
    code, out, _ = run(capsys, "aut", "Zinv(6)")
    assert code == 2
    assert json.loads(out) == {"bounds": {"lower": ["A(2)", "A(3)"]}}


def test_dim_on_bounds_exits_two(capsys):
    code, out, _ = run(capsys, "dim",
                       "(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))")
    assert code == 2
    assert json.loads(out)["dim"] is None


def test_pretty_flag_indents(capsys):
    code, out, _ = run(capsys, "--pretty", "aut", "Q")
    assert code == 0
    assert out == '{\n  "aut": {\n    "kind": "RatStar"\n  }\n}\n'


def test_oracle_report_shape(capsys):
    code, out, _ = run(capsys, "oracle", "Q", "--height", "2")
    assert code == 0
    report = json.loads(out)
    assert report["group"] == "Q"
    assert report["height"] == 2
    assert report["candidates"] == 6
    assert report["confirmed"] == ["-2", "-1", "-1/2", "1", "1/2", "2"]
    assert report["refuted"] == []
    assert report["agreement"] is None


def test_cross_check_fills_agreement(capsys):
    code, out, _ = run(capsys, "cross-check", "Q + Q*sqrt(2)", "--height", "2")
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_cross_check_on_bounds_group_exits_two(capsys):
    code, out, _ = run(capsys, "cross-check",
                       "(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))",
                       "--height", "2")
    assert code == 2
    assert json.loads(out)["agreement"] is True


def test_sl_witness_pinned(capsys):
    code, out, _ = run(capsys, "sl-witness", "Q x Q")
    assert code == 0
    got = json.loads(out)
    assert got["witness"] == [["1", "sqrt(2)"], ["0", "1"]]
    assert got["direction"] in ("forward", "inverse")


def test_sl_witness_budget_exhaustion_exits_two(capsys):
    code, out, _ = run(capsys, "sl-witness", "Q x Q", "--budget", "1")
    assert code == 2
    assert json.loads(out)["witness"] is None


def test_sl_witness_rejects_full_space(capsys):
    code, out, err = run(capsys, "sl-witness", "R x R")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_perm_demo_apply_mode(capsys):
    code, out, _ = run(capsys, "perm-demo",
                       "--cycles", "(0,3)(1,2,5)", "--seq", "1,2,3,4")
    assert code == 0
    assert json.loads(out) == {"image": ["4", "3", "0", "1", "0", "2"]}


def test_aut_member_scalar_round_trip(capsys):
    # every nonzero field element multiplies the field onto itself ...
    code, out, _ = run(capsys, "aut-member", "Q + Q*sqrt(2)", "2-sqrt(2)")
    assert (code, json.loads(out)) == (0, {"aut_member": True})
    # ... but a scalar outside the field does not
    code, out, _ = run(capsys, "aut-member", "Q + Q*sqrt(2)", "sqrt(3)")
    assert (code, json.loads(out)) == (0, {"aut_member": False})


# 10^30 + 57 has no prime factor below the trial-division bound
LARGE = "1000000000000000000000000000057"


@pytest.mark.parametrize("argv", [("realize-ax", LARGE),
                                  ("aut", f"Zinv({LARGE})"),
                                  ("aut", f"Q+Q*sqrt({LARGE})")],
                         ids=["realize-ax", "zinv", "quadratic"])
def test_large_integer_factoring_exits_two_promptly(argv):
    src = Path(groupaut.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "groupaut", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ")
    assert "Traceback" not in proc.stderr


def test_consistency_error_exits_three(capsys, monkeypatch):
    from groupaut.errors import ConsistencyError

    def disagree(g):
        raise ConsistencyError("the routes disagree")

    monkeypatch.setattr("groupaut.cli.aut_group", disagree)
    code, out, err = run(capsys, "aut", "Q")
    assert code == 3
    assert out == ""
    assert "the routes disagree" in err


def test_laurent_scaling_prints_the_same_answer(capsys):
    # Phi(r*G) = Phi(G), also for a factor that is not a unit of Q[t,1/t]
    assert run(capsys, "aut", "t^-1*(Q + Q*t)") == run(capsys, "aut", "Q + Q*t")
    for text in ("Q*(1+t)", "Q + Q*t^-1", "t^-1*(Q + Q*t)"):
        assert run(capsys, "aut", text) == (0, '{"aut":{"kind":"RatStar"}}\n', "")


def _replays(group, a, witness, direction):
    from groupaut.descriptors import member
    from groupaut.dsl import parse_descriptor, parse_matrix, parse_scalar
    from groupaut.matrices import vec_mat_mul
    g = parse_descriptor(group)
    a = parse_matrix(a)
    w = tuple(parse_scalar(x) for x in witness)
    m = a if direction == "forward" else a.inverse()
    return member(g, w).member and not member(g, vec_mat_mul(w, m)).member


@pytest.mark.parametrize("group", ["(Q + Q*t) x R", "R x (Q + Q*t)"])
def test_sl_witness_in_the_formal_tower(capsys, group):
    # rational multiples stay in Q + Q*t and surds cannot join it: the real
    # line leaves G through a power of t
    code, out, err = run(capsys, "sl-witness", group)
    assert (code, err) == (0, "")
    got = json.loads(out)
    a = "[" + ";".join(",".join(row) for row in got["witness"]) + "]"
    assert "t^2" in got["failing_generator"]
    assert _replays(group, a, got["failing_generator"], got["direction"])


@pytest.mark.parametrize("group,a", [("(Q + Q*t) x R", "[1,0;1,1]"),
                                     ("Q*t x R", "[1,0;t,1]")])
def test_aut_member_refutes_in_the_formal_tower(capsys, group, a):
    from groupaut.autgroup import acts_invariantly
    from groupaut.dsl import parse_descriptor, parse_matrix, scalar_to_text
    assert run(capsys, "aut-member", group, a) == (0, '{"aut_member":false}\n', "")
    cert = acts_invariantly(parse_descriptor(group), parse_matrix(a))
    witness = [scalar_to_text(x) for x in cert.failing_generator]
    assert _replays(group, a, witness, cert.direction)
