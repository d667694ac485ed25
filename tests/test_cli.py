"""End-to-end checks of the command-line front end.

These run main() in-process and pin exact bytes for a handful of
invocations, since downstream scripts diff the output.
"""

import hashlib
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


_NO_COMMON_FIELD = "sqrt(5)*(Q + Q*sqrt(2) + Q*sqrt(3))"

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
    # sqrt(5) times these generators would need a field of degree 8, so the
    # factor stays outside the module
    (("member", _NO_COMMON_FIELD, "sqrt(10)"), 0,
     '{"member":true,"witness":["0","1","0"]}\n'),
    (("member", _NO_COMMON_FIELD, "sqrt(30)"), 0,
     '{"member":false,"witness":null}\n'),
    (("aut-member", _NO_COMMON_FIELD, "sqrt(2)"), 0, '{"aut_member":false}\n'),
    (("aut-member", _NO_COMMON_FIELD, "2"), 0, '{"aut_member":true}\n'),
    (("aut", _NO_COMMON_FIELD), 2, '{"bounds":{"lower":["PM1"]}}\n'),
    # Z, Z*g and cyclic(g) spell one set, so identical factors answer alike
    # whichever spelling each one uses
    (("aut", "Z x Z"), 2, '{"bounds":{"lower":["EZ(2)","PM1"]}}\n'),
    (("aut", "Z x Z*1"), 2, '{"bounds":{"lower":["EZ(2)","PM1"]}}\n'),
    (("aut", "cyclic(2) x Z*2"), 2, '{"bounds":{"lower":["EZ(2)","PM1"]}}\n'),
    (("aut", "image(Z x Z*1, [1,1;0,1])"), 2,
     '{"bounds":{"lower":["EZ(2)","PM1"]}}\n'),
    (("aut", "Z*1 x Z*1 x Z"), 2, '{"bounds":{"lower":["EZ(3)","PM1"]}}\n'),
    # a cyclic group prints as the one-term Z-module: Z*2, and Z for Z*1
    (("cross-check", "cyclic(2) x Z", "--height", "1"), 2,
     '{"group":"Z*2 x Z","height":1,"candidates":4,"confirmed":'
     '[[["-1","0"],["0","-1"]],[["-1","0"],["0","1"]],'
     '[["1","0"],["0","-1"]],[["1","0"],["0","1"]]],'
     '"refuted":[],"agreement":true}\n'),
]


@pytest.mark.parametrize("argv,code,out", PINNED,
                         ids=[" ".join(a) for a, _, _ in PINNED])
def test_pinned_output(capsys, argv, code, out):
    got_code, got_out, got_err = run(capsys, *argv)
    assert got_out == out
    assert got_code == code
    assert got_err == ""


# R^n is the product of n lines, and a rescaled, sheared or hulled R^n
# folds back to it: every spelling answers as R^n, byte for byte
_GLR2 = '{"aut":{"kind":"GLR","n":2}}\n'
_GLR3 = '{"aut":{"kind":"GLR","n":3}}\n'
_DENSE, _DIVISIBLE = '{"dense":true}\n', '{"divisible":true}\n'
_ABSORBS = "error: the full space absorbs every invertible matrix\n"
R_N_PINNED = [
    (("aut", "R x R"), 0, _GLR2, ""),
    (("dim", "R x R"), 0, '{"dim":4}\n', ""),
    (("dense", "R x R"), 0, _DENSE, ""),
    (("divisible", "R x R"), 0, _DIVISIBLE, ""),
    (("aut", "R x R x R"), 0, _GLR3, ""),
    (("dim", "R x R x R"), 0, '{"dim":9}\n', ""),
    (("dense", "R x R x R"), 0, _DENSE, ""),
    (("divisible", "R x R x R"), 0, _DIVISIBLE, ""),
    (("aut", "sqrt(2)*(R x R)"), 0, _GLR2, ""),
    (("dim", "sqrt(2)*(R x R)"), 0, '{"dim":4}\n', ""),
    (("dense", "sqrt(2)*(R x R)"), 0, _DENSE, ""),
    (("divisible", "sqrt(2)*(R x R)"), 0, _DIVISIBLE, ""),
    (("aut", "image(R x R, [1,1;0,1])"), 0, _GLR2, ""),
    (("dim", "image(R x R, [1,1;0,1])"), 0, '{"dim":4}\n', ""),
    (("dense", "image(R x R, [1,1;0,1])"), 0, _DENSE, ""),
    (("divisible", "image(R x R, [1,1;0,1])"), 0, _DIVISIBLE, ""),
    (("aut", "hull(R x R)"), 0, _GLR2, ""),
    (("dim", "hull(R x R)"), 0, '{"dim":4}\n', ""),
    (("dense", "hull(R x R)"), 0, _DENSE, ""),
    (("divisible", "hull(R x R)"), 0, _DIVISIBLE, ""),
    (("member", "R x R", "(1,sqrt(2))"), 0,
     '{"member":true,"witness":null}\n', ""),
    (("aut-member", "R x R", "[1,sqrt(2);0,1]"), 0,
     '{"aut_member":true}\n', ""),
    (("sl-witness", "R x R x R"), 1, "", _ABSORBS),
    (("sl-witness", "image(R x R, [1,1;0,1])"), 1, "", _ABSORBS),
]


@pytest.mark.parametrize("argv,code,out,err", R_N_PINNED,
                         ids=[" ".join(a) for a, *_ in R_N_PINNED])
def test_full_space_output(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


def test_full_space_cross_check_output(capsys):
    # all 496 candidates are confirmed: pinned by length and digest, not
    # spelled out
    code, out, err = run(capsys, "cross-check", "R x R", "--height", "1")
    assert (code, err) == (0, "")
    assert out.startswith('{"group":"R x R","height":1,"candidates":496,'
                          '"confirmed":[[["-1","-1"],["-1","0"]],')
    assert out.endswith('],"refuted":[],"agreement":true}\n')
    assert len(out) == 16826
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1221770c10446e763bf43ae26897b93023f0bae5cc028032e9e79f7bbdf10f44"


# plane reports with refutations as well as confirmations, pinned by exit
# code, length, prefix and digest
PLANE_CROSS_CHECKS = [
    (("Q x Q", "1"), 0, 1217,
     '{"group":"Q x Q","height":1,"candidates":48,',
     "2a4b0eb569e98a9d9a3492dd8ece928ea7b402bbbfa22aeff3783bab53a2f733"),
    (("Q x Q", "2"), 0, 54403,
     '{"group":"Q x Q","height":2,"candidates":2080,',
     "12bf5852c6613069c27ab72b8c2d878c033394fe0db240943bce13803d6a8a48"),
    (("Z x Z", "1"), 2, 1664,
     '{"group":"Z x Z","height":1,"candidates":48,',
     "e165f7d2b21e95cd0bf9f446fc5eb110891ff258b73c2a09e9912a27b9fdae97"),
    (("Z x Z", "2"), 2, 33785,
     '{"group":"Z x Z","height":2,"candidates":496,',
     "c21de0d5ac326a6194d516a46f8a2c7af2ac1111ac8c57993d1447eaa740c904"),
    (("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))", "1"), 2, 1696,
     '{"group":"(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))","height":1,'
     '"candidates":48,',
     "d20feb310c558c016061522f3eca5828c1452e36720d6c336496a41248cca097"),
    (("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))", "2"), 2, 33817,
     '{"group":"(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))","height":2,'
     '"candidates":496,',
     "17f58444d35c12c4d6ddc08b69eb2f957ea62ee465fce6417361c32612cb1275"),
    (("(Q + Q*t) x Q", "1"), 2, 975,
     '{"group":"(Q*1 + Q*t) x Q","height":1,"candidates":36,',
     "1127e75302ec2e38738dd63f1f866773e4138eeaea12512a38f7b902dd47c41c"),
    (("(Q + Q*t) x Q", "2"), 2, 50513,
     '{"group":"(Q*1 + Q*t) x Q","height":2,"candidates":1764,',
     "c8f77c747d792c4c921329145cc01b6b82b2bb70cfdf090bafed821382e0ba3b"),
    # a real line beside a Laurent factor is sampled as q and t*q
    (("R x Q*t", "1"), 2, 1627,
     '{"group":"R x Q*t","height":1,"candidates":60,',
     "1eb833610618932f885ee3197668281bc2e44ee11e1a132dae20cc6529321c48"),
]


@pytest.mark.parametrize("args,code,length,prefix,digest", PLANE_CROSS_CHECKS,
                         ids=[" h".join(a) for a, *_ in PLANE_CROSS_CHECKS])
def test_plane_cross_check_output(capsys, args, code, length, prefix, digest):
    group, height = args
    got, out, err = run(capsys, "cross-check", group, "--height", height)
    assert (got, err) == (code, "")
    assert out.startswith(prefix)
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_a_rescaled_rational_block_prints_the_answer_of_q_x_r(capsys):
    expected = run(capsys, "aut", "Q x R")
    assert expected == (0, '{"aut":{"kind":"BlockTriangular","p":1,"q":1}}\n', "")
    for text in ("sqrt(2)*(Q x R)", "Q*sqrt(2) x R"):
        assert run(capsys, "aut", text) == expected
    assert run(capsys, "aut", "Q*sqrt(2) x Q*sqrt(3) x R") == \
        (2, '{"bounds":{"lower":["PM1"]}}\n', "")


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


# Phi(R^n) = GL(n, R), so a matrix whose inverse leaves the scalar tower (a
# Laurent determinant that is not a monomial) is still decided: the inverse
# pass reads A^-1 as adj A / det A
INVERSE_OUTSIDE_THE_TOWER = [
    (("aut-member", "R", "1+t"), 0, '{"aut_member":true}\n'),
    (("aut-member", "R x R", "[t,1;1,t]"), 0, '{"aut_member":true}\n'),
    (("aut-member", "R x R", "1+t"), 0, '{"aut_member":true}\n'),
    (("aut-member", "R x R", "[1+t,0;0,1]"), 0, '{"aut_member":true}\n'),
    (("aut-member", "Z x R", "[1,1;0,1+t]"), 0, '{"aut_member":true}\n'),
    (("aut-member", "Z x R", "[2,0;0,1+t]"), 0, '{"aut_member":false}\n'),
    # no integer generator, so the forward pass decides; the test after
    # this table pins the inverse pass's adjugate route on the same query
    (("aut-member", "R x (Q + Q*sqrt(2))", "[1+t,0;0,1]"), 0,
     '{"aut_member":true}\n'),
    # det A = 1+t divides neither column of adj A: not 1, and -sqrt(2) not
    # even in the tower (a ContextError), so both factors are read on adj A
    # over (1+t) * R, which is R again
    (("aut-member", "R x R", "[1+t,sqrt(2);0,1]"), 0, '{"aut_member":true}\n'),
]


@pytest.mark.parametrize("argv,code,out", INVERSE_OUTSIDE_THE_TOWER,
                         ids=[" ".join(a) for a, _, _ in INVERSE_OUTSIDE_THE_TOWER])
def test_an_inverse_outside_the_tower_is_answered(capsys, argv, code, out):
    assert run(capsys, *argv) == (code, out, "")


def test_the_adjugate_route_reads_a_surd_factor_on_a_column_of_the_inverse():
    # asked directly, the inverse pass takes the adjugate route: det A = 1+t
    # divides the second column of adj A, so the surd factor is read on
    # A^-1's column (0, 1) and never meets 1+t
    from groupaut.autgroup import _inverse_pass
    from groupaut.dsl import parse_descriptor, parse_matrix
    from groupaut.errors import DomainError
    from groupaut.matrices import identity
    g, a = parse_descriptor("R x (Q + Q*sqrt(2))"), parse_matrix("[1+t,0;0,1]")
    with pytest.raises(DomainError, match="only monomials"):
        a.inverse()
    m, over = _inverse_pass(g, a)
    assert m == identity(2) and over == g and over is not g


# R x R has no integer generator, so an invertible A that keeps it is
# confirmed on the forward pass: A^-1, which would join sqrt(2) with t, is
# never formed.  Where the forward pass itself joins them, the query still
# ends in the context error
MIXED_TOWERS = [
    (("aut-member", "R x R", "[-1,sqrt(2);1+sqrt(2),t]"), 0,
     '{"aut_member":true}\n', ""),
    (("aut-member", "R x (Q + Q*sqrt(2))", "[1,0;t,1]"), 1, "",
     "error: cannot join Q(sqrt2) with Q[t,1/t]\n"),
]


@pytest.mark.parametrize("argv,code,out,err", MIXED_TOWERS,
                         ids=[" ".join(a) for a, *_ in MIXED_TOWERS])
def test_mixed_towers_on_a_divisible_plane(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)
