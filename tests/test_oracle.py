import random
from fractions import Fraction

import pytest

from groupaut import autgroup
from groupaut.autgroup import acts_invariantly
from groupaut.descriptors import member
from groupaut.dsl import parse_descriptor, scalar_to_text
from groupaut.errors import DomainError, UnsupportedError
from groupaut.matrices import classify
from groupaut.oracle import (
    brute_force_aut,
    candidate_matrices,
    candidate_scalars,
    cross_check,
    enumerate_members,
    finite_permutation_action,
    injectivity_demo,
    report_to_json,
)
from groupaut.scalars import one, rational, sqrt_rational

P = parse_descriptor


def texts(scalars):
    return sorted(scalar_to_text(s) for s in scalars)


def test_candidate_scalars_pinned_sets():
    assert texts(candidate_scalars(P("Q"), 2)) == \
        ["-1", "-1/2", "-2", "1", "1/2", "2"]
    assert texts(candidate_scalars(P("cyclic(3)"), 3)) == \
        ["-1", "-1/2", "-1/3", "-2", "-2/3", "-3", "-3/2",
         "1", "1/2", "1/3", "2", "2/3", "3", "3/2"]


def test_candidate_scalars_reach_units():
    cands = candidate_scalars(P("Z*1 + Q*sqrt(2)"), 2)
    assert any(s == rational(1) + sqrt_rational(2) for s in cands)
    assert one() in cands and rational(-1) in cands
    assert all(not s.is_zero() for s in cands)
    assert all(s.height <= 2 for s in cands)


def test_enumerate_members_is_deterministic_and_sound():
    for text in ("Q", "Z*1 + Q*sqrt(2)", "Zinv(2)", "ring(Z[t,1/t])",
                 "hull(cyclic(3))", "sqrt(2)*Q", "Q x Q*sqrt(2)"):
        g = P(text)
        sample = enumerate_members(g, 2)
        assert sample == enumerate_members(g, 2)
        assert len(sample) == len(set(sample))
        for v in sample:
            assert member(g, v).member, (text, v)


def test_rigidity_confirmed_exactly_sign_flips():
    rep = brute_force_aut(P("Z*1 + Q*sqrt(2)"), 3)
    assert texts(rep.confirmed) == ["-1", "1"]
    assert rep.candidates > 100
    assert rep.agreement is None      # the referee alone takes no side


def test_rationals_fully_confirmed():
    rep = brute_force_aut(P("Q"), 3)
    assert rep.refuted == ()
    assert len(rep.confirmed) == rep.candidates


def test_refutations_carry_witnesses():
    rep = brute_force_aut(P("Z*1 + Q*sqrt(2)"), 2)
    assert rep.refuted
    g = P("Z*1 + Q*sqrt(2)")
    for r in rep.refuted[:10]:
        assert member(g, r.witness).member
        assert r.direction in ("forward", "inverse")


def test_monotonicity_in_height():
    for text in ("Q", "Zinv(2)", "cyclic(3)"):
        g = P(text)
        small = {s.sort_key() for s in brute_force_aut(g, 2).confirmed}
        large = {s.sort_key() for s in brute_force_aut(g, 3).confirmed}
        assert small <= large, text


def test_dichotomy_probe():
    # a confirmed candidate beyond the sign flips generates an infinite
    # confirmed family: its first powers stay distinct and invariant
    for text in ("Q", "Zinv(2)", "ring(Q[t,1/t])"):
        g = P(text)
        rep = brute_force_aut(g, 2)
        extra = [s for s in rep.confirmed
                 if s != one() and s != rational(-1)]
        assert extra, text
        s = extra[0]
        powers = [s]
        for _ in range(4):
            powers.append(powers[-1] * s)
        assert len({p.sort_key() for p in powers}) == 5
        assert all(acts_invariantly(g, p).verdict for p in powers)


def test_soundness_definitional_recheck():
    # confirmed scalars map a member sample back into the group, whatever
    # order the generators were checked in
    rng = random.Random(11)
    for text in ("Q", "Zinv(6)", "Q + Q*sqrt(2)", "cyclic(3/2)"):
        g = P(text)
        rep = brute_force_aut(g, 2)
        sample = enumerate_members(g, 2)
        picks = rng.sample(list(rep.confirmed),
                           min(6, len(rep.confirmed)))
        for c in picks:
            for v in sample:
                assert member(g, (v[0] * c,)).member


def test_cross_check_exact_rows():
    for text, height in (("Q + Q*sqrt(2)", 2), ("ring(Z[t,1/t])", 2),
                         ("Q", 3), ("Z*1 + Q*sqrt(2)", 2), ("Q + Q*t", 2),
                         ("Q*sqrt(2) x R", 2)):
        rep = cross_check(P(text), height)
        assert rep.agreement is True, text


def test_cross_check_laurent_units():
    rep = cross_check(P("ring(Z[t,1/t])"), 3)
    assert rep.agreement is True
    for s in rep.confirmed:
        if s.is_rational():
            assert abs(s.as_fraction()) == 1
        else:
            assert len(s.coords) == 1 and abs(s.coords[0][1]) == 1


def test_cross_check_formal_line_only_rationals():
    rep = cross_check(P("Q + Q*t"), 3)
    assert rep.agreement is True
    assert all(s.is_rational() for s in rep.confirmed)
    assert len(rep.confirmed) == 14


def test_cross_check_pattern_matrices():
    rep = cross_check(P("Q x Q*sqrt(2)"), 2)
    assert rep.agreement is True
    assert rep.refuted == ()          # the row filter is sharp here
    assert all(classify(m).in_GL for m in rep.confirmed)


def test_cross_check_bounds_one_sided():
    rep = cross_check(P("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))"), 2)
    assert rep.agreement is True
    assert any(classify(m).in_EZ for m in rep.confirmed)
    # every integer matrix of determinant +-1 among the candidates passed
    for r in rep.refuted:
        assert not classify(r.candidate).in_EZ


def test_matrix_candidates_guard_rails():
    with pytest.raises(DomainError):
        candidate_matrices(P("Q x Q"), 4)
    with pytest.raises(UnsupportedError):
        candidate_matrices(P("Q x Q x Q"), 2)
    with pytest.raises(UnsupportedError):
        candidate_matrices(P("image(Q x Q, [1,1;0,1])"), 2)
    with pytest.raises(DomainError):
        candidate_scalars(P("Q x Q"), 2)
    with pytest.raises(DomainError):
        brute_force_aut(P("Q"), 0)
    with pytest.raises(UnsupportedError):
        brute_force_aut(P("Q x Q x Q"), 2)


def test_the_check_memo_does_not_outlive_a_run(monkeypatch):
    # a run remembers its generator checks; the next run asks them again
    g = P("Z x Z")
    first = brute_force_aut(g, 2)
    assert first.candidates > 0 and first.confirmed
    asked = []
    honest = autgroup.holds

    def counted(kind, g, v):
        asked.append(kind)
        return honest(kind, g, v)

    monkeypatch.setattr(autgroup, "holds", counted)
    assert brute_force_aut(g, 2) == first and asked
    monkeypatch.setattr(autgroup, "holds", lambda kind, g, v: False)
    lying = brute_force_aut(g, 2)
    assert lying.candidates == 0 != first.candidates


def test_report_json_shape():
    rep = cross_check(P("Q"), 2)
    payload = report_to_json(rep)
    assert payload == {
        "group": "Q",
        "height": 2,
        "candidates": 6,
        "confirmed": ["-2", "-1", "-1/2", "1", "1/2", "2"],
        "refuted": [],
        "agreement": True,
    }
    rep = brute_force_aut(P("Z"), 2)
    payload = report_to_json(rep)
    assert payload["agreement"] is None
    assert payload["refuted"]
    first = payload["refuted"][0]
    assert set(first) == {"candidate", "witness", "direction"}


# ---------------------------------------------------------------------------
# permutations of finite-support sequences
# ---------------------------------------------------------------------------

def test_permutation_action_examples():
    assert finite_permutation_action([(0, 1)], (1, 2)) == \
        (Fraction(2), Fraction(1))
    assert finite_permutation_action([], (1, 2, 3)) == \
        (Fraction(1), Fraction(2), Fraction(3))
    # a 3-cycle pulling values from beyond the written support
    assert finite_permutation_action([(0, 1, 4)], (Fraction(1, 2),)) == \
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2))


def test_permutation_action_is_a_bijection_on_samples():
    rng = random.Random(5)
    cycles = [(0, 3), (1, 2, 5)]
    seen = set()
    for _ in range(50):
        seq = tuple(Fraction(rng.randint(-4, 4)) for _ in range(6))
        image = finite_permutation_action(cycles, seq)
        assert sorted(image) == sorted(seq)
        seen.add((seq, image))
    back = [(0, 3), (1, 5, 2)]
    for seq, image in seen:
        assert finite_permutation_action(back, image) == seq


def test_permutation_malformed_cycles():
    with pytest.raises(DomainError):
        finite_permutation_action([(0, 1), (1, 2)], (1, 2, 3))
    with pytest.raises(DomainError):
        finite_permutation_action([(-1, 0)], (1,))
    with pytest.raises(DomainError):
        finite_permutation_action([()], (1,))


def test_injectivity_demo():
    assert injectivity_demo(4)
    assert injectivity_demo(1)
    with pytest.raises(DomainError):
        injectivity_demo(0)
