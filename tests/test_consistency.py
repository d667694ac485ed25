"""One rule compares the two decision routes, and every refutation replays.

``admits`` is checked against reference copies of the two rules it
replaced: the three checks of ``aut_member`` and the agreement flag of
``cross_check``, on the cross-check corpus and on closed forms patched to be
wrong.
"""

import inspect
from fractions import Fraction

import pytest

from groupaut import autgroup, oracle
from groupaut.autgroup import (
    GLQ,
    GLR,
    Bounds,
    EZLowerBound,
    Exact,
    FieldUnits,
    PatternQuad,
    PlusMinusOne,
    RatStar,
    acts_invariantly,
    admits,
    aut_group,
    aut_member,
    contains,
    descriptor_code,
    kind_name,
    pm_powers,
)
from groupaut.descriptors import Domain, dimension, laurent_ring, member, scaled
from groupaut.dsl import parse_descriptor, parse_scalar
from groupaut.errors import BudgetExceededError, ConsistencyError, DomainError
from groupaut.oracle import brute_force_aut, candidate_matrices, cross_check
from groupaut.scalars import exact_div, one, rational, sqrt_rational, t_monomial

P = parse_descriptor
S = parse_scalar
T = t_monomial(1)


# --- reference copies of the two former rules -------------------------------

def ref_aut_member_checks(g, a, result, verdict):
    """The checks of ``aut_member`` before ``admits``, with the
    certificate's verdict passed in."""
    if isinstance(result, Exact):
        predicted = contains(result.descriptor, a)
        if predicted != verdict:
            raise ConsistencyError(
                f"closed form {descriptor_code(result.descriptor)} and "
                f"certificate disagree on {a!r} for {kind_name(g)}")
        return predicted
    if not verdict and any(contains(d, a) for d in result.lower):
        raise ConsistencyError(
            f"a lower bound claims {a!r} for {kind_name(g)} but the "
            f"certificate refutes it")
    if verdict and not all(contains(d, a) for d in result.upper):
        raise ConsistencyError(
            f"an upper bound excludes {a!r} for {kind_name(g)} but the "
            f"certificate confirms it")
    return verdict


def ref_cross_check_agreement(report, result):
    """The agreement flag of ``cross_check`` before ``admits``."""
    if isinstance(result, Exact):
        lower = upper = (result.descriptor,)
    else:
        lower, upper = result.lower, result.upper
    return not any(contains(d, r.candidate)
                   for r in report.refuted for d in lower) \
        and all(contains(d, c) for c in report.confirmed for d in upper)


def _passes(fn, *args):
    try:
        fn(*args)
    except ConsistencyError:
        return False
    return True


LINES = ["Z", "Q", "R", "Zinv(6)", "Zinv(2)", "Q + Q*sqrt(2)",
         "Z*1 + Q*sqrt(2)", "cyclic(1+sqrt(2))", "ring(Z[t,1/t])",
         "ring(Q[t,1/t])", "Q + Q*t", "sqrt(3)*Z"]
PLANES = ["Q x Z", "Q x Q*sqrt(2)", "R x R", "Z x Z", "Q x R", "Q x Q"]
WRONG = [Exact(RatStar()), Exact(PlusMinusOne()), Exact(FieldUnits(2)),
         Exact(pm_powers(2)), Exact(GLQ(2)), Exact(GLR(2)),
         Exact(PatternQuad(sqrt_rational(2))),
         Bounds((RatStar(),)), Bounds((PlusMinusOne(),), (PlusMinusOne(),)),
         Bounds((EZLowerBound(2), PlusMinusOne())),
         Bounds((PlusMinusOne(),), (GLQ(2),))]


@pytest.mark.parametrize("text", LINES + PLANES)
def test_admits_matches_the_two_former_rules(monkeypatch, text):
    g = P(text)
    height = 2 if dimension(g) == 1 else 1
    referee = oracle._referee(g, height)
    report = referee[0]
    verdicts = [(c, True) for c in report.confirmed] \
        + [(r.candidate, False) for r in report.refuted]
    # cross_check classifies through _referee: reuse this run's classes
    monkeypatch.setattr(oracle, "_referee", lambda *_: referee)
    outcomes = set()
    for result in [aut_group(g)] + WRONG:
        for a, verdict in verdicts:
            got = _passes(admits, result, a, verdict)
            assert got == _passes(ref_aut_member_checks, g, a, result, verdict), \
                (text, result, a, verdict)
            outcomes.add(got)
        monkeypatch.setattr(oracle, "aut_group", lambda _: result)
        assert cross_check(g, height).agreement \
            == ref_cross_check_agreement(report, result), (text, result)
    assert outcomes == {True, False}   # both agreement and disagreement seen


def test_admits_names_both_verdicts():
    with pytest.raises(ConsistencyError,
                       match="Qx contains .* certificate refutes"):
        admits(Exact(RatStar()), rational(2), False)
    with pytest.raises(ConsistencyError,
                       match="PM1 excludes .* certificate confirms"):
        admits(Bounds((PlusMinusOne(),), (PlusMinusOne(),)), rational(2), True)


def test_aut_member_raises_when_the_closed_form_is_wrong(monkeypatch):
    monkeypatch.setattr(autgroup, "aut_group", lambda _: Exact(PlusMinusOne()))
    with pytest.raises(ConsistencyError, match="certificate confirms"):
        aut_member(P("Q"), 2)


# --- the factoring budget ---------------------------------------------------

# 2 * (10^30 + 57): the cofactor has no prime factor below the trial bound
HALF_FACTORED = "Zinv(2000000000000000000000000000114)"


def test_aut_member_answers_past_the_factoring_budget():
    g = P(HALF_FACTORED)
    with pytest.raises(BudgetExceededError):
        aut_group(g)
    assert aut_member(g, 2) is True
    assert aut_member(g, Fraction(-1, 4)) is True
    assert aut_member(g, 3) is False


# --- replayed refutations ---------------------------------------------------

def test_a_witness_that_does_not_replay_raises(monkeypatch):
    # the unscaled generator sqrt(2) maps to 6469693230, inside G
    monkeypatch.setattr(autgroup, "_rat_witness", lambda g, vec, m: vec)
    with pytest.raises(ConsistencyError, match="does not replay"):
        acts_invariantly(P("Z*1 + Q*sqrt(2)"), S("3234846615*sqrt(2)"))


def test_a_witness_outside_g_raises(monkeypatch):
    # 1/3 is not in Z*1 + Q*sqrt(2), though its image (1+sqrt(2))/3 is not
    # either: a witness must be a member
    monkeypatch.setattr(autgroup, "_rat_witness",
                        lambda g, vec, m: (rational(Fraction(1, 3)),))
    with pytest.raises(ConsistencyError, match="does not replay"):
        acts_invariantly(P("Z*1 + Q*sqrt(2)"), S("1+sqrt(2)"))


def test_a_ring_refutation_that_does_not_replay_raises(monkeypatch):
    # t is a unit of Z[t,1/t]: 1/t is in the ring, so "inverse" cannot replay
    monkeypatch.setattr(autgroup, "is_unit", lambda ring, r: False)
    with pytest.raises(ConsistencyError, match="inverse refutation"):
        acts_invariantly(laurent_ring(Domain.INT), T)


def test_a_generator_check_that_lies_raises(monkeypatch):
    # a check that fails on a member leaves a witness whose image is in G
    monkeypatch.setattr(autgroup, "holds", lambda kind, g, v: False)
    with pytest.raises(ConsistencyError, match="forward refutation"):
        acts_invariantly(P("Z"), 1)


def test_ring_images_outside_the_tower_are_outside_g():
    ring = laurent_ring(Domain.INT)
    cert = acts_invariantly(ring, 1 + T)
    assert (cert.verdict, cert.failing_generator, cert.direction) \
        == (False, (one(),), "inverse")
    assert exact_div(one(), 1 + T) is None
    # sqrt(2) * Z[t,1/t]: neither sqrt(2) / (1+t) nor sqrt(2) * t/2 is in
    # the tower at all
    g = scaled(sqrt_rational(2), ring)
    for r, direction in ((1 + T, "inverse"), (t_monomial(1, Fraction(1, 2)),
                                              "forward")):
        cert = acts_invariantly(g, r)
        assert (cert.verdict, cert.direction) == (False, direction)
        assert member(g, cert.failing_generator).member


# --- the oracle's caps ------------------------------------------------------

def test_matrix_enumeration_is_capped_at_height_three():
    g = P("Q x Q")
    for fn in (brute_force_aut, cross_check, candidate_matrices):
        assert "allow_large" not in inspect.signature(fn).parameters
        with pytest.raises(DomainError, match="capped at height 3"):
            fn(g, 4)
