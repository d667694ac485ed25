"""The one-dimensional referee uses G = -G: each ± pair of ratios is formed
once, and each ± pair of candidates is certified once.

``_old_ratios``, ``_old_brute_force_aut`` and ``_old_laurent_members`` are
the routes that formed and certified both signs, their bodies copied
verbatim: the Laurent members are the Laurent branch of
``oracle._scalars_1d``, built by scalar ops, and ``_old_candidate_scalars``
is ``candidate_scalars`` over ``_old_ratios``.  The new routes must give
the same candidates, members and reports.
"""

import itertools
import random
from fractions import Fraction

import pytest

from groupaut import autgroup, oracle
from groupaut.autgroup import acts_invariantly
from groupaut.descriptors import Domain, dimension
from groupaut.dsl import parse_descriptor
from groupaut.errors import DomainError, GroupAutError, UnsupportedError
from groupaut.oracle import (
    OracleReport,
    Refutation,
    _check_height,
    _fractions,
    _scalars_1d,
    brute_force_aut,
    candidate_matrices,
    candidate_scalars,
    enumerate_members,
    report_to_json,
)
from groupaut.scalars import one, products_within, rational, t_monomial, zero

from test_descriptors import _random_group


# --- the routes that used both signs, verbatim --------------------------------

def _old_ratios(numerators, denominators, h):
    closed = set(numerators).issuperset(-x for x in numerators)
    inverses, taken = [], set()
    for y in denominators:
        if y.is_zero() or (closed and -y in taken):
            continue
        try:
            inverses.append(y.invert())
        except DomainError:
            continue        # not a unit of the representation tower
        taken.add(y)
    return {r.sort_key(): r for r in products_within(numerators, inverses, h)}


def _old_candidate_scalars(g, height):
    h = _check_height(height)
    if dimension(g) != 1:
        raise DomainError("scalar candidates are a one-dimensional notion")
    members = [v[0] for v in enumerate_members(g, h) if not v[0].is_zero()]
    found = _old_ratios(members, members, h)
    for s in (one(), rational(-1)):
        found.setdefault(s.sort_key(), s)
    return [found[k] for k in sorted(found)]


def _old_brute_force_aut(g, height=3):
    h = _check_height(height)
    n = dimension(g)
    checks: dict = {}       # the run's generator checks, each asked once
    if n == 1:
        candidates: list = _old_candidate_scalars(g, h)
    elif n == 2:
        candidates = candidate_matrices(g, h, checks)
    else:
        raise UnsupportedError(
            "the brute-force referee handles one or two dimensions")
    confirmed = []
    refuted = []
    for c in candidates:
        cert = acts_invariantly(g, c, checks)
        if cert.verdict:
            confirmed.append(c)
        else:
            refuted.append(Refutation(c, cert.failing_generator,
                                      cert.direction))
    return OracleReport(g, h, len(candidates), tuple(confirmed),
                        tuple(refuted))


def _old_laurent_members(g, h):
    coeffs = [Fraction(k) for k in range(-h, h + 1) if k != 0] \
        if g.coeffs is Domain.INT else [q for q in _fractions(h) if q != 0]
    exps = range(-h, h + 1)
    out = [zero()]
    for k in exps:
        for c in coeffs:
            out.append(t_monomial(k) * rational(c))
    for k1, k2 in itertools.combinations(exps, 2):
        for c1 in coeffs:
            for c2 in coeffs:
                out.append(t_monomial(k1) * rational(c1)
                           + t_monomial(k2) * rational(c2))
    return out


# --- new against old ----------------------------------------------------------

LINES = ["Z", "Q", "Z*3", "Zinv(2)", "Zinv(6)", "sqrt(2)*Zinv(3)", "R",
         "ring(Z[t,1/t])", "t*ring(Z[t,1/t])", "ring(Q[t,1/t])", "Q + Q*t",
         "Z*(2/3) + Z*t + Q*t^2", "Z*1 + Q*sqrt(2)", "Z*sqrt(2) + Q*sqrt(3)",
         "Q + Q*sqrt(5)", "Q*sqrt(2) + Q*sqrt(3)", "hull(Z*1 + Z*sqrt(2))"]


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))


def _same_route(g, h):
    got = _outcome(candidate_scalars, g, h)
    assert got == _outcome(_old_candidate_scalars, g, h), (g, h)
    report = _outcome(brute_force_aut, g, h)
    old = _outcome(_old_brute_force_aut, g, h)
    assert report == old, (g, h)
    if report[0] == "value":
        assert report_to_json(report[1]) == report_to_json(old[1]), (g, h)
    return got[0] == "value"


@pytest.mark.parametrize("text", LINES)
def test_paired_route_matches_both_signs_on_fixed_lines(text):
    g = parse_descriptor(text)
    for h in (1, 2, 3):
        assert _same_route(g, h)


def test_paired_route_matches_both_signs_on_drawn_lines():
    rng = random.Random(20261022)
    decided = 0
    for _ in range(60):
        g = _random_group(rng, 1, 3)
        for h in (1, 2):
            decided += _same_route(g, h)
    assert decided > 40


@pytest.mark.parametrize("text", ["ring(Z[t,1/t])", "ring(Q[t,1/t])"])
def test_laurent_members_are_built_from_their_terms(text):
    g = parse_descriptor(text)
    for h in (1, 2, 3):
        new, old = _scalars_1d(g, h), _old_laurent_members(g, h)
        assert new == old
        assert [s.sort_key() for s in new] == [s.sort_key() for s in old]
        assert [(s.context, s.nums, s.den) for s in new] == \
            [(s.context, s.nums, s.den) for s in old]


# --- each ± class is certified once, each refutation replayed once -------------

@pytest.mark.parametrize("text", ["Z*1 + Q*sqrt(2)", "Zinv(3)", "Q + Q*t",
                                  "ring(Z[t,1/t])", "Z*sqrt(2) + Q*sqrt(3)"])
def test_one_certificate_per_pair_and_one_replay_per_refutation(
        monkeypatch, text):
    calls = {"acts": 0, "replayed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every refutation, carried over or not, replays through this name
    monkeypatch.setattr(autgroup, "_replayed",
                        counted("replayed", autgroup._replayed))
    monkeypatch.setattr(oracle, "acts_invariantly",
                        counted("acts", oracle.acts_invariantly))
    g = parse_descriptor(text)
    report = brute_force_aut(g, 2)
    classes = {frozenset((c.sort_key(), (-c).sort_key()))
               for c in candidate_scalars(g, 2)}
    assert calls["acts"] == len(classes) < report.candidates
    assert calls["replayed"] == len(report.refuted) > 0
