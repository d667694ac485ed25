"""One-dimensional members are built on ints, and each ± pair of ratios
carries its order key and its sign class.

``_old_scalars_1d`` holds the ``MixedModule``, ``FractionRing`` and
``FullLine`` branches of ``oracle._scalars_1d`` (and ``_old_line`` its
``_line``) as they were when every member was a sum of scalar products,
copied verbatim; the Laurent branch, which was already built on ints, and
the scaled ring's are read from the module.  ``_old_ratios`` is
``oracle._ratios`` as it was when each ratio's negative took a fresh
sort key, copied verbatim, and ``_old_candidate_scalars`` is
``candidate_scalars`` over both, sorted members in, as it was then.  The
int-built members must hold the same values, and the public routes must
answer as the old ones, on the line corpus, the plane corpus's factors
and drawn one-dimensional groups.
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from groupaut import oracle
from groupaut.autgroup import acts_invariantly
from groupaut.descriptors import (Domain, FractionRing, FullLine, LaurentRing,
                                  MixedModule, _lead, _sign_canonical,
                                  dimension, normalize)
from groupaut.dsl import parse_descriptor
from groupaut.errors import ContextError, GroupAutError
from groupaut.oracle import (OracleReport, Refutation, _fractions, _ratio_pairs,
                             _scalars_1d, brute_force_aut, candidate_scalars,
                             cross_check, enumerate_members)
from groupaut.scalars import (ContextKind, one, products_within, rational,
                              sqrt_rational, zero)

from draws import _random_group

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


# --- the routes that built members by scalar ops, verbatim ---------------------

def _old_scalars_1d(g, h):
    if isinstance(g, MixedModule):
        choices = []
        for domain, gen in g.terms:
            coeffs = [Fraction(k) for k in range(-h, h + 1)] \
                if domain is Domain.INT else _fractions(h)
            choices.append([gen * rational(c) for c in coeffs])
        return [sum(combo, zero()) for combo in itertools.product(*choices)]
    if isinstance(g, FractionRing):
        out = {Fraction(z, g.m ** j) for z in range(-h, h + 1)
               for j in range(h + 1)}
        return [rational(q) for q in sorted(out)]
    if isinstance(g, FullLine):
        return _old_line(h, sqrt_rational(2))
    if isinstance(g, LaurentRing):
        return _scalars_1d(g, h)
    return [g.factor * s for s in _old_scalars_1d(g.inner, h)]


def _old_line(h, unit):
    """R sampled as q and unit * q over the rationals q of height h."""
    rats = _fractions(h)
    return [rational(q) for q in rats] \
        + [unit * rational(q) for q in rats if q != 0]


def _old_enumerate_members(g, h):
    vecs = [(s,) for s in _old_scalars_1d(g, h)]
    unique = {tuple(s.sort_key() for s in v): v for v in vecs}
    return [unique[k] for k in sorted(unique)]


def _old_ratios(numerators, denominators, h):
    numerators = [x for x in numerators if _lead(x) > 0]
    inverses = [y.invert() for y in denominators if y and _lead(y) > 0 and (
        y.context.kind is not ContextKind.FORMAL or len(y.nums) == 1)]
    found = {}
    for r in products_within(numerators, inverses, h):
        for s in (r, -r):
            found[s.sort_key()] = s
    return found


def _old_candidate_scalars(g, h):
    members = [v[0] for v in _old_enumerate_members(g, h)
               if not v[0].is_zero()]
    found = _old_ratios(members, members, h)
    for s in (one(), rational(-1)):
        found.setdefault(s.sort_key(), s)
    return [found[k] for k in sorted(found)]


def _old_brute_force_aut(g, h):
    """A fresh certificate for every old candidate."""
    confirmed, refuted = [], []
    for c in _old_candidate_scalars(g, h):
        cert = acts_invariantly(g, c)
        if cert.verdict:
            confirmed.append(c)
        else:
            refuted.append(Refutation(c, cert.failing_generator,
                                      cert.direction))
    return OracleReport(g, h, len(confirmed) + len(refuted),
                        tuple(confirmed), tuple(refuted))


# --- the groups ----------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))


def _drawn_lines(seed, count):
    """The normal one-dimensional groups among ``count`` drawn lines."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        got = _outcome(normalize, _random_group(rng, 1, 3))
        if got[0] == "value" and dimension(got[1]) == 1:
            out.append(got[1])
    return out


LINES = [parse_descriptor(g["text"]) for g in corpus.all_line_groups()]
FACTORS = list(dict.fromkeys(
    f for g in corpus.all_plane_groups()
    for f in parse_descriptor(g["text"]).factors))
DRAWN = _drawn_lines(20261036, 120)


def _members(g, h):
    return (_outcome(lambda: set(_scalars_1d(g, h))),
            _outcome(lambda: set(_old_scalars_1d(g, h))))


@pytest.mark.parametrize("groups", ["lines", "factors", "drawn"])
def test_int_built_members_match_the_scalar_sums(groups):
    gs = {"lines": LINES, "factors": FACTORS, "drawn": DRAWN}[groups]
    assert len(gs) > 10
    built = 0
    for g in gs:
        for h in (1, 2, 3):
            new, old = _members(g, h)
            assert new == old, (g, h)
            assert _outcome(enumerate_members, g, h) \
                == _outcome(_old_enumerate_members, g, h), (g, h)
            built += new[0] == "value"
    assert built > 2 * len(gs), built


@pytest.mark.parametrize("groups", ["lines", "drawn"])
def test_candidates_and_reports_match_the_old_members(groups):
    gs = {"lines": LINES, "drawn": DRAWN}[groups]
    decided = 0
    for g in gs:
        for h in (1, 2):
            got = _outcome(candidate_scalars, g, h)
            assert got == _outcome(_old_candidate_scalars, g, h), (g, h)
            report = _outcome(brute_force_aut, g, h)
            assert report == _outcome(_old_brute_force_aut, g, h), (g, h)
            decided += report[0] == "value"
    assert decided > len(gs), decided


def test_each_pair_carries_its_negative_key_and_its_class():
    pairs = 0
    for g in LINES + FACTORS:
        members = [s for s in dict.fromkeys(_scalars_1d(g, 2)) if s]
        for key, r, negated, neg in _ratio_pairs(members, members, 2):
            assert key == r.sort_key() and neg == -r
            assert negated == neg.sort_key(), r
            pairs += 1
        for c, scalar, s, signs in oracle._scalar_classes(g, 2):
            assert c == _sign_canonical(s) and _lead(c) > 0
            assert scalar is True and signs is None
    assert pairs > 1000, pairs


def test_a_module_past_the_tower_raises_as_the_scalar_sums_did():
    # the folded module Q*sqrt(5) + Q*sqrt(10) + Q*sqrt(15) needs a field of
    # degree 8; its generators are joined as the sums joined them
    g = parse_descriptor("sqrt(5)*(Q + Q*sqrt(2) + Q*sqrt(3))")
    text = "joining Q(sqrt2,sqrt5) and Q(sqrt15) needs a field of degree > 4"
    old = _outcome(_old_scalars_1d, g, 1)
    assert old == ("raises", ContextError, text)
    assert _outcome(_scalars_1d, g, 1) == old
    for route in (enumerate_members, candidate_scalars, brute_force_aut,
                  cross_check):
        assert _outcome(route, g, 1) == old, route
