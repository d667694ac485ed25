"""The module frame keyed by radicand or exponent, against the joined one.

``_old_coordinates`` and ``_old_numerators`` are ``descriptors._coordinates``
and ``_numerators`` as they were when a module's coordinates were those of
the joined context of its generators; their bodies are copied verbatim.
Each question is decided twice, once on each frame: ``member`` (verdict
and witness), ``holds("rat")`` and ``holds("real")``.  Where the old frame
answers, the two agree.  Where it raised ContextError (a value the
generators' context cannot join, or generators with no common field of
degree 4 or less), the keyed frame decides, and its verdict agrees with the
sympy referee of ``test_sympy_referee``.

The questions are normalized ``_random_group`` draws with coordinates from
``_COORDS``, and modules of up to four square roots, or of several
exponents of t, with members, near misses and values of both towers as
targets.
"""

import random
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import pytest

from groupaut import descriptors as _d
from groupaut.descriptors import Domain, member, mixed_module, normalize
from groupaut.dsl import group_to_text
from groupaut.errors import ContextError, GroupAutError
from groupaut.scalars import (
    RAT_CONTEXT,
    ContextKind,
    ExactScalar,
    FieldContext,
    context_radicands,
    join_context,
    rational,
    sqrt_rational,
    t_monomial,
)

from draws import _COORDS, _random_group
from test_sympy_referee import referee_for


# --- the joined-context frame, verbatim -------------------------------------

@lru_cache(maxsize=4096)
def _old_coordinates(terms) -> tuple[FieldContext, Optional[dict],
                                     int, list, list[int]]:
    """(ctx, columns, n, rows, dens): the joined context of the generators;
    when it is FORMAL, the column of each exponent of t that occurs (None
    otherwise); the number n of coordinates; and each generator as integer
    numerators over those coordinates with its denominator."""
    ctx = RAT_CONTEXT
    for _, g in terms:
        ctx = join_context(ctx, g.context)
    lifted = [g._lift(ctx) for _, g in terms]
    dens = [g.den for _, g in terms]
    if ctx.kind is not ContextKind.FORMAL:
        return ctx, None, len(context_radicands(ctx)), lifted, dens
    support = sorted({k for pairs in lifted for k, _ in pairs})
    columns = {k: i for i, k in enumerate(support)}
    rows = []
    for pairs in lifted:
        row = [0] * len(support)
        for k, c in pairs:
            row[columns[k]] = c
        rows.append(row)
    return ctx, columns, len(support), rows, dens


def _old_numerators(coords, v: ExactScalar):
    """The numerators of v over the generators' coordinates ``coords`` (its
    denominator is v.den), or None when v has a coordinate the generators
    lack and so is in neither their Q-span nor the group.  Raises
    ContextError when v cannot join the generators' context."""
    ctx, columns, n = coords[:3]
    joined = join_context(ctx, v.context)
    if joined is not ctx and joined != ctx:
        return None
    if columns is None:
        return v._lift(ctx)
    x = [0] * n
    for k, c in v._lift(ctx):
        i = columns.get(k)
        if i is None:
            return None
        x[i] = c
    return x


# --- deciding on either frame -----------------------------------------------

_KEYED = _d._coordinates
_CACHES = (_KEYED, _old_coordinates, _d._span, _d._lattice, _d._member,
           _d._rat_line, _d._leaf_member)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc))


def _questions(g, v):
    verdict = _outcome(member, g, v)
    if verdict[0] == "value":
        verdict = ("value", (verdict[1].member, verdict[1].witness))
    return {"int": verdict,
            "rat": _outcome(_d.holds, "rat", g, v),
            "real": _outcome(_d.holds, "real", g, v)}


def _decide(cases, old):
    """The three answers on every (g, v) of cases, on the old frame or on
    the keyed one, every frame and verdict cache cleared around the run."""
    with pytest.MonkeyPatch.context() as patch:
        if old:
            patch.setattr(_d, "_coordinates", _old_coordinates)
            patch.setattr(_d, "_numerators", _old_numerators)
        for cache in _CACHES:
            cache.cache_clear()
        try:
            return [_questions(g, v) for g, v in cases]
        finally:
            for cache in _CACHES:
                cache.cache_clear()


# one referee over Q(sqrt(2), sqrt(3), sqrt(5)), which holds every draw
_REFEREE = referee_for("sqrt(2)", "sqrt(3)", "sqrt(5)")


def _compare(cases):
    """Assert the rule of the module docstring; count the moved answers."""
    moved = 0
    answers = zip(cases, _decide(cases, True), _decide(cases, False))
    for (g, v), old, new in answers:
        for kind in ("int", "rat", "real"):
            if old[kind] == new[kind]:
                continue
            assert old[kind] == ("raises", ContextError), (g, v, kind, new)
            assert new[kind][0] == "value", (g, v, kind, new)
            got = new[kind][1][0] if kind == "int" else new[kind][1]
            want = _REFEREE.member(g, tuple(map(_REFEREE.number, v)), kind)
            assert got is want, (group_to_text(g), v, kind)
            moved += 1
    return moved


# --- the draws --------------------------------------------------------------

def test_normalized_random_groups_answer_as_on_the_joined_frame():
    rng = random.Random(20261021)
    cases = []
    while len(cases) < 3000:
        n = rng.choice((1, 2))
        try:
            g = normalize(_random_group(rng, n, 3))
        except GroupAutError:
            continue        # a scaling across the towers has no normal form
        cases.append((g, tuple(rng.choice(_COORDS) for _ in range(n))))
    assert _compare(cases) > 100


R = {r: sqrt_rational(r) for r in (2, 3, 5, 6, 10, 15)}
T = t_monomial(1)
SURDS = [rational(1), R[2], R[3], R[5], R[6], R[10], R[15], 1 + R[2],
         R[2] + R[3], R[5] - 2 * R[10], Fraction(1, 2) * R[3] + R[6]]
LAURENT = [rational(1), T, t_monomial(-1), t_monomial(2), 1 + T,
           T - t_monomial(-2, 3), t_monomial(3) + Fraction(1, 2)]


def _module_cases(rng, pool, foreign, count):
    """(module, target) pairs: modules of one to four generators of pool,
    each a Z- or Q-slot; targets that are members, near misses (a Z-slot
    coefficient off by a half) where the scalar tower holds the sum, other
    values of pool and of the other tower, and zero."""
    cases = []
    while len(cases) < count:
        gens = rng.sample(pool, rng.randint(1, 4))
        terms = [(rng.choice((Domain.INT, Domain.RAT)), x) for x in gens]
        try:
            g = normalize(mixed_module(terms))
        except GroupAutError:
            continue        # dependent generators
        for near in (False, True):
            target = rational(0)
            for d, x in g.terms:
                c = Fraction(rng.randint(-3, 3)) if d is Domain.INT \
                    else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if near and d is Domain.INT:
                    c, near = c + Fraction(1, 2), False
                try:
                    target = target + rational(c) * x
                except ContextError:
                    break       # a sum the scalar tower cannot hold
            else:
                cases.append((g, (target,)))
        for x in (rng.choice(pool), rng.choice(foreign), rational(0)):
            cases.append((g, (x,)))
    return cases


def test_modules_of_up_to_four_roots_answer_as_on_the_joined_frame():
    cases = _module_cases(random.Random(1), SURDS, LAURENT, 1500)
    # some modules need a field of degree 8, and the old frame raised on all
    # their questions
    assert any(len({r for _, x in g.terms for r in _radicands(x)}) > 3
               for g, _ in cases)
    assert _compare(cases) > 300


def test_laurent_modules_answer_as_on_the_joined_frame():
    cases = _module_cases(random.Random(2), LAURENT, SURDS, 1500)
    assert _compare(cases) > 100


def _radicands(x):
    if x.context.kind is ContextKind.FORMAL:
        return ()
    return [r for r, n in zip(context_radicands(x.context), x.nums)
            if n and r > 1]


def test_the_columns_are_the_keys_present():
    # a module's columns are its generators' keys, ascending: radicands
    # with 1 for the rational part, or exponents of t with 0 for a rational
    g = mixed_module([(Domain.INT, R[5] + R[10]), (Domain.RAT, R[15])])
    laurent, columns, n, rows, dens = _d._coordinates(g.terms)
    assert (laurent, columns, n) == (False, {5: 0, 10: 1, 15: 2}, 3)
    assert rows == [[1, 1, 0], [0, 0, 1]] and dens == [1, 1]
    h = mixed_module([(Domain.INT, 1 + T), (Domain.RAT, t_monomial(-2, 3))])
    assert _d._coordinates(h.terms)[:3] == (True, {-2: 0, 0: 1, 1: 2}, 3)
    for x in (R[2], T * T):
        assert _d._numerators(_d._coordinates(g.terms), x) is None
    assert _d._numerators(_d._coordinates(h.terms), R[2]) is None
    with pytest.raises(ContextError,
                       match=r"cannot join Q\[t,1/t\] with Q\(sqrt2\)"):
        mixed_module([(Domain.INT, T), (Domain.INT, R[2])])
    assert list(_d._keyed(False, 1 + R[2])) == [(1, 1), (2, 1)]
