"""The stored form of a scalar: integer numerators over one denominator.

A value is canonical (denominator > 0, gcd 1, smallest context, interned
context object), so equal values have equal integers and equal hashes
whichever route built them.  ``coords``, ``sort_key`` and ``height`` are
checked against reference copies of the Fraction-coordinate code they
replace: ``_ref_make`` minimizes Fraction coordinates as the old
constructor did, and ``_ref_sort_key`` and ``_ref_height`` read them as the
old methods did.  ``sort_key`` orders candidates and members and ``height``
filters them, so both must keep each coordinate's own lowest terms.
"""

import math
import random
from fractions import Fraction

import pytest

from groupaut.errors import ContextError
from groupaut.scalars import (
    FORMAL_CONTEXT,
    RAT_CONTEXT,
    ContextKind,
    ExactScalar,
    FieldContext,
    biquad_context,
    context_radicands,
    join_context,
    quad_context,
    rational,
    squarefree_decomposition,
)

_QUADS = (2, 3, 5, 6, 7)
_BIQUADS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7))
_KINDS = ("rat", "quad", "biquad", "formal")


# ---------------------------------------------------------------------------
# reference copies of the Fraction-coordinate code
# ---------------------------------------------------------------------------

def _ref_make(ctx, coords):
    """(context, Fraction coordinates) of the minimized value."""
    if ctx.kind is ContextKind.FORMAL:
        terms = tuple(sorted(
            (int(k), c if type(c) is Fraction else Fraction(c))
            for k, c in coords if c != 0))
        if all(k == 0 for k, _ in terms):
            coeff = terms[0][1] if terms else Fraction(0)
            return RAT_CONTEXT, (coeff,)
        return FORMAL_CONTEXT, terms
    vals = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
    if len(vals) < 2:
        return RAT_CONTEXT, vals or (Fraction(0),)
    rad = context_radicands(ctx)
    live = [rad[i] for i in range(1, len(vals)) if vals[i] != 0]
    if not live:
        return RAT_CONTEXT, (vals[0],)
    if len(live) == 1:
        sub = quad_context(live[0])
        i = rad.index(live[0])
        return sub, (vals[0], vals[i])
    return ctx, vals


def _ref_sort_key(ctx, coords):
    if ctx.kind is ContextKind.FORMAL:
        return (3, tuple((k, c.numerator, c.denominator) for k, c in coords))
    rad = context_radicands(ctx)
    kind = {ContextKind.RAT: 0, ContextKind.QUAD: 1, ContextKind.BIQUAD: 2}[ctx.kind]
    return (kind, rad, tuple((c.numerator, c.denominator) for c in coords))


def _ref_height(ctx, coords):
    h = 0
    if ctx.kind is ContextKind.FORMAL:
        for k, c in coords:
            h = max(h, abs(k), abs(c.numerator), c.denominator)
        return h
    for c in coords:
        h = max(h, abs(c.numerator), c.denominator)
    return h


def _ref_embed(ctx, coords, target):
    """Fraction coordinates of (ctx, coords) over the basis of target."""
    if target.kind is ContextKind.FORMAL:
        return dict(coords) if ctx.kind is ContextKind.FORMAL \
            else ({0: coords[0]} if coords[0] else {})
    src, dst = context_radicands(ctx), context_radicands(target)
    out = [Fraction(0)] * len(dst)
    for r, c in zip(src, coords):
        out[dst.index(r)] = c
    return out


def _ref_op(op, x, y):
    """(context, Fraction coordinates) of x op y, combined coordinatewise
    in the joined context."""
    ctx = join_context(x[0], y[0])
    a, b = _ref_embed(*x, ctx), _ref_embed(*y, ctx)
    if ctx.kind is ContextKind.FORMAL:
        acc = {}
        if op == "mul":
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
        else:
            acc = dict(a)
            for k, c in b.items():
                acc[k] = acc.get(k, 0) + c
        return _ref_make(ctx, acc.items())
    if op == "add":
        return _ref_make(ctx, [p + q for p, q in zip(a, b)])
    rad = context_radicands(ctx)
    out = [Fraction(0)] * len(rad)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            s, core = squarefree_decomposition(rad[i] * rad[j])
            out[rad.index(core)] += p * q * s
    return _ref_make(ctx, out)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _q(rng):
    # zero often, and denominators that differ between coordinates
    return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6, 9, 10)))


def _draw(rng, kind):
    """(context, coordinates) of a seeded input; many minimize to a smaller
    context, and FORMAL exponents run negative."""
    if kind == "rat":
        return RAT_CONTEXT, (_q(rng),)
    if kind == "quad":
        return quad_context(rng.choice(_QUADS)), (_q(rng), _q(rng))
    if kind == "biquad":
        return biquad_context(*rng.choice(_BIQUADS)), tuple(_q(rng) for _ in range(4))
    terms = {rng.randint(-4, 3): _q(rng) for _ in range(rng.randint(1, 3))}
    return FORMAL_CONTEXT, tuple(terms.items())


def _inputs(seed, count=120):
    rng = random.Random(seed)
    return [_draw(rng, rng.choice(_KINDS)) for _ in range(count)]


def _assert_canonical(s):
    ctx, nums, den = s.context, s.nums, s.den
    assert type(den) is int and den > 0, s
    if ctx.kind is ContextKind.FORMAL:
        exps = [k for k, _ in nums]
        assert exps == sorted(set(exps)) and exps != [0] and exps, s
        ints = [n for _, n in nums]
        assert all(ints), s
    else:
        ints = list(nums)
        assert len(ints) == len(context_radicands(ctx)), s
        live = sum(1 for n in ints[1:] if n)
        assert live == {ContextKind.RAT: 0, ContextKind.QUAD: 1}.get(ctx.kind, live), s
        if ctx.kind is ContextKind.BIQUAD:
            assert live >= 2, s
            assert ctx is biquad_context(ctx.d, ctx.e), s
        if ctx.kind is ContextKind.QUAD:
            assert ctx is quad_context(ctx.d), s
    assert all(type(n) is int for n in ints), s
    assert math.gcd(den, *ints) == 1, s


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_constructed_values_are_canonical_and_match_the_reference():
    for ctx, coords in _inputs("make"):
        s = ExactScalar._make(ctx, coords)
        _assert_canonical(s)
        want_ctx, want = _ref_make(ctx, coords)
        assert s.context == want_ctx, (ctx, coords)
        assert s.coords == want, (ctx, coords)
        view = [c for _, c in s.coords] \
            if s.context.kind is ContextKind.FORMAL else s.coords
        assert all(type(c) is Fraction for c in view)
        assert s.sort_key() == _ref_sort_key(want_ctx, want), (ctx, coords)
        assert s.height == _ref_height(want_ctx, want), (ctx, coords)


@pytest.mark.parametrize("op", ["add", "mul"])
def test_results_are_canonical_and_match_the_reference(op):
    inputs = _inputs(f"ops-{op}", 200)
    done = 0
    for (cx, x), (cy, y) in zip(inputs[::2], inputs[1::2]):
        try:
            join_context(cx, cy)
        except ContextError:
            continue        # no supported context holds both
        a, b = ExactScalar._make(cx, x), ExactScalar._make(cy, y)
        got = a + b if op == "add" else a * b
        _assert_canonical(got)
        want_ctx, want = _ref_op(op, _ref_make(cx, x), _ref_make(cy, y))
        assert got.context == want_ctx and got.coords == want, (a, b)
        assert got.sort_key() == _ref_sort_key(want_ctx, want), (a, b)
        assert got.height == _ref_height(want_ctx, want), (a, b)
        done += 1
    assert done > 60


def test_inverses_are_canonical():
    for ctx, coords in _inputs("invert"):
        s = ExactScalar._make(ctx, coords)
        if s.is_zero() or (s.context.kind is ContextKind.FORMAL and len(s.nums) > 1):
            continue
        inv = s.invert()
        _assert_canonical(inv)
        assert s * inv == rational(1)


def test_height_reads_each_coordinate_in_its_own_lowest_terms():
    # 1/2 + (1/3) sqrt 2 is stored over 6, but no coordinate has height 6
    s = ExactScalar._make(quad_context(2), (Fraction(1, 2), Fraction(1, 3)))
    assert (s.nums, s.den) == ((3, 2), 6)
    assert s.height == 3
    assert s.sort_key() == (1, (1, 2), ((1, 2), (1, 3)))
    t = ExactScalar._make(FORMAL_CONTEXT, ((-5, Fraction(4, 9)), (2, Fraction(1, 6))))
    assert (t.nums, t.den) == (((-5, 8), (2, 3)), 18)
    assert t.height == 9
    assert t.sort_key() == (3, ((-5, 4, 9), (2, 1, 6)))


def test_equal_values_have_equal_integers_and_hashes():
    rng = random.Random("routes")
    r2 = ExactScalar._make(quad_context(2), (0, 1))
    for ctx, coords in _inputs("routes"):
        s = ExactScalar._make(ctx, coords)
        k = Fraction(rng.choice((2, 3, 5, 7)), rng.choice((1, 4, 9)))
        formal = ctx.kind is ContextKind.FORMAL
        if formal:
            other_field = rational(1)
        elif ctx.kind is ContextKind.BIQUAD and 2 not in context_radicands(ctx):
            other_field = ExactScalar._make(quad_context(ctx.d), (0, 1))
        else:
            other_field = r2
        six = [(e, 6 * c) for e, c in coords] if formal else [6 * c for c in coords]
        routes = [
            # six times the coordinates, then a sixth of it
            ExactScalar._make(ctx, six) * rational(Fraction(1, 6)),
            # scaled and scaled back
            s * rational(k) * rational(1 / k),
            # through a join and back
            s + other_field - other_field,
        ]
        if ctx.kind is ContextKind.BIQUAD:
            # a context object built outside the interning table
            routes.append(ExactScalar._make(FieldContext(ContextKind.BIQUAD, ctx.d, ctx.e),
                                            coords))
        for other in routes:
            _assert_canonical(other)
            assert (other.nums, other.den) == (s.nums, s.den), (s, other)
            assert other.context is s.context
            assert other == s and hash(other) == hash(s)


def test_a_field_presented_by_other_radicands_reorders_its_coordinates():
    # Q(sqrt 2, sqrt 6) is Q(sqrt 2, sqrt 3): its basis 1, sqrt 2, sqrt 6,
    # sqrt 3 is stored in the interned order 1, sqrt 2, sqrt 3, sqrt 6
    s = ExactScalar._make(FieldContext(ContextKind.BIQUAD, 2, 6), (1, 2, 3, 4))
    assert s.context is biquad_context(2, 3)
    assert (s.nums, s.den) == ((1, 2, 4, 3), 1)


def test_coords_is_a_view_that_cannot_be_set():
    s = ExactScalar._make(quad_context(3), (Fraction(1, 2), Fraction(-3, 4)))
    assert s.coords == (Fraction(1, 2), Fraction(-3, 4))
    assert s.coords is not s.coords     # computed when read, not stored
    with pytest.raises(AttributeError):
        s.nums = (1, 1)
    with pytest.raises(AttributeError):
        s.den = 2
