"""Differential tests of the scalar tower against sympy.

Number-field values are compared as elements of sympy's
``QQ.algebraic_field(sqrt(d), sqrt(e))``, which contains every context the
operands and results live in.  Laurent values are compared as sympy
expressions in t; a quotient is a Laurent polynomial exactly when the
denominator of its cancelled form is a monomial.  The inputs are seeded, so
the test is deterministic.
"""

import random
from fractions import Fraction

import pytest

from groupaut.errors import DomainError
from groupaut.scalars import (
    FORMAL_CONTEXT,
    ContextKind,
    ExactScalar,
    biquad_context,
    context_radicands,
    exact_div,
    quad_context,
    rational,
)

sympy = pytest.importorskip("sympy")

_T = sympy.Symbol("t")
_FIELDS = ((2, 3), (2, 5), (3, 7))


def _q(rng, allow_zero=True):
    while True:
        q = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        if q or allow_zero:
            return q


def _to_sympy(s: ExactScalar):
    """A Laurent (or rational) scalar as a sympy expression in t."""
    pairs = s.coords if s.context.kind is ContextKind.FORMAL \
        else ((0, s.coords[0]),)
    return sum((sympy.Rational(c.numerator, c.denominator) * _T ** k
                for k, c in pairs), sympy.Integer(0))


def _field_operand(rng, d, e):
    """A seeded value of Q(sqrt d, sqrt e), drawn from every subfield."""
    which = rng.randrange(5)
    if which == 0:
        return rational(_q(rng))
    if which < 4:
        r = context_radicands(biquad_context(d, e))[which]
        return ExactScalar._make(quad_context(r), (_q(rng), _q(rng, False)))
    return ExactScalar._make(biquad_context(d, e), [_q(rng) for _ in range(4)])


def _field_embedding(d, e):
    """The field Q(sqrt d, sqrt e) of sympy and the map that sends a scalar
    of its subfields into it.  The images of the square roots are converted
    once; each scalar is then a Q-combination of them."""
    field = sympy.QQ.algebraic_field(sympy.sqrt(d), sympy.sqrt(e))
    roots = {r: field.from_sympy(sympy.sqrt(r))
             for r in context_radicands(biquad_context(d, e))}

    def elem(s):
        out = field.zero
        for c, r in zip(s.coords, context_radicands(s.context)):
            out += field.convert(sympy.QQ(c.numerator, c.denominator)) * roots[r]
        return out
    return field, elem


@pytest.mark.parametrize("d,e", _FIELDS)
def test_number_field_arithmetic_matches_sympy(d, e):
    field, elem = _field_embedding(d, e)
    rng = random.Random(f"sympy-{d}-{e}")
    for _ in range(100):
        x, y = _field_operand(rng, d, e), _field_operand(rng, d, e)
        ex, ey = elem(x), elem(y)
        assert elem(x + y) == ex + ey, (x, y)
        assert elem(x - y) == ex - ey, (x, y)
        assert elem(x * y) == ex * ey, (x, y)
        if x.is_zero():
            with pytest.raises(DomainError):
                x.invert()
        else:
            assert elem(x.invert()) == field.one / ex, x


def _laurent(rng, monomial=False):
    n = 1 if monomial else rng.randint(1, 3)
    terms = {rng.randint(-3, 3): _q(rng, False) for _ in range(n)}
    return ExactScalar._make(FORMAL_CONTEXT, terms.items())


def _same(s: ExactScalar, expr) -> bool:
    return sympy.expand(_to_sympy(s) - expr) == 0


def _laurent_quotient(num, den):
    """num / den as a sympy expression when it is a Laurent polynomial,
    else None."""
    top, bottom = sympy.fraction(sympy.cancel(num / den))
    if not sympy.Poly(bottom, _T).is_monomial:
        return None
    return sympy.expand(top / bottom)


def test_laurent_arithmetic_matches_sympy():
    rng = random.Random("sympy-laurent")
    for _ in range(60):
        x, y = _laurent(rng), _laurent(rng)
        ex, ey = _to_sympy(x), _to_sympy(y)
        assert _same(x + y, ex + ey), (x, y)
        assert _same(x - y, ex - ey), (x, y)
        assert _same(x * y, sympy.expand(ex * ey)), (x, y)


def test_laurent_monomial_inverse_matches_sympy():
    rng = random.Random("sympy-laurent-invert")
    for _ in range(40):
        x = _laurent(rng, monomial=True)
        assert _same(x.invert(), 1 / _to_sympy(x)), x
        y = _laurent(rng)
        if len(y.coords) > 1:
            assert _laurent_quotient(sympy.Integer(1), _to_sympy(y)) is None
            with pytest.raises(DomainError):
                y.invert()


def test_laurent_exact_div_matches_sympy():
    rng = random.Random("sympy-laurent-div")
    for i in range(60):
        b = _laurent(rng)
        # every other numerator is a multiple of b, so both answers occur
        a = _laurent(rng) * b if i % 2 else _laurent(rng)
        want = _laurent_quotient(_to_sympy(a), _to_sympy(b))
        got = exact_div(a, b)
        if want is None:
            assert got is None, (a, b)
        else:
            assert got is not None and _same(got, want), (a, b)


def _conjugate(s: ExactScalar) -> ExactScalar:
    """s with its last square root negated (sqrt(e) and sqrt(d*e) in a
    biquadratic field), so that s times it lies in a smaller field."""
    c = s.coords
    if s.context.kind is ContextKind.QUAD:
        return ExactScalar._make(s.context, (c[0], -c[1]))
    if s.context.kind is ContextKind.BIQUAD:
        return ExactScalar._make(s.context, (c[0], c[1], -c[2], -c[3]))
    return s


def test_each_value_lives_in_the_context_of_its_degree():
    # the matrices memos key on values, which needs one representation per
    # value: the stored context is the smallest field holding it, so its
    # degree over Q is the degree of the value's minimal polynomial
    x = sympy.Symbol("x")
    rng = random.Random("sympy-minimal-context")
    degrees = {1: 0, 2: 0, 4: 0}
    for d, e in _FIELDS:
        for _ in range(8):
            a, b = _field_operand(rng, d, e), _field_operand(rng, d, e)
            for s in (a, a * b, a * _conjugate(a), (a + b) * (a - b)):
                radicands = context_radicands(s.context)
                expr = sum(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r)
                           for c, r in zip(s.coords, radicands))
                poly = sympy.minimal_polynomial(expr, x, compose=False)
                assert sympy.degree(poly, x) == len(radicands), s
                degrees[len(radicands)] += 1
    assert min(degrees.values()) >= 10, degrees
