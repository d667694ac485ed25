"""Differential test of ``det`` and ``inverse`` against sympy.

Matrices of size 1 to 4 over Q, Q(sqrt d) and Q(sqrt d, sqrt e) are compared
with sympy's ``DomainMatrix`` (the exact engine behind ``sympy.Matrix``) over
``QQ.algebraic_field(sqrt d, sqrt e)``, which
contains every context their entries live in: the determinant must agree,
and so must the inverse, or both must find the matrix singular.  Sizes 1
and 2 use closed forms and sizes from 3 on Bareiss elimination, so both
paths are covered.  The inputs are seeded, so the test is deterministic.
"""

import random
from fractions import Fraction

import pytest

from groupaut.errors import SingularMatrixError
from groupaut.matrices import ExactMatrix, matrix
from groupaut.scalars import (
    ExactScalar,
    biquad_context,
    context_radicands,
    quad_context,
    rational,
    sqrt_rational,
    t_monomial,
)

sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

_FIELDS = (("rat", 2, 3), ("quad", 2, 3), ("quad", 5, 2),
           ("biquad", 2, 3), ("biquad", 3, 7))


def _q(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _entry(rng, kind, d, e):
    """A seeded value of the field named by kind, drawn from its subfields,
    or a Laurent polynomial of up to three terms."""
    if kind == "laurent":
        return sum((_q(rng) * t_monomial(rng.randint(-2, 2))
                    for _ in range(rng.randint(1, 3))), rational(0))
    which = rng.randrange(5 if kind == "biquad" else 2 if kind == "quad" else 1)
    if which == 0:
        return rational(_q(rng))
    if kind == "quad":
        return ExactScalar._make(quad_context(d), (_q(rng), _q(rng)))
    if which < 4:
        r = context_radicands(biquad_context(d, e))[which]
        return ExactScalar._make(quad_context(r), (_q(rng), _q(rng)))
    return ExactScalar._make(biquad_context(d, e), [_q(rng) for _ in range(4)])


def _matrix(rng, n, kind, d, e):
    rows = [[_entry(rng, kind, d, e) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        # a row that is a multiple of another makes the matrix singular
        i, j = rng.sample(range(n), 2)
        k = _entry(rng, kind, d, e)
        rows[i] = [k * x for x in rows[j]]
    return ExactMatrix(tuple(tuple(r) for r in rows))


def _embedding(d, e):
    field = sympy.QQ.algebraic_field(sympy.sqrt(d), sympy.sqrt(e))
    roots = {r: field.from_sympy(sympy.sqrt(r))
             for r in context_radicands(biquad_context(d, e))}

    def elem(s):
        out = field.zero
        for c, r in zip(s.coords, context_radicands(s.context)):
            out += field.convert(sympy.QQ(c.numerator, c.denominator)) * roots[r]
        return out
    return field, elem


@pytest.mark.parametrize("kind,d,e", _FIELDS)
def test_det_and_inverse_match_sympy(kind, d, e):
    field, elem = _embedding(d, e)
    rng = random.Random(f"sympy-matrix-{kind}-{d}-{e}")
    singular = 0
    for n in (1, 2, 3, 4):
        for _ in range(12):
            a = _matrix(rng, n, kind, d, e)
            dm = DomainMatrix([[elem(x) for x in row] for row in a.rows],
                              (n, n), field)
            det = dm.det()
            assert elem(a.det()) == det, a
            if det == field.zero:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    a.inverse()
                continue
            inv = dm.inv()
            got = a.inverse()
            assert [[elem(x) for x in row] for row in got.rows] \
                == inv.to_list(), a
    assert singular > 0


# is_singular() reads det A = 0 off ad = bc up to 2 x 2 and off det() beyond
@pytest.mark.parametrize("kind,d,e", _FIELDS + (("laurent", 0, 0),))
def test_is_singular_is_a_zero_determinant(kind, d, e):
    rng = random.Random(f"singular-{kind}-{d}-{e}")
    singular = {n: 0 for n in (1, 2, 3, 4)}
    for n in singular:
        for _ in range(30):
            a = _matrix(rng, n, kind, d, e)
            if rng.random() < 0.15:
                # a zero row, which the size-1 draws need to be singular
                a = ExactMatrix((tuple(x * 0 for x in a.rows[0]),) + a.rows[1:])
            assert a.is_singular() == a.det().is_zero(), a
            singular[n] += a.is_singular()
    assert all(singular.values()), singular


def test_is_singular_compares_products_across_contexts():
    r2, r3 = sqrt_rational(2), sqrt_rational(3)
    # sqrt(2) * sqrt(3) = sqrt(6) * 1 = sqrt(6), each product in its own field
    assert matrix([[r2, r2 * r3], [1, r3]]).is_singular()
    assert not matrix([[r2, r2 * r3], [1, -r3]]).is_singular()
    assert not matrix([[r2, r3], [1, r2]]).is_singular()
