"""The scalar kernel's fast paths, and the matrix shape check.

``ExactScalar`` adds, subtracts, multiplies and negates two rationals of
one context on their single coordinate, subtracts in every context
without forming the negated operand, and multiplies a rational into any
other context by scaling the other operand's numerators.  Each result must be the value that
the generic route builds: ``ExactScalar._make`` on the Fraction
coordinates of the exact sum, difference, product or negation, worked out
here over each context's basis (the product of two basis roots sqrt(r) and
sqrt(s) is m sqrt(core) for r s = m^2 core).  A zero must come out as zero,
and a stored denominator is never negative.

``ExactMatrix`` checks squareness on row lengths alone, with a branch for
2 x 2; it must still refuse every ragged or empty shape.

``acts_invariantly`` reads a scalar on a Laurent ring without building a
1 x 1 matrix; a scalar and its 1 x 1 matrix must get one certificate, and
the shape and zero errors must stay as they were.
"""

from fractions import Fraction

import pytest

from groupaut.autgroup import acts_invariantly
from groupaut.dsl import parse_descriptor
from groupaut.errors import ContextError, DomainError, SingularMatrixError
from groupaut.matrices import ExactMatrix
from groupaut.oracle import candidate_scalars
from groupaut.scalars import (
    FORMAL_CONTEXT,
    RAT_CONTEXT,
    ExactScalar,
    biquad_context,
    context_radicands,
    join_context,
    quad_context,
    rational,
    squarefree_decomposition,
    sqrt_rational,
    t_monomial,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CONTEXTS = [RAT_CONTEXT, quad_context(2), quad_context(3), quad_context(5),
            biquad_context(2, 3), biquad_context(3, 5), FORMAL_CONTEXT]

fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def scalars(draw, ctx=None):
    ctx = draw(st.sampled_from(CONTEXTS)) if ctx is None else ctx
    if ctx is FORMAL_CONTEXT:
        exps = draw(st.sets(st.integers(-3, 3), max_size=3))
        return ExactScalar._make(ctx, [(k, draw(fractions)) for k in sorted(exps)])
    return ExactScalar._make(ctx, [draw(fractions) for _ in
                                   context_radicands(ctx)])


@st.composite
def pairs(draw):
    """Two scalars with a join: often of one context, sometimes equal or
    opposite, so that sums and differences cancel, and sometimes a rational
    (zero too) with a scalar of another kind, in either order."""
    x = draw(scalars())
    how = draw(st.sampled_from(("same", "equal", "opposite", "any", "scale")))
    if how == "equal":
        return x, x
    if how == "opposite":
        return x, -x
    if how == "scale":
        q = draw(st.one_of(st.just(rational(0)), scalars(RAT_CONTEXT)))
        y = draw(scalars(draw(st.sampled_from(CONTEXTS[1:]))))
        return (q, y) if draw(st.booleans()) else (y, q)
    ctx = x.context if how == "same" else None
    while True:
        y = draw(scalars(ctx))
        try:
            join_context(x.context, y.context)
        except ContextError:
            continue
        return x, y


def _coords(x, ctx):
    """x's Fraction coordinates over ctx: a dict by exponent when FORMAL."""
    if ctx is FORMAL_CONTEXT:
        return dict(x._embedded(ctx))
    return list(x._embedded(ctx))


def _generic(ctx, op, x, y):
    a, b = _coords(x, ctx), _coords(y, ctx)
    if ctx is FORMAL_CONTEXT:
        out = {}
        if op == "*":
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
        else:
            sign = 1 if op == "+" else -1
            for k in set(a) | set(b):
                out[k] = a.get(k, 0) + sign * b.get(k, 0)
        return ExactScalar._make(ctx, sorted(
            (k, Fraction(c)) for k, c in out.items() if c))
    if op == "*":
        rads = context_radicands(ctx)
        out = [Fraction(0)] * len(rads)
        for i, r in enumerate(rads):
            for j, s in enumerate(rads):
                m, core = squarefree_decomposition(r * s)
                out[rads.index(core)] += a[i] * b[j] * m
    else:
        sign = 1 if op == "+" else -1
        out = [p + sign * q for p, q in zip(a, b)]
    return ExactScalar._make(ctx, out)


def _canonical(z, expected):
    assert z == expected
    assert z.den > 0
    assert z.is_zero() == (expected == rational(0))


@hypothesis.settings(derandomize=True, database=None, max_examples=600,
                     deadline=None)
@hypothesis.given(pair=pairs())
def test_the_fast_paths_match_the_generic_route(pair):
    x, y = pair
    ctx = join_context(x.context, y.context)
    for op, z in (("+", x + y), ("-", x - y), ("*", x * y)):
        _canonical(z, _generic(ctx, op, x, y))
    _canonical(-x, _generic(x.context, "-", rational(0), x))
    assert (x - x).is_zero() and (x + -x).is_zero()


def test_rationals_take_each_fast_path():
    half, third = rational(Fraction(1, 2)), rational(Fraction(-1, 3))
    assert half + third == rational(Fraction(1, 6))
    assert half - third == rational(Fraction(5, 6))
    assert (half * third, -third) == (rational(Fraction(-1, 6)),
                                      rational(Fraction(1, 3)))
    assert (half - half).is_zero() and (half * rational(0)).is_zero()


NON_RATIONAL = [sqrt_rational(2) - Fraction(1, 3),
                sqrt_rational(3) * 2 + sqrt_rational(5) + Fraction(3, 4),
                t_monomial(-2, Fraction(5, 6)) + t_monomial(1, -4),
                t_monomial(2, Fraction(-2, 3))]


@pytest.mark.parametrize("q", [0, 1, -1, Fraction(-3, 2), Fraction(4, 9)])
def test_a_rational_scales_every_kind_in_both_orders(q):
    q = rational(q)
    for y in NON_RATIONAL:
        for x, z in ((q, y), (y, q)):
            _canonical(x * z, _generic(y.context, "*", x, z))
        assert (q * y).context is (y.context if q else RAT_CONTEXT)


# --- the matrix shape check ---------------------------------------------------

A, B, C = rational(1), rational(2), rational(3)


@pytest.mark.parametrize("rows", [
    (), ((A, B), (C,)), ((A,), (B,)), ((A, B),), ((A,), (B,), (C,)),
    ((A, B, C), (A, B, C), (A, B)), ((A, B), (A, B), (A, B)),
])
def test_a_ragged_or_empty_shape_raises(rows):
    with pytest.raises(DomainError, match="square and non-empty"):
        ExactMatrix(rows)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_a_square_shape_builds(n):
    rows = tuple(tuple(rational(i * n + j) for j in range(n)) for i in range(n))
    assert ExactMatrix(rows).n == n


# --- acts_invariantly on a Laurent ring -----------------------------------------

@pytest.mark.parametrize("text", ["ring(Z[t,1/t])", "t*ring(Q[t,1/t])"])
def test_a_scalar_and_its_one_by_one_matrix_get_one_certificate(text):
    g = parse_descriptor(text)
    scalars_ = candidate_scalars(g, 2) + [1 + t_monomial(1), rational(3)]
    verdicts = set()
    for s in scalars_:
        cert = acts_invariantly(g, s)
        assert acts_invariantly(g, ExactMatrix(((s,),))) == cert, s
        verdicts.add((cert.verdict, cert.direction))
    # Q[t,1/t] holds every candidate, so only Z[t,1/t] refutes forward
    assert verdicts >= {(True, None), (False, "inverse")}
    assert ((False, "forward") in verdicts) == ("Z" in text)


@pytest.mark.parametrize("text", ["ring(Z[t,1/t])", "t*ring(Q[t,1/t])"])
def test_the_ring_route_keeps_its_errors(text):
    g = parse_descriptor(text)
    with pytest.raises(DomainError, match="matrix size 2 does not fit dimension 1"):
        acts_invariantly(g, ExactMatrix(((A, B), (C, A))))
    for zero in (rational(0), 0, ExactMatrix(((rational(0),),))):
        with pytest.raises(SingularMatrixError):
            acts_invariantly(g, zero)
