"""``exact_div`` against the route that built Fractions before it tested.

``_old_exact_div`` is ``scalars.exact_div`` as it was when both operands
were turned into Fraction coordinates before the long division started; its
body is copied verbatim.  The new route first refuses a nonzero a over a b
of wider exponent span, on the integers.  On seeded pairs of Laurent ring
members and of their products, and on hand-picked edge cases, the two must
give the same quotient, the same None, or the same error with the same
message, but for a surd over a formal operand or the other way round:
the old route raised ContextError there, and the new one finds no
quotient (None).
"""

import random
from fractions import Fraction
from typing import Optional

import pytest

from groupaut.dsl import parse_descriptor
from groupaut.errors import DomainError, GroupAutError
from groupaut.oracle import enumerate_members
from groupaut.scalars import (
    FORMAL_CONTEXT,
    ContextKind,
    ExactScalar,
    as_scalar,
    exact_div,
    rational,
    sqrt_rational,
    t_monomial,
)

from scalar_support import _embedded


# --- the route as it was, verbatim --------------------------------------------

def _old_exact_div(a: ExactScalar, b: ExactScalar) -> Optional[ExactScalar]:
    """Exact quotient a / b inside the ring when it exists, else None.

    For number-field contexts this is just the field quotient.  For Laurent
    elements it performs polynomial division over Q and returns the quotient
    only when the remainder vanishes.
    """
    a, b = as_scalar(a), as_scalar(b)
    if b.is_zero():
        raise DomainError("division by zero")
    if b.context.kind is not ContextKind.FORMAL and a.context.kind is not ContextKind.FORMAL:
        return a * b.invert()
    ctx = FORMAL_CONTEXT
    num = dict(_embedded(a, ctx))      # empty when a is zero
    den = _embedded(b, ctx)
    (low, _), (high, lead) = den[0], den[-1]
    # long division from the top term; a quotient term below the lowest
    # exponent num allows leaves a remainder
    floor = min(num, default=0) - low
    quot = {}
    while num:
        top = max(num)
        k = top - high
        if k < floor:
            return None
        quot[k] = f = num[top] / lead
        for e, c in den:
            val = num.get(e + k, 0) - f * c
            if val:
                num[e + k] = val
            else:
                num.pop(e + k, None)
    return ExactScalar._make(ctx, quot.items())


def _outcome(fn, a, b):
    try:
        return ("value", fn(a, b))
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))


def _span(x):
    if x.context is not FORMAL_CONTEXT:
        return 0
    return x.nums[-1][0] - x.nums[0][0]


def _agree(a, b):
    got = _outcome(exact_div, a, b)
    assert got == _outcome(_old_exact_div, a, b), (a, b)
    return got


# --- seeded pairs from the Laurent groups of the oracle corpus ----------------

GROUPS = ("ring(Z[t,1/t])", "Q + Q*t", "t*ring(Q[t,1/t])")


def _pool(rng, h):
    members = [v[0] for t in GROUPS
               for v in enumerate_members(parse_descriptor(t), h)]
    # products x * y, so that x * y / y is an exact quotient
    products = [x * y for x, y in
                zip(rng.choices(members, k=300), rng.choices(members, k=300))]
    return members + products


@pytest.mark.parametrize("h", [1, 2])
def test_seeded_pairs_match_the_old_route(h):
    rng = random.Random(20261021 + h)
    pool = _pool(rng, h)
    divisors = [b for b in pool if b]
    seen = {"exact": 0, "exact equal span": 0, "wider": 0, "none": 0}
    for _ in range(3000):
        a, b = rng.choice(pool), rng.choice(divisors)
        if rng.random() < 0.5:
            a = a * b       # an exact quotient whenever the product is
        kind, *rest = _agree(a, b)
        assert kind == "value"
        if rest[0] is None:
            seen["none"] += 1
            seen["wider"] += bool(a) and _span(b) > _span(a)
        else:
            seen["exact"] += 1
            seen["exact equal span"] += bool(a) and _span(a) == _span(b) > 0
    # every branch of the span test was taken, on both sides of its bound
    assert all(seen.values()), seen


# --- hand-picked edges ----------------------------------------------------------

T = t_monomial(1)
ONE_T = 1 + T                               # span 1
WIDE = 1 + T * T - t_monomial(-1)           # span 3
HALF = rational(Fraction(1, 2))


@pytest.mark.parametrize("a, b", [
    (rational(0), ONE_T),                   # zero numerator
    (rational(0), t_monomial(-2, 3)),
    (rational(3), rational(-4)),            # rational operands
    (HALF, t_monomial(2, 5)),
    (ONE_T, HALF),
    (ONE_T * t_monomial(3), t_monomial(-1, 7)),    # monomial divisors
    (t_monomial(1, 2), t_monomial(-2, 3)),
    (ONE_T * ONE_T, ONE_T),                 # shorter span, exact
    (ONE_T * ONE_T + 1, ONE_T),             # shorter span, inexact
    (ONE_T * t_monomial(-2, 4), ONE_T),     # equal span, exact
    (1 + 2 * T, ONE_T),                     # equal span, inexact
    (ONE_T, WIDE),                          # wider span
    (rational(1), ONE_T),
    (t_monomial(2), WIDE),
    (WIDE * ONE_T, WIDE),
])
def test_edges_match_the_old_route(a, b):
    _agree(a, b)


def test_the_span_bound_is_tight():
    # a quotient of span 0 over b of span s: a of span s divides exactly
    assert exact_div(ONE_T * t_monomial(2, 3), ONE_T) == t_monomial(2, 3)
    assert exact_div(ONE_T, WIDE) is None and exact_div(rational(1), ONE_T) is None


@pytest.mark.parametrize("a, b", [
    (sqrt_rational(2), ONE_T),              # a surd over a formal divisor
    (sqrt_rational(2), t_monomial(3)),
    (ONE_T, sqrt_rational(3)),              # and the other way round
    (sqrt_rational(2), WIDE),               # raised before the span test
    (1 + sqrt_rational(5), ONE_T * ONE_T),
])
def test_a_surd_with_a_formal_operand_has_no_quotient(a, b):
    # the old route raised ContextError; no value of the tower has both t
    # and a surd, so there is no quotient
    kind, *rest = _outcome(_old_exact_div, a, b)
    assert kind == "raises" and rest[0].__name__ == "ContextError"
    assert rest[1].startswith("cannot ")
    assert exact_div(a, b) is None


def test_division_by_zero_raises_as_before():
    for a in (ONE_T, rational(2), rational(0)):
        assert _agree(a, rational(0))[0] == "raises"
