"""Unit and power-group decisions read a scalar's int numerators.

``is_unit`` on a Laurent ring, ``contains`` for the power groups over t,
``_unit_base`` and the Laurent-ring leaf of ``member`` read ``nums`` and
``den``.  The references below are verbatim copies of the earlier code,
which read the Fraction view of the same value (``coords`` and
``_embedded``).  On seeded rational, Laurent and surd scalars each must give
the reference's answer, or its error type and text.
"""

import random
from fractions import Fraction

from groupaut.autgroup import (
    PMPowers,
    RatTimesPMPowers,
    _field_unit,
    _is_power_of,
    _ring_core,
    _unit_base,
    contains,
    is_unit,
    pm_powers,
)
from groupaut.descriptors import (
    Domain,
    GroupDescriptor,
    LaurentRing,
    MembershipVerdict,
    MixedModule,
    Scaled,
    coprime_part,
    kind_name,
    laurent_ring,
    member,
)
from groupaut.dsl import parse_descriptor
from groupaut.errors import (ContextError, DomainError, GroupAutError,
                             UnsupportedError)
from groupaut.matrices import ExactMatrix, scalar_matrix
from groupaut.scalars import (
    FORMAL_CONTEXT,
    ContextKind,
    ExactScalar,
    as_scalar,
    join_context,
    one,
    rational,
    sqrt_rational,
    t_monomial,
)

from scalar_support import _embedded


# ---------------------------------------------------------------------------
# reference copies of the Fraction-view code, verbatim
# ---------------------------------------------------------------------------

def _ref_is_unit(ring: GroupDescriptor, r) -> bool:
    """Unit test in a ring descriptor (Laurent rings, Z[1/m], or a
    multiplicatively closed field-like module)."""
    r = as_scalar(r)
    core, _ = _ring_core(ring)
    if core is None and isinstance(ring, MixedModule):
        return _field_unit(ring, r)
    if core is None:
        raise UnsupportedError(f"{kind_name(ring)} is not a ring descriptor")
    if isinstance(ring, Scaled):
        raise UnsupportedError("scaled copies of rings have no unit group")
    if not member(core, r).member:
        raise DomainError(f"{r!r} is not an element of the ring")
    if r.is_zero():
        return False
    if isinstance(core, LaurentRing):
        if r.is_rational():
            q = r.as_fraction()
            return abs(q) == 1 if core.coeffs is Domain.INT else q != 0
        if len(r.coords) != 1:
            return False
        coeff = r.coords[0][1]
        return abs(coeff) == 1 if core.coeffs is Domain.INT else True
    # Z[1/m]: units are the rationals supported on the primes of m
    f = abs(r.as_fraction())
    return coprime_part(f.numerator, core.m) == 1 \
        and coprime_part(f.denominator, core.m) == 1


def _ref_unit_base(base) -> ExactScalar:
    s = as_scalar(base)
    if s.context.kind is ContextKind.FORMAL:
        if len(s.coords) == 1 and s.coords[0] == (1, Fraction(1)):
            return s
        raise DomainError(f"power base must be t or an integer >= 2, got {s!r}")
    if s.is_integer() and s.as_fraction() >= 2:
        return s
    raise DomainError(f"power base must be t or an integer >= 2, got {s!r}")


def _ref_contains_powers(d, a) -> bool:
    """The one-dimensional tail of ``contains``, for the two power kinds.

    Verbatim but for one fix: the earlier code let ``RatTimesPMPowers``
    over an integer base hold q*t^k too."""
    if isinstance(a, ExactMatrix):
        s = a.rows[0][0]
        if a != scalar_matrix(s, a.n):
            return False
    else:
        s = as_scalar(a)
    if isinstance(d, PMPowers):
        if d.base.context.kind is ContextKind.FORMAL:
            if s.is_rational():
                return abs(s.as_fraction()) == 1
            return (s.context.kind is ContextKind.FORMAL
                    and len(s.coords) == 1
                    and abs(s.coords[0][1]) == 1)
        if not s.is_rational() or s.is_zero():
            return False
        f = abs(s.as_fraction())
        base = int(d.base.as_fraction())
        if f.denominator == 1:
            return _is_power_of(f.numerator, base)
        return f.numerator == 1 and _is_power_of(f.denominator, base)
    if isinstance(d, RatTimesPMPowers):
        if s.is_rational():
            return not s.is_zero()
        # Q^x * p^k is Q^x for an integer base p: only the base t adds q*t^k
        return (d.base.context.kind is ContextKind.FORMAL
                and s.context.kind is ContextKind.FORMAL and len(s.coords) == 1)
    raise AssertionError(d)


def _ref_laurent_leaf(g: LaurentRing, v) -> MembershipVerdict:
    """The LaurentRing branch of ``descriptors._leaf_member``."""
    s = v[0]
    ctx = join_context(s.context, FORMAL_CONTEXT)   # rejects surd contexts
    coeffs = [c for _, c in _embedded(s, ctx)]
    if g.coeffs is Domain.INT:
        return MembershipVerdict(all(c.denominator == 1 for c in coeffs))
    return MembershipVerdict(True)


# ---------------------------------------------------------------------------
# seeded scalars
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11)


def _rational(rng) -> Fraction:
    """A signed ratio of small prime powers, now and then zero or a sum."""
    if rng.random() < 0.05:
        return Fraction(0)
    q = Fraction(rng.choice((1, -1)))
    for p in rng.sample(_PRIMES, rng.randrange(3)):
        q *= Fraction(p) ** rng.randint(-2, 2)
    if rng.random() < 0.2:
        q += Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return q


def _scalar(rng) -> ExactScalar:
    kind = rng.randrange(10)
    if kind < 4:
        return rational(_rational(rng))
    if kind < 8:
        # a Laurent polynomial of one to three terms, units often
        out = rational(0)
        for k in rng.sample(range(-3, 4), rng.randint(1, 3)):
            c = rng.choice((1, -1)) if rng.random() < 0.5 else _rational(rng)
            out = out + t_monomial(k, c)
        return out
    root = sqrt_rational(rng.choice((2, 3, 5, 6)))
    if kind == 9:
        root = root + rng.choice((rational(1), sqrt_rational(7)))
    return root * rational(_rational(rng) or 1)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))


RINGS = [parse_descriptor(text) for text in (
    "ring(Z[t,1/t])", "ring(Q[t,1/t])", "Zinv(2)", "Zinv(6)", "Zinv(7)",
    "Zinv(10)", "Zinv(30)")]


# ---------------------------------------------------------------------------
# the differentials
# ---------------------------------------------------------------------------

def test_is_unit_matches_the_fraction_view():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(6000):
        ring, r = rng.choice(RINGS), _scalar(rng)
        got = _outcome(is_unit, ring, r)
        assert got == _outcome(_ref_is_unit, ring, r), (ring, r)
        seen.add(got[:2])
    # units, members that are not units, and non-members all occur
    assert {("value", True), ("value", False)} <= seen
    assert ("raises", DomainError) in seen


def test_power_groups_contain_what_the_fraction_view_contains():
    rng = random.Random(20261020)
    groups = [pm_powers(t_monomial(1)), RatTimesPMPowers(t_monomial(1)),
              RatTimesPMPowers(rational(2))]
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        d, s = rng.choice(groups), _scalar(rng)
        a = scalar_matrix(s, rng.randint(1, 2)) if rng.random() < 0.2 else s
        got = contains(d, a)
        assert got == _ref_contains_powers(d, a), (d, s)
        verdicts[got] += 1
    assert min(verdicts.values()) > 200


def test_a_power_base_is_checked_as_before():
    t = t_monomial(1)
    bases = [t, -t, t * t, t_monomial(1, 2), t_monomial(-1), 1 + t, one(),
             rational(2), rational(7), rational(-2), rational(Fraction(1, 2)),
             rational(0), sqrt_rational(2), 2, 10]
    rng = random.Random(20261021)
    bases += [_scalar(rng) for _ in range(200)]
    for b in bases:
        assert _outcome(_unit_base, b) == _outcome(_ref_unit_base, b), b


def test_laurent_leaves_answer_as_the_fraction_view():
    rng = random.Random(20261022)
    members = 0
    for _ in range(3000):
        g = laurent_ring(rng.choice((Domain.INT, Domain.RAT)))
        v = (_scalar(rng),)
        got = _outcome(member, g, v)
        want = _outcome(_ref_laurent_leaf, g, v)
        if want[:2] == ("raises", ContextError):
            want = ("value", MembershipVerdict(False))  # a surd is no member
        assert got == want, (g, v)
        members += got == ("value", MembershipVerdict(True))
    assert members > 500
