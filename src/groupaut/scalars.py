"""Exact scalar arithmetic in a small tower of computable subfields of R.

Four context kinds are supported:

* ``RAT``           -- the rationals, one coordinate over the basis {1};
* ``QUAD(d)``       -- a real quadratic field, coordinates over {1, sqrt d}
                       with d > 1 square-free;
* ``BIQUAD(d, e)``  -- a biquadratic field, coordinates over
                       {1, sqrt d, sqrt e, sqrt f} where f is the square-free
                       core of d*e;
* ``FORMAL``        -- Laurent polynomials Q[t, 1/t] in a formal symbol t.
                       t stands for a transcendental real; the convention
                       "t > 1" is recorded here and never used in a decision.

Every value is stored as integers: a tuple of integer numerators over one
positive integer denominator, in lowest terms (the gcd of the numerators and
the denominator is 1), which is the canonical form of FLINT's ``fmpq_poly``.
In a number field the numerators are the coordinates over the context
basis; in the FORMAL context they are (exponent, numerator) pairs in
ascending exponent order with no zero numerator.  Scalars auto-minimize on
construction: a biquadratic value whose surd coordinates vanish comes out as
a plain rational, so equality and hashing compare tuples of ints.
No decision anywhere relies on floating point or on ordering real numbers.

Addition, multiplication and inversion each take one integer path per
context kind.  Each field has one context object (``quad_context`` and
``biquad_context`` intern them), so operands in the same context are
recognised by identity; operands of two different contexts are lifted into
their join (:func:`join_context`), where a rational is a vector with zero
surd coordinates; a product with a rational only scales numerators.  The
join of each pair of distinct contexts, and where each basis element of one
context takes its numerator from a value of another, are worked out once
per pair in two ``lru_cache``s, which are cleared with the package's other
caches, so a lift is a read of a tuple of indices.  Quadratic and
biquadratic inverses use the conjugate, not a linear solve.  Scalars are
immutable, so each caches its hash on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, Optional, Union

from .errors import BudgetExceededError, ContextError, DomainError

Rationalish = Union[int, Fraction]


# trial division tries divisors up to this bound and no further
FACTOR_BOUND = 1 << 20


def factorize(n: int) -> list[tuple[int, int]]:
    """The primes of n >= 1 with their exponents, in ascending order."""
    return list(iter_factors(n))


def iter_factors(n: int) -> Iterator[tuple[int, int]]:
    """Yield the primes of n >= 1 with their exponents, in ascending order,
    each as soon as trial division finds it.

    Trial division stops at FACTOR_BOUND; a cofactor left above its square
    may be composite, and raises BudgetExceededError instead.  A caller
    that takes only the least prime stops there, so the cofactor left after
    it is never searched.
    """
    p = 2
    while p * p <= n:
        if p > FACTOR_BOUND:
            raise BudgetExceededError(
                f"no prime factor of {n} up to {FACTOR_BOUND}, "
                "and it is too large to be known prime")
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*core with core square-free; returns (s, core)."""
    if n <= 0:
        raise DomainError(f"square-free decomposition needs n > 0, got {n}")
    s, core = 1, 1
    for p, e in factorize(n):
        s *= p ** (e // 2)
        if e % 2:
            core *= p
    return s, core


def canonicalize_radical(q: Rationalish) -> tuple[int, Fraction]:
    """Split a positive rational q as multiplier^2 * core, core square-free.

    Returns (core, multiplier) with core a square-free positive integer and
    multiplier a positive rational; core == 1 exactly when sqrt(q) is
    rational.
    """
    q = Fraction(q)
    if q <= 0:
        raise DomainError(f"canonicalize_radical needs q > 0, got {q}")
    s, core = squarefree_decomposition(q.numerator * q.denominator)
    return core, Fraction(s, q.denominator)


class ContextKind(Enum):
    RAT = "rat"
    QUAD = "quad"
    BIQUAD = "biquad"
    FORMAL = "formal"


# module-level names for the hot paths: an Enum attribute lookup costs more
# than the comparison it feeds
_RAT, _QUAD, _BIQUAD, _FORMAL = (ContextKind.RAT, ContextKind.QUAD,
                                 ContextKind.BIQUAD, ContextKind.FORMAL)


@dataclass(frozen=True)
class FieldContext:
    kind: ContextKind
    d: Optional[int] = None
    e: Optional[int] = None

    def __hash__(self) -> int:
        # equal contexts share d and e; hashing the kind would go through
        # the Python-level Enum.__hash__
        return hash((self.d, self.e))

    def __repr__(self) -> str:
        if self.kind is ContextKind.RAT:
            return "Q"
        if self.kind is ContextKind.QUAD:
            return f"Q(sqrt{self.d})"
        if self.kind is ContextKind.BIQUAD:
            return f"Q(sqrt{self.d},sqrt{self.e})"
        return "Q[t,1/t]"


RAT_CONTEXT = FieldContext(ContextKind.RAT)
FORMAL_CONTEXT = FieldContext(ContextKind.FORMAL)

# one context object per field, so that equal contexts are usually the same
# object; these are identity tables, not result caches, and are never cleared
_QUAD_CONTEXTS: dict[int, FieldContext] = {}
_BIQUAD_CONTEXTS: dict[tuple[int, int], FieldContext] = {}


def quad_context(d: int) -> FieldContext:
    ctx = _QUAD_CONTEXTS.get(d)
    if ctx is not None:
        return ctx
    if d <= 1:
        raise ContextError(f"quadratic radicand must be square-free and > 1, got {d}")
    s, core = squarefree_decomposition(d)
    if s != 1 or core == 1:
        raise ContextError(f"quadratic radicand must be square-free and > 1, got {d}")
    ctx = _QUAD_CONTEXTS[d] = FieldContext(ContextKind.QUAD, d)
    return ctx


def biquad_context(d: int, e: int) -> FieldContext:
    """Canonical biquadratic context containing sqrt(d) and sqrt(e).

    The three quadratic subfields have radicands {d, e, core(d*e)}; the
    canonical label uses the two smallest, which makes contexts that present
    the same field compare equal.
    """
    ctx = _BIQUAD_CONTEXTS.get((d, e))
    if ctx is not None:
        return ctx
    for r in (d, e):
        quad_context(r)
    if d == e:
        raise ContextError("biquadratic context needs two distinct radicands")
    _, f = squarefree_decomposition(d * e)
    if f == 1:
        raise ContextError(f"product of radicands {d},{e} is a perfect square")
    trio = sorted({d, e, f})
    label = (trio[0], trio[1])
    ctx = _BIQUAD_CONTEXTS.get(label)
    if ctx is None:
        ctx = _BIQUAD_CONTEXTS[label] = FieldContext(ContextKind.BIQUAD, *label)
    _BIQUAD_CONTEXTS[(d, e)] = ctx
    return ctx


@lru_cache(maxsize=None)
def context_radicands(ctx: FieldContext) -> tuple[int, ...]:
    """Radicands of the basis elements (1 listed as radicand 1)."""
    if ctx.kind is ContextKind.RAT:
        return (1,)
    if ctx.kind is ContextKind.QUAD:
        return (1, ctx.d)
    if ctx.kind is ContextKind.BIQUAD:
        _, f = squarefree_decomposition(ctx.d * ctx.e)
        return (1, ctx.d, ctx.e, f)
    raise ContextError("the formal context has no radical basis")


@lru_cache(maxsize=None)
def _biquad_products(d: int, e: int) -> tuple[int, ...]:
    """(d, e, f, p, q, r) for the biquadratic context labelled (d, e): its
    basis is 1, sqrt d, sqrt e, sqrt f, and sqrt(d e) = p sqrt f,
    sqrt(d f) = q sqrt e, sqrt(e f) = r sqrt d.  d and e are square-free,
    so p = gcd(d, e), q = d / p and r = e / p."""
    p = gcd(d, e)
    return d, e, d * e // (p * p), p, d // p, e // p


def join_context(a: FieldContext, b: FieldContext) -> FieldContext:
    """Smallest supported context containing both, or raise ContextError."""
    if a is b or b.kind is _RAT:
        return a
    if a.kind is _RAT:
        return b
    return _join(a, b)


@lru_cache(maxsize=None)
def _join(a: FieldContext, b: FieldContext) -> FieldContext:
    """join_context of two contexts that are neither RAT nor one object."""
    if a == b:
        return b
    if _FORMAL in (a.kind, b.kind):
        raise ContextError(f"cannot join {a!r} with {b!r}")
    rads = {r for r in context_radicands(a) if r != 1}
    rads |= {r for r in context_radicands(b) if r != 1}
    # two different fields have at least two radicands between them; each
    # pair inside one biquadratic field multiplies into the set, so a join
    # exists exactly when at most three radicands close up
    small = sorted(rads)
    ctx = biquad_context(small[0], small[1])
    if rads <= set(context_radicands(ctx)):
        return ctx
    raise ContextError(f"joining {a!r} and {b!r} needs a field of degree > 4")


@lru_cache(maxsize=None)
def _embedding(sc: FieldContext, ctx: FieldContext) -> Optional[tuple]:
    """For each basis element of ctx, the index of its numerator in a value
    of sc, -1 where it is zero; None when sc and ctx are one context, and
    () for the rationals in the FORMAL context.  Raises ContextError when
    ctx does not contain sc."""
    if sc == ctx:
        return None
    if sc.kind is _RAT and ctx.kind is _FORMAL:
        return ()
    if _FORMAL in (sc.kind, ctx.kind) \
            or not set(context_radicands(sc)) <= set(context_radicands(ctx)):
        raise ContextError(f"cannot embed {sc!r} into {ctx!r}")
    src = context_radicands(sc)
    return tuple([src.index(r) if r in src else -1
                  for r in context_radicands(ctx)])


def _number(ctx: FieldContext, nums: tuple, den: int) -> "ExactScalar":
    """nums / den over the basis of a number-field context (den != 0), in
    lowest terms and in the smallest context that holds it."""
    if len(nums) == 1:
        # a rational, the commonest value: one gcd, and one shared zero
        n = nums[0]
        if not n:
            return _ZERO
        g = gcd(n, den) if den > 0 else -gcd(n, den)
        return ExactScalar(ctx, (n // g,), den // g)
    if len(nums) == 4:
        live = [i for i in (1, 2, 3) if nums[i]]
        if len(live) < 2:
            # a single surd left names its quadratic field; with none left,
            # the zero surd of (nums[0], 0) makes it rational below
            i = live[0] if live else 1
            ctx, nums = quad_context(context_radicands(ctx)[i]), (nums[0], nums[i])
    if len(nums) == 2 and not nums[1]:
        ctx, nums = RAT_CONTEXT, nums[:1]
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    return ExactScalar(ctx, nums if g == 1 else tuple([n // g for n in nums]),
                       den // g)


def _laurent(terms: tuple, den: int) -> "ExactScalar":
    """The Laurent value with the (exponent, numerator) pairs terms, in
    ascending exponent order with no zero numerator, over den > 0, in
    lowest terms."""
    if not terms or (len(terms) == 1 and terms[0][0] == 0):
        return _number(RAT_CONTEXT, (terms[0][1] if terms else 0,), den)
    return ExactScalar(FORMAL_CONTEXT, *lowest_terms(FORMAL_CONTEXT, terms, den))


def _terms(acc: dict) -> tuple:
    """The nonzero (exponent, numerator) pairs of acc, ascending."""
    return tuple([(k, n) for k, n in sorted(acc.items()) if n])


def _lowest(n: int, den: int) -> tuple[int, int]:
    """Numerator and denominator of the single coordinate n / den."""
    g = gcd(n, den)
    return n // g, den // g


def lowest_terms(ctx: FieldContext, nums: tuple, den: int) -> tuple[tuple, int]:
    """nums / den over the basis of ctx (den > 0) with the common gcd
    cancelled."""
    formal = ctx.kind is _FORMAL
    g = gcd(den, *([n for _, n in nums] if formal else nums))
    if g == 1:
        return nums, den
    if formal:
        return tuple([(k, n // g) for k, n in nums]), den // g
    return tuple([n // g for n in nums]), den // g


def _within(ctx: FieldContext, nums: tuple, den: int, h: int) -> bool:
    """Whether nums / den over the basis of ctx has height at most h (see
    ExactScalar.height), tested on ints: a gcd is taken only for a
    coordinate whose numerator or den is above h, and the first coordinate
    found above the bound ends the test."""
    if ctx.kind is _FORMAL:
        # the exponents ascend
        if nums and (nums[0][0] < -h or nums[-1][0] > h):
            return False
        nums = [n for _, n in nums]
    for n in nums:
        if n < 0:
            n = -n
        if (n > h or den > h) and n:
            g = gcd(n, den)
            if n > h * g or den > h * g:
                return False
    return True


def nums_product(ctx: FieldContext, a: tuple, b: tuple) -> tuple:
    """The numerators over ctx of x * y, for x and y with numerators a and b
    over ctx, over the product of their denominators; when FORMAL, the
    nonzero (exponent, numerator) pairs, ascending."""
    kind = ctx.kind
    if kind is _RAT:
        return (a[0] * b[0],)
    if kind is _QUAD:
        # (a0 + a1 r)(b0 + b1 r) with r = sqrt(d)
        a0, a1 = a
        b0, b1 = b
        return (a0 * b0 + a1 * b1 * ctx.d, a0 * b1 + a1 * b0)
    if kind is _BIQUAD:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        d, e, f, p, q, r = _biquad_products(ctx.d, ctx.e)
        return (a0 * b0 + d * a1 * b1 + e * a2 * b2 + f * a3 * b3,
                a0 * b1 + a1 * b0 + r * (a2 * b3 + a3 * b2),
                a0 * b2 + a2 * b0 + q * (a1 * b3 + a3 * b1),
                a0 * b3 + a3 * b0 + p * (a1 * b2 + a2 * b1))
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        # by a monomial: the exponents shift and stay apart
        (k2, n2), = b
        return tuple([(k + k2, n * n2) for k, n in a])
    acc: dict[int, int] = {}
    for k1, n1 in a:
        for k2, n2 in b:
            acc[k1 + k2] = acc.get(k1 + k2, 0) + n1 * n2
    return _terms(acc)


def products_within(xs: list, ys: list, h: int) -> list["ExactScalar"]:
    """The distinct products x * y of height at most h over y in ys and x in
    xs.  Each x is lifted once into its join with each context of ys, and
    products are formed on int numerators: a scalar is built only for a
    product inside the bound whose lowest terms are new in its join.  A
    Laurent monomial c * t^k as y shifts exponents by k and scales by c: an
    x whose shifted exponents leave [-h, h] forms no product.  A pair with
    no join raises ContextError at the first such pair, y outer."""
    out, seen, lifts = [], {}, {}
    for y in ys:
        groups = lifts.get(y.context)
        if groups is None:
            # each x over its join with this context, grouped by the join
            groups = lifts[y.context] = {}
            for x in xs:
                ctx = join_context(x.context, y.context)
                groups.setdefault(ctx, []).append((x._lift(ctx), x.den))
        for ctx, lifted in groups.items():
            b, db, keys = y._lift(ctx), y.den, seen.setdefault(ctx, set())
            shift = ctx.kind is _FORMAL and len(b) == 1
            if shift:
                low, high = -h - b[0][0], h - b[0][0]
            for a, da in lifted:
                if shift and a and (a[0][0] < low or a[-1][0] > high):
                    continue
                nums, den = nums_product(ctx, a, b), da * db
                if not _within(ctx, nums, den, h):
                    continue
                key = lowest_terms(ctx, nums, den)
                if key not in keys:
                    keys.add(key)
                    out.append(_laurent(*key) if ctx.kind is _FORMAL
                               else _number(ctx, *key))
    return out


_KIND_RANK = {ContextKind.RAT: 0, ContextKind.QUAD: 1, ContextKind.BIQUAD: 2}


class ExactScalar:
    """An exact real number (or formal Laurent element) in one context.

    ``nums`` and ``den`` are the stored value: integer numerators over the
    context basis and one positive denominator, in lowest terms.  In the
    FORMAL context ``nums`` holds (exponent, numerator) pairs in ascending
    exponent order with no zero numerator.

    ``coords`` is a read-only view of the same value as Fractions, computed
    when it is read and not stored: Fractions over the context basis, or
    (exponent, Fraction) pairs in the FORMAL context.  :meth:`_make` builds
    a value from int or Fraction coordinates.

    Values are immutable: assigning to an attribute raises AttributeError.
    Equality compares the integers and the context, and the hash is computed
    once and kept.  Zero is falsy, as the int and Fraction zeros are.
    """

    __slots__ = ("context", "nums", "den", "_hash")

    def __init__(self, context: FieldContext, nums: tuple, den: int):
        # callers pass a canonical value in an interned context
        _set_context(self, context)
        _set_nums(self, nums)
        _set_den(self, den)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"ExactScalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ExactScalar is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not ExactScalar:
            return NotImplemented
        return self is other or (self.nums == other.nums
                                 and self.den == other.den
                                 and (self.context is other.context
                                      or self.context == other.context))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            ctx = self.context
            h = hash((self.nums, self.den, ctx.d, ctx.e))
            _set_hash(self, h)
        return h

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make(ctx: FieldContext, coords) -> "ExactScalar":
        """The minimized value of int or Fraction coordinates over ctx."""
        coords = list(coords)
        if ctx.kind is _FORMAL:
            den = lcm(*(c.denominator for _, c in coords))
            return _laurent(_terms({int(k): c.numerator * (den // c.denominator)
                                    for k, c in coords}), den)
        vals = coords or [0]
        den = lcm(*(c.denominator for c in vals))
        nums = tuple([c.numerator * (den // c.denominator) for c in vals])
        if len(nums) == 4:
            # the interned context of the field, in its basis order
            label = biquad_context(ctx.d, ctx.e)
            nums, ctx = ExactScalar(ctx, nums, den)._lift(label), label
        else:
            ctx = quad_context(ctx.d) if len(nums) == 2 else RAT_CONTEXT
        return _number(ctx, nums, den)

    # -- predicates and views ---------------------------------------------

    @property
    def coords(self) -> tuple:
        den = self.den
        if self.context.kind is _FORMAL:
            return tuple((k, Fraction(n, den)) for k, n in self.nums)
        return tuple(Fraction(n, den) for n in self.nums)

    def is_zero(self) -> bool:
        # only a rational can vanish: a zero surd or Laurent part minimizes
        # away on construction
        return self.context.kind is _RAT and not self.nums[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return self.context.kind is _RAT

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    @property
    def height(self) -> int:
        """Max of |numerator|, denominator and |exponent| over the
        coordinates, each coordinate in its own lowest terms."""
        nums, den, h = self.nums, self.den, 0
        if self.context.kind is _FORMAL:
            h = max([abs(k) for k, _ in nums], default=0)
            nums = [n for _, n in nums]
        for n in nums:
            g = gcd(n, den)
            h = max(h, abs(n) // g, den // g)
        return h

    # -- arithmetic --------------------------------------------------------

    def _lift(self, ctx: FieldContext) -> tuple:
        """The numerators of self over the basis of ctx, a context that
        contains it; the denominator stays self.den."""
        sc, nums = self.context, self.nums
        if sc is ctx:
            return nums
        where = _embedding(sc, ctx)
        if where is None:
            return nums
        if not where:
            return ((0, nums[0]),) if nums[0] else ()
        nums += (0,)            # index -1 reads this zero
        return tuple([nums[i] for i in where])

    def __add__(self, other, sign: int = 1) -> "ExactScalar":
        """self + sign * other, for sign 1 or -1 (``__sub__``)."""
        if type(other) is not ExactScalar:
            other = as_scalar(other)
        da, db = self.den, other.den
        ctx = self.context
        if ctx is other.context:
            if ctx.kind is _RAT:
                # one coordinate: a single gcd brings it to lowest terms
                n = self.nums[0] * db + sign * other.nums[0] * da
                if not n:
                    return _ZERO
                den = da * db
                g = gcd(n, den)
                return ExactScalar(ctx, (n // g,), den // g)
            a, b = self.nums, other.nums
        else:
            ctx = join_context(ctx, other.context)
            a, b = self._lift(ctx), other._lift(ctx)
        # both over the common denominator lcm(da, db)
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        den = da * ma
        if ctx.kind is _FORMAL:
            acc = {k: n * ma for k, n in a}
            for k, n in b:
                acc[k] = acc.get(k, 0) + n * mb
            return _laurent(_terms(acc), den)
        return _number(ctx, tuple([x * ma + y * mb for x, y in zip(a, b)]), den)

    def __radd__(self, other) -> "ExactScalar":
        return self.__add__(other)

    def __neg__(self) -> "ExactScalar":
        ctx = self.context
        if ctx.kind is _RAT:
            return ExactScalar(ctx, (-self.nums[0],), self.den)
        if ctx.kind is _FORMAL:
            return ExactScalar(ctx, tuple([(k, -n) for k, n in self.nums]), self.den)
        return ExactScalar(ctx, tuple([-n for n in self.nums]), self.den)

    def __sub__(self, other) -> "ExactScalar":
        return self.__add__(other, -1)

    def __rsub__(self, other) -> "ExactScalar":
        return as_scalar(other).__sub__(self)

    def __mul__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = as_scalar(other)
        ctx = self.context
        if ctx is other.context:
            if ctx.kind is _RAT:
                n = self.nums[0] * other.nums[0]
                if not n:
                    return _ZERO
                den = self.den * other.den
                g = gcd(n, den)
                return ExactScalar(ctx, (n // g,), den // g)
            a, b = self.nums, other.nums
        elif ctx.kind is _RAT or other.context.kind is _RAT:
            # a rational scales the other operand's numerators in its context
            q, x = (self, other) if ctx.kind is _RAT else (other, self)
            n, den = q.nums[0], self.den * other.den
            if not n:
                return _ZERO
            if x.context.kind is _FORMAL:
                return _laurent(tuple([(k, m * n) for k, m in x.nums]), den)
            return _number(x.context, tuple([m * n for m in x.nums]), den)
        else:
            ctx = join_context(ctx, other.context)
            a, b = self._lift(ctx), other._lift(ctx)
        if ctx.kind is _FORMAL:
            return _laurent(nums_product(ctx, a, b), self.den * other.den)
        return _number(ctx, nums_product(ctx, a, b), self.den * other.den)

    def __rmul__(self, other) -> "ExactScalar":
        return self.__mul__(other)

    def invert(self) -> "ExactScalar":
        """Multiplicative inverse inside the tower.

        In the FORMAL context only monomials q*t^k are units of the
        representation; anything else raises DomainError.
        """
        ctx, c, den = self.context, self.nums, self.den
        kind = ctx.kind
        if kind is _RAT:
            if not c[0]:
                raise DomainError("zero has no inverse")
            return _number(ctx, (den,), c[0])
        if kind is _FORMAL:
            if len(c) != 1:
                raise DomainError(
                    "only monomials are invertible in Q[t,1/t]; "
                    f"got {len(c)} terms")
            (k, n), = c
            return ExactScalar(ctx, ((-k, den if n > 0 else -den),), abs(n))
        if kind is _QUAD:
            # 1/(a + b sqrt d) = (a - b sqrt d) / (a^2 - d b^2)
            a, b = c
            return _number(ctx, (a * den, -b * den), a * a - b * b * ctx.d)
        # x = u + v sqrt(e) with u, v in Q(sqrt d); the conjugate u - v sqrt(e)
        # flips sqrt(e) and sqrt(f), and x times it is (n0 + n1 sqrt d) / den^2,
        # so 1/x = conj * den * (n0 - n1 sqrt d) / (n0^2 - d n1^2), all in ctx
        conj = (c[0], c[1], -c[2], -c[3])
        n0, n1, _, _ = nums_product(ctx, c, conj)
        return _number(ctx, nums_product(ctx, conj, (n0 * den, -n1 * den, 0, 0)),
                       n0 * n0 - n1 * n1 * ctx.d)

    # -- ordering key for deterministic enumeration ------------------------

    def sort_key(self) -> tuple:
        """Each coordinate as its own lowest-terms numerator and denominator
        (after the exponent in the FORMAL context)."""
        den = self.den
        if self.context.kind is _FORMAL:
            return (3, tuple((k,) + _lowest(n, den) for k, n in self.nums))
        return (_KIND_RANK[self.context.kind], context_radicands(self.context),
                tuple(_lowest(n, den) for n in self.nums))

    def __repr__(self) -> str:
        from .dsl import scalar_to_text
        return f"ExactScalar({scalar_to_text(self)})"


# slot writers that bypass the immutability guard, for construction and the
# hash cache only
_set_context = ExactScalar.context.__set__
_set_nums = ExactScalar.nums.__set__
_set_den = ExactScalar.den.__set__
_set_hash = ExactScalar._hash.__set__

_ZERO = ExactScalar(RAT_CONTEXT, (0,), 1)
_ONE = ExactScalar(RAT_CONTEXT, (1,), 1)


def as_scalar(x) -> ExactScalar:
    """Coerce int / Fraction / ExactScalar to an ExactScalar."""
    if type(x) is ExactScalar:
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar(RAT_CONTEXT, (int(x.numerator),), x.denominator)
    raise DomainError(f"cannot interpret {x!r} as an exact scalar")


def rational(x: Rationalish) -> ExactScalar:
    return as_scalar(x if isinstance(x, (int, Fraction)) else Fraction(x))


def zero() -> ExactScalar:
    return _ZERO


def one() -> ExactScalar:
    return _ONE


def sqrt_rational(q: Rationalish) -> ExactScalar:
    """Exact square root of a positive rational, landing in RAT or QUAD,
    built on the ints of ``canonicalize_radical``'s split."""
    q = Fraction(q)
    if q == 0:
        return zero()
    core, mult = canonicalize_radical(q)
    ctx, surd = (RAT_CONTEXT, ()) if core == 1 else (quad_context(core), (0,))
    return _number(ctx, surd + (mult.numerator,), mult.denominator)


def t_monomial(exp: int, coeff: Rationalish = 1) -> ExactScalar:
    """The Laurent monomial coeff * t^exp."""
    return ExactScalar._make(FORMAL_CONTEXT, ((exp, coeff),))


def exact_div(a: ExactScalar, b: ExactScalar) -> Optional[ExactScalar]:
    """Exact quotient a / b inside the ring when it exists, else None.

    For number-field contexts this is just the field quotient, and there is
    none between t and a surd.  For Laurent elements it performs polynomial
    division over Q and returns the quotient only when the remainder
    vanishes.  A quotient q != 0 has
    span(a) = span(q) + span(b), the span being the highest exponent less
    the lowest, so a nonzero a over a b of wider span is refused on the
    integer exponents before any Fraction is built.
    """
    a, b = as_scalar(a), as_scalar(b)
    if b.is_zero():
        raise DomainError("division by zero")
    kinds = a.context.kind, b.context.kind
    if _FORMAL not in kinds:
        return a * b.invert()
    if _QUAD in kinds or _BIQUAD in kinds:
        return None     # no value of the tower has both t and a surd
    ctx = FORMAL_CONTEXT
    na, nb = a._lift(ctx), b._lift(ctx)     # na is empty when a is zero
    if na and nb[-1][0] - nb[0][0] > na[-1][0] - na[0][0]:
        return None
    num = {k: Fraction(n, a.den) for k, n in na}
    den = [(k, Fraction(n, b.den)) for k, n in nb]
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
