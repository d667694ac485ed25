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

Every value is a tuple of Fraction coordinates over the context basis
(finite exponent->coefficient support for FORMAL).  Scalars auto-minimize on
construction: a biquadratic value whose surd coordinates vanish comes out as
a plain rational, so equality and hashing are plain structural equality.
No decision anywhere relies on floating point or on ordering real numbers;
:meth:`ExactScalar.approx` exists for display only.

Arithmetic takes the cheapest route that gives the same value.  Each field
has one context object (``quad_context`` and ``biquad_context`` intern
them), so operands in the same context are recognised by identity and
combined coordinatewise, with no join and no embedding; a rational operand
scales or shifts the coordinates of the other one.  Only operands from two
different fields go through :func:`join_context` and ``_embedded``.
Quadratic and biquadratic inverses use the conjugate, not a linear solve.
Scalars are immutable, so each caches its hash on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
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
def _mul_table(ctx: FieldContext) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Basis multiplication: entry [i][j] = (k, c) with b_i*b_j == c*b_k."""
    rad = context_radicands(ctx)
    table = []
    for ri in rad:
        row = []
        for rj in rad:
            s, core = squarefree_decomposition(ri * rj)
            row.append((rad.index(core), s))
        table.append(tuple(row))
    return tuple(table)


def join_context(a: FieldContext, b: FieldContext) -> FieldContext:
    """Smallest supported context containing both, or raise ContextError."""
    if a is b or a == b:
        return a
    if a.kind is ContextKind.RAT:
        return b
    if b.kind is ContextKind.RAT:
        return a
    if ContextKind.FORMAL in (a.kind, b.kind):
        raise ContextError(f"cannot join {a!r} with {b!r}")
    rads = {r for r in context_radicands(a) if r != 1}
    rads |= {r for r in context_radicands(b) if r != 1}
    # each pair inside one biquadratic field multiplies into the set, so a
    # join exists exactly when at most three radicands close up
    small = sorted(rads)
    if len(small) == 1:
        return quad_context(small[0])
    ctx = biquad_context(small[0], small[1])
    if rads <= set(context_radicands(ctx)):
        return ctx
    raise ContextError(f"joining {a!r} and {b!r} needs a field of degree > 4")


def _add_coords(ctx: FieldContext, a: tuple, b: tuple) -> "ExactScalar":
    """Sum of two coordinate tuples over one context."""
    kind = ctx.kind
    if kind is _FORMAL:
        acc = dict(a)
        for k, c in b:
            acc[k] = acc[k] + c if k in acc else c
        return ExactScalar._make(ctx, acc.items())
    if kind is _QUAD:
        surd = a[1] + b[1]
        if surd:
            return ExactScalar(ctx, (a[0] + b[0], surd))
        return ExactScalar(RAT_CONTEXT, (a[0] + b[0],))
    return ExactScalar._make(ctx, tuple(x + y for x, y in zip(a, b)))


def _mul_coords(ctx: FieldContext, a: tuple, b: tuple) -> "ExactScalar":
    """Product of two coordinate tuples over one non-rational context."""
    kind = ctx.kind
    if kind is _QUAD:
        # (a0 + a1 r)(b0 + b1 r) with r = sqrt(d); a1, b1 != 0 in QUAD
        a0, a1 = a
        b0, b1 = b
        r0 = a1 * b1 * ctx.d
        if a0 and b0:
            r0 += a0 * b0
            r1 = a0 * b1 + a1 * b0
        elif a0:
            r1 = a0 * b1
        elif b0:
            r1 = a1 * b0
        else:
            return ExactScalar(RAT_CONTEXT, (r0,))
        if r1:
            return ExactScalar(ctx, (r0, r1))
        return ExactScalar(RAT_CONTEXT, (r0,))
    if kind is _FORMAL:
        acc: dict[int, Fraction] = {}
        for k1, c1 in a:
            for k2, c2 in b:
                k = k1 + k2
                acc[k] = acc[k] + c1 * c2 if k in acc else c1 * c2
        return ExactScalar._make(ctx, acc.items())
    table = _mul_table(ctx)
    out = [Fraction(0)] * len(a)
    for i, ci in enumerate(a):
        if not ci:
            continue
        row = table[i]
        for j, cj in enumerate(b):
            if not cj:
                continue
            k, scale = row[j]
            out[k] += ci * cj * scale
    return ExactScalar._make(ctx, out)


class ExactScalar:
    """An exact real number (or formal Laurent element) in one context.

    ``coords`` is a tuple of Fractions over the context basis, except in the
    FORMAL context where it is a tuple of (exponent, coefficient) pairs in
    ascending exponent order with no zero coefficients.

    Values are immutable: assigning to an attribute raises AttributeError.
    Equality is structural, and the hash is computed once and kept.
    """

    __slots__ = ("context", "coords", "_hash")

    def __init__(self, context: FieldContext, coords: tuple):
        _set_context(self, context)
        _set_coords(self, coords)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"ExactScalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ExactScalar is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not ExactScalar:
            return NotImplemented
        return self is other or (self.coords == other.coords
                                 and self.context == other.context)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.context, self.coords))
            _set_hash(self, h)
        return h

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make(ctx: FieldContext, coords) -> "ExactScalar":
        if ctx.kind is _FORMAL:
            terms = tuple(sorted(
                (int(k), c if type(c) is Fraction else Fraction(c))
                for k, c in coords if c != 0))
            if all(k == 0 for k, _ in terms):
                coeff = terms[0][1] if terms else Fraction(0)
                return ExactScalar(RAT_CONTEXT, (coeff,))
            return ExactScalar(FORMAL_CONTEXT, terms)
        vals = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        if len(vals) < 2:
            return ExactScalar(RAT_CONTEXT, vals or (Fraction(0),))
        rad = context_radicands(ctx)
        live = [rad[i] for i in range(1, len(vals)) if vals[i] != 0]
        if not live:
            return ExactScalar(RAT_CONTEXT, (vals[0],))
        if len(live) == 1:
            sub = quad_context(live[0])
            i = rad.index(live[0])
            return ExactScalar(sub, (vals[0], vals[i]))
        return ExactScalar(ctx, vals)

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        # only a rational can vanish: a zero surd or Laurent part minimizes
        # away on construction
        return self.context.kind is _RAT and not self.coords[0]

    def is_rational(self) -> bool:
        return self.context.kind is _RAT

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is not rational")
        return self.coords[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coords[0].denominator == 1

    @property
    def height(self) -> int:
        """Max of |numerator|, denominator and |exponent| over the coordinates."""
        h = 0
        if self.context.kind is ContextKind.FORMAL:
            for k, c in self.coords:
                h = max(h, abs(k), abs(c.numerator), c.denominator)
            return h
        for c in self.coords:
            h = max(h, abs(c.numerator), c.denominator)
        return h

    def approx(self) -> Optional[float]:
        """Double-precision embedding, for display only (None for formal t)."""
        if self.context.kind is ContextKind.FORMAL:
            return None
        rad = context_radicands(self.context)
        return float(sum(float(c) * rad[i] ** 0.5 for i, c in enumerate(self.coords)))

    # -- arithmetic --------------------------------------------------------

    def _embedded(self, ctx: FieldContext) -> tuple:
        if self.context is ctx or self.context == ctx:
            return self.coords
        if self.context.kind is ContextKind.RAT:
            if ctx.kind is ContextKind.FORMAL:
                return ((0, self.coords[0]),) if self.coords[0] != 0 else ()
            out = [Fraction(0)] * len(context_radicands(ctx))
            out[0] = self.coords[0]
            return tuple(out)
        if ctx.kind is ContextKind.FORMAL or self.context.kind is ContextKind.FORMAL:
            raise ContextError(f"cannot embed {self.context!r} into {ctx!r}")
        src = context_radicands(self.context)
        dst = context_radicands(ctx)
        if any(r not in dst for r in src):
            raise ContextError(f"cannot embed {self.context!r} into {ctx!r}")
        out = [Fraction(0)] * len(dst)
        for i, r in enumerate(src):
            out[dst.index(r)] = self.coords[i]
        return tuple(out)

    def _scaled(self, q: Fraction) -> "ExactScalar":
        """self * q for a rational q; a nonzero q keeps the shape."""
        if not q:
            return ExactScalar(RAT_CONTEXT, (q,))
        ctx = self.context
        if ctx.kind is _FORMAL:
            return ExactScalar(ctx, tuple((k, c * q) for k, c in self.coords))
        return ExactScalar(ctx, tuple(c * q if c else c for c in self.coords))

    def __add__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = as_scalar(other)
        sc, oc = self.context, other.context
        if sc is oc or sc == oc:
            if sc.kind is _RAT:
                return ExactScalar(RAT_CONTEXT, (self.coords[0] + other.coords[0],))
            return _add_coords(sc, self.coords, other.coords)
        # a rational shifts the first coordinate and leaves the surds alone
        if sc.kind is _RAT and oc.kind is not _FORMAL:
            c = other.coords
            return ExactScalar(oc, (c[0] + self.coords[0],) + c[1:])
        if oc.kind is _RAT and sc.kind is not _FORMAL:
            c = self.coords
            return ExactScalar(sc, (c[0] + other.coords[0],) + c[1:])
        ctx = join_context(sc, oc)
        return _add_coords(ctx, self._embedded(ctx), other._embedded(ctx))

    def __radd__(self, other) -> "ExactScalar":
        return self.__add__(other)

    def __neg__(self) -> "ExactScalar":
        ctx = self.context
        if ctx.kind is _FORMAL:
            return ExactScalar(ctx, tuple((k, -c) for k, c in self.coords))
        return ExactScalar(ctx, tuple(-c for c in self.coords))

    def __sub__(self, other) -> "ExactScalar":
        return self.__add__(as_scalar(other).__neg__())

    def __rsub__(self, other) -> "ExactScalar":
        return as_scalar(other).__sub__(self)

    def __mul__(self, other) -> "ExactScalar":
        if type(other) is not ExactScalar:
            other = as_scalar(other)
        sc, oc = self.context, other.context
        if sc.kind is _RAT:
            if oc.kind is _RAT:
                return ExactScalar(RAT_CONTEXT, (self.coords[0] * other.coords[0],))
            return other._scaled(self.coords[0])
        if oc.kind is _RAT:
            return self._scaled(other.coords[0])
        if sc is oc or sc == oc:
            return _mul_coords(sc, self.coords, other.coords)
        ctx = join_context(sc, oc)
        return _mul_coords(ctx, self._embedded(ctx), other._embedded(ctx))

    def __rmul__(self, other) -> "ExactScalar":
        return self.__mul__(other)

    def invert(self) -> "ExactScalar":
        """Multiplicative inverse inside the tower.

        In the FORMAL context only monomials q*t^k are units of the
        representation; anything else raises DomainError.
        """
        ctx, c = self.context, self.coords
        kind = ctx.kind
        if kind is _RAT:
            if not c[0]:
                raise DomainError("zero has no inverse")
            return ExactScalar(RAT_CONTEXT, (1 / c[0],))
        if kind is _FORMAL:
            if len(c) != 1:
                raise DomainError(
                    "only monomials are invertible in Q[t,1/t]; "
                    f"got {len(c)} terms")
            k, v = c[0]
            return ExactScalar(FORMAL_CONTEXT, ((-k, 1 / v),))
        if kind is _QUAD:
            # 1/(a + b sqrt d) = (a - b sqrt d) / (a^2 - d b^2)
            a, b = c
            if not a:
                return ExactScalar(ctx, (a, 1 / (b * ctx.d)))
            norm = a * a - b * b * ctx.d
            return ExactScalar(ctx, (a / norm, -b / norm))
        # x = u + v sqrt(e) with u, v in Q(sqrt d); the conjugate u - v sqrt(e)
        # flips sqrt(e) and sqrt(f), and x times it lies in Q(sqrt d)
        conj = ExactScalar(ctx, (c[0], c[1], -c[2], -c[3]))
        return conj * (self * conj).invert()

    def __pow__(self, n: int) -> "ExactScalar":
        if not isinstance(n, int):
            raise DomainError("only integer powers are supported")
        if n < 0:
            return self.invert() ** (-n)
        out = one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- ordering key for deterministic enumeration ------------------------

    def sort_key(self) -> tuple:
        if self.context.kind is ContextKind.FORMAL:
            return (3, tuple((k, c.numerator, c.denominator) for k, c in self.coords))
        rad = context_radicands(self.context)
        kind = {ContextKind.RAT: 0, ContextKind.QUAD: 1, ContextKind.BIQUAD: 2}[self.context.kind]
        return (kind, rad, tuple((c.numerator, c.denominator) for c in self.coords))

    def __repr__(self) -> str:
        from .dsl import scalar_to_text
        return f"ExactScalar({scalar_to_text(self)})"


# slot writers that bypass the immutability guard, for construction and the
# hash cache only
_set_context = ExactScalar.context.__set__
_set_coords = ExactScalar.coords.__set__
_set_hash = ExactScalar._hash.__set__

_ZERO = ExactScalar(RAT_CONTEXT, (Fraction(0),))
_ONE = ExactScalar(RAT_CONTEXT, (Fraction(1),))


def as_scalar(x) -> ExactScalar:
    """Coerce int / Fraction / ExactScalar to an ExactScalar."""
    if type(x) is ExactScalar:
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar(RAT_CONTEXT, (Fraction(x),))
    raise DomainError(f"cannot interpret {x!r} as an exact scalar")


def rational(x: Rationalish) -> ExactScalar:
    return as_scalar(Fraction(x))


def zero() -> ExactScalar:
    return _ZERO


def one() -> ExactScalar:
    return _ONE


def sqrt_rational(q: Rationalish) -> ExactScalar:
    """Exact square root of a positive rational, landing in RAT or QUAD."""
    q = Fraction(q)
    if q == 0:
        return zero()
    core, mult = canonicalize_radical(q)
    if core == 1:
        return rational(mult)
    return ExactScalar._make(quad_context(core), (Fraction(0), mult))


def t_monomial(exp: int, coeff: Rationalish = 1) -> ExactScalar:
    """The Laurent monomial coeff * t^exp."""
    return ExactScalar._make(FORMAL_CONTEXT, ((exp, Fraction(coeff)),))


def invert(a: ExactScalar) -> ExactScalar:
    return as_scalar(a).invert()


def ratio(a, b) -> Optional[ExactScalar]:
    """a / b when b is invertible in the tower; None when undefined.

    b == 0 is an error; a non-monomial Laurent denominator is "undefined"
    rather than an error because callers enumerate over candidate
    denominators.
    """
    a, b = as_scalar(a), as_scalar(b)
    if b.is_zero():
        raise DomainError("ratio by zero")
    try:
        return a * b.invert()
    except DomainError:
        return None


def exact_div(a: ExactScalar, b: ExactScalar) -> Optional[ExactScalar]:
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
    num = dict(a._embedded(ctx)) if not a.is_zero() else {}
    den = dict(b._embedded(ctx))
    if not num:
        return zero()
    # shift exponents to ordinary polynomials
    nmin = min(num)
    dmin = min(den)
    np_ = {k - nmin: c for k, c in num.items()}
    dp = {k - dmin: c for k, c in den.items()}
    ddeg = max(dp)
    lead = dp[ddeg]
    quot: dict[int, Fraction] = {}
    while np_:
        ndeg = max(np_)
        if ndeg < ddeg:
            return None
        f = np_[ndeg] / lead
        k = ndeg - ddeg
        quot[k] = f
        for dk, dc in dp.items():
            key = dk + k
            val = np_.get(key, Fraction(0)) - f * dc
            if val == 0:
                np_.pop(key, None)
            else:
                np_[key] = val
    shift = nmin - dmin
    return ExactScalar._make(ctx, tuple((k + shift, c) for k, c in quot.items()))
