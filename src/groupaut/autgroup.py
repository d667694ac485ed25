"""Invariance groups of group descriptors.

For a subgroup G of R^n, the invariance group is the set of invertible
matrices A with G*A = G; in one dimension these are the nonzero reals r
with r*G = G.  Two independent routes decide membership:

* a small table of closed forms (``aut_group``), each row carrying a
  decidable predicate (``contains``), and
* generator certificates (``acts_invariantly``), which check the finitely
  many generating lines of G against A and its inverse directly.

``aut_member`` runs both routes and raises ConsistencyError if they ever
disagree.  When no table row applies, the engine answers with explicit
Bounds (known lower/upper descriptor sets) instead of guessing; {+1,-1} is
always a sound lower bound.

The table covers: cyclic groups; every rational line Q*g; modules
Z*g + Q*h whose rescaled generator ratio is a pure square root;
two-generator Q-spans Q*g0 + Q*g1 by the square test (the field holding
g1/g0 when g1^2 lies in the Q-span of g0^2 and g0*g1, Q^x otherwise);
Laurent rings and their hulls; Z[1/m]; Q^n and its scalings; the
two-factor "rational multiples of a fixed square root off the diagonal"
pattern; Q^p x R^q block groups; and full spaces.  Powers A_x for
quadratic irrational bases are out of reach of the table (the
question is open); such inputs fall through to Bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Optional, Union

from .descriptors import (
    Cyclic,
    Domain,
    FractionRing,
    FullLine,
    FullSpace,
    GroupDescriptor,
    Image,
    LaurentRing,
    MixedModule,
    Product,
    Scaled,
    _coordinates,
    _member,
    _split,
    _module_rat_line,
    coprime_part,
    cyclic_form,
    dimension,
    fraction_ring,
    holds,
    invariance_generators,
    is_cyclic,
    kind_name,
    member,
    normalize,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    ContextError,
    DomainError,
    SingularMatrixError,
    UnsupportedError,
)
from .matrices import (
    ExactMatrix,
    Vector,
    block_triangular_member,
    classify,
    pattern_quad_member,
    scalar_matrix,
    vec_mat_mul,
)
from .scalars import (
    ContextKind,
    ExactScalar,
    as_scalar,
    context_radicands,
    exact_div,
    factorize,
    iter_factors,
    one,
    ratio,
    rational,
    sqrt_rational,
    t_monomial,
)


# ---------------------------------------------------------------------------
# invariance-group descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlusMinusOne:
    """{+1, -1}; the invariance group of every rigid group."""


@dataclass(frozen=True)
class RatStar:
    """Nonzero rationals."""


@dataclass(frozen=True)
class FieldUnits:
    """Nonzero elements of the real quadratic field with radicand d."""
    d: int


@dataclass(frozen=True)
class PMPowers:
    """{+-base^k : k in Z} for a fixed multiplicative unit base."""
    base: ExactScalar


@dataclass(frozen=True)
class RatTimesPMPowers:
    """Nonzero rational multiples of powers of the base."""
    base: ExactScalar


@dataclass(frozen=True)
class GLQ:
    """Invertible n x n matrices with rational entries."""
    n: int


@dataclass(frozen=True)
class GLR:
    """All invertible n x n matrices."""
    n: int


@dataclass(frozen=True)
class BlockTriangular:
    """Invertible [[A, B], [0, C]] with A rational p x p, C any q x q."""
    p: int
    q: int


@dataclass(frozen=True)
class PatternQuad:
    """Invertible [[a, b*x], [c*x, d]] with a, b, c, d rational."""
    x: ExactScalar


@dataclass(frozen=True)
class EZLowerBound:
    """Integer n x n matrices of determinant +-1 (containment knowledge
    only; never an exact answer by itself)."""
    n: int


AutDescriptor = Union[PlusMinusOne, RatStar, FieldUnits, PMPowers,
                      RatTimesPMPowers, GLQ, GLR, BlockTriangular,
                      PatternQuad, EZLowerBound]


@dataclass(frozen=True)
class Exact:
    descriptor: AutDescriptor


@dataclass(frozen=True)
class Bounds:
    """Honest partial knowledge: every lower descriptor is contained in the
    invariance group, every upper descriptor contains it."""
    lower: tuple[AutDescriptor, ...]
    upper: tuple[AutDescriptor, ...] = ()


AutResult = Union[Exact, Bounds]


@dataclass(frozen=True)
class Certificate:
    """Outcome of a generator check of G*A = G.

    On failure, ``failing_generator`` is a concrete member of G whose image
    under A (direction "forward") or A^-1 (direction "inverse") is not a
    member of G.
    """
    verdict: bool
    failing_generator: Optional[Vector] = None
    direction: Optional[str] = None

    def __bool__(self) -> bool:
        return self.verdict


def pm_powers(base) -> PMPowers:
    return PMPowers(_unit_base(base))


def rat_times_pm_powers(base) -> RatTimesPMPowers:
    return RatTimesPMPowers(_unit_base(base))


def _unit_base(base) -> ExactScalar:
    s = as_scalar(base)
    if s.context.kind is ContextKind.FORMAL:
        if len(s.coords) == 1 and s.coords[0] == (1, Fraction(1)):
            return s
        raise DomainError(f"power base must be t or an integer >= 2, got {s!r}")
    if s.is_integer() and s.as_fraction() >= 2:
        return s
    raise DomainError(f"power base must be t or an integer >= 2, got {s!r}")


# ---------------------------------------------------------------------------
# descriptor predicates
# ---------------------------------------------------------------------------

def descriptor_code(d: AutDescriptor) -> str:
    """Short stable label used in bounds lists and reports."""
    from .dsl import scalar_to_text
    if isinstance(d, PlusMinusOne):
        return "PM1"
    if isinstance(d, RatStar):
        return "Qx"
    if isinstance(d, FieldUnits):
        return f"U(Q+Q*sqrt({d.d}))"
    if isinstance(d, PMPowers):
        return f"A({scalar_to_text(d.base)})"
    if isinstance(d, RatTimesPMPowers):
        return f"Qx*A({scalar_to_text(d.base)})"
    if isinstance(d, GLQ):
        return f"GLQ({d.n})"
    if isinstance(d, GLR):
        return f"GL({d.n})"
    if isinstance(d, BlockTriangular):
        return f"Block({d.p},{d.q})"
    if isinstance(d, PatternQuad):
        return f"Pattern({scalar_to_text(d.x)})"
    if isinstance(d, EZLowerBound):
        return f"EZ({d.n})"
    raise DomainError(f"not an invariance-group descriptor: {d!r}")


def descriptor_json(d: AutDescriptor) -> dict:
    """The class name as "kind", then every field in declaration order,
    scalars printed as text."""
    from .dsl import scalar_to_text
    out = {"kind": type(d).__name__}
    for f in fields(d):
        value = getattr(d, f.name)
        out[f.name] = scalar_to_text(value) if isinstance(value, ExactScalar) else value
    return out


def _matrix_dim(d: AutDescriptor) -> Optional[int]:
    if isinstance(d, (GLQ, GLR, EZLowerBound)):
        return d.n
    if isinstance(d, BlockTriangular):
        return d.p + d.q
    if isinstance(d, PatternQuad):
        return 2
    return None


def _is_power_of(n: int, base: int) -> bool:
    while n % base == 0:
        n //= base
    return n == 1


def contains(d: AutDescriptor, a) -> bool:
    """Does the scalar or matrix ``a`` belong to the described group?"""
    n = _matrix_dim(d)
    if n is not None:
        if not isinstance(a, ExactMatrix):
            a = scalar_matrix(as_scalar(a), n)
        if a.n != n:
            return False
        if isinstance(d, GLQ):
            return a.is_rational() and not a.det().is_zero()
        if isinstance(d, GLR):
            return not a.det().is_zero()
        if isinstance(d, BlockTriangular):
            return block_triangular_member(d.p, d.q, a)
        if isinstance(d, PatternQuad):
            return pattern_quad_member(d.x, a)
        return classify(a).in_EZ

    if isinstance(a, ExactMatrix):
        s = a.rows[0][0]
        if a != scalar_matrix(s, a.n):
            return False
    else:
        s = as_scalar(a)
    if isinstance(d, PlusMinusOne):
        return s == one() or s == rational(-1)
    if isinstance(d, RatStar):
        return s.is_rational() and not s.is_zero()
    if isinstance(d, FieldUnits):
        if s.is_zero():
            return False
        return s.is_rational() or (s.context.kind is ContextKind.QUAD
                                   and s.context.d == d.d)
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
        return (s.context.kind is ContextKind.FORMAL and len(s.coords) == 1)
    raise DomainError(f"not an invariance-group descriptor: {d!r}")


# ---------------------------------------------------------------------------
# certificates: direct generator checks of G*A = G
# ---------------------------------------------------------------------------

_RAT_PROBES = tuple(Fraction(1, p) for p in (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29)) \
    + tuple(Fraction(k) for k in (2, 3, 4, 5, 6))


def _witness_prime_budget(g: GroupDescriptor, image: Vector) -> int:
    """How many primes past the probes the search for 1/p may try.

    When image is in G but Q*image is not, the primes p with image/p in G
    are the prime factors of a nonzero integer: the gcd of the coordinates
    of image, modulo the divisible part of G, over a Z-basis of the rest of
    G.  A Cramer and Hadamard estimate over the k rational coordinates of
    the image and of G's generators, of height at most h, bounds its bit
    length by k * k * bits(h) + k * bits(k); past that many primes the
    search has found an inconsistency, not a hard case.
    """
    scalars = list(image) + [x for _, vec in invariance_generators(g)
                             for x in vec]
    k = sum(len(x.coords) for x in scalars)
    h = max(x.height for x in scalars)
    return k * k * h.bit_length() + k * k.bit_length()


def _rat_witness(g: GroupDescriptor, vec: Vector, mat: ExactMatrix) -> Vector:
    # Q*vec maps outside G; pin down a concrete multiple that leaves it.
    for q in _RAT_PROBES:
        w = tuple(q * c for c in vec)
        if not _member(g, vec_mat_mul(w, mat)).member:
            return w
    # every probe stayed inside G: go on with 1/p over further primes
    p = max(q.denominator for q in _RAT_PROBES)
    for _ in range(_witness_prime_budget(g, vec_mat_mul(vec, mat))):
        p += 2
        while factorize(p) != [(p, 1)]:
            p += 2
        w = tuple(Fraction(1, p) * c for c in vec)
        if not _member(g, vec_mat_mul(w, mat)).member:
            return w
    from .dsl import group_to_text
    raise ConsistencyError(
        f"the rational line through {vec!r} leaves {group_to_text(g)} "
        f"under {mat!r}, but no multiple 1/p with p <= {p} does")


_REAL_PROBES = (1, Fraction(1, 2), 2, 3, 5)


def _real_witness(g: GroupDescriptor, vec: Vector, mat: ExactMatrix) -> Vector:
    probes = [rational(q) for q in _REAL_PROBES]
    probes[2:2] = [sqrt_rational(2), sqrt_rational(3), sqrt_rational(5)]
    for lam in chain(probes, _leaf_probes(g, vec, mat)):
        w = tuple(lam * c for c in vec)
        try:
            if not _member(g, vec_mat_mul(w, mat)).member:
                return w
        except ContextError:
            continue
    from .dsl import group_to_text
    raise ConsistencyError(
        f"the real line through {vec!r} leaves {group_to_text(g)} "
        f"under {mat!r}, but none of the probed multiples does")


def _leaf_probes(g: GroupDescriptor, vec: Vector, mat: ExactMatrix):
    """Probes past the fixed ones, read off the module leaves that vec * mat
    meets.  A leaf in a number field K whose Q-span is not all of K loses
    the coordinate c there under one of K's basis roots, since K*c = K.  In
    Q[t,1/t] irrational probes fail to join and rational ones may stay
    inside, but a leaf has finitely many exponents of t, and t^k takes c
    past them once k exceeds their spread.  Powers of t are skipped when
    vec has a surd, which t does not join."""
    roots, top, low = set(), 0, 0
    for leaf, coords in _split(g, vec_mat_mul(vec, mat)):
        if isinstance(leaf, (Cyclic, MixedModule)):
            ctx, columns = _coordinates(leaf.terms)[:2]    # columns: exponents
            if columns is None:
                roots.update(context_radicands(ctx))
            else:
                top = max(top, *columns)
            if coords[0].context.kind is ContextKind.FORMAL:
                low = min(low, coords[0].nums[0][0])    # the least exponent
    for r in sorted(roots.difference((1, 2, 3, 5))):
        yield sqrt_rational(r)
    if all(c.is_rational() or c.context.kind is ContextKind.FORMAL for c in vec):
        for k in range(1, top - low + 2):
            yield t_monomial(k)


def _ring_core(g: GroupDescriptor) -> tuple[Optional[GroupDescriptor], ExactScalar]:
    """(ring, factor) when G = factor * ring for a ring descriptor."""
    factor = one()
    while isinstance(g, Scaled):
        factor = factor * g.factor
        g = g.inner
    return (g if isinstance(g, (LaurentRing, FractionRing)) else None), factor


def acts_invariantly(g: GroupDescriptor, a) -> Certificate:
    """Certificate for G*a = G via generator checks (both directions).

    A refutation is replayed before it is returned (``_replayed``)."""
    n = dimension(g)
    if isinstance(a, ExactMatrix):
        mat = a
        if mat.n != n:
            raise DomainError(f"matrix size {mat.n} does not fit dimension {n}")
    else:
        mat = scalar_matrix(as_scalar(a), n)

    ring, factor = _ring_core(g)
    if ring is not None:
        r = mat.rows[0][0]
        if r.is_zero():
            raise SingularMatrixError("zero scalar cannot act invariantly")
        # factor is a member of G = factor * ring; its images under r and
        # 1/r witness the two failure modes
        if not _member(ring, (r,)).member:
            direction = "forward"
        elif is_unit(ring, r):
            return Certificate(True)
        else:
            direction = "inverse"
        try:
            image = factor * r if direction == "forward" else exact_div(factor, r)
        except ContextError:
            image = None    # outside the tower, so outside G
        return _replayed(g, (factor,), None if image is None else (image,),
                         direction)

    gens = invariance_generators(g)
    for direction in ("forward", "inverse"):
        # the inverse is formed only after the forward pass succeeds; a
        # candidate refuted forward may not even be invertible in the tower
        m = mat if direction == "forward" else mat.inverse()
        for kind, vec in gens:
            image = vec_mat_mul(vec, m)
            if holds(kind, g, image):
                continue
            if kind != "int":
                witness = _rat_witness if kind == "rat" else _real_witness
                vec = witness(g, vec, m)
                image = vec_mat_mul(vec, m)
            return _replayed(g, vec, image, direction)
    return Certificate(True)


def _replayed(g: GroupDescriptor, w: Vector, image: Optional[Vector],
              direction: str) -> Certificate:
    """The refutation (w, direction) once it replays: w is in G and its
    image under A or A^-1 is not.  An image outside the scalar tower (None)
    is outside G."""
    if _member(g, w).member and (image is None or not _member(g, image).member):
        return Certificate(False, w, direction)
    from .dsl import group_to_text
    raise ConsistencyError(
        f"the {direction} refutation of {group_to_text(g)} by {w!r} does "
        f"not replay")


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------

def _module_rule(m: Union[Cyclic, MixedModule]) -> Optional[AutDescriptor]:
    slots = [d for d, _ in m.terms]
    rat_gens = [g for d, g in m.terms if d is Domain.RAT]

    if not rat_gens:
        return PlusMinusOne() if is_cyclic(m) else None
    if len(slots) == len(rat_gens) == 1:
        return RatStar()            # a single rational line
    if len(slots) == len(rat_gens) == 2:
        # Q*g0 + Q*g1 = g0*(Q + Q*y) with y = g1/g0.  When y^2 escapes
        # Q + Q*y, an r = a + b*y in the group has r*y inside only for b = 0
        g0, g1 = rat_gens
        squares = ((Domain.RAT, g0 * g0), (Domain.RAT, g0 * g1))
        if not _module_rat_line(squares, g1 * g1):
            return RatStar()        # the square escapes, only Q acts
        # y is quadratic over Q, so it lies in a number field, not Q[t,1/t]
        y = exact_div(g1, g0)
        if y is None or y.context.kind is not ContextKind.QUAD:
            return None
        return FieldUnits(y.context.d)
    if len(rat_gens) != 1:
        return None

    # Z-slots with one Q-slot q: reduce each Z-slot modulo Q*q by clearing
    # q's leading coordinate, then fold the Z-part to one generator
    q, qi = rat_gens[0], slots.index(Domain.RAT)
    _, _, _, rows, dens = _coordinates(m.terms)
    lead = next(j for j, c in enumerate(rows[qi]) if c)
    per_q = Fraction(dens[qi], rows[qi][lead])    # 1 / q's leading coordinate
    reduced = [g - rational(per_q * Fraction(row[lead], den)) * q
               for (d, g), row, den in zip(m.terms, rows, dens) if d is Domain.INT]
    reduced = [r for r in reduced if not r.is_zero()]
    if not reduced:
        return None
    lattice = cyclic_form(MixedModule(tuple((Domain.INT, r) for r in reduced)))
    if lattice is None:
        return None
    x = ratio(q, lattice.generator)
    if x is not None and not x.is_rational() and (x * x).is_rational():
        return PlusMinusOne()       # Z + Q*x with x a pure root is rigid
    return None


_Q_MODULE = MixedModule(((Domain.RAT, one()),))


def _line_scalar(f: GroupDescriptor) -> Optional[ExactScalar]:
    if isinstance(f, MixedModule) and len(f.terms) == 1 \
            and f.terms[0][0] is Domain.RAT:
        return f.terms[0][1]
    return None


def _product_rule(p: Product) -> AutResult:
    factors = p.factors
    n = len(factors)

    if all(f == _Q_MODULE for f in factors):
        return Exact(GLQ(n))

    if all(f == _Q_MODULE or isinstance(f, FullLine) for f in factors):
        rational_count = sum(1 for f in factors if f == _Q_MODULE)
        if 0 < rational_count < n \
                and all(f == _Q_MODULE for f in factors[:rational_count]):
            # Q^p x R^q in that order (a permuted product is a different set
            # and has no closed form in the table)
            return Exact(BlockTriangular(rational_count, n - rational_count))
        return _product_fallback(factors)

    lines = [_line_scalar(f) for f in factors]
    if all(x is not None for x in lines):
        if all(x == lines[0] for x in lines):
            return Exact(GLQ(n))    # common rescaling of Q^n
        if n == 2:
            x1, x2 = lines
            if (x1 * x1).is_rational() and (x2 * x2).is_rational():
                return Exact(PatternQuad(x1 * x2))
    return _product_fallback(factors)


def _product_fallback(factors) -> Bounds:
    if len(factors) >= 2 and all(f == factors[0] for f in factors[1:]):
        # identical coordinates: integer recombination stays inside
        return Bounds((EZLowerBound(len(factors)), PlusMinusOne()))
    return Bounds((PlusMinusOne(),))


def aut_group(g: GroupDescriptor) -> AutResult:
    """Closed form (or honest bounds) for the invariance group of g."""
    return _aut_rules(normalize(g))


def _aut_rules(g: GroupDescriptor) -> AutResult:
    # g is normal, and so is every node inside it
    if isinstance(g, Scaled):
        return _aut_rules(g.inner)   # invariance ignores scaling
    if isinstance(g, FullLine):
        return Exact(GLR(1))
    if isinstance(g, FullSpace):
        return Exact(GLR(g.n))
    if isinstance(g, LaurentRing):
        if g.coeffs is Domain.INT:
            return Exact(pm_powers(t_monomial(1)))
        return Exact(rat_times_pm_powers(t_monomial(1)))
    if isinstance(g, FractionRing):
        primes = [p for p, _ in factorize(g.m)]
        if len(primes) == 1 and g.m == primes[0]:
            return Exact(pm_powers(primes[0]))
        return Bounds(tuple(pm_powers(p) for p in primes))
    if isinstance(g, (Cyclic, MixedModule)):
        rule = _module_rule(g)
        if rule is not None:
            return Exact(rule)
        return Bounds((PlusMinusOne(),))
    if isinstance(g, Product):
        return _product_rule(g)
    if isinstance(g, Image):
        return _image_rule(g)
    return Bounds((PlusMinusOne(),))


def _image_rule(g: Image) -> AutResult:
    inner = _aut_rules(g.inner)
    a = g.matrix

    def transfer(d: AutDescriptor) -> Optional[AutDescriptor]:
        # the invariance group of G*A is A^-1 * (that of G) * A; keep the
        # descriptors that are stable under this conjugation
        if isinstance(d, (GLR, PlusMinusOne)):
            return d
        if isinstance(d, GLQ) and a.is_rational():
            return d
        if isinstance(d, EZLowerBound) and classify(a).in_EZ:
            return d
        return None

    if isinstance(inner, Exact):
        kept = transfer(inner.descriptor)
        if kept is not None:
            return Exact(kept)
        return Bounds((PlusMinusOne(),))
    lower = tuple(t for d in inner.lower if (t := transfer(d)) is not None)
    if PlusMinusOne() not in lower:
        lower = lower + (PlusMinusOne(),)
    upper = tuple(t for d in inner.upper if (t := transfer(d)) is not None)
    return Bounds(lower, upper)


# ---------------------------------------------------------------------------
# membership, units, realizability
# ---------------------------------------------------------------------------

def aut_member(g: GroupDescriptor, a) -> bool:
    """Is ``a`` in the invariance group of g?  Decided by the certificate
    and checked against the closed form or bounds (``admits``).  When the
    closed form runs out of factoring budget, {+1,-1} is the lower bound."""
    try:
        result = aut_group(g)
    except BudgetExceededError:
        result = Bounds((PlusMinusOne(),))
    verdict = acts_invariantly(g, a).verdict
    admits(result, a, verdict)
    return verdict


def admits(result: AutResult, a, verdict: bool) -> None:
    """Raise ConsistencyError unless the certificate verdict on ``a`` fits
    the closed form: whatever a lower bound contains is confirmed, whatever
    is confirmed lies in every upper bound."""
    if isinstance(result, Exact):   # its own lower and upper bound
        result = Bounds((result.descriptor,), (result.descriptor,))
    for d in (result.upper if verdict else result.lower):
        if contains(d, a) != verdict:
            said, found = ("excludes", "confirms") if verdict \
                else ("contains", "refutes")
            raise ConsistencyError(f"{descriptor_code(d)} {said} {a!r}, but "
                                   f"the certificate {found} it")


def is_unit(ring: GroupDescriptor, r) -> bool:
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


def _field_unit(module: MixedModule, r: ExactScalar) -> bool:
    if any(d is Domain.INT for d, _ in module.terms):
        raise UnsupportedError("not a field-like module: integer slots")
    # the Q-span of the generators is closed under products exactly when
    # it holds 1 and every product of two generators
    gens = [g for _, g in module.terms]
    closed = _module_rat_line(module.terms, one()) and all(
        _module_rat_line(module.terms, x * y) for x in gens for y in gens)
    if not closed:
        raise UnsupportedError("not a field-like module: products escape")
    if not member(module, r).member:
        raise DomainError(f"{r!r} is not an element of the ring")
    return not r.is_zero()


@dataclass(frozen=True)
class Realizability:
    """Answer to: is {+-m^k} the invariance group of some subgroup of R?"""
    m: int
    group: Optional[GroupDescriptor]
    refuter: Optional[int]

    @property
    def realizable(self) -> bool:
        return self.group is not None


def realize_Ax(m: int) -> Realizability:
    """Realize {+-m^k : k in Z} as an invariance group, or refute.

    For prime m the group Z[1/m] works.  For composite m, any proper prime
    divisor p already acts invariantly on Z[1/m] but is not a power of m,
    so no subgroup of R can have exactly {+-m^k}; the refuter is certified
    by both routes before being reported.
    """
    if m < 2:
        raise DomainError(f"base must be an integer >= 2, got {m}")
    g = fraction_ring(m)
    # the least prime of m; a large cofactor is never factored
    p, _ = next(iter_factors(m))
    if p == m:
        result = aut_group(g)
        if result != Exact(pm_powers(m)):
            raise ConsistencyError(f"expected the power group for Z[1/{m}]")
        return Realizability(m, g, None)
    if not acts_invariantly(g, rational(p)).verdict:
        raise ConsistencyError(f"divisor {p} must act invariantly on Z[1/{m}]")
    if contains(pm_powers(m), rational(p)):
        raise ConsistencyError(f"divisor {p} cannot be a power of {m}")
    return Realizability(m, None, p)


def conjugation_transfer(g: GroupDescriptor, a: ExactMatrix,
                         b: ExactMatrix) -> bool:
    """Check B against G*A and A*B*A^-1 against G; the verdicts must agree
    (acting after a coordinate change is conjugate to acting before it)."""
    from .descriptors import image
    left = acts_invariantly(image(g, a), b).verdict
    right = acts_invariantly(g, a * b * a.inverse()).verdict
    if left != right:
        raise ConsistencyError(
            "conjugation transfer failed: the two routes disagree")
    return left


# ---------------------------------------------------------------------------
# cardinality and dimension
# ---------------------------------------------------------------------------

class CardinalityClass(Enum):
    TWO = "two"
    INFINITE = "infinite"


def _infinite_witness(d: AutDescriptor):
    if isinstance(d, (PMPowers, RatTimesPMPowers)):
        return d.base
    n = _matrix_dim(d)
    if n is not None:
        return scalar_matrix(rational(2), n)
    return rational(2)


def cardinality_class(result: AutResult) -> CardinalityClass:
    """Either exactly two elements or infinitely many — never in between.
    The infinite verdict is justified by exhibiting an element whose first
    three powers are pairwise distinct and all inside the group."""
    if isinstance(result, Bounds):
        raise DomainError("cardinality needs an exact descriptor, not bounds")
    d = result.descriptor
    if isinstance(d, PlusMinusOne):
        return CardinalityClass.TWO
    s = _infinite_witness(d)
    powers = [s, s * s, s * s * s]
    if len(set(powers)) != 3 or not all(contains(d, p) for p in powers):
        raise ConsistencyError(f"witness powers failed for {descriptor_code(d)}")
    return CardinalityClass.INFINITE


def dim_of_aut(result) -> int:
    """Covering dimension of the invariance group inside R^(n*n)."""
    if isinstance(result, Bounds):
        raise DomainError("dimension needs an exact descriptor, not bounds")
    d = result.descriptor if isinstance(result, Exact) else result
    if isinstance(d, GLR):
        return d.n * d.n
    if isinstance(d, BlockTriangular):
        return d.q * (d.p + d.q)
    # everything else in the table is countable, hence zero-dimensional
    return 0
