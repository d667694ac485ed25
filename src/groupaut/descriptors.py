"""Closed-form descriptions of subgroups of R^n and their decision procedures.

A descriptor is a small immutable AST of seven kinds.  The one-dimensional
building blocks are MixedModule (finitely many generators, each carrying a
Z or Q coefficient domain), LaurentRing (Z[t,1/t] or Q[t,1/t]),
FractionRing (Z[1/m]), Scaled and FullLine; higher dimensions come from
Product and Image under an invertible matrix.  A cyclic group Z*g is the
one-term module ``((Domain.INT, g),)``, and R^n is the Product of n
FullLine factors.  A divisible hull is not a node: ``divisible_hull``
folds it into one of these forms when it is built.

Everything here is decided exactly.  Three questions are asked of a vector
v, and ``holds(kind, g, v)`` picks one by its check kind:

* "int", ``member``: is v in G?  On a module this solves for coefficients
  over Q and checks integrality on the Z-slots (with a Hermite-style
  integer solve, so generator families like 2Z + 3Z that are Q-dependent
  but not redundant still work);
* "rat", ``holds("rat", g, v)``: does Q*v lie in G?  For a MixedModule
  this holds exactly when v lies in the Q-span of the Q-slot generators:
  the image of v in the quotient by that span lives in a finitely
  generated Z-module, which has no nonzero divisible elements;
* "real", ``holds("real", g, v)``: does R*v lie in G?  Every proper
  one-dimensional descriptor forces v = 0 there, FullLine absorbs anything.

Every public entry normalizes g once and answers as on ``normalize(g)``;
``holds``, ``invariance_generators`` and the walks below them take a
normal g.  The three questions share one walk, ``_split``, which carries v
through the Image and Product nodes and a ring's scale factor and yields
the leaf groups with their coordinates; each question is then a loop over
the leaves.

A question asks about many vectors of one group (every candidate of an
oracle run, say), so a module leaf is factored once per question into a
frame, held in three lru_caches and built part by part as first needed:

* ``_coordinates``: the generators' integer numerators keyed by the terms
  they have: square-free radicands (1 for the rational part), or in
  Q[t,1/t] exponents (0 for a rational), one column per key;
* ``_span``: an integer annihilator of the Q-span of the Q-slots, rows a
  with a.x = 0 exactly for x in the span;
* ``_lattice``: the Hermite rows of the Z-slots reduced by that
  annihilator, with their transformation, and the linear forms that read
  off Q-slot coefficients.

Per vector, the rational line is then integer dot products on the scalar's
own numerators, and membership is one reduction, an integrality check
against the lattice denominator and a back-substitution through the
Hermite rows.  The fourth read-off, ``_divisor``, is the gcd k of a
member's coordinates over those rows: v/q is in G exactly when q divides
k.  Square roots of distinct square-free integers are linearly
independent over Q, and t is transcendental, so a value a leaf cannot
hold is not a member: a vector with a term the frame has no column for,
or of the other tower, is in neither, and builds nothing past
``_coordinates``.  Verdicts and witnesses are those of eliminating the
generators and the vector together from scratch.  The frame is the one
bridge between scalars and coordinate rows: ``cyclic_form`` reads the
Hermite rows of ``_lattice``, and the rule table reads module rows and
keys from ``_coordinates`` too, so a module's generators need share no
field of the tower.

Construction *rejects* redundant generator families instead of repairing
them: a generator whose whole coefficient-domain line already lies in the
group generated by the remaining terms is an input error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from . import linalg
from .errors import (
    ContextError,
    DescriptorError,
    DomainError,
    SingularMatrixError,
    UnsupportedError,
)
from .matrices import (ExactMatrix, Vector, frozen_dataclass, scalar_matrix,
                       vec_mat_mul, vector)
from .scalars import (
    _FORMAL,
    _RAT,
    ExactScalar,
    RAT_CONTEXT,
    _number,
    as_scalar,
    context_radicands,
    exact_div,
    join_context,
    one,
    rational,
    zero,
)


class Domain(Enum):
    INT = "Z"
    RAT = "Q"
    __hash__ = object.__hash__      # members are singletons


@frozen_dataclass
class MixedModule:
    terms: tuple[tuple[Domain, ExactScalar], ...]


@frozen_dataclass
class LaurentRing:
    coeffs: Domain


@frozen_dataclass
class FractionRing:
    m: int


@frozen_dataclass
class Scaled:
    factor: ExactScalar
    inner: "GroupDescriptor"


@frozen_dataclass
class FullLine:
    pass


@frozen_dataclass
class Product:
    factors: tuple["GroupDescriptor", ...]


@frozen_dataclass
class Image:
    inner: "GroupDescriptor"
    matrix: ExactMatrix


GroupDescriptor = Union[MixedModule, LaurentRing, FractionRing, Scaled,
                        FullLine, Product, Image]


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witness: Optional[tuple[Fraction, ...]] = None

    def __bool__(self) -> bool:
        return self.member


# ---------------------------------------------------------------------------
# module frames: the per-group half of the module decisions
# ---------------------------------------------------------------------------

ModuleTerms = tuple[tuple[Domain, ExactScalar], ...]


@lru_cache(maxsize=4096)
def _coordinates(terms: ModuleTerms) -> tuple[bool, dict, int, list, list]:
    """(laurent, columns, n, rows, dens): whether some generator has t; the
    column of each key a generator has, ascending; the number n of columns;
    and each generator's numerators over them, with its denominator.  A
    module that mixes t with a surd raises ContextError."""
    kinds = {g.context.kind for _, g in terms}
    laurent = _FORMAL in kinds
    if laurent and not kinds <= {_RAT, _FORMAL}:
        reduce(join_context, [g.context for _, g in terms])     # raises
    support = sorted({k for _, g in terms for k, c in _keyed(laurent, g) if c})
    coords = laurent, {k: i for i, k in enumerate(support)}, len(support)
    return (*coords, [_numerators(coords, g) for _, g in terms],
            [g.den for _, g in terms])


def _keyed(laurent: bool, v: ExactScalar):
    """v's (key, numerator) pairs, zeros included: square-free radicands (1
    for the rational part), or when ``laurent`` exponents of t (0 for a
    rational); None when v is in the other tower."""
    kind = v.context.kind
    if kind is _RAT:
        return ((0 if laurent else 1, v.nums[0]),)
    if (kind is _FORMAL) is laurent:
        return v.nums if laurent else zip(context_radicands(v.context), v.nums)
    return None


def _numerators(coords, v: ExactScalar):
    """v's numerators over the columns of ``coords`` (its denominator is
    v.den), or None when v is in the other tower or has a key no column
    has, and so is in neither the generators' Q-span nor their group."""
    laurent, columns, n = coords[:3]
    pairs = _keyed(laurent, v)
    if pairs is None:
        return None
    x = [0] * n
    for k, c in pairs:
        if c:
            i = columns.get(k)
            if i is None:
                return None
            x[i] = c
    return x


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, a, x))


@lru_cache(maxsize=4096)
def _span(terms: ModuleTerms) -> list[list[int]]:
    """Integer annihilator of the Q-span of the Q-slot generators."""
    _, _, n, rows, _ = _coordinates(terms)
    return linalg.annihilator(
        [r for (d, _), r in zip(terms, rows) if d is Domain.RAT], n)


@lru_cache(maxsize=4096)
def _lattice(terms: ModuleTerms):
    """(int_idx, lcd, zrows, ann, form, forms): the Z-slot positions and
    rows over their common denominator lcd, the annihilator of the Q-span
    (``_span``), the Hermite form of the Z-slot rows reduced by it, and
    the linear forms of the Q-slot coefficients (``combination_rows``)."""
    _, _, n, rows, dens = _coordinates(terms)
    int_idx = [i for i, (d, _) in enumerate(terms) if d is Domain.INT]
    rat_idx = [i for i, (d, _) in enumerate(terms) if d is Domain.RAT]
    lcd = lcm(*(dens[i] for i in int_idx))
    zrows = [[c * (lcd // dens[i]) for c in rows[i]] for i in int_idx]
    ann = _span(terms)
    form = linalg.hermite([[_dot(a, z) for a in ann] for z in zrows])
    rat_rows = [[Fraction(c, dens[i]) for c in rows[i]] for i in rat_idx]
    forms = [(rat_idx[p], r, d)
             for p, r, d in linalg.combination_rows(rat_rows, n)]
    return int_idx, lcd, zrows, ann, form, forms


def _module_solve(terms: Sequence[tuple[Domain, ExactScalar]],
                  v: ExactScalar) -> Optional[tuple[Fraction, ...]]:
    """Coefficients c (Z-slots integral) with sum c_i * g_i == v, or None.

    Free Q-slot coefficients are 0, and the Z-slot part is the one the
    Hermite back-substitution finds, so the witness is deterministic.
    """
    terms = tuple(terms)
    x = _numerators(_coordinates(terms), v)
    if x is None:
        return None
    int_idx, lcd, zrows, ann, form, forms = _lattice(terms)
    # v modulo the Q-span, in the lattice's coordinates: integral unless v
    # is outside the group
    den = v.den
    t = [_dot(a, x) * lcd for a in ann]
    if any(s % den for s in t):
        return None
    int_part = linalg.hermite_solve(form, [s // den for s in t])
    if int_part is None:
        return None
    witness = [Fraction(0)] * len(terms)
    for i, z in zip(int_idx, int_part):
        witness[i] = Fraction(z)
    if forms:
        # what the Z-slots leave lies in the Q-span: numerators over den*lcd
        rest = [c * lcd for c in x]
        for z, row in zip(int_part, zrows):
            if z:
                rest = [u - den * z * c for u, c in zip(rest, row)]
        for i, r, d in forms:
            witness[i] = Fraction(_dot(r, rest), d * den * lcd)
    return tuple(witness)


def _divisor(g: GroupDescriptor, v: Vector) -> int:
    """For v in G, the k >= 0 with v/q in G exactly when q divides k, 0 when
    Q*v is in G: the gcd of ``linalg.hermite_content`` over the module
    leaves.  FullLine adds nothing, and a ring has no generator checks."""
    k = 0
    for leaf, (c, *_) in _split(g, v):
        if isinstance(leaf, MixedModule):
            _, lcd, _, ann, form, _ = _lattice(leaf.terms)
            x = _numerators(_coordinates(leaf.terms), c)
            t = [_dot(a, x) * lcd // c.den for a in ann]    # as _module_solve's
            k = gcd(k, linalg.hermite_content(form, t))
    return k


def _module_rat_line(terms: Sequence[tuple[Domain, ExactScalar]],
                     v: ExactScalar) -> bool:
    """Does v lie in the Q-span of the Q-slot generators?"""
    rat_terms = tuple(t for t in terms if t[0] is Domain.RAT)
    x = _numerators(_coordinates(rat_terms), v)
    return x is not None and not any(_dot(a, x) for a in _span(rat_terms))


def coprime_part(k: int, m: int) -> int:
    """k with every prime factor of m divided out, by repeated gcd with m
    (so the primes of m are never computed)."""
    while (d := gcd(k, m)) > 1:
        while k % d == 0:
            k //= d
    return k


# ---------------------------------------------------------------------------
# validating factories
# ---------------------------------------------------------------------------

def cyclic(g) -> MixedModule:
    """Z*g, the one-term Z-module."""
    g = as_scalar(g)
    if g.is_zero():
        raise DescriptorError("cyclic generator must be nonzero")
    return MixedModule(((Domain.INT, g),))


def mixed_module(terms: Iterable[tuple[Domain, object]]) -> MixedModule:
    """Build a sum of Z- and Q-lines, rejecting redundant generators.

    A term is redundant when its whole coefficient line already sits inside
    the group generated by the other terms (Z-slot: the generator itself is
    a member; Q-slot: the generator lies in the remaining Q-span).
    """
    norm: list[tuple[Domain, ExactScalar]] = []
    for d, g in terms:
        if not isinstance(d, Domain):
            raise DescriptorError(f"bad coefficient domain {d!r}")
        g = as_scalar(g)
        if g.is_zero():
            raise DescriptorError("module generators must be nonzero")
        norm.append((d, g))
    if not norm:
        raise DescriptorError("module needs at least one generator")
    # a module that mixes t with a surd raises here; a redundant term lies
    # in the Q-span of the others, so Q-independent rows have none
    rows = _coordinates(tuple(norm))[3] if len(norm) > 1 else []
    if len(linalg.fraction_free([list(r) for r in rows], False)[1]) == len(rows):
        return MixedModule(tuple(norm))
    for i, (d, g) in enumerate(norm):
        rest = norm[:i] + norm[i + 1:]
        if d is Domain.INT:
            redundant = _module_solve(rest, g) is not None
        else:
            redundant = _module_rat_line(rest, g)
        if redundant:
            from .dsl import scalar_to_text
            raise DescriptorError(
                f"dependent generators: term {i} ({d.value}*{scalar_to_text(g)}) "
                "is contained in the group generated by the others")
    return MixedModule(tuple(norm))


def laurent_ring(coeffs: Domain) -> LaurentRing:
    if not isinstance(coeffs, Domain):
        raise DescriptorError(f"bad coefficient domain {coeffs!r}")
    return LaurentRing(coeffs)


def fraction_ring(m: int) -> FractionRing:
    if not isinstance(m, int) or m < 2:
        raise DescriptorError(f"fraction ring needs an integer m >= 2, got {m}")
    return FractionRing(m)


def divisible_hull(inner: GroupDescriptor) -> GroupDescriptor:
    """The divisible hull of inner, in closed form and in normal form.

    The hull is taken of the normalized group, whose generator order
    decides which Q-basis of a module survives.
    """
    return normalize(hull_closure(normalize(inner)))


def scaled(r, inner: GroupDescriptor) -> Scaled:
    r = as_scalar(r)
    if r.is_zero():
        raise DescriptorError("scale factor must be nonzero")
    return Scaled(r, inner)


def full_line() -> FullLine:
    return FullLine()


def product(factors: Iterable[GroupDescriptor]) -> Product:
    fs = tuple(factors)
    if not fs:
        raise DescriptorError("product needs at least one factor")
    for f in fs:
        if dimension(f) != 1:
            raise DescriptorError("product factors must be one-dimensional")
    return Product(fs)


def image(inner: GroupDescriptor, a: ExactMatrix) -> Image:
    if a.n != dimension(inner):
        raise DescriptorError(
            f"matrix size {a.n} does not match group dimension {dimension(inner)}")
    try:
        if a.is_rational():
            if a.is_singular():
                raise SingularMatrixError("matrix has determinant 0")
        else:
            # a unit determinant does not put A^-1 in the tower: the inverse
            # of [1,t,0;0,1,sqrt(2);0,0,1] (det 1) needs t*sqrt(2), which no
            # context holds, so only the inverse itself can reject A
            a.inverse()
    except (DomainError, SingularMatrixError, ContextError) as exc:
        raise DescriptorError(f"image matrix must be invertible: {exc}") from None
    return Image(inner, a)


def dimension(g: GroupDescriptor) -> int:
    if isinstance(g, (MixedModule, LaurentRing, FractionRing, FullLine)):
        return 1
    if isinstance(g, Scaled):
        return dimension(g.inner)
    if isinstance(g, Product):
        return len(g.factors)
    if isinstance(g, Image):
        return g.matrix.n
    raise DescriptorError(f"not a group descriptor: {g!r}")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def as_vector(g: GroupDescriptor, v) -> Vector:
    if isinstance(v, (tuple, list)):
        vec = vector(v)
    else:
        vec = (as_scalar(v),)
    if len(vec) != dimension(g):
        raise DomainError(
            f"vector length {len(vec)} does not match group dimension {dimension(g)}")
    return vec


def member(g: GroupDescriptor, v) -> MembershipVerdict:
    """Exact membership v in G, with a coefficient witness where meaningful:
    the coefficients over the generators of ``normalize(g)``, in order."""
    g = normalize(g)
    return _member(g, as_vector(g, v))


def holds(kind: str, g: GroupDescriptor, v: Vector) -> bool:
    """One check of invariance_generators: "int" asks whether v is in G,
    "rat" whether Q*v is, "real" whether R*v is.  g is normal."""
    # the three names are read when called, not bound here, so that
    # perfbench/spans.py can wrap them
    if kind == "int":
        return _member(g, v).member
    if kind == "rat":
        return _rat_line(g, v)
    if kind == "real":
        return _real_line(g, v)
    raise DescriptorError(f"unknown check kind {kind!r}")


def _split(g: GroupDescriptor, v: Vector):
    """Carry v through the Image and Product nodes of a normal g, and
    divide a coordinate by the scale factor of its ring.

    Yields (leaf, coordinates) pairs in coordinate order; v, Q*v or R*v
    lies in G exactly when each block of coordinates does in its leaf.
    When a scale factor does not divide its coordinate, yields (None, v):
    then none of the three does.  The walk is lazy, so a caller that stops
    at the first failing leaf never touches the later coordinates.
    """
    if isinstance(g, Image):
        yield from _split(g.inner, vec_mat_mul(v, _inverse(g.matrix)))
    elif isinstance(g, Product):
        for f, c in zip(g.factors, v):
            yield from _split(f, (c,))
    elif isinstance(g, Scaled):     # a ring, so one coordinate
        q = exact_div(v[0], g.factor)
        yield (None, v) if q is None else (g.inner, (q,))
    else:
        yield g, v


@lru_cache(maxsize=4096)
def _inverse(a: ExactMatrix) -> ExactMatrix:
    """A^-1 for the Image nodes of _split, formed once per matrix."""
    return a.inverse()


_OUTSIDE = MembershipVerdict(False)


@lru_cache(maxsize=65536)
def _member(g: GroupDescriptor, v: Vector) -> MembershipVerdict:
    witness = []
    for leaf, coords in _split(g, v):
        verdict = _OUTSIDE if leaf is None else _leaf_member(leaf, coords)
        if not verdict.member:
            return _OUTSIDE
        if verdict.witness is None:
            witness = None
        elif witness is not None:
            witness += verdict.witness
    return MembershipVerdict(True, None if witness is None else tuple(witness))


@lru_cache(maxsize=65536)
def _rat_line(g: GroupDescriptor, v: Vector) -> bool:
    return all(leaf is not None and _leaf_rat_line(leaf, coords)
               for leaf, coords in _split(g, v))


def _real_line(g: GroupDescriptor, v: Vector) -> bool:
    return all(leaf is not None and (isinstance(leaf, FullLine)
                                     or all(c.is_zero() for c in coords))
               for leaf, coords in _split(g, v))


@lru_cache(maxsize=65536)
def _leaf_member(g: GroupDescriptor, v: Vector) -> MembershipVerdict:
    if isinstance(g, MixedModule):
        # zero lies in every group: every coefficient of its combination is 0
        w = (Fraction(0),) * len(g.terms) if v[0].is_zero() \
            else _module_solve(g.terms, v[0])
        return MembershipVerdict(w is not None, w)
    if isinstance(g, LaurentRing):
        s = v[0]
        # a surd is in no Laurent ring; in lowest terms, every coefficient
        # is an integer exactly when den is 1
        return MembershipVerdict(s.context.kind in (_RAT, _FORMAL)
                                 and (g.coeffs is Domain.RAT or s.den == 1))
    if isinstance(g, FractionRing):
        s = v[0]
        if not s.is_rational():
            return MembershipVerdict(False)
        return MembershipVerdict(coprime_part(s.as_fraction().denominator, g.m) == 1)
    if isinstance(g, FullLine):
        return MembershipVerdict(True)
    raise DescriptorError(f"not a group descriptor: {g!r}")


def _leaf_rat_line(g: GroupDescriptor, v: Vector) -> bool:
    if isinstance(g, FractionRing):
        return v[0].is_zero()
    if isinstance(g, MixedModule):
        return _module_rat_line(g.terms, v[0])
    if isinstance(g, LaurentRing):
        if g.coeffs is Domain.INT:
            return v[0].is_zero()
        return _leaf_member(g, v).member
    if isinstance(g, FullLine):
        return True
    raise DescriptorError(f"not a group descriptor: {g!r}")


# ---------------------------------------------------------------------------
# divisible hulls
# ---------------------------------------------------------------------------

def hull_closure(g: GroupDescriptor) -> GroupDescriptor:
    """The divisible hull of g in closed form (always exists here except
    over Z[1/m])."""
    if isinstance(g, MixedModule):
        # promote every slot to Q, keeping only generators that enlarge the
        # Q-span (promotion can make previously independent families
        # dependent, e.g. 2Z + 3Z)
        kept: list[ExactScalar] = []
        for _, gen in g.terms:
            if not kept or not _module_rat_line([(Domain.RAT, k) for k in kept], gen):
                kept.append(gen)
        return MixedModule(tuple((Domain.RAT, k) for k in kept))
    if isinstance(g, LaurentRing):
        return LaurentRing(Domain.RAT)
    if isinstance(g, FractionRing):
        raise UnsupportedError(
            "the divisible hull of Z[1/m] has no closed form here")
    if isinstance(g, Scaled):
        return Scaled(g.factor, hull_closure(g.inner))
    if isinstance(g, FullLine):
        return g
    if isinstance(g, Product):
        return Product(tuple(hull_closure(f) for f in g.factors))
    if isinstance(g, Image):
        return Image(hull_closure(g.inner), g.matrix)
    raise UnsupportedError(f"no closed-form divisible hull for {g!r}")


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def is_divisible(g: GroupDescriptor) -> bool:
    if isinstance(g, MixedModule):
        # divisible exactly when each Z-slot lies in the Q-span of the Q-slots
        return all(_module_rat_line(g.terms, gen)
                   for d, gen in g.terms if d is Domain.INT)
    if isinstance(g, LaurentRing):
        return g.coeffs is Domain.RAT
    if isinstance(g, FractionRing):
        return False
    if isinstance(g, (Scaled, Image)):
        return is_divisible(g.inner)
    if isinstance(g, FullLine):
        return True
    if isinstance(g, Product):
        return all(is_divisible(f) for f in g.factors)
    raise DescriptorError(f"not a group descriptor: {g!r}")


def cyclic_form(g: GroupDescriptor) -> Optional[MixedModule]:
    """A one-term Z-module with the same members, when one exists (1-D):
    of the normal forms, only a module of Z-slots can be cyclic."""
    g = normalize(g)
    if dimension(g) != 1:
        raise UnsupportedError("cyclicity is a one-dimensional notion here")
    if not isinstance(g, MixedModule) or any(d is Domain.RAT for d, _ in g.terms):
        return None
    # a Z-module is cyclic when its Hermite form has one row, which is a
    # rational multiple of the first generator's
    _, _, zrows, _, (_, pivots), _ = _lattice(g.terms)
    if len(pivots) != 1:
        return None
    j, row, _ = pivots[0]
    step = Fraction(row[j], zrows[0][j])
    return cyclic(_sign_canonical(rational(step) * g.terms[0][1]))


def is_cyclic(g: GroupDescriptor) -> bool:
    return cyclic_form(g) is not None


def is_dense(g: GroupDescriptor) -> bool:
    """Density in R^n: non-cyclic in each line, componentwise for products."""
    if isinstance(g, FullLine):
        return True
    if isinstance(g, Product):
        return all(is_dense(f) for f in g.factors)
    if isinstance(g, (Image, Scaled)):
        return is_dense(g.inner)
    return not is_cyclic(g)


def _lead(s: ExactScalar) -> int:
    """The first nonzero numerator of s (of its lowest power of t), or s.den."""
    if s.context.kind is _FORMAL:
        return s.nums[0][1]
    return next((n for n in s.nums if n), s.den)


def _sign_canonical(s: ExactScalar) -> ExactScalar:
    """s or -s, whichever leads with a positive numerator."""
    return -s if _lead(s) < 0 else s


def _monic(s: ExactScalar) -> ExactScalar:
    """s over its leading coordinate lead/den, on ints: in a number field,
    its numerators over lead."""
    if s.context.kind is _FORMAL:
        return s * _number(RAT_CONTEXT, (s.den,), _lead(s))
    return _number(s.context, s.nums, _lead(s))


# ---------------------------------------------------------------------------
# normalization (set-preserving canonical form)
# ---------------------------------------------------------------------------

def normalize(g: GroupDescriptor) -> GroupDescriptor:
    """The canonical form of g, stable after one pass: a leaf; Scaled over
    a ring; a Product of two or more one-dimensional normal factors; or an
    Image of such a Product, other than R^n, under a matrix that is not
    scalar.  A g already in normal form is returned itself."""
    h = _normalize(g)
    return g if h == g else h


@lru_cache(maxsize=4096)
def _normalize(g: GroupDescriptor) -> GroupDescriptor:
    """normalize(g), and g itself where nothing changes."""
    if isinstance(g, MixedModule):
        terms = []
        for d, gen in g.terms:
            gen = _sign_canonical(gen) if d is Domain.INT else _monic(gen)
            terms.append((d, gen))
        terms.sort(key=lambda t: (0 if t[0] is Domain.INT else 1, t[1].sort_key()))
        return g if tuple(terms) == g.terms else MixedModule(tuple(terms))
    if isinstance(g, (LaurentRing, FractionRing, FullLine)):
        return g
    if isinstance(g, Scaled):
        r, inner = g.factor, _normalize(g.inner)
        if isinstance(inner, Scaled):       # over a ring
            r, inner = r * inner.factor, inner.inner
        if isinstance(inner, MixedModule):
            return _normalize(MixedModule(tuple((d, r * gen) for d, gen in inner.terms)))
        if isinstance(inner, FullLine):
            return inner
        if isinstance(inner, Product):
            return _normalize(Product(tuple(Scaled(r, f) for f in inner.factors)))
        if isinstance(inner, Image):
            return _normalize(Image(Scaled(r, inner.inner), inner.matrix))
        if r == one() or r == rational(-1):   # -G = G for every group
            return inner
        r = _sign_canonical(r)
        return g if (r, inner) == (g.factor, g.inner) else Scaled(r, inner)
    if isinstance(g, Product):
        factors = tuple(_normalize(f) for f in g.factors)
        if len(factors) == 1:
            return factors[0]
        return g if factors == g.factors else Product(factors)
    if isinstance(g, Image):
        inner = _normalize(g.inner)
        a = g.matrix
        if isinstance(inner, Image):        # over a Product
            a, inner = inner.matrix * a, inner.inner
        if inner == Product((FullLine(),) * a.n):
            return inner        # R^n * A = R^n
        if a.n == 1:
            return _normalize(Scaled(a.rows[0][0], inner))
        if a == scalar_matrix(a.rows[0][0], a.n):
            return _normalize(Scaled(a.rows[0][0], inner))
        return g if (inner, a) == (g.inner, g.matrix) else Image(inner, a)
    raise DescriptorError(f"not a group descriptor: {g!r}")


# ---------------------------------------------------------------------------
# generators for invariance certificates
# ---------------------------------------------------------------------------

def invariance_generators(g: GroupDescriptor
                          ) -> list[tuple[str, Vector]]:
    """Finite family of (check-kind, vector) pairs that pins a normal G
    down for invariance checking: "int" needs member, "rat" needs the
    rational line, "real" needs the real line.  Rings are not finitely
    generated this way and raise UnsupportedError (they go through the
    unit-group route)."""
    n = dimension(g)
    if isinstance(g, MixedModule):
        return [("int" if d is Domain.INT else "rat", (gen,)) for d, gen in g.terms]
    if isinstance(g, FullLine):
        return [("real", (one(),))]
    if isinstance(g, Scaled):
        return [(kind, tuple(g.factor * c for c in vec))
                for kind, vec in invariance_generators(g.inner)]
    if isinstance(g, Product):
        out = []
        for i, f in enumerate(g.factors):
            for kind, vec in invariance_generators(f):
                emb = [zero()] * n
                emb[i] = vec[0]
                out.append((kind, tuple(emb)))
        return out
    if isinstance(g, Image):
        return [(kind, vec_mat_mul(vec, g.matrix))
                for kind, vec in invariance_generators(g.inner)]
    raise UnsupportedError(
        f"{kind_name(g)} is not finitely generated as a module; "
        "use the unit-group route")


def kind_name(g: GroupDescriptor) -> str:
    return type(g).__name__
