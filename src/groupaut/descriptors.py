"""Closed-form descriptions of subgroups of R^n and their decision procedures.

A descriptor is a small immutable AST.  The one-dimensional building blocks
are Cyclic, MixedModule (finitely many generators, each carrying a Z or Q
coefficient domain), the two Laurent rings, FractionRing (Z[1/m]), Scaled
and FullLine; higher dimensions come from Product, Image under an
invertible matrix, and FullSpace.  A divisible hull is not a node:
``divisible_hull`` folds it into one of these forms when it is built.

Everything here is decided exactly.  Three questions are asked of a vector
v, and ``holds(kind, g, v)`` picks one by its check kind:

* "int", ``member``: is v in G?  On a module this solves for coefficients
  over Q and checks integrality on the Z-slots (with a Hermite-style
  integer solve, so generator families like 2Z + 3Z that are Q-dependent
  but not redundant still work);
* "rat", ``rat_line_member``: does Q*v lie in G?  For a MixedModule this
  holds exactly when v lies in the Q-span of the Q-slot generators: the
  image of v in the quotient by that span lives in a finitely generated
  Z-module, which has no nonzero divisible elements;
* "real", ``real_line_member``: does R*v lie in G?  Every proper
  one-dimensional descriptor forces v = 0 there, FullLine absorbs anything.

All three share one walk, ``_split``, which carries v through the Scaled,
Image and Product nodes and yields the leaf groups with their coordinates;
each question is then a loop over the leaves.

Construction *rejects* redundant generator families instead of repairing
them: a generator whose whole coefficient-domain line already lies in the
group generated by the remaining terms is an input error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from . import linalg
from .errors import (
    ContextError,
    DescriptorError,
    DomainError,
    SingularMatrixError,
    UnsupportedError,
)
from .matrices import ExactMatrix, Vector, identity, scalar_matrix, vec_mat_mul, vector
from .scalars import (
    ContextKind,
    ExactScalar,
    FORMAL_CONTEXT,
    FieldContext,
    RAT_CONTEXT,
    as_scalar,
    exact_div,
    join_context,
    one,
    rational,
    zero,
)


class Domain(Enum):
    INT = "Z"
    RAT = "Q"


@dataclass(frozen=True)
class Cyclic:
    generator: ExactScalar


@dataclass(frozen=True)
class MixedModule:
    terms: tuple[tuple[Domain, ExactScalar], ...]


@dataclass(frozen=True)
class LaurentRing:
    coeffs: Domain


@dataclass(frozen=True)
class FractionRing:
    m: int


@dataclass(frozen=True)
class Scaled:
    factor: ExactScalar
    inner: "GroupDescriptor"


@dataclass(frozen=True)
class FullLine:
    pass


@dataclass(frozen=True)
class Product:
    factors: tuple["GroupDescriptor", ...]


@dataclass(frozen=True)
class Image:
    inner: "GroupDescriptor"
    matrix: ExactMatrix


@dataclass(frozen=True)
class FullSpace:
    n: int


GroupDescriptor = Union[Cyclic, MixedModule, LaurentRing, FractionRing,
                        Scaled, FullLine, Product, Image, FullSpace]


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witness: Optional[tuple[Fraction, ...]] = None

    def __bool__(self) -> bool:
        return self.member


# ---------------------------------------------------------------------------
# coordinates: scalars as Q-vectors over a common basis
# ---------------------------------------------------------------------------

def _coordinate_rows(scalars: Sequence[ExactScalar]
                     ) -> tuple[list[list[Fraction]], FieldContext]:
    """Q-coordinate rows of the given scalars over a single joined basis."""
    ctx = RAT_CONTEXT
    for s in scalars:
        ctx = join_context(ctx, s.context)
    if ctx.kind is ContextKind.FORMAL:
        support = sorted({k for s in scalars for k, _ in s._embedded(ctx)})
        rows = []
        for s in scalars:
            d = dict(s._embedded(ctx))
            rows.append([d.get(k, Fraction(0)) for k in support])
        return rows, ctx
    rows = [list(s._embedded(ctx)) for s in scalars]
    return rows, ctx


def _module_solve(terms: Sequence[tuple[Domain, ExactScalar]],
                  v: ExactScalar) -> Optional[tuple[Fraction, ...]]:
    """Coefficients c (Z-slots integral) with sum c_i * g_i == v, or None."""
    gens = [g for _, g in terms]
    rows, _ = _coordinate_rows(list(gens) + [v])
    gen_rows, target = rows[:-1], rows[-1]
    rat_rows = [gen_rows[i] for i, (d, _) in enumerate(terms) if d is Domain.RAT]
    int_idx = [i for i, (d, _) in enumerate(terms) if d is Domain.INT]

    # project onto the quotient by the Q-span of the Q-slot generators
    basis = linalg.rref_basis(rat_rows)
    reduced_int = [linalg.reduce_by_span(basis, gen_rows[i]) for i in int_idx]
    reduced_v = linalg.reduce_by_span(basis, target)

    if not int_idx:
        if any(c != 0 for c in reduced_v):
            return None
        int_part = []
    else:
        intvecs, _ = linalg.clear_denominators(reduced_int + [reduced_v])
        z = linalg.integer_combination(intvecs[:-1], intvecs[-1])
        if z is None:
            return None
        int_part = z

    residual = list(target)
    for zi, i in zip(int_part, int_idx):
        residual = [r - zi * c for r, c in zip(residual, gen_rows[i])]
    rat_coeffs = linalg.solve_combination(rat_rows, residual)
    if rat_coeffs is None:
        return None

    witness = [Fraction(0)] * len(terms)
    for zi, i in zip(int_part, int_idx):
        witness[i] = Fraction(zi)
    it = iter(rat_coeffs)
    for i, (d, _) in enumerate(terms):
        if d is Domain.RAT:
            witness[i] = next(it)
    return tuple(witness)


def _module_rat_line(terms: Sequence[tuple[Domain, ExactScalar]],
                     v: ExactScalar) -> bool:
    rat_gens = [g for d, g in terms if d is Domain.RAT]
    rows, _ = _coordinate_rows(list(rat_gens) + [v])
    return linalg.in_span(rows[:-1], rows[-1])


# ---------------------------------------------------------------------------
# validating factories
# ---------------------------------------------------------------------------

def cyclic(g) -> Cyclic:
    g = as_scalar(g)
    if g.is_zero():
        raise DescriptorError("cyclic generator must be nonzero")
    return Cyclic(g)


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
    ctx = RAT_CONTEXT
    for _, g in norm:
        ctx = join_context(ctx, g.context)   # raises for incompatible mixes
    for i, (d, g) in enumerate(norm):
        rest = norm[:i] + norm[i + 1:]
        if not rest:
            continue
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
    """The divisible hull of inner, in closed form.

    The hull is taken of the normalized group, whose generator order
    decides which Q-basis of a module survives.
    """
    return hull_closure(normalize(inner))


def scaled(r, inner: GroupDescriptor) -> Scaled:
    r = as_scalar(r)
    if r.is_zero():
        raise DescriptorError("scale factor must be nonzero")
    return Scaled(r, inner)


def full_line() -> FullLine:
    return FullLine()


def full_space(n: int) -> FullSpace:
    if not isinstance(n, int) or n < 1:
        raise DescriptorError(f"dimension must be a positive integer, got {n}")
    return FullSpace(n)


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
        a.inverse()
    except (DomainError, SingularMatrixError, ContextError) as exc:
        raise DescriptorError(f"image matrix must be invertible: {exc}") from None
    return Image(inner, a)


def dimension(g: GroupDescriptor) -> int:
    if isinstance(g, (Cyclic, MixedModule, LaurentRing, FractionRing, FullLine)):
        return 1
    if isinstance(g, Scaled):
        return dimension(g.inner)
    if isinstance(g, Product):
        return len(g.factors)
    if isinstance(g, Image):
        return g.matrix.n
    if isinstance(g, FullSpace):
        return g.n
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
    """Exact membership v in G, with a coefficient witness where meaningful."""
    return _member(g, as_vector(g, v))


def rat_line_member(g: GroupDescriptor, v) -> bool:
    """Does the whole rational line Q*v lie inside G?"""
    return _rat_line(g, as_vector(g, v))


def real_line_member(g: GroupDescriptor, v) -> bool:
    """Does the whole real line R*v lie inside G?

    Every descriptor here except FullLine/FullSpace describes a countable
    group, so in those factors only v = 0 qualifies.
    """
    return _real_line(g, as_vector(g, v))


def holds(kind: str, g: GroupDescriptor, v: Vector) -> bool:
    """One check of invariance_generators: "int" asks whether v is in G,
    "rat" whether Q*v is, "real" whether R*v is."""
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
    """Carry v through the Scaled, Image and Product nodes of g.

    Yields (leaf, coordinates) pairs in coordinate order; v, Q*v or R*v
    lies in G exactly when each block of coordinates does in its leaf.
    When a scale factor does not divide v, yields (None, v): then none of
    the three does.  The walk is lazy, so a caller that stops at the first
    failing leaf never touches the later coordinates.
    """
    if isinstance(g, Scaled):
        quotient = []
        for c in v:
            q = exact_div(c, g.factor)
            if q is None:
                yield None, v
                return
            quotient.append(q)
        yield from _split(g.inner, tuple(quotient))
    elif isinstance(g, Image):
        yield from _split(g.inner, vec_mat_mul(v, g.matrix.inverse()))
    elif isinstance(g, Product):
        for f, c in zip(g.factors, v):
            yield from _split(f, (c,))
    else:
        yield g, v


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
    return all(leaf is not None and (isinstance(leaf, (FullLine, FullSpace))
                                     or all(c.is_zero() for c in coords))
               for leaf, coords in _split(g, v))


@lru_cache(maxsize=65536)
def _leaf_member(g: GroupDescriptor, v: Vector) -> MembershipVerdict:
    if isinstance(g, Cyclic):
        w = _module_solve(((Domain.INT, g.generator),), v[0])
        return MembershipVerdict(w is not None, w)
    if isinstance(g, MixedModule):
        w = _module_solve(g.terms, v[0])
        return MembershipVerdict(w is not None, w)
    if isinstance(g, LaurentRing):
        s = v[0]
        ctx = join_context(s.context, FORMAL_CONTEXT)   # rejects surd contexts
        coeffs = [c for _, c in s._embedded(ctx)]
        if g.coeffs is Domain.INT:
            return MembershipVerdict(all(c.denominator == 1 for c in coeffs))
        return MembershipVerdict(True)
    if isinstance(g, FractionRing):
        s = v[0]
        if not s.is_rational():
            return MembershipVerdict(False)
        q = s.as_fraction().denominator
        while (d := gcd(q, g.m)) > 1:
            while q % d == 0:
                q //= d
        return MembershipVerdict(q == 1)
    if isinstance(g, (FullLine, FullSpace)):
        return MembershipVerdict(True)
    raise DescriptorError(f"not a group descriptor: {g!r}")


@lru_cache(maxsize=65536)
def _leaf_rat_line(g: GroupDescriptor, v: Vector) -> bool:
    if isinstance(g, (Cyclic, FractionRing)):
        return v[0].is_zero()
    if isinstance(g, MixedModule):
        return _module_rat_line(g.terms, v[0])
    if isinstance(g, LaurentRing):
        if g.coeffs is Domain.INT:
            return v[0].is_zero()
        return _leaf_member(g, v).member
    if isinstance(g, (FullLine, FullSpace)):
        return True
    raise DescriptorError(f"not a group descriptor: {g!r}")


# ---------------------------------------------------------------------------
# divisible hulls
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def hull_closure(g: GroupDescriptor) -> GroupDescriptor:
    """The divisible hull of g in closed form (always exists here except
    over Z[1/m])."""
    if isinstance(g, Cyclic):
        return MixedModule(((Domain.RAT, g.generator),))
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
    if isinstance(g, (FullLine, FullSpace)):
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
    if isinstance(g, Cyclic):
        return False
    if isinstance(g, MixedModule):
        rat = [(Domain.RAT, gen) for d, gen in g.terms if d is Domain.RAT]
        for d, gen in g.terms:
            if d is Domain.INT:
                if not rat or not _module_rat_line(rat, gen):
                    return False
        return True
    if isinstance(g, LaurentRing):
        return g.coeffs is Domain.RAT
    if isinstance(g, FractionRing):
        return False
    if isinstance(g, (Scaled, Image)):
        return is_divisible(g.inner)
    if isinstance(g, (FullLine, FullSpace)):
        return True
    if isinstance(g, Product):
        return all(is_divisible(f) for f in g.factors)
    raise DescriptorError(f"not a group descriptor: {g!r}")


def cyclic_form(g: GroupDescriptor) -> Optional[Cyclic]:
    """A Cyclic descriptor with the same members, when one exists (1-D)."""
    if dimension(g) != 1:
        raise UnsupportedError("cyclicity is a one-dimensional notion here")
    if isinstance(g, Cyclic):
        return Cyclic(_sign_canonical(g.generator))
    if isinstance(g, Scaled):
        inner = cyclic_form(g.inner)
        if inner is None:
            return None
        return Cyclic(_sign_canonical(g.factor * inner.generator))
    if isinstance(g, Image):
        inner = cyclic_form(g.inner)
        if inner is None:
            return None
        return Cyclic(_sign_canonical(inner.generator * g.matrix.rows[0][0]))
    if isinstance(g, MixedModule):
        if any(d is Domain.RAT for d, _ in g.terms):
            return None
        gens = [gen for _, gen in g.terms]
        lead = gens[0]
        ratios = []
        for gen in gens:
            rows, _ = _coordinate_rows([lead, gen])
            sol = linalg.solve_combination([rows[0]], rows[1])
            if sol is None:
                return None
            ratios.append(sol[0])
        # the subgroup of Q generated by the ratios is cyclic: gcd over a
        # common denominator
        denom = lcm(*(r.denominator for r in ratios))
        nums = [r.numerator * (denom // r.denominator) for r in ratios]
        step = Fraction(gcd(*nums), denom)
        return Cyclic(_sign_canonical(rational(step) * lead))
    return None


def is_cyclic(g: GroupDescriptor) -> bool:
    return cyclic_form(g) is not None


def is_dense(g: GroupDescriptor) -> bool:
    """Density in R^n: non-cyclic in each line, componentwise for products."""
    if isinstance(g, (FullLine, FullSpace)):
        return True
    if isinstance(g, Product):
        return all(is_dense(f) for f in g.factors)
    if isinstance(g, (Image, Scaled)):
        return is_dense(g.inner)
    return not is_cyclic(g)


def _sign_canonical(s: ExactScalar) -> ExactScalar:
    if s.context.kind is ContextKind.FORMAL:
        lead = s.coords[0][1]
    else:
        lead = next((c for c in s.coords if c != 0), Fraction(0))
    return -s if lead < 0 else s


def _monic(s: ExactScalar) -> ExactScalar:
    if s.context.kind is ContextKind.FORMAL:
        lead = s.coords[0][1]
    else:
        lead = next((c for c in s.coords if c != 0), Fraction(1))
    return s * rational(Fraction(1) / lead)


# ---------------------------------------------------------------------------
# normalization (set-preserving canonical form)
# ---------------------------------------------------------------------------

def normalize(g: GroupDescriptor) -> GroupDescriptor:
    out = _normalize(g)
    again = _normalize(out)
    if again != out:   # defensive: the rewrite should be one-pass stable
        out = again
    return out


@lru_cache(maxsize=4096)
def _normalize(g: GroupDescriptor) -> GroupDescriptor:
    if isinstance(g, Cyclic):
        return Cyclic(_sign_canonical(g.generator))
    if isinstance(g, MixedModule):
        terms = []
        for d, gen in g.terms:
            gen = _sign_canonical(gen) if d is Domain.INT else _monic(gen)
            terms.append((d, gen))
        terms.sort(key=lambda t: (0 if t[0] is Domain.INT else 1, t[1].sort_key()))
        return MixedModule(tuple(terms))
    if isinstance(g, (LaurentRing, FractionRing, FullLine, FullSpace)):
        return g
    if isinstance(g, Scaled):
        r = g.factor
        inner = _normalize(g.inner)
        while isinstance(inner, Scaled):
            r = r * inner.factor
            inner = _normalize(inner.inner)
        if isinstance(inner, Cyclic):
            return _normalize(Cyclic(r * inner.generator))
        if isinstance(inner, MixedModule):
            return _normalize(MixedModule(tuple((d, r * gen) for d, gen in inner.terms)))
        if isinstance(inner, (FullLine, FullSpace)):
            return inner
        if isinstance(inner, Product):
            return _normalize(Product(tuple(Scaled(r, f) for f in inner.factors)))
        if isinstance(inner, Image):
            return _normalize(Image(Scaled(r, inner.inner), inner.matrix))
        if r == one() or r == rational(-1):   # -G = G for every group
            return inner
        return Scaled(_sign_canonical(r), inner)
    if isinstance(g, Product):
        factors = tuple(_normalize(f) for f in g.factors)
        if len(factors) == 1:
            return factors[0]
        if all(isinstance(f, FullLine) for f in factors):
            return FullSpace(len(factors))
        return Product(factors)
    if isinstance(g, Image):
        inner = _normalize(g.inner)
        a = g.matrix
        while isinstance(inner, Image):
            a = inner.matrix * a
            inner = _normalize(inner.inner)
        if isinstance(inner, FullSpace):
            return inner
        if a.n == 1:
            return _normalize(Scaled(a.rows[0][0], inner))
        if a == identity(a.n):
            return inner
        if a == scalar_matrix(a.rows[0][0], a.n):
            return _normalize(Scaled(a.rows[0][0], inner))
        return Image(inner, a)
    raise DescriptorError(f"not a group descriptor: {g!r}")


# ---------------------------------------------------------------------------
# generators for invariance certificates, bases, containment
# ---------------------------------------------------------------------------

def invariance_generators(g: GroupDescriptor
                          ) -> list[tuple[str, Vector]]:
    """Finite family of (check-kind, vector) pairs that pins G down for
    invariance checking: "int" needs member, "rat" needs the rational line,
    "real" needs the real line.  Rings are not finitely generated this way
    and raise UnsupportedError (they go through the unit-group route)."""
    n = dimension(g)
    if isinstance(g, Cyclic):
        return [("int", (g.generator,))]
    if isinstance(g, MixedModule):
        return [("int" if d is Domain.INT else "rat", (gen,)) for d, gen in g.terms]
    if isinstance(g, FullLine):
        return [("real", (one(),))]
    if isinstance(g, FullSpace):
        return [("real", tuple(one() if i == j else zero() for j in range(n)))
                for i in range(n)]
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


def subgroup_of(g: GroupDescriptor, h: GroupDescriptor) -> bool:
    """Sufficient-and-necessary containment test via generators (when g is
    finitely generated in the sense of invariance_generators)."""
    if dimension(g) != dimension(h):
        raise DomainError("dimension mismatch")
    return all(holds(kind, h, vec) for kind, vec in invariance_generators(g))


def basis_from_group(g: GroupDescriptor) -> list[Vector]:
    """n member-vectors with nonzero determinant (needs a dense group)."""
    if not is_dense(g):
        raise DescriptorError("basis extraction needs a dense group")
    n = dimension(g)
    if isinstance(g, Image):
        inner = basis_from_group(g.inner)
        return [vec_mat_mul(v, g.matrix) for v in inner]
    if isinstance(g, Scaled):
        inner = basis_from_group(g.inner)
        return [tuple(g.factor * c for c in v) for v in inner]
    if isinstance(g, Product):
        rows = []
        for i, f in enumerate(g.factors):
            pick = basis_from_group(f)[0][0]
            rows.append(tuple(pick if j == i else zero() for j in range(n)))
        return rows
    if isinstance(g, FullSpace):
        return [tuple(one() if i == j else zero() for j in range(n)) for i in range(n)]
    if isinstance(g, (FullLine, LaurentRing, FractionRing)):
        return [(one(),)]
    if isinstance(g, MixedModule):
        return [(g.terms[0][1],)]
    if isinstance(g, Cyclic):
        return [(g.generator,)]
    raise DescriptorError(f"not a group descriptor: {g!r}")


def kind_name(g: GroupDescriptor) -> str:
    return type(g).__name__
