"""Invariance groups of group descriptors.

For a subgroup G of R^n, the invariance group is the set of invertible
matrices A with G*A = G; in one dimension these are the nonzero reals r
with r*G = G.  Two independent routes decide membership:

* a small table of closed forms (``aut_group``), each row carrying a
  decidable predicate (``contains``), and
* generator certificates (``acts_invariantly``), which check the finitely
  many generating lines of G against A directly, and the integer
  generators against A^-1 as well.  Given G*A inside G with A invertible,
  the divisible part V of G (its Q-lines and R-lines) has V*A = V, so no
  other generator can leave G under A^-1.

``aut_member`` runs both routes and raises ConsistencyError if they ever
disagree.  When no table row applies, the engine answers with explicit
Bounds (known lower/upper descriptor sets) instead of guessing; {+1,-1} is
always a sound lower bound.

The table covers: cyclic groups; every rational line Q*g; modules of
Z-slots beside one Q-slot whose Z-part is cyclic modulo that Q-line;
two-generator Q-spans Q*g0 + Q*g1 by the square test (the field holding
g1/g0 when g1^2 lies in the Q-span of g0^2 and g0*g1, Q^x otherwise);
Laurent rings and their hulls; Z[1/m]; Q^n and its scalings; the
two-factor "rational multiples of a fixed square root off the diagonal"
pattern; Q^p x R^q block groups; and full spaces.  Powers A_x for
quadratic irrational bases are out of reach of the table (the
question is open); such inputs fall through to Bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from itertools import chain, count
from math import gcd
from operator import itemgetter
from typing import Optional, Union

from . import linalg
from .descriptors import (
    Domain,
    FractionRing,
    FullLine,
    GroupDescriptor,
    Image,
    LaurentRing,
    MixedModule,
    Product,
    Scaled,
    _coordinates,
    _divisor,
    _lead,
    _member,
    _split,
    _lattice,
    _module_rat_line,
    coprime_part,
    dimension,
    fraction_ring,
    holds,
    invariance_generators,
    is_cyclic,
    kind_name,
    member,
    normalize,
    scaled,
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
    combine_rows,
    pattern_quad_member,
    scalar_matrix,
    vec_mat_mul,
)
from .scalars import (
    ContextKind,
    ExactScalar,
    as_scalar,
    exact_div,
    factorize,
    iter_factors,
    one,
    rational,
    sqrt_rational,
    squarefree_decomposition,
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

    On failure, ``failing_generator`` is a member w of G whose ``image``
    under A (direction "forward") or A^-1 (direction "inverse") is not in
    G (None: outside the tower); ``over`` is G, or det A * G where that
    image is w * adj A.  Neither evidence field takes part in equality.
    """
    verdict: bool
    failing_generator: Optional[Vector] = None
    direction: Optional[str] = None
    image: Optional[Vector] = field(default=None, compare=False)
    over: Optional[GroupDescriptor] = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.verdict


def pm_powers(base) -> PMPowers:
    return PMPowers(_unit_base(base))


def rat_times_pm_powers(base) -> RatTimesPMPowers:
    return RatTimesPMPowers(_unit_base(base))


def _unit_base(base) -> ExactScalar:
    s = as_scalar(base)
    if s == t_monomial(1) or (s.is_integer() and s.nums[0] >= 2):
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


def _in_EZ(a: ExactMatrix) -> bool:
    """Is a in E(n, Z), the integer matrices of determinant +-1?"""
    return a.is_integer() and a.det() in (one(), rational(-1))


def contains(d: AutDescriptor, a) -> bool:
    """Does the scalar or matrix ``a`` belong to the described group?"""
    n = _matrix_dim(d)
    if n is not None:
        if not isinstance(a, ExactMatrix):
            a = scalar_matrix(as_scalar(a), n)
        if a.n != n:
            return False
        if isinstance(d, GLQ):
            return a.is_rational() and not a.is_singular()
        if isinstance(d, GLR):
            return not a.is_singular()
        if isinstance(d, BlockTriangular):
            return block_triangular_member(d.p, d.q, a)
        if isinstance(d, PatternQuad):
            return pattern_quad_member(d.x, a)
        return _in_EZ(a)

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
    # only a rational or a Laurent monomial q*t^k has one numerator
    if isinstance(d, PMPowers):
        if d.base.context.kind is ContextKind.FORMAL:
            return bool(s) and len(s.nums) == 1 and s.den == 1 \
                and abs(_lead(s)) == 1
        if not s.is_rational() or s.is_zero():
            return False
        f = abs(s.as_fraction())
        base = int(d.base.as_fraction())
        if f.denominator == 1:
            return _is_power_of(f.numerator, base)
        return f.numerator == 1 and _is_power_of(f.denominator, base)
    if isinstance(d, RatTimesPMPowers):
        # Q^x * p^k is Q^x for an integer base p; only the base t adds q*t^k
        return bool(s) and len(s.nums) == 1 and (
            s.is_rational() or d.base.context.kind is ContextKind.FORMAL)
    raise DomainError(f"not an invariance-group descriptor: {d!r}")


# ---------------------------------------------------------------------------
# certificates: direct generator checks of G*A = G
# ---------------------------------------------------------------------------

def _rat_witness(g: GroupDescriptor, vec: Vector, mat: ExactMatrix) -> Vector:
    """Q*vec leaves G under mat: vec/p for the first p of 1, 2, 3, 5, 7, ...
    (1, then the primes) whose image leaves G.  Past 1 that is the least
    prime not dividing ``_divisor``'s k.  An image in G with k = 0 means the
    checks disagree: then vec is returned, and it does not replay."""
    image = vec_mat_mul(vec, mat)
    k = _divisor(g, image) if _member(g, image).member else 0
    p = next(q for q in count(2) if gcd(q, k) == 1) if k else 1
    return tuple(Fraction(1, p) * c for c in vec)


def _real_witness(g: GroupDescriptor, vec: Vector, mat: ExactMatrix) -> Vector:
    # no integer multiple is a probe: it is in G, or fails to join G's
    # context, whenever the probe 1 is or does
    probes = [one(), rational(Fraction(1, 2)),
              sqrt_rational(2), sqrt_rational(3), sqrt_rational(5)]
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
    """Probes past the fixed ones, read off the keys of the module leaves
    that vec * mat meets.  A coordinate c != 0 in a leaf has only the
    leaf's keys, so sqrt(p) * c, for a prime p that divides none of them,
    has none and is not a member, wherever the tower can form it.  In
    Q[t,1/t] a leaf has finitely many exponents of t, and t^k takes c past
    them once k exceeds their spread.  Powers of t are skipped when vec has
    a surd, which t does not join."""
    roots, top, low = set(), 0, 0
    for leaf, coords in _split(g, vec_mat_mul(vec, mat)):
        if isinstance(leaf, MixedModule):
            laurent, keys = _coordinates(leaf.terms)[:2]
            if laurent:
                top = max(top, *keys)       # exponents
            else:
                roots.update(keys)          # radicands
            if coords[0].context.kind is ContextKind.FORMAL:
                low = min(low, coords[0].nums[0][0])    # the least exponent
    yield sqrt_rational(next(p for p in count(7) if next(iter_factors(p))[0] == p
                             and all(r % p for r in roots)))
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


def run_generators(checks: dict, g: GroupDescriptor) -> tuple:
    """invariance_generators(g) as (kind, vec, support, position, blocks),
    kept in ``checks``.
    G is checked one block of coordinates at a time: a Product has one
    block per factor, any other group one block of all its coordinates.
    Each block is (index, group, columns, pick): pick takes the entries of
    M, row by row, to those that the block of vec * M reads (vec is
    nonzero, so there is at least one)."""
    if g not in checks:
        blocks = [(b, f, (b,)) for b, f in enumerate(g.factors)] \
            if isinstance(g, Product) else [(0, g, tuple(range(dimension(g))))]
        gens = []
        for pos, (kind, vec) in enumerate(invariance_generators(g)):
            support = tuple(i for i, x in enumerate(vec) if not x.is_zero())
            gens.append((kind, vec, support, pos, tuple(
                (b, group, cols,
                 itemgetter(*[i * len(vec) + j for i in support for j in cols]))
                for b, group, cols in blocks)))
        checks[g] = tuple(gens)
    return checks[g]


def failing_generator(checks: dict, gens: tuple, rows,
                      block: Optional[int] = None):
    """The first generator of gens (see ``run_generators``) with vec * M
    not in G, or None; with ``block``, only that block is checked.

    vec * M is in G exactly when each block of its coordinates is in the
    block's group, as ``holds`` walks G, and blocks are asked in coordinate
    order.  The run's memo ``checks`` keeps each verdict under (position,
    block, the entries the block reads).  A check not known to hold first
    forms all of vec * M, as a check on the whole of G does, so that an
    image outside the scalar tower raises the same ContextError."""
    entries = sum(rows, ())
    for gen in gens:
        kind, vec, _, pos, blocks = gen
        image = None
        for b, group, cols, pick in (blocks if block is None
                                     else blocks[block:block + 1]):
            key = (pos, b, pick(entries))
            verdict = checks.get(key)
            if not verdict:
                if image is None:
                    image = combine_rows(vec, rows)
                if verdict is None:
                    verdict = checks[key] = holds(
                        kind, group, tuple([image[j] for j in cols]))
                if not verdict:
                    return gen
    return None


def acts_invariantly(g: GroupDescriptor, a,
                     _checks: Optional[dict] = None) -> Certificate:
    """Certificate for G*a = G via generator checks: G*A inside G (the
    forward pass), then G*A^-1 inside G (the inverse pass), which checks
    the "int" generators alone.

    Let V be the Q-span of the "rat" generators plus the real lines.  G/V
    is generated by the "int" generators and torsion-free, since V is a
    Q-space, so it is free and V is the largest divisible subgroup of G:
    G*A inside G puts the divisible V*A inside V.  With A invertible that
    is V*A = V: the largest real subspace U of V has U*A = U by dimension,
    and A induces an injective Q-linear map of the finite-dimensional V/U
    to itself, which is onto.  So no "rat" or "real" generator leaves G
    under A^-1, and G with no "int" generator is confirmed once A is known
    to be invertible.

    ``_checks`` is the memo of one ``brute_force_aut`` run over a normal
    G, which keeps the verdict of every generator check it has asked, held
    or failed (see ``failing_generator``); a certificate on its own
    normalizes G and starts with an empty one.

    On G = factor * ring for a ring descriptor the scalar, or the entry of
    a 1 x 1 matrix, is tested against the ring directly: no scalar matrix
    is built for it.  A refutation is replayed before it is returned
    (``_replayed``)."""
    if _checks is None:
        g, _checks = normalize(g), {}
    n = dimension(g)
    matrix = isinstance(a, ExactMatrix)
    if matrix and a.n != n:
        raise DomainError(f"matrix size {a.n} does not fit dimension {n}")

    ring, factor = _ring_core(g)
    if ring is not None:
        r = a.rows[0][0] if matrix else as_scalar(a)
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
        return replayed(g, (factor,), r, direction)

    mat = a if matrix else scalar_matrix(as_scalar(a), n)
    gens = run_generators(_checks, g)
    failing = failing_generator(_checks, gens, mat.rows)
    if failing:
        kind, vec = failing[:2]
        if kind != "int":
            witness = _rat_witness if kind == "rat" else _real_witness
            vec = witness(g, vec, mat)
        return _replayed(g, vec, vec_mat_mul(vec, mat), "forward")
    ints = [vec for kind, vec, *_ in gens if kind == "int"]
    if not ints and not mat.is_singular():
        return Certificate(True)
    # the inverse is formed only after the forward pass succeeds; a
    # candidate refuted forward may not even be invertible in the tower
    m, over = _inverse_pass(g, mat)
    for vec in ints:
        image = vec_mat_mul(vec, m)
        if not _member(over, image).member:
            return _replayed(g, vec, image, "inverse", over)
    return Certificate(True)


def _inverse_pass(g: GroupDescriptor, a: ExactMatrix
                  ) -> tuple[ExactMatrix, GroupDescriptor]:
    """(M, H) with v * A^-1 in G exactly when v * M is in H: (A^-1, G) where
    A^-1 is in the tower.  Otherwise A^-1 = B / d for (B, d) = (adj A,
    det A), and M = B, H = d * G, whose FullLine leaves hold the
    coordinates that d does not divide.  A product is checked factor by
    factor: where d divides a column of B, that column of M is the column
    of A^-1 and its factor stays unscaled, so that the factor's context
    need not join d's."""
    try:
        return a.inverse(), g
    except DomainError:
        b, d = a.adjugate()
    if not isinstance(g, Product):
        return b, normalize(scaled(d, g))
    columns, factors = [], []
    for column, f in zip(zip(*b.rows), g.factors):
        quotients = [exact_div(x, d) for x in column]
        if None in quotients:
            columns.append(column)
            factors.append(normalize(scaled(d, f)))
        else:
            columns.append(quotients)
            factors.append(f)
    return ExactMatrix(tuple(zip(*columns))), Product(tuple(factors))


def replayed(g: GroupDescriptor, w: Vector, a, direction: str) -> Certificate:
    """``_replayed`` for the candidate a, a matrix or a scalar on a
    one-dimensional G: the image is w * a, or w * a^-1 as the inverse pass
    of a certificate reads it (``_inverse_pass``).  For a scalar it is w / a
    by exact division, since 1/a need not be in the tower where w / a is,
    and an image outside the tower is outside G, as the one group that
    holds it, R, refutes nothing."""
    if isinstance(a, ExactMatrix):
        m, over = (a, g) if direction == "forward" else _inverse_pass(g, a)
        return _replayed(g, w, vec_mat_mul(w, m), direction, over)
    try:
        q = w[0] * a if direction == "forward" else exact_div(w[0], a)
    except ContextError:
        q = None
    return _replayed(g, w, None if q is None else (q,), direction)


def _replayed(g: GroupDescriptor, w: Vector, image: Optional[Vector],
              direction: str, over: Optional[GroupDescriptor] = None
              ) -> Certificate:
    """The refutation (w, direction), with its evidence, once it replays."""
    over = g if over is None else over
    _check_replay(g, w, image, direction, over)
    return Certificate(False, w, direction, image, over)


def _check_replay(g: GroupDescriptor, w: Vector, image: Optional[Vector],
                  direction: str, over: GroupDescriptor) -> None:
    """Raise ConsistencyError unless the refutation (w, direction) replays:
    w is in G and its image under A or A^-1 is not.  An image outside the
    scalar tower (None) is outside G.  With ``over`` = det A * G, the image
    is w * adj A, which is in ``over`` exactly when w * A^-1 is in G."""
    if _member(g, w).member and (image is None or not _member(over, image).member):
        return
    from .dsl import group_to_text
    raise ConsistencyError(
        f"the {direction} refutation of {group_to_text(g)} by {w!r} does "
        f"not replay")


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------

def _module_rule(m: MixedModule) -> Optional[AutDescriptor]:
    # the rule reads the keyed numerators: the generators' products and
    # quotients need not lie in one field of the tower, and rational
    # scalings of a generator change none of the tests below
    slots = [d for d, _ in m.terms]
    laurent, columns, _, rows, _ = _coordinates(m.terms)
    rat_rows = [row for d, row in zip(slots, rows) if d is Domain.RAT]

    if not rat_rows:
        return PlusMinusOne() if is_cyclic(m) else None
    if len(slots) == len(rat_rows) == 1:
        return RatStar()            # a single rational line
    if len(slots) == len(rat_rows) == 2:
        # Q*g0 + Q*g1 = g0*(Q + Q*y) with y = g1/g0.  When y^2 escapes
        # Q + Q*y, an r = a + b*y in the group has r*y inside only for b = 0
        g0, g1 = rat_rows
        ab = _product_combination(laurent, columns, [(g0, g0), (g0, g1)], (g1, g1))
        if ab is None:
            return RatStar()        # the square escapes, only Q acts
        # y^2 = a + b*y for an irrational y, so Q(y) = Q(sqrt(b^2 + 4a))
        a, b = ab
        disc = b * b + 4 * a
        return FieldUnits(squarefree_decomposition(disc.numerator * disc.denominator)[1])
    if len(rat_rows) != 1:
        return None

    # Z-slots with one Q-slot q: when the Z-part modulo Q*q is cyclic (the
    # frame's Hermite form has one row), G = Z*l + Q*q with y = q/l
    # irrational, and G is rigid.  An r with r*G = G has r*l in G, so
    # r = m + a*y with m in Z and a in Q; r*b*q in G for every rational b
    # puts a*b*y^2 in Z + Q*y.  If a != 0, then y^2 = alpha + beta*y with
    # a*b*alpha in Z for every b, so alpha = 0 and y = beta is rational.
    # So a = 0, and m*G = G gives m = +-1
    _, _, _, _, (_, pivots), _ = _lattice(m.terms)
    return PlusMinusOne() if len(pivots) == 1 else None


def _product_combination(laurent: bool, keys, pairs, target
                         ) -> Optional[list[Fraction]]:
    """Rational c with x*y = sum c_i * x_i*y_i for (x, y) = target and
    (x_i, y_i) in pairs, all rows over ``keys``, or None.  The products are
    formed on the keys, where exponents of t add and sqrt(a)*sqrt(b) =
    g*sqrt(ab/g^2) with g = gcd(a, b), so they need not lie in one field
    of the tower."""
    products = []
    for x, y in (*pairs, target):
        p: dict = {}
        for a, c in zip(keys, x):
            for b, e in zip(keys, y):
                g = 1 if laurent else gcd(a, b)
                k = a + b if laurent else a * b // (g * g)
                p[k] = p.get(k, 0) + g * c * e
        products.append(p)
    support = sorted(set().union(*products))
    *gens, t = ([p.get(k, 0) for k in support] for p in products)
    return linalg.solve_combination(gens, t)


def _line_scalar(f: GroupDescriptor) -> Optional[ExactScalar]:
    if isinstance(f, MixedModule) and len(f.terms) == 1 \
            and f.terms[0][0] is Domain.RAT:
        return f.terms[0][1]
    return None


def _product_rule(p: Product) -> AutResult:
    factors = p.factors
    n = len(factors)
    lines = [_line_scalar(f) for f in factors]
    k = next((i for i, x in enumerate(lines) if x is None), n)

    if all(x == lines[0] for x in lines[:k]) \
            and all(isinstance(f, FullLine) for f in factors[k:]):
        # Q^p x R^q in that order, up to one common rescaling r of the Q
        # factors: r*R = R, so G = r*(Q^p x R^q), and Phi(r*G) = Phi(G) (a
        # permuted product is a different set and has no closed form);
        # p = 0 is R^n, whose Phi is GL(n, R)
        return Exact(GLQ(n) if k == n else GLR(n) if not k
                     else BlockTriangular(k, n - k))
    if k == n == 2:
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
    if isinstance(g, LaurentRing):
        if g.coeffs is Domain.INT:
            return Exact(pm_powers(t_monomial(1)))
        return Exact(rat_times_pm_powers(t_monomial(1)))
    if isinstance(g, FractionRing):
        primes = [p for p, _ in factorize(g.m)]
        if len(primes) == 1 and g.m == primes[0]:
            return Exact(pm_powers(primes[0]))
        return Bounds(tuple(pm_powers(p) for p in primes))
    if isinstance(g, MixedModule):
        rule = _module_rule(g)
        if rule is not None:
            return Exact(rule)
        return Bounds((PlusMinusOne(),))
    if isinstance(g, Product):
        return _product_rule(g)
    return _image_rule(g)


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
        if isinstance(d, EZLowerBound) and _in_EZ(a):
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
        # one term q*t^k; a member of Z[t,1/t] has den 1, so there q = +-1
        return len(r.nums) == 1 \
            and (core.coeffs is Domain.RAT or abs(_lead(r)) == 1)
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
