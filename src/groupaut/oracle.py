"""Brute-force referee for the closed-form invariance rules.

Everything here works from first principles: enumerate group members up to
a height bound, form the candidate ratios a scaling would have to be (any
invariant scalar is a ratio of nonzero members), and classify each
candidate with the generator certificates.  The closed-form table is never
consulted while classifying — only afterwards, when ``cross_check``
compares the two answers.

Ratios are formed on integer numerators: a scalar is built only for a
ratio inside the height bound, and most fall outside it.  Over numerators
closed under negation, x / (-y) = (-x) / y = -(x / y), so only the x of
positive lead are used, and a y of negative lead only when -y is not also
a denominator: each ratio is formed for one sign and negated.

Every subgroup G satisfies G = -G, so a scalar c is in the invariance
group exactly when -c is, and a member w refutes c exactly when it refutes
-c: w * (-c) = -(w * c), and membership does not depend on sign.  On a
plane G = G1 x G2 each factor is symmetric, so every sign diagonal D is in
the invariance group, and A is in it exactly when D A D' is.  Each
generator of a product lies on one coordinate, so w * D A D' is w * A
with its coordinates' signs changed (and so is w * (D A D')^-1): the first
failing generator and its direction are the same across the class, and
the witness searches do not read signs.  Each sign class (c, -c in one
dimension, up to 8 matrices in two) is certified once; its other members
take the verdict, and a refutation with its witness and direction,
replayed on the member's own image before it is reported.

The sign class is also the unit of the plane's other steps: each kept
entry carries its number up to sign and its sign, so a key is read off the
entries, singularity is decided once per class (``_matrix_classes``), and
the closed form is asked once per class and is-scalar flag
(``cross_check``).

A run asks each generator check once per coordinate block of G and matrix
entries it reads: the row filter of ``candidate_matrices`` and every
certificate share the run's memo (``autgroup.failing_generator``).  A
product has one block per factor, so the filter asks each entry of a row,
not each row, and the rows are the products of the entries that pass.

The same module hosts the finite-support permutation demo: coordinate
permutations act on the group of finitely supported rational sequences,
and distinct permutations act distinctly.
"""

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from .autgroup import (acts_invariantly, admits, aut_group,
                       failing_generator, replayed, run_generators)
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
    _lead,
    _sign_canonical,
    dimension,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    DomainError,
    UnsupportedError,
)
from .matrices import ExactMatrix, Vector, _product, vec_mat_mul
from .scalars import (
    ContextKind,
    ExactScalar,
    _laurent,
    one,
    products_within,
    rational,
    sqrt_rational,
    t_monomial,
    zero,
)


# ---------------------------------------------------------------------------
# bounded-height member enumeration
# ---------------------------------------------------------------------------

def _check_height(h: int) -> int:
    if not isinstance(h, int) or h < 1:
        raise DomainError(f"height bound must be a positive integer, got {h!r}")
    return h


def _fractions(h: int) -> list[Fraction]:
    return sorted({Fraction(p, q) for p in range(-h, h + 1)
                   for q in range(1, h + 1)})


def _scalars_1d(g: GroupDescriptor, h: int) -> list[ExactScalar]:
    if isinstance(g, MixedModule):
        choices = []
        for domain, gen in g.terms:
            coeffs = [Fraction(k) for k in range(-h, h + 1)] \
                if domain is Domain.INT else _fractions(h)
            choices.append([gen * rational(c) for c in coeffs])
        return [sum(combo, zero()) for combo in itertools.product(*choices)]
    if isinstance(g, LaurentRing):
        # each member is built straight from its int terms: c1 t^k1 + c2 t^k2
        # with c = p/q is (p1 q2 t^k1 + p2 q1 t^k2) / (q1 q2)
        coeffs = [(k, 1) for k in range(-h, h + 1) if k] \
            if g.coeffs is Domain.INT \
            else [(q.numerator, q.denominator) for q in _fractions(h) if q]
        exps = range(-h, h + 1)
        out = [zero()]
        out += [_laurent(((k, p),), q) for k in exps for p, q in coeffs]
        for k1, k2 in itertools.combinations(exps, 2):
            out += [_laurent(((k1, p1 * q2), (k2, p2 * q1)), q1 * q2)
                    for p1, q1 in coeffs for p2, q2 in coeffs]
        return out
    if isinstance(g, FractionRing):
        out = {Fraction(z, g.m ** j) for z in range(-h, h + 1)
               for j in range(h + 1)}
        return [rational(q) for q in sorted(out)]
    if isinstance(g, FullLine):
        return _line(h, sqrt_rational(2))
    if isinstance(g, Scaled):
        return [g.factor * s for s in _scalars_1d(g.inner, h)]
    raise UnsupportedError(f"no enumeration for {type(g).__name__}")


def _line(h: int, unit: ExactScalar) -> list[ExactScalar]:
    """R sampled as q and unit * q over the rationals q of height h."""
    rats = _fractions(h)
    return [rational(q) for q in rats] \
        + [unit * rational(q) for q in rats if q != 0]


def _factor_members(g: Product, h: int) -> list[list[Vector]]:
    """The members of each factor of g, enumerated once per distinct factor
    (equal factors share one list).  A real line is sampled by sqrt(2),
    but by t beside a factor in the formal tower, with which sqrt(2)
    shares no field."""
    members = {f: enumerate_members(f, h) for f in dict.fromkeys(g.factors)}
    if any(s.context.kind is ContextKind.FORMAL
           for column in members.values() for v in column for s in v):
        members = {f: [(s,) for s in _line(h, t_monomial(1))]
                   if isinstance(f, FullLine) else column
                   for f, column in members.items()}
    return [members[f] for f in g.factors]


def enumerate_members(g: GroupDescriptor, height: int) -> list[Vector]:
    """Deterministic, duplicate-free sample of members with coefficient
    height at most the bound."""
    h = _check_height(height)
    if isinstance(g, Product):
        columns = _factor_members(g, h)
        vecs = [tuple(s for part in combo for s in part)
                for combo in itertools.product(*columns)]
    elif isinstance(g, Image):
        vecs = [vec_mat_mul(v, g.matrix)
                for v in enumerate_members(g.inner, h)]
    elif isinstance(g, Scaled) and dimension(g) > 1:
        vecs = [tuple(g.factor * s for s in v)
                for v in enumerate_members(g.inner, h)]
    else:
        vecs = [(s,) for s in _scalars_1d(g, h)]
    unique = {tuple(s.sort_key() for s in v): v for v in vecs}
    return [unique[k] for k in sorted(unique)]


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------

def _ratios(numerators: list[ExactScalar], denominators: list[ExactScalar],
            h: int) -> dict:
    """The ratios x / y of height at most h, keyed by sort_key, over x in
    numerators and y in denominators that are units of the representation
    tower (nonzero, and a monomial in Q[t,1/t]).  They are formed on integer
    numerators, and a scalar is built only for a ratio inside the bound
    (scalars.products_within).  Both lists are members of groups, and so
    closed under negation; so are the ratios, and height does not depend on
    sign: only the x and y of positive lead (descriptors._lead) are used,
    and each ratio brings its negative."""
    numerators = [x for x in numerators if _lead(x) > 0]
    inverses = [y.invert() for y in denominators if y and _lead(y) > 0 and (
        y.context.kind is not ContextKind.FORMAL or len(y.nums) == 1)]
    found = {}
    for r in products_within(numerators, inverses, h):
        for s in (r, -r):
            found[s.sort_key()] = s
    return found


def candidate_scalars(g: GroupDescriptor, height: int) -> list[ExactScalar]:
    """Nonzero ratios of small members — every invariant scaling is one."""
    h = _check_height(height)
    if dimension(g) != 1:
        raise DomainError("scalar candidates are a one-dimensional notion")
    members = [v[0] for v in enumerate_members(g, h) if not v[0].is_zero()]
    found = _ratios(members, members, h)
    for s in (one(), rational(-1)):
        found.setdefault(s.sort_key(), s)
    return [found[k] for k in sorted(found)]


_MATRIX_HEIGHT_CAP = 3


def _signed(ids: dict, y: ExactScalar) -> tuple[ExactScalar, int, int]:
    """(y, the number of y up to sign in ``ids``, the sign of y's lead)."""
    lead = _lead(y) if y else 0
    return y, ids.setdefault(-y if lead < 0 else y, len(ids)), \
        (lead > 0) - (lead < 0)


def _matrix_classes(g: GroupDescriptor, h: int, checks: dict):
    """(key, is scalar, A) for each candidate of ``candidate_matrices``, in
    its order.  The key names A's class {D A D'} over sign diagonals D and
    D': A's entries up to sign (by their numbers in the run), and the
    product of their signs, which D A D' keeps when no entry is zero (and
    which is 0 when one is, as a zero entry lets every sign pattern
    through).  A is scalar when b = x = 0 and a = e.

    Each ordered pair (factor j, factor i) has one table per run: the
    sorted ratios of column j on row i and the survivors of the row filter.
    Equal factors (``Z x Z``) build one table for the four entries, and the
    forward pass, not the filter, asks a shared row's verdicts on first use.

    Singularity is decided once per class: with A, B, X, E the entries
    up to sign and s their signs, ae - bx = s_a s_e (AE - s_a s_b s_x s_e
    BX), and where an entry is zero, one of the two terms is zero."""
    if h > _MATRIX_HEIGHT_CAP:
        raise DomainError(
            f"matrix enumeration is capped at height {_MATRIX_HEIGHT_CAP}")
    if not isinstance(g, Product):
        raise UnsupportedError(
            "matrix candidates need an explicit product of factors")
    if len(g.factors) != 2:
        raise UnsupportedError("matrix enumeration is capped at two factors")

    factors = g.factors
    columns = {f: [v[0] for v in column]
               for f, column in zip(factors, _factor_members(g, h))}
    tables: dict = {}       # (factor j, factor i) -> the entries at (i, j)
    for fi in factors:
        for fj in factors:
            if (fj, fi) not in tables:
                found = _ratios(columns[fj], columns[fi], h)
                tables[fj, fi] = [found[k] for k in sorted(found)]

    # Each generator of a two-factor product lives on a single coordinate,
    # so each coordinate of its image reads one entry of one row: a row
    # passes exactly when each entry passes its column's block of the
    # certificate's check, asked here on the matrix with e everywhere.  Row
    # i's generators are factor i's own on coordinate i, so each pair is
    # filtered once.  The run's memo then answers each forward half.
    gens = run_generators(checks, g)
    ids: dict = {}          # each entry up to sign, numbered from 0
    for (fj, fi), entries in tables.items():
        i, j = factors.index(fi), factors.index(fj)
        on_row = tuple(gen for gen in gens if i in gen[2])
        tables[fj, fi] = [
            _signed(ids, e) for e in entries
            if failing_generator(checks, on_row, ((e, e), (e, e)), j) is None]
    # each row tuple is shared by the candidates that hold it
    rows = [[((a, b), ua, ub, sa, sb) for (a, ua, sa), (b, ub, sb)
             in itertools.product(*(tables[fj, fi] for fj in factors))]
            for fi in factors]
    if len(rows[0]) * len(rows[1]) > 400_000:
        raise DomainError(
            "matrix candidate set too large; lower the height bound")
    unsigned = list(ids)
    singular: dict = {}     # whether each class is singular
    for (r0, ua, ub, sa, sb), (r1, ux, ue, sx, se) \
            in itertools.product(rows[0], rows[1]):
        key = ua, ub, ux, ue, sa * sb * sx * se
        degenerate = singular.get(key)
        if degenerate is None:
            ae = _product(unsigned[ua], unsigned[ue])
            bx = _product(unsigned[ub], unsigned[ux])
            degenerate = singular[key] = ae == (-bx if key[4] < 0 else bx)
        if not degenerate:
            yield key, sb == sx == 0 and r0[0] == r1[1], ExactMatrix((r0, r1))


def candidate_matrices(g: GroupDescriptor, height: int,
                       _checks: Optional[dict] = None) -> list[ExactMatrix]:
    """Entrywise candidates for a two-factor product: entry (i, j) must be
    a ratio of a member of factor j by a nonzero member of factor i."""
    h = _check_height(height)
    checks = {} if _checks is None else _checks
    return [a for _, _, a in _matrix_classes(g, h, checks)]


# ---------------------------------------------------------------------------
# classification and cross-checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Refutation:
    candidate: Union[ExactScalar, ExactMatrix]
    witness: Vector
    direction: str


@dataclass(frozen=True)
class OracleReport:
    group: GroupDescriptor
    height: int
    candidates: int
    confirmed: tuple
    refuted: tuple[Refutation, ...]
    agreement: Optional[bool] = None


def _referee(g: GroupDescriptor, height: int) -> tuple[OracleReport, dict]:
    """The report of ``brute_force_aut``, and for each (sign class, is
    scalar) pair its first candidate and their verdict, in candidate order.
    A scalar's class is {c, -c}, keyed by c up to sign."""
    h = _check_height(height)
    n = dimension(g)
    checks: dict = {}       # the run's generator checks, each asked once
    if n == 1:
        classes = ((_sign_canonical(c), True, c)
                   for c in candidate_scalars(g, h))
    elif n == 2:
        classes = _matrix_classes(g, h, checks)
    else:
        raise UnsupportedError(
            "the brute-force referee handles one or two dimensions")
    confirmed = []
    refuted = []
    certs: dict = {}        # the certificate of each sign class so far
    firsts: dict = {}       # (key, is scalar) -> (first candidate, verdict)
    for key, scalar, c in classes:
        cert = certs.get(key)
        if cert is None:
            cert = certs[key] = acts_invariantly(g, c, checks)
        elif not cert.verdict:
            # the class's witness refutes c too, in the same direction
            cert = replayed(g, cert.failing_generator, c, cert.direction)
        if cert.verdict:
            confirmed.append(c)
        else:
            refuted.append(Refutation(c, cert.failing_generator,
                                      cert.direction))
        if (key, scalar) not in firsts:
            firsts[key, scalar] = c, cert.verdict
    report = OracleReport(g, h, len(confirmed) + len(refuted),
                          tuple(confirmed), tuple(refuted))
    return report, firsts


def brute_force_aut(g: GroupDescriptor, height: int = 3) -> OracleReport:
    """Classify every bounded-height candidate by certificate alone."""
    return _referee(g, height)[0]


def cross_check(g: GroupDescriptor, height: int = 3) -> OracleReport:
    """Brute-force report with the agreement flag filled in: every
    candidate verdict must fit the closed form or bounds (``admits``).

    ``admits`` is asked once per sign class and is-scalar flag, on the
    pair's first candidate.  That is exact, as ``contains`` is constant on
    each pair.  Every
    matrix-kind descriptor (GLQ, GLR, BlockTriangular, PatternQuad, EZ)
    is invariant under A -> D A D': sign changes keep rationality,
    integrality, zero entries, the rational pattern and det A up to sign.
    Every scalar-kind descriptor (PM1, Qx, FieldUnits, PMPowers,
    RatTimesPMPowers) is a group that holds -1 and no non-scalar matrix,
    so it holds c I exactly when it holds -c I, and rejects the rest of
    the class.  The class's members share one verdict (see the module
    docstring), so each pair's verdict stands for all its candidates."""
    report, firsts = _referee(g, height)
    result = aut_group(g)
    try:
        for c, verdict in firsts.values():
            admits(result, c, verdict)
    except ConsistencyError:
        return replace(report, agreement=False)
    return replace(report, agreement=True)


def report_to_json(report: OracleReport) -> dict:
    from .dsl import group_to_text, matrix_to_json, scalar_to_text

    def encode(c):
        if isinstance(c, ExactMatrix):
            return matrix_to_json(c)
        return scalar_to_text(c)

    return {
        "group": group_to_text(report.group),
        "height": report.height,
        "candidates": report.candidates,
        "confirmed": [encode(c) for c in report.confirmed],
        "refuted": [{"candidate": encode(r.candidate),
                     "witness": [scalar_to_text(s) for s in r.witness],
                     "direction": r.direction}
                    for r in report.refuted],
        "agreement": report.agreement,
    }


# ---------------------------------------------------------------------------
# the permutation action on finite-support sequences
# ---------------------------------------------------------------------------

# The demos hold all k! permutations, and a sequence padded up to its
# largest cycle entry, in memory.
PERM_DEMO_MAX_K = 8
PERM_MAX_ENTRY = 4095


def _mapping_from_cycles(cycles: Sequence[Sequence[int]]) -> dict[int, int]:
    mapping: dict[int, int] = {}
    seen: set[int] = set()
    for cycle in cycles:
        if len(cycle) == 0:
            raise DomainError("empty cycle")
        for k in cycle:
            if not isinstance(k, int) or k < 0:
                raise DomainError(f"cycle entries must be naturals, got {k!r}")
            if k > PERM_MAX_ENTRY:
                raise BudgetExceededError(
                    f"cycle entry {k} is above the cap {PERM_MAX_ENTRY}")
            if k in seen:
                raise DomainError(f"cycles are not disjoint at {k}")
            seen.add(k)
        for pos, k in enumerate(cycle):
            mapping[k] = cycle[(pos + 1) % len(cycle)]
    return mapping


def finite_permutation_action(cycles: Sequence[Sequence[int]],
                              seq: Sequence) -> tuple[Fraction, ...]:
    """Permute the coordinates of a finite-support rational sequence:
    result_n = seq_{perm(n)}."""
    mapping = _mapping_from_cycles(cycles)
    values = [Fraction(x) for x in seq]
    size = max([len(values)] + [k + 1 for k in mapping])
    values.extend([Fraction(0)] * (size - len(values)))
    return tuple(values[mapping.get(i, i)] for i in range(size))


def _apply_mapping(perm: Sequence[int], seq: Sequence[Fraction]
                   ) -> tuple[Fraction, ...]:
    return tuple(seq[perm[i]] if perm[i] < len(seq) else Fraction(0)
                 for i in range(len(perm)))


def injectivity_demo(k: int) -> bool:
    """All k! coordinate permutations act distinctly on the probe
    (1, 2, ..., k, 0, 0, ...)."""
    if k < 1:
        raise DomainError("need at least one coordinate")
    if k > PERM_DEMO_MAX_K:
        raise BudgetExceededError(
            f"the demo holds all k! permutations; k = {k} is above the cap "
            f"{PERM_DEMO_MAX_K}")
    probe = tuple(Fraction(i + 1) for i in range(k))
    images = {_apply_mapping(perm, probe)
              for perm in itertools.permutations(range(k))}
    import math
    return len(images) == math.factorial(k)
