"""Brute-force referee for the closed-form invariance rules.

Everything here works from first principles: enumerate group members up to
a height bound, form the candidate ratios a scaling would have to be (any
invariant scalar is a ratio of nonzero members), and classify each
candidate with the generator certificates.  The closed-form table is never
consulted while classifying — only afterwards, when ``cross_check``
compares the two answers.

The same module hosts the finite-support permutation demo: coordinate
permutations act on the group of finitely supported rational sequences,
and distinct permutations act distinctly.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .autgroup import Exact, acts_invariantly, aut_group, contains
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
    dimension,
    holds,
    invariance_generators,
)
from .errors import DomainError, UnsupportedError
from .matrices import ExactMatrix, Vector, matrix, vec_mat_mul
from .scalars import (
    ExactScalar,
    one,
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


# max |numerator|, denominator and |exponent| over the coordinates
scalar_height = ExactScalar.height.fget


def _scalars_1d(g: GroupDescriptor, h: int) -> list[ExactScalar]:
    if isinstance(g, Cyclic):
        return [g.generator * rational(k) for k in range(-h, h + 1)]
    if isinstance(g, MixedModule):
        choices = []
        for domain, gen in g.terms:
            coeffs = [Fraction(k) for k in range(-h, h + 1)] \
                if domain is Domain.INT else _fractions(h)
            choices.append([gen * rational(c) for c in coeffs])
        out = []
        for combo in itertools.product(*choices):
            total = zero()
            for part in combo:
                total = total + part
            out.append(total)
        return out
    if isinstance(g, LaurentRing):
        coeffs = [Fraction(k) for k in range(-h, h + 1) if k != 0] \
            if g.coeffs is Domain.INT else [q for q in _fractions(h) if q != 0]
        exps = range(-h, h + 1)
        out = [zero()]
        for k in exps:
            for c in coeffs:
                out.append(t_monomial(k) * rational(c))
        for k1, k2 in itertools.combinations(exps, 2):
            for c1 in coeffs:
                for c2 in coeffs:
                    out.append(t_monomial(k1) * rational(c1)
                               + t_monomial(k2) * rational(c2))
        return out
    if isinstance(g, FractionRing):
        out = {Fraction(z, g.m ** j) for z in range(-h, h + 1)
               for j in range(h + 1)}
        return [rational(q) for q in sorted(out)]
    if isinstance(g, FullLine):
        rats = _fractions(h)
        return [rational(q) for q in rats] \
            + [sqrt_rational(2) * rational(q) for q in rats if q != 0]
    if isinstance(g, Scaled):
        return [g.factor * s for s in _scalars_1d(g.inner, h)]
    raise UnsupportedError(f"no enumeration for {type(g).__name__}")


def enumerate_members(g: GroupDescriptor, height: int) -> list[Vector]:
    """Deterministic, duplicate-free sample of members with coefficient
    height at most the bound."""
    h = _check_height(height)
    if isinstance(g, Product):
        columns = [enumerate_members(f, h) for f in g.factors]
        vecs = [tuple(s for part in combo for s in part)
                for combo in itertools.product(*columns)]
    elif isinstance(g, FullSpace):
        line = enumerate_members(FullLine(), h)
        vecs = [tuple(s for part in combo for s in part)
                for combo in itertools.product(*([line] * g.n))]
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

def candidate_scalars(g: GroupDescriptor, height: int) -> list[ExactScalar]:
    """Nonzero ratios of small members — every invariant scaling is one."""
    h = _check_height(height)
    if dimension(g) != 1:
        raise DomainError("scalar candidates are a one-dimensional notion")
    members = [v[0] for v in enumerate_members(g, h) if not v[0].is_zero()]
    found = {}
    for y in members:
        try:
            inv = y.invert()
        except DomainError:
            continue        # not a unit of the representation tower
        for x in members:
            r = x * inv
            if scalar_height(r) > h:
                continue
            found.setdefault(r.sort_key(), r)
    for s in (one(), rational(-1)):
        found.setdefault(s.sort_key(), s)
    return [found[k] for k in sorted(found)]


_MATRIX_HEIGHT_CAP = 3


def candidate_matrices(g: GroupDescriptor, height: int,
                       allow_large: bool = False) -> list[ExactMatrix]:
    """Entrywise candidates for a two-factor product: entry (i, j) must be
    a ratio of a member of factor j by a nonzero member of factor i."""
    h = _check_height(height)
    if h > _MATRIX_HEIGHT_CAP and not allow_large:
        raise DomainError(
            f"matrix enumeration above height {_MATRIX_HEIGHT_CAP} must be "
            f"requested explicitly")
    if isinstance(g, FullSpace):
        factors: Sequence[GroupDescriptor] = (FullLine(),) * g.n
    elif isinstance(g, Product):
        factors = g.factors
    else:
        raise UnsupportedError(
            "matrix candidates need an explicit product of factors")
    if len(factors) != 2:
        raise UnsupportedError("matrix enumeration is capped at two factors")

    columns = [[v[0] for v in enumerate_members(f, h)] for f in factors]
    entries: list[list[ExactScalar]] = [[], [], [], []]
    for i in range(2):
        for j in range(2):
            found = {}
            for x in columns[i]:
                if x.is_zero():
                    continue
                try:
                    inv = x.invert()
                except DomainError:
                    continue
                for y in columns[j]:
                    r = y * inv
                    if scalar_height(r) > h:
                        continue
                    found.setdefault(r.sort_key(), r)
            entries[2 * i + j] = [found[k] for k in sorted(found)]

    # Each generator of a two-factor product lives on a single coordinate,
    # so the forward half of its certificate constrains one row of the
    # matrix at a time.  Filtering rows first keeps the product of entry
    # sets from exploding; assembled matrices still get the full
    # certificate later.
    gens = invariance_generators(g)
    rows: list[list[tuple[ExactScalar, ExactScalar]]] = [[], []]
    for i in range(2):
        for c0, c1 in itertools.product(entries[2 * i], entries[2 * i + 1]):
            ok = True
            for kind, vec in gens:
                if vec[i].is_zero():
                    continue
                if not holds(kind, g, (vec[i] * c0, vec[i] * c1)):
                    ok = False
                    break
            if ok:
                rows[i].append((c0, c1))
    if len(rows[0]) * len(rows[1]) > 400_000 and not allow_large:
        raise DomainError(
            "matrix candidate set too large; lower the height bound")
    out = []
    for r0, r1 in itertools.product(rows[0], rows[1]):
        m = matrix([r0, r1])
        if not m.det().is_zero():
            out.append(m)
    return out


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


def brute_force_aut(g: GroupDescriptor, height: int = 3,
                    allow_large: bool = False) -> OracleReport:
    """Classify every bounded-height candidate by certificate alone."""
    h = _check_height(height)
    n = dimension(g)
    if n == 1:
        candidates: list = candidate_scalars(g, h)
    elif n == 2:
        candidates = candidate_matrices(g, h, allow_large=allow_large)
    else:
        raise UnsupportedError(
            "the brute-force referee handles one or two dimensions")
    confirmed = []
    refuted = []
    for c in candidates:
        cert = acts_invariantly(g, c)
        if cert.verdict:
            confirmed.append(c)
        else:
            refuted.append(Refutation(c, cert.failing_generator,
                                      cert.direction))
    return OracleReport(g, h, len(candidates), tuple(confirmed),
                        tuple(refuted))


def cross_check(g: GroupDescriptor, height: int = 3,
                allow_large: bool = False) -> OracleReport:
    """Brute-force report with the agreement flag filled in.

    Exact closed forms must match the certificate verdict on every
    candidate; Bounds are checked one-sided (anything a lower bound claims
    must be confirmed, anything confirmed must satisfy every upper bound).
    """
    report = brute_force_aut(g, height, allow_large=allow_large)
    result = aut_group(g)
    confirmed_keys = {_key(c) for c in report.confirmed}
    agreement = True
    if isinstance(result, Exact):
        for c in list(report.confirmed) + [r.candidate for r in report.refuted]:
            if contains(result.descriptor, c) != (_key(c) in confirmed_keys):
                agreement = False
                break
    else:
        for c in [r.candidate for r in report.refuted]:
            if any(contains(d, c) for d in result.lower):
                agreement = False
                break
        for c in report.confirmed:
            if not all(contains(d, c) for d in result.upper):
                agreement = False
                break
    return OracleReport(report.group, report.height, report.candidates,
                        report.confirmed, report.refuted, agreement)


def _key(c):
    return c if isinstance(c, ExactMatrix) else c.sort_key()


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

def _mapping_from_cycles(cycles: Sequence[Sequence[int]]) -> dict[int, int]:
    mapping: dict[int, int] = {}
    seen: set[int] = set()
    for cycle in cycles:
        if len(cycle) == 0:
            raise DomainError("empty cycle")
        for k in cycle:
            if not isinstance(k, int) or k < 0:
                raise DomainError(f"cycle entries must be naturals, got {k!r}")
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
    probe = tuple(Fraction(i + 1) for i in range(k))
    images = {_apply_mapping(perm, probe)
              for perm in itertools.permutations(range(k))}
    import math
    return len(images) == math.factorial(k)
