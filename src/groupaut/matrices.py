"""Exact square-matrix arithmetic over the scalar tower.

Row-vector convention throughout: vectors act on the left, ``v . A``, and
the (i, j) entry is row i, column j.

Determinants and inverses stay inside the ring generated by the entries
and 1/det, which is what lets Laurent-entry matrices invert exactly when
their determinant is a monomial.  Up to 2 x 2 they use the closed forms
(ad - bc and the adjugate).  From 3 x 3 on the determinant and the
adjugate are each one Bareiss fraction-free elimination (Bareiss 1968,
Math. Comp. 22), ``linalg.fraction_free``: every intermediate entry is a
minor of the input, and each division by the previous pivot is exact in
the ring (``exact_div`` for Laurent polynomials), so the work is cubic in
n instead of exponential, and the inverse is adj A times 1/det A.  A
rational determinant is eliminated on plain ints, its rows scaled by the
lcms of their denominators; any other on its scalars.  The 2 x 2 closed forms
take their products and reciprocals from per-request memos (bounded
``lru_cache``s), as one request's candidates share their entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm, prod
from typing import Iterable, Sequence, Union

from .errors import ConsistencyError, DomainError, SingularMatrixError
from .linalg import fraction_free
from .scalars import (
    ExactScalar,
    Rationalish,
    as_scalar,
    exact_div,
    one,
    rational,
    sqrt_rational,
    zero,
)

Vector = tuple[ExactScalar, ...]

_ONE = one()


def vector(items: Iterable) -> Vector:
    return tuple(as_scalar(x) for x in items)


def frozen_dataclass(cls):
    """A frozen dataclass that computes its hash once, as ExactScalar does."""
    cls = dataclass(frozen=True)(cls)
    computed, cls._hash = cls.__hash__, None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = computed(self)
        return h
    cls.__hash__ = __hash__
    return cls


@frozen_dataclass
class ExactMatrix:
    rows: tuple[tuple[ExactScalar, ...], ...]

    def __post_init__(self):
        # on lengths alone, the plane's 2 x 2 first
        rows = self.rows
        n = len(rows)
        if n == 2:
            square = len(rows[0]) == len(rows[1]) == 2
        else:
            square = n > 0 and all([len(r) == n for r in rows])
        if not square:
            raise DomainError("matrix must be square and non-empty")

    @property
    def n(self) -> int:
        return len(self.rows)

    def transpose(self) -> "ExactMatrix":
        n = self.n
        return ExactMatrix(tuple(tuple(self.rows[j][i] for j in range(n))
                                 for i in range(n)))

    def det(self) -> ExactScalar:
        rows = self.rows
        if len(rows) == 1:
            return rows[0][0]
        if len(rows) == 2:
            (a, b), (c, e) = rows
            return _product(a, e) - _product(b, c)
        if self.is_rational():
            # an integer determinant, over the product of the row scalings
            dens, m = _cleared(rows)
            sign, cols, _, p = fraction_free(m, jordan=False, square=True)
            p = rational(Fraction(p, prod(dens)))
        else:
            sign, cols, _, p = fraction_free([list(row) for row in rows],
                                             jordan=False, div=_divide,
                                             square=True)
        if len(cols) < len(rows):
            return zero()
        return p if sign > 0 else -p

    def is_singular(self) -> bool:
        """det A = 0; up to 2 x 2 without forming det A, as ad = bc on the
        memoized entry products (equal values are equal scalars)."""
        rows = self.rows
        if len(rows) == 1:
            return rows[0][0].is_zero()
        if len(rows) == 2:
            (a, b), (c, e) = rows
            return _product(a, e) == _product(b, c)
        return self.det().is_zero()

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def inverse(self) -> "ExactMatrix":
        """A^-1: SingularMatrixError when det A = 0, DomainError when A^-1
        is not in the tower."""
        n = self.n
        if n > 2:
            b, p = self.adjugate()
            pinv = p.invert()   # DomainError for a non-monomial Laurent p
            return ExactMatrix(tuple(tuple(x * pinv for x in row)
                                     for row in b.rows))
        d = self.det()
        if d.is_zero():
            raise SingularMatrixError("matrix has determinant 0")
        if n == 1:   # DomainError for non-monomial Laurent determinants
            return ExactMatrix(((d.invert(),),))
        (a, b), (c, e) = self.rows
        dinv, neg = _reciprocals(d)
        return ExactMatrix(((_product(e, dinv), _product(b, neg)),
                            (_product(c, neg), _product(a, dinv))))

    def adjugate(self) -> tuple["ExactMatrix", ExactScalar]:
        """(B, p) with A^-1 = B / p: adj A and det A, up to one common
        sign.  Both lie in the tower even where A^-1 does not, as when
        det A is a Laurent polynomial but not a monomial."""
        n, rows = self.n, self.rows
        if n > 2:
            _, cols, m, p = fraction_free(_augmented(rows), jordan=True,
                                          square=True, div=_divide)
            if len(cols) < n:
                raise SingularMatrixError("matrix has determinant 0")
            return ExactMatrix(tuple(tuple(row[n:]) for row in m)), p
        p = self.det()
        if p.is_zero():
            raise SingularMatrixError("matrix has determinant 0")
        if n == 1:
            return ExactMatrix(((_ONE,),)), p
        (a, b), (c, e) = rows
        return ExactMatrix(((e, -b), (-c, a))), p

    def is_rational(self) -> bool:
        return all(x.is_rational() for row in self.rows for x in row)

    def is_integer(self) -> bool:
        return all(x.is_integer() for row in self.rows for x in row)

    def __repr__(self) -> str:
        from .dsl import matrix_to_text
        return f"ExactMatrix({matrix_to_text(self)})"


def matrix(rows: Sequence[Sequence[Union[Rationalish, ExactScalar]]]) -> ExactMatrix:
    return ExactMatrix(tuple(tuple(as_scalar(x) for x in row) for row in rows))


def identity(n: int) -> ExactMatrix:
    return matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def scalar_matrix(s, n: int) -> ExactMatrix:
    s = as_scalar(s)
    return ExactMatrix(tuple(tuple(s if i == j else zero() for j in range(n))
                             for i in range(n)))


def shear(n: int, i: int, j: int, lam) -> ExactMatrix:
    """Identity plus lam in position (i, j); lands in SL(n) whenever i != j."""
    if i == j:
        raise DomainError("shear positions must be off-diagonal")
    rows = [[one() if a == b else zero() for b in range(n)] for a in range(n)]
    rows[i][j] = as_scalar(lam)
    return ExactMatrix(tuple(tuple(r) for r in rows))


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.n != b.n:
        raise DomainError(f"dimension mismatch {a.n} vs {b.n}")
    return ExactMatrix(tuple(vec_mat_mul(row, b) for row in a.rows))


def vec_mat_mul(v: Vector, a: ExactMatrix) -> Vector:
    if len(v) != a.n:
        raise DomainError(f"vector length {len(v)} vs matrix size {a.n}")
    return combine_rows(v, a.rows)


def combine_rows(v: Vector, rows) -> Vector:
    """v * A from the rows of A; the rows at zero coordinates may be None."""
    rows = [row if x == _ONE else tuple(x * y for y in row)
            for x, row in zip(map(as_scalar, v), rows) if not x.is_zero()]
    if not rows:
        return (zero(),) * len(v)
    return reduce(lambda out, row: tuple(map(ExactScalar.__add__, out, row)),
                  rows)


@lru_cache(maxsize=4096)
def _product(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    return x * y


@lru_cache(maxsize=4096)
def _reciprocals(d: ExactScalar) -> tuple[ExactScalar, ExactScalar]:
    """1/d and -1/d; DomainError when d has no inverse in the tower."""
    dinv = d.invert()
    return dinv, -dinv


def _augmented(rows) -> list[list]:
    """[A | I] as lists, for a Gauss-Jordan inverse."""
    n = len(rows)
    return [list(row) + [_ONE if i == j else zero() for j in range(n)]
            for i, row in enumerate(rows)]


def _cleared(rows) -> tuple[list[int], list[list[int]]]:
    """The lcm of each rational row's denominators, and the row times it."""
    dens = [lcm(*(x.den for x in row)) for row in rows]
    return dens, [[x.nums[0] * (d // x.den) for x in row]
                  for d, row in zip(dens, rows)]


def _divide(x: ExactScalar, d: ExactScalar) -> ExactScalar:
    """x / d for a pivot d that divides x in the ring of the entries."""
    q = exact_div(x, d)
    if q is None:
        raise ConsistencyError(f"Bareiss step: {d} does not divide {x}")
    return q


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixClass:
    in_GL: bool
    in_GLQ: bool
    in_GLZ: bool
    in_EZ: bool
    in_SL: bool
    in_SLpm: bool
    in_SO2: bool


def classify(a: ExactMatrix) -> MatrixClass:
    d = a.det()
    invertible = not d.is_zero()
    rational_entries = a.is_rational()
    integer_entries = a.is_integer()
    det_is_one = d == one()
    det_unit = d == one() or d == rational(-1)
    so2 = False
    if a.n == 2 and det_is_one:
        so2 = mat_mul(a.transpose(), a) == identity(2)
    return MatrixClass(
        in_GL=invertible,
        in_GLQ=rational_entries and invertible,
        in_GLZ=integer_entries and invertible,
        in_EZ=integer_entries and det_unit,
        in_SL=det_is_one,
        in_SLpm=det_unit,
        in_SO2=so2,
    )


def block_triangular_member(p: int, q: int, m: ExactMatrix) -> bool:
    """Membership in the block group: top-left p x p rational invertible,
    bottom-left q x p zero, bottom-right q x q invertible; top-right free."""
    if p < 1 or q < 1 or m.n != p + q:
        raise DomainError(f"block dimensions ({p},{q}) do not match size {m.n}")
    top_left = ExactMatrix(tuple(tuple(m.rows[i][j] for j in range(p))
                                 for i in range(p)))
    if not top_left.is_rational() or top_left.is_singular():
        return False
    for i in range(p, p + q):
        for j in range(p):
            if not m.rows[i][j].is_zero():
                return False
    bottom_right = ExactMatrix(tuple(tuple(m.rows[i][j] for j in range(p, p + q))
                                     for i in range(p, p + q)))
    return not bottom_right.is_singular()


def pattern_quad_member(x: ExactScalar, m: ExactMatrix) -> bool:
    """Membership in { [[a, b*x], [c*x, d]] : a,b,c,d rational, det != 0 },
    multiplying b*x and c*x by the memoized 1/x (False when x has none)."""
    if m.n != 2:
        raise DomainError("pattern membership is a 2x2 notion")
    x = as_scalar(x)
    if x.is_zero():
        raise DomainError("pattern scalar must be nonzero")
    if not (m.rows[0][0].is_rational() and m.rows[1][1].is_rational()):
        return False
    try:
        xinv = _reciprocals(x)[0]
    except DomainError:
        return False
    for off in (m.rows[0][1], m.rows[1][0]):
        if not _product(off, xinv).is_rational():
            return False
    return not m.is_singular()


# ---------------------------------------------------------------------------
# circle witness
# ---------------------------------------------------------------------------

def circle_sum_witness(r2: Rationalish, target: Sequence[Rationalish]
                       ) -> tuple[Vector, Vector]:
    """Two exact points of the circle |c|^2 = r2 summing to an axis target.

    The target must sit on a coordinate axis with |s| <= 2*sqrt(r2),
    checked as s^2 <= 4*r2.  Splitting symmetrically about the axis keeps
    the half-chord h = sqrt(r2 - s^2/4) exactly representable.
    """
    r2 = Fraction(r2)
    if r2 <= 0:
        raise DomainError(f"squared radius must be positive, got {r2}")
    if len(target) != 2:
        raise DomainError(f"target must have two coordinates, got {len(target)}")
    tx, ty = (Fraction(c) for c in target)
    if tx != 0 and ty != 0:
        raise DomainError(f"target {target} is not on a coordinate axis")
    s = tx if ty == 0 else ty
    if s * s > 4 * r2:
        raise DomainError(f"target {target} lies outside the reachable disc")
    if s == 0:
        r = sqrt_rational(r2)
        return (r, zero()), (-r, zero())
    h = sqrt_rational(r2 - s * s / 4)
    half = rational(s / 2)
    if ty == 0:
        return (half, h), (half, -h)
    return (h, half), (-h, half)
