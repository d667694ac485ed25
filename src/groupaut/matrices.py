"""Exact square-matrix arithmetic over the scalar tower.

Row-vector convention throughout: vectors act on the left, ``v . A``, and
the (i, j) entry is row i, column j.

Determinants and inverses stay inside the ring generated by the entries
and 1/det, which is what lets Laurent-entry matrices invert exactly when
their determinant is a monomial.  Up to 2 x 2 they use the closed forms
(ad - bc and the adjugate).  From 3 x 3 on one Bareiss fraction-free
elimination (Bareiss 1968, Math. Comp. 22) serves both: every intermediate
entry is a minor of the input, and each division by the previous pivot is
exact in the ring (``exact_div`` for Laurent polynomials), so the work is
cubic in n instead of exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import ConsistencyError, DomainError, SingularMatrixError
from .scalars import (
    ExactScalar,
    FieldContext,
    RAT_CONTEXT,
    Rationalish,
    as_scalar,
    exact_div,
    join_context,
    one,
    ratio,
    rational,
    sqrt_rational,
    zero,
)

Vector = tuple[ExactScalar, ...]

_ONE = one()


def vector(items: Iterable) -> Vector:
    return tuple(as_scalar(x) for x in items)


@dataclass(frozen=True)
class ExactMatrix:
    rows: tuple[tuple[ExactScalar, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise DomainError("matrix must be square and non-empty")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> ExactScalar:
        return self.rows[i][j]

    def context(self) -> FieldContext:
        """Join of all entry contexts (raises ContextError when incompatible)."""
        ctx = RAT_CONTEXT
        for row in self.rows:
            for x in row:
                ctx = join_context(ctx, x.context)
        return ctx

    def transpose(self) -> "ExactMatrix":
        n = self.n
        return ExactMatrix(tuple(tuple(self.rows[j][i] for j in range(n))
                                 for i in range(n)))

    def det(self) -> ExactScalar:
        return _det(self)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def inverse(self) -> "ExactMatrix":
        n = self.n
        if n > 2:
            m = [list(row) + [one() if i == j else zero() for j in range(n)]
                 for i, row in enumerate(self.rows)]
            _, pivot = _bareiss(m, jordan=True)
            if pivot.is_zero():
                raise SingularMatrixError("matrix has determinant 0")
            # the left block of m is now pivot * I, so the right block is
            # pivot * A^-1; the pivot is +-det
            pinv = pivot.invert()   # DomainError for non-monomial Laurent determinants
            return ExactMatrix(tuple(tuple(x * pinv for x in row[n:]) for row in m))
        d = self.det()
        if d.is_zero():
            raise SingularMatrixError("matrix has determinant 0")
        dinv = d.invert()   # DomainError for non-monomial Laurent determinants
        if n == 1:
            return ExactMatrix(((dinv,),))
        (a, b), (c, e) = self.rows
        return ExactMatrix(((e * dinv, -b * dinv), (-c * dinv, a * dinv)))

    def is_rational(self) -> bool:
        return all(x.is_rational() for row in self.rows for x in row)

    def is_integer(self) -> bool:
        return all(x.is_integer() for row in self.rows for x in row)

    def sort_key(self) -> tuple:
        return tuple(x.sort_key() for row in self.rows for x in row)

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
    # a zero coordinate contributes nothing and a coordinate 1 its row as it
    # stands, so only the other coordinates are multiplied
    rows = []
    for x, row in zip(map(as_scalar, v), a.rows):
        if not x.is_zero():
            rows.append(row if x == _ONE else tuple(x * y for y in row))
    if not rows:
        return (zero(),) * a.n
    out = rows[0]
    for row in rows[1:]:
        out = tuple(p + q for p, q in zip(out, row))
    return out


@lru_cache(maxsize=4096)
def _det(a: ExactMatrix) -> ExactScalar:
    rows = a.rows
    if a.n == 1:
        return rows[0][0]
    if a.n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    sign, pivot = _bareiss([list(row) for row in rows], jordan=False)
    return pivot if sign > 0 else -pivot


def _divide(x: ExactScalar, d: ExactScalar) -> ExactScalar:
    """x / d for a pivot d that divides x in the ring of the entries."""
    q = exact_div(x, d)
    if q is None:
        raise ConsistencyError(f"Bareiss step: {d} does not divide {x}")
    return q


def _bareiss(m: list[list[ExactScalar]], jordan: bool
             ) -> tuple[int, ExactScalar]:
    """Fraction-free elimination of the square block at the left of ``m``,
    in place.  Returns (sign, p) for the last pivot p: the block's
    determinant is sign * p, and p is zero when the block is singular.

    Step k takes the first row with a nonzero entry in column k as the pivot
    row (a swap flips the sign) and replaces every row i below it, and above
    it too when ``jordan``, by (p * row_i - row_i[k] * pivot_row) / p',
    where p is this pivot and p' the previous one.  Each entry is then a
    (k+1)-minor of the input, so the division is exact.  With ``jordan`` the
    block ends as p * I for the last pivot p, and the columns to its right
    end multiplied by p times the inverse of the block.
    """
    n = len(m)
    width = len(m[0])
    sign = 1
    prev = one()
    for k in range(n):
        piv = next((i for i in range(k, n) if not m[i][k].is_zero()), None)
        if piv is None:
            return sign, zero()
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for i in range(0 if jordan else k + 1, n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            for j in range(k + 1, width):
                row[j] = _divide(p * row[j] - f * top[j], prev)
        prev = p
    return sign, prev


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
    if not top_left.is_rational() or top_left.det().is_zero():
        return False
    for i in range(p, p + q):
        for j in range(p):
            if not m.rows[i][j].is_zero():
                return False
    bottom_right = ExactMatrix(tuple(tuple(m.rows[i][j] for j in range(p, p + q))
                                     for i in range(p, p + q)))
    return not bottom_right.det().is_zero()


def pattern_quad_member(x: ExactScalar, m: ExactMatrix) -> bool:
    """Membership in { [[a, b*x], [c*x, d]] : a,b,c,d rational, det != 0 }."""
    if m.n != 2:
        raise DomainError("pattern membership is a 2x2 notion")
    x = as_scalar(x)
    if x.is_zero():
        raise DomainError("pattern scalar must be nonzero")
    if not (m.rows[0][0].is_rational() and m.rows[1][1].is_rational()):
        return False
    for off in (m.rows[0][1], m.rows[1][0]):
        r = ratio(off, x)
        if r is None or not r.is_rational():
            return False
    return not m.det().is_zero()


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
