"""Rational determinants and inverses on integers, and ``image`` checking
A by the determinant.

From 3 x 3 on, a rational determinant or inverse is one fraction-free
elimination of the integer matrix left when each row's denominators are
cleared.  The references are sympy's determinant and ``_bareiss`` below, a
verbatim copy of the elimination over the scalars that every determinant
and inverse from 3 x 3 on once took.  The draws hold fractional entries,
singular matrices and zero leading pivots that force row swaps.

``image`` checks a rational A by that determinant alone; a matrix that is
not rational still has to invert inside the tower.  The error cases keep
their exit code and message.
"""

import random
from fractions import Fraction

import pytest

from groupaut import matrices
from groupaut.cli import main
from groupaut.descriptors import image
from groupaut.dsl import parse_descriptor, parse_scalar
from groupaut.errors import (
    ConsistencyError,
    ContextError,
    DescriptorError,
    DomainError,
    SingularMatrixError,
)
from groupaut.matrices import ExactMatrix, matrix
from groupaut.scalars import (
    ExactScalar,
    exact_div,
    one,
    rational,
    sqrt_rational,
    t_monomial,
    zero,
)


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


def _bareiss_det(a):
    sign, pivot = _bareiss([list(r) for r in a.rows], jordan=False)
    return pivot if sign > 0 else -pivot


def _bareiss_inverse(a):
    """A^-1 as the right block of [A | I] after the Jordan elimination,
    or None for a singular A."""
    n = a.n
    m = [list(row) + [one() if i == j else zero() for j in range(n)]
         for i, row in enumerate(a.rows)]
    _, pivot = _bareiss(m, jordan=True)
    if pivot.is_zero():
        return None
    pinv = pivot.invert()
    return ExactMatrix(tuple(tuple(x * pinv for x in row[n:]) for row in m))


def _entry(rng):
    if rng.random() < 0.3:
        return 0
    if rng.random() < 0.5:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def _rational_matrix(rng, n, kind):
    rows = [[_entry(rng) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        # one row a rational combination of two others
        i, j, k = rng.sample(range(n), 3)
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    elif kind == "swap":
        # a zero leading column above the first nonzero entry, and a zero
        # entry where the second pivot would sit
        for r in rows[:rng.randint(1, n - 1)]:
            r[0] = 0
        rows[-1][0] = rng.choice((1, -2, Fraction(3, 4)))
        rows[1][1] = 0
    return matrix(rows)


KINDS = ("random", "singular", "swap")


def _draws():
    rng = random.Random(20261018)
    for n in range(3, 8):
        for kind in KINDS:
            for _ in range(8):
                yield n, kind, _rational_matrix(rng, n, kind)


def test_rational_det_matches_bareiss_over_scalars():
    seen = {kind: 0 for kind in KINDS}
    for n, kind, a in _draws():
        want = _bareiss_det(a)
        assert a.det() == want, (kind, a)
        if kind == "singular":
            assert want.is_zero()
        seen[kind] += not want.is_zero() or kind == "singular"
        inverse = _bareiss_inverse(a)
        if inverse is None:
            with pytest.raises(SingularMatrixError, match="matrix has determinant 0"):
                a.inverse()
        else:
            assert a.inverse() == inverse, (kind, a)
    assert min(seen.values()) >= 20, seen


def test_rational_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n, kind, a in _draws():
        sm = sympy.Matrix([[sympy.Rational(x.nums[0], x.den) for x in row]
                           for row in a.rows])
        want = Fraction(int(sympy.numer(sm.det())), int(sympy.denom(sm.det())))
        assert a.det() == rational(want), (kind, a)


def test_rational_det_edge_cases():
    # a zero column, a zero row, two permutations and a triangular matrix
    assert matrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]]).det() == zero()
    assert matrix([[1, 2, 3], [0, 0, 0], [4, 5, 7]]).det() == zero()
    assert matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == rational(1)
    assert matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]).det() == rational(-1)
    half = Fraction(1, 2)
    assert matrix([[half, 0, 0], [0, Fraction(2, 3), 0],
                   [7, 1, -3]]).det() == rational(-1)


def test_image_of_a_rational_matrix_never_inverts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the determinant should decide invertibility")

    eliminations, fraction_free = [], matrices.fraction_free

    def counted(rows, jordan, div=None, **kwargs):
        # the integer division: the determinant runs on ints
        assert div is None
        eliminations.append(len(rows))
        return fraction_free(rows, jordan, **kwargs)

    monkeypatch.setattr(ExactMatrix, "inverse", refuse)
    monkeypatch.setattr(matrices, "fraction_free", counted)
    q5 = parse_descriptor(" x ".join(["Q"] * 5))
    a = matrix([[2, 1, 0, 0, 3], [1, 1, 0, 0, 0], [0, 0, 1, 2, 0],
                [0, 0, 0, 1, 5], [Fraction(1, 2), 0, 0, 0, 1]])
    assert image(q5, a).matrix == a
    singular = matrix([[1, 2, 0, 0, 0], [2, 4, 0, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    with pytest.raises(DescriptorError, match="matrix has determinant 0"):
        image(q5, singular)
    assert eliminations == [5, 5]


IMAGE_ERRORS = [
    # det 1, but the inverse needs t*sqrt(2), which no context holds
    ("image(Q x Q*sqrt(2) x R, [1,t,0;0,1,sqrt(2);0,0,1])",
     "error: image matrix must be invertible: "
     "cannot join Q[t,1/t] with Q(sqrt2)\n"),
    ("image(Q x Q x Q, [1,2,3;4,5,6;7,8,9])",
     "error: image matrix must be invertible: matrix has determinant 0\n"),
    ("image(Q x Q x Q, [1,t,0;0,1,0;0,0,1+t])",
     "error: image matrix must be invertible: "
     "only monomials are invertible in Q[t,1/t]; got 2 terms\n"),
]


@pytest.mark.parametrize("text, err", IMAGE_ERRORS)
def test_image_errors_keep_their_exit_code_and_message(capsys, text, err):
    code = main(["aut", text])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", err)


R2, R3, R6, T = (sqrt_rational(2), sqrt_rational(3), sqrt_rational(6),
                  t_monomial(1))
TOWER = ["0", "0", "0", "1", "-1", "2", "1/2", "-3/4", "t", "1+t", "t^-1",
         "2*t", "sqrt(2)", "1+sqrt(2)", "sqrt(3)", "sqrt(2)+sqrt(3)", "sqrt(6)"]


def _outcome(f):
    try:
        return f()
    except (ContextError, DomainError, SingularMatrixError) as exc:
        return type(exc), str(exc)


def test_scalar_eliminations_match_bareiss_across_towers():
    # entries from number fields and Q[t,1/t] at once: which value, which
    # singular verdict and which "cannot join" text comes out depends on
    # the order of the scalar operations, and _bareiss fixed that order
    # t^-1 does not meet a surd in the determinant's products
    a = matrix([[R6, 0, 0], [t_monomial(-1), R3, 2], [R6, R6, 2]])
    assert a.det() == _bareiss_det(a) == R2 * 6 - 12
    # the pivots sqrt(3) and 3/4 + 3/4*t never meet either
    a = matrix([[R3, Fraction(-3, 4), 0], [1 + T, 0, 1 + R2],
                [1 + R2, Fraction(-3, 4), 1 + R2]])
    assert _outcome(a.inverse) == _outcome(lambda: _bareiss_inverse(a)) == (
        ContextError, "cannot join Q[t,1/t] with Q(sqrt2,sqrt3)")
    rng = random.Random(20261019)
    seen = {"value": 0, "singular": 0, "no inverse": 0, "cannot join": 0}
    for _ in range(300):
        n = rng.choice((3, 3, 4, 5))
        pool = rng.sample(TOWER, rng.randint(2, 7))
        rows = [[parse_scalar(rng.choice(pool)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:
            i, j = rng.sample(range(n), 2)
            rows[j] = list(rows[i])
        if rng.random() < 0.3:
            c = rng.randrange(n)
            for r in rows:
                r[c] = zero()
        a = ExactMatrix(tuple(map(tuple, rows)))
        want = _outcome(lambda: _bareiss_inverse(a) or (SingularMatrixError,
                                                        "matrix has determinant 0"))
        assert _outcome(a.inverse) == want, a
        assert _outcome(a.det) == _outcome(lambda: _bareiss_det(a)), a
        kind = "value" if isinstance(want, ExactMatrix) else {
            SingularMatrixError: "singular", DomainError: "no inverse",
            ContextError: "cannot join"}[want[0]]
        seen[kind] += 1
    assert min(seen.values()) >= 10, seen
