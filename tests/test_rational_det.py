"""Rational determinants on integers, and ``image`` checking A by them.

From 3 x 3 on, a rational determinant is one fraction-free elimination of
the integer matrix left when each row's denominators are cleared.  The
reference is ``_bareiss`` over the scalars, which every determinant took
before and which every non-rational one still takes, and sympy's.  The
draws hold fractional entries, singular matrices and zero leading pivots
that force row swaps.

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
from groupaut.dsl import parse_descriptor
from groupaut.errors import DescriptorError
from groupaut.matrices import ExactMatrix, matrix
from groupaut.scalars import rational, zero


def _bareiss_det(a):
    sign, pivot = matrices._bareiss([list(r) for r in a.rows], jordan=False)
    return pivot if sign > 0 else -pivot


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
    matrices._det.cache_clear()
    seen = {kind: 0 for kind in KINDS}
    for n, kind, a in _draws():
        want = _bareiss_det(a)
        assert a.det() == want, (kind, a)
        if kind == "singular":
            assert want.is_zero()
        seen[kind] += not want.is_zero() or kind == "singular"
    assert min(seen.values()) >= 20, seen


def test_rational_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    matrices._det.cache_clear()
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

    def counted(rows, jordan):
        eliminations.append(len(rows))
        return fraction_free(rows, jordan)

    monkeypatch.setattr(ExactMatrix, "inverse", refuse)
    monkeypatch.setattr(matrices, "_bareiss", refuse)
    monkeypatch.setattr(matrices, "fraction_free", counted)
    matrices._det.cache_clear()
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
