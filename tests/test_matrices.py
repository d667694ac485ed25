import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from groupaut.errors import DomainError, SingularMatrixError
from groupaut.matrices import (
    ExactMatrix,
    block_triangular_member,
    circle_sum_witness,
    classify,
    identity,
    mat_mul,
    matrix,
    pattern_quad_member,
    shear,
    vec_mat_mul,
    vector,
)
from groupaut.scalars import as_scalar, one, rational, sqrt_rational, t_monomial, zero


def _det_by_permutations(a: ExactMatrix):
    # independent determinant oracle: full Leibniz expansion
    n = a.n
    total = zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = one()
        for i in range(n):
            term = term * a.rows[i][perm[i]]
        total = total + sign * term
    return total


def _random_matrix(rng, n, entries):
    return matrix([[rng.choice(entries) for _ in range(n)] for _ in range(n)])


def test_det_pinned():
    assert matrix([[1, 1], [0, 1]]).det() == one()
    assert matrix([[1, sqrt_rational(2)], [sqrt_rational(2), 1]]).det() == rational(-1)


def test_det_matches_permutation_expansion():
    rng = random.Random(11)
    entries = [rational(k) for k in range(-3, 4)] + [sqrt_rational(2), 1 + sqrt_rational(3)]
    for n in (2, 3, 4):
        for _ in range(12):
            a = _random_matrix(rng, n, entries)
            assert a.det() == _det_by_permutations(a)


def test_det_multiplicative():
    rng = random.Random(13)
    entries = [rational(k) for k in range(-2, 3)] + [sqrt_rational(2)]
    for _ in range(25):
        a = _random_matrix(rng, 3, entries)
        b = _random_matrix(rng, 3, entries)
        assert (a * b).det() == a.det() * b.det()


def test_inverse_exact():
    a = matrix([[1, sqrt_rational(2)], [0, 1]])
    assert a.inverse() == matrix([[1, -sqrt_rational(2)], [0, 1]])
    rng = random.Random(7)
    entries = [rational(k) for k in range(-3, 4)] + [sqrt_rational(2), sqrt_rational(3)]
    count = 0
    for _ in range(40):
        a = _random_matrix(rng, 3, entries)
        if a.det().is_zero():
            continue
        count += 1
        assert a * a.inverse() == identity(3)
    assert count >= 20


def test_inverse_errors():
    # up to 2 x 2 det A is read off the entries, with the errors of
    # det().invert()
    t = t_monomial(1)
    for a in (matrix([[1, 1], [1, 1]]), matrix([[0]]),
              matrix([[t, 1 + t], [t * t, t + t * t]])):
        with pytest.raises(SingularMatrixError,
                           match="^matrix has determinant 0$"):
            a.inverse()
    # Laurent matrix with non-monomial determinant is not invertible here
    for a in (matrix([[t + 1, 0], [0, 1]]), matrix([[1 + t]]),
              matrix([[1, t], [t, 1]])):        # det 1 - t^2
        with pytest.raises(DomainError) as err:
            a.inverse()
        assert str(err.value) == \
            "only monomials are invertible in Q[t,1/t]; got 2 terms"
    # ... but a monomial determinant is fine
    for a in (matrix([[t, 1], [0, t]]), matrix([[t]]),
              matrix([[t, 1], [0, 1]])):
        assert a * a.inverse() == identity(a.n)
    assert matrix([[t, 1], [0, 1]]).inverse() == matrix(
        [[t_monomial(-1), -t_monomial(-1)], [0, 1]])


def test_vec_mat_mul_row_convention():
    a = matrix([[0, 1], [1, 0]])
    assert vec_mat_mul(vector([2, 3]), a) == vector([3, 2])
    b = matrix([[1, 1], [0, 1]])
    assert vec_mat_mul(vector([1, 0]), b) == vector([1, 1])


def test_classify_pinned():
    c = classify(matrix([[1, 1], [0, 1]]))
    assert c.in_EZ and c.in_SL and c.in_GLZ and c.in_SLpm
    assert not c.in_SO2

    c = classify(matrix([[2, 0], [0, 1]]))
    assert c.in_GLZ and not c.in_EZ
    assert c.in_GLQ and c.in_GL

    c = classify(matrix([[0, 1], [-1, 0]]))
    assert c.in_SO2 and c.in_SL and c.in_EZ

    c = classify(matrix([[1, sqrt_rational(2)], [0, 1]]))
    assert c.in_GL and c.in_SL and not c.in_GLQ and not c.in_GLZ


def test_classify_invariants_on_samples():
    rng = random.Random(3)
    entries = [rational(k) for k in range(-2, 3)] + [sqrt_rational(2), rational(Fraction(1, 2))]
    for _ in range(60):
        a = _random_matrix(rng, 2, entries)
        c = classify(a)
        if c.in_EZ:
            assert c.in_GLZ and c.in_SLpm
        if c.in_SL:
            assert c.in_SLpm
        if c.in_SO2:
            assert c.in_SL


def test_ez_closure():
    mats = [matrix(m) for m in ([[1, 1], [0, 1]], [[0, 1], [-1, 0]],
                                [[1, 0], [3, 1]], [[-1, 0], [0, 1]])]
    for a in mats:
        for b in mats:
            assert classify(a * b).in_EZ
        assert classify(a.inverse()).in_EZ


def test_block_triangular_member():
    assert block_triangular_member(1, 1, matrix([[Fraction(1, 2), 7], [0, sqrt_rational(2)]]))
    assert not block_triangular_member(1, 1, matrix([[Fraction(1, 2), 0], [1, 1]]))
    assert not block_triangular_member(1, 1, matrix([[sqrt_rational(2), 0], [0, 1]]))
    assert not block_triangular_member(1, 1, matrix([[0, 1], [1, 0]]))  # singular corner
    with pytest.raises(DomainError):
        block_triangular_member(1, 1, matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_block_group_closure():
    # members have the shape [[a, *, *], [0, m, m], [0, m, m]] with a
    # rational nonzero and the lower-right 2x2 block invertible
    rng = random.Random(19)
    entries = [rational(k) for k in range(-2, 3)] + [sqrt_rational(2)]
    members = []
    while len(members) < 6:
        a = rational(Fraction(rng.choice((1, 2, 3, -1)), rng.choice((1, 2))))
        top = [a, rng.choice(entries), rng.choice(entries)]
        block = _random_matrix(rng, 2, entries)
        if block.det().is_zero():
            continue
        rows = [top] + [[rational(0), *row] for row in block.rows]
        m = matrix(rows)
        assert block_triangular_member(1, 2, m)
        members.append(m)
    for a in members:
        for b in members:
            assert block_triangular_member(1, 2, a * b)
        assert block_triangular_member(1, 2, a.inverse())


def test_pattern_quad_member():
    x = sqrt_rational(2)
    assert pattern_quad_member(x, matrix([[1, sqrt_rational(2)], [sqrt_rational(2), 1]]))
    assert not pattern_quad_member(x, matrix([[1, 1], [0, 1]]))
    assert pattern_quad_member(x, matrix([[2, 0], [0, 3]]))
    assert not pattern_quad_member(x, matrix([[1, sqrt_rational(2)], [sqrt_rational(2), 2]]))  # det 0
    assert not pattern_quad_member(x, matrix([[sqrt_rational(2), 0], [0, 1]]))


def test_pattern_group_closure():
    x = sqrt_rational(2)
    members = [matrix([[1, sqrt_rational(2)], [sqrt_rational(2), 1]]),
               matrix([[2, 0], [0, 3]]),
               matrix([[0, sqrt_rational(2)], [sqrt_rational(2), 0]]),
               matrix([[1, 2 * sqrt_rational(2)], [sqrt_rational(2), 1]])]
    for a in members:
        for b in members:
            assert pattern_quad_member(x, a * b)
        assert pattern_quad_member(x, a.inverse())


def test_shear():
    s = shear(3, 0, 2, sqrt_rational(2))
    assert s.rows[0][2] == sqrt_rational(2)
    assert s.det() == one()
    with pytest.raises(DomainError):
        shear(2, 1, 1, 1)


def test_circle_sum_witness_pinned():
    c1, c2 = circle_sum_witness(25, (6, 0))
    assert c1 == vector([3, 4]) and c2 == vector([3, -4])
    c1, c2 = circle_sum_witness(1, (0, 0))
    assert c1 == vector([1, 0]) and c2 == vector([-1, 0])
    c1, c2 = circle_sum_witness(1, (1, 0))
    assert c1 == (rational(Fraction(1, 2)), sqrt_rational(Fraction(3, 4)))


def test_circle_sum_witness_exactness():
    rng = random.Random(29)
    r2 = Fraction(25)
    for _ in range(50):
        s = Fraction(rng.randrange(-10, 11), rng.randrange(1, 4))
        target = (s, Fraction(0)) if rng.random() < 0.5 else (Fraction(0), s)
        c1, c2 = circle_sum_witness(r2, target)
        for c in (c1, c2):
            assert c[0] * c[0] + c[1] * c[1] == rational(r2)
        total = (c1[0] + c2[0], c1[1] + c2[1])
        assert total == vector(target)


def test_circle_sum_witness_errors():
    with pytest.raises(DomainError):
        circle_sum_witness(1, (3, 0))
    with pytest.raises(DomainError):
        circle_sum_witness(1, (1, 1))
    with pytest.raises(DomainError):
        circle_sum_witness(0, (0, 0))
    with pytest.raises(DomainError, match="two coordinates"):
        circle_sum_witness(1, (1,))
    with pytest.raises(DomainError, match="two coordinates"):
        circle_sum_witness(1, (1, 2, 3))


# ---------------------------------------------------------------------------
# det and inverse against cofactor expansion and the adjugate
# ---------------------------------------------------------------------------

def _det_by_cofactors(rows):
    # reference determinant: Laplace expansion along the first row
    if len(rows) == 1:
        return rows[0][0]
    total = zero()
    for j, x in enumerate(rows[0]):
        term = x * _det_by_cofactors([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def _inverse_by_adjugate(a: ExactMatrix) -> ExactMatrix:
    rows = [list(r) for r in a.rows]
    n = len(rows)
    d = _det_by_cofactors(rows)
    if d.is_zero():
        raise SingularMatrixError("matrix has determinant 0")
    dinv = d.invert()

    def cofactor(i, j):
        minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
        c = _det_by_cofactors(minor) if minor else one()
        return c if (i + j) % 2 == 0 else -c

    return matrix([[dinv * cofactor(j, i) for j in range(n)] for i in range(n)])


def _integer_matrix(rng, n):
    return matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])


def _quad_matrix(rng, n):
    r2 = sqrt_rational(2)
    return matrix([[rng.randint(-2, 2) + rng.randint(-2, 2) * r2 for _ in range(n)]
                   for _ in range(n)])


def _laurent_unitriangular(rng, n, lower):
    t = t_monomial(1)
    pool = [zero(), zero(), one(), rational(-1), t, t_monomial(-1), 1 + t,
            2 * t_monomial(-1) - 1]
    return matrix([[one() if i == j else
                    (rng.choice(pool) if (i > j) == lower else zero())
                    for j in range(n)] for i in range(n)])


def _laurent_matrix(rng, n, diagonal=None):
    """L * D * U with rows permuted: entries are Laurent polynomials and the
    determinant is +-det(D), a monomial unless ``diagonal`` says otherwise."""
    if diagonal is None:
        diagonal = [t_monomial(rng.randint(-2, 2), rng.choice((1, -2, 3)))
                    for _ in range(n)]
    d = matrix([[diagonal[i] if i == j else zero() for j in range(n)]
                for i in range(n)])
    a = _laurent_unitriangular(rng, n, True) * d * _laurent_unitriangular(rng, n, False)
    rows = list(a.rows)
    rng.shuffle(rows)
    return ExactMatrix(tuple(rows))


_MATRIX_KINDS = {"integer": _integer_matrix, "quad": _quad_matrix,
                 "laurent": _laurent_matrix}


@pytest.mark.parametrize("kind", sorted(_MATRIX_KINDS))
@pytest.mark.parametrize("n", range(1, 7))
def test_det_and_inverse_match_cofactor_reference(kind, n):
    rng = random.Random(f"{kind}-{n}")
    inverted = 0
    for _ in range(3 if n < 6 else 2):
        a = _MATRIX_KINDS[kind](rng, n)
        want = _det_by_cofactors([list(r) for r in a.rows])
        assert a.det() == want
        if want.is_zero():
            with pytest.raises(SingularMatrixError):
                a.inverse()
            continue
        inv = a.inverse()
        assert inv == _inverse_by_adjugate(a)
        assert a * inv == identity(n)
        assert inv * a == identity(n)
        inverted += 1
    assert inverted >= 1


@pytest.mark.parametrize("n", range(1, 7))
def test_singular_matrices_raise_as_before(n):
    rng = random.Random(f"singular-{n}")
    t = t_monomial(1)
    for make, factor in ((_integer_matrix, 3), (_quad_matrix, sqrt_rational(2)),
                         (_laurent_matrix, t + 1)):
        rows = [list(r) for r in make(rng, n).rows]
        # a zero row when n == 1; a repeated row otherwise
        rows[-1] = [zero()] * n if n == 1 else list(rows[0])
        if n >= 3:   # and a multiple of another row in between
            rows[1] = [x * factor for x in rows[-1]]
        a = matrix(rows)
        assert _det_by_cofactors(rows).is_zero()
        assert a.det().is_zero()
        with pytest.raises(SingularMatrixError):
            a.inverse()
        with pytest.raises(SingularMatrixError):
            _inverse_by_adjugate(a)


@pytest.mark.parametrize("n", range(1, 7))
def test_non_monomial_laurent_det_raises_as_before(n):
    rng = random.Random(f"laurent-domain-{n}")
    t = t_monomial(1)
    diagonal = [1 + t] + [one()] * (n - 1)
    a = _laurent_matrix(rng, n, diagonal)
    want = _det_by_cofactors([list(r) for r in a.rows])
    assert a.det() == want
    assert len(want.coords) == 2
    with pytest.raises(DomainError, match="only monomials"):
        a.inverse()
    with pytest.raises(DomainError, match="only monomials"):
        _inverse_by_adjugate(a)


def test_matrix_hash_is_kept_and_is_the_dataclass_hash():
    from groupaut.dsl import matrix_to_text, parse_matrix
    rows = ((rational(1), sqrt_rational(2)),
            (rational(Fraction(1, 2)), t_monomial(1)))
    built, listed = ExactMatrix(rows), matrix([[1, sqrt_rational(2)],
                                               [Fraction(1, 2), t_monomial(1)]])
    parsed = parse_matrix("[1,sqrt(2);1/2,t]")
    assert built == listed == parsed and built is not listed
    expected = hash((rows,))        # the hash the dataclass computes
    assert hash(built) == hash(listed) == hash(parsed) == expected
    assert hash(built) == expected      # read back once kept
    assert repr(built) == f"ExactMatrix({matrix_to_text(built)})"
    assert [f.name for f in dataclasses.fields(built)] == ["rows"]
    copy = dataclasses.replace(built)
    assert copy == built and copy is not built and hash(copy) == expected
    flipped = dataclasses.replace(built, rows=rows[::-1])
    assert hash(flipped) == hash((rows[::-1],)) and flipped != built
    assert {parsed: "kept"}[built] == "kept"
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.rows = rows
