"""Confirmation on the forward pass alone, for groups with no "int"
generator.

Such a G is a sum of Q-lines and R-lines, and an invertible A with G*A
inside G has G*A = G, so ``acts_invariantly`` skips the inverse pass.
``_two_pass_acts_invariantly`` is the certificate as it was before, when
every confirmation also checked each generator under A^-1; it is copied
verbatim so that the shortcut can be checked against it.
"""

import random
from fractions import Fraction

import pytest

from groupaut import autgroup
from groupaut.autgroup import (
    Certificate,
    _ring_core,
    _inverse_pass,
    _rat_witness,
    _real_witness,
    _replayed,
    acts_invariantly,
    failing_generator,
    is_unit,
    replayed,
    run_generators,
)
from groupaut.descriptors import (
    _member,
    dimension,
    holds,
    invariance_generators,
    normalize,
)
from groupaut.dsl import parse_descriptor
from groupaut.errors import (
    ContextError,
    DomainError,
    GroupAutError,
    SingularMatrixError,
)
from groupaut.matrices import ExactMatrix, matrix, scalar_matrix, vec_mat_mul
from groupaut.oracle import brute_force_aut
from groupaut.scalars import as_scalar, rational, sqrt_rational, t_monomial

from test_descriptors import _random_group


def _two_pass_acts_invariantly(g, a, _checks=None):
    # autgroup.acts_invariantly before the forward pass alone confirmed
    # groups without an "int" generator, copied verbatim
    n = dimension(g)
    if isinstance(a, ExactMatrix):
        mat = a
        if mat.n != n:
            raise DomainError(f"matrix size {mat.n} does not fit dimension {n}")
    else:
        mat = scalar_matrix(as_scalar(a), n)

    ring, factor = _ring_core(g)
    if ring is not None:
        r = mat.rows[0][0]
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

    checks = {} if _checks is None else _checks
    gens = run_generators(checks, g)
    for direction in ("forward", "inverse"):
        # the inverse is formed only after the forward pass succeeds; a
        # candidate refuted forward may not even be invertible in the tower
        m, over = (mat, g) if direction == "forward" else _inverse_pass(g, mat)
        if over is g:
            failing = failing_generator(checks, gens, m.rows)
        else:
            failing = next((gen for gen in gens if not holds(
                gen[0], over, vec_mat_mul(gen[1], m))), None)
        if failing:
            kind, vec = failing[:2]
            if kind != "int":
                witness = _rat_witness if kind == "rat" else _real_witness
                vec = witness(over, vec, m)
            return _replayed(g, vec, vec_mat_mul(vec, m), direction, over)
    return Certificate(True)


R2 = sqrt_rational(2)
T = t_monomial(1)
ENTRIES = [rational(0), rational(1), rational(-1), rational(2),
           rational(Fraction(1, 2)), rational(3), R2, 1 + R2, T, 1 + T]


def _outcome(fn, g, a):
    try:
        cert = fn(g, a)
    except GroupAutError as exc:
        return type(exc), str(exc)
    return cert.verdict, cert.failing_generator, cert.direction


def test_forward_pass_matches_the_two_pass_certificate():
    # the one answer that may move: the old inverse pass raised ContextError
    # (A^-1 or adj A over d*G mixing towers) where G has no "int" generator
    # and A is invertible, and the forward pass already proves G*A = G
    rng = random.Random(20261020)
    same = moved = 0
    for _ in range(2500):
        n = rng.choice((1, 2))
        g = _random_group(rng, n, 3)
        if rng.randrange(2):
            try:
                g = normalize(g)
            except GroupAutError:
                continue
        a = matrix([[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)])
        old = _outcome(_two_pass_acts_invariantly, g, a)
        new = _outcome(acts_invariantly, g, a)
        if new == old:
            same += 1
            continue
        assert old[0] is ContextError and new == (True, None, None), (g, a, old)
        assert all(kind != "int" for kind, _ in invariance_generators(g)), (g, a)
        assert not a.is_singular(), (g, a)
        checks = {}
        assert failing_generator(checks, run_generators(checks, g), a.rows) is None
        moved += 1
    assert same > 2000 and moved > 20, (same, moved)


def _counted_inverse_pass(monkeypatch):
    calls = []

    def counted(g, a):
        calls.append(a)
        return _inverse_pass(g, a)
    monkeypatch.setattr(autgroup, "_inverse_pass", counted)
    return calls


@pytest.mark.parametrize("text", ["Q x Q*sqrt(3)", "Q x R", "Q*sqrt(2) x Q*sqrt(5)"])
def test_divisible_planes_never_form_an_inverse(monkeypatch, text):
    calls = _counted_inverse_pass(monkeypatch)
    report = brute_force_aut(parse_descriptor(text), 2)
    assert report.confirmed and not calls, (len(report.confirmed), len(calls))


@pytest.mark.parametrize("text", ["Z x Z", "(Z*1 + Q*sqrt(3)) x (Z*1 + Q*sqrt(3))"])
def test_planes_with_integer_generators_keep_the_inverse_pass(monkeypatch, text):
    calls = _counted_inverse_pass(monkeypatch)
    report = brute_force_aut(parse_descriptor(text), 2)
    assert report.confirmed and calls
