"""The inverse pass checks the "int" generators alone.

Given G*A inside G with A invertible, the divisible part V of G (the
Q-span of its "rat" generators plus its real lines) has V*A = V, so no
"rat" or "real" generator leaves G under A^-1, and a G with no "int"
generator is confirmed on the forward pass.  ``_two_pass_acts_invariantly``
is the certificate as it was before, when every confirmation also checked
each generator under A^-1; it is copied verbatim so that the new passes
can be checked against it.
"""

import random
from collections import Counter
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

from draws import _random_group


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
# groups with "int" generators, some of them after a "rat" or "real" one
INT_GROUPS = [
    "Z x Z", "Z x R", "R x Z", "Q x Z", "Z x Q*sqrt(2)", "Q*sqrt(2) x Z",
    "(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))",
    "(Z*1 + Q*sqrt(3)) x (Z*1 + Q*sqrt(3))",
    "(Q + Q*t) x Z", "Q*t x Z*sqrt(2)", "image(Z x Q, [1,1;0,1])",
    "image(Z x R, [2,1;1,1])", "image(Z x Z, [1,t;0,1])",
    "Z*1 + Q*sqrt(2)", "Z*1 + Z*sqrt(3)", "Z*1 + Q*t",
]


def _outcome(fn, g, a):
    try:
        cert = fn(g, a)
    except GroupAutError as exc:
        return type(exc), str(exc)
    return cert.verdict, cert.failing_generator, cert.direction


def _draw(rng):
    """(G, A): G drawn from INT_GROUPS or by ``_random_group``, A with
    entries from ENTRIES, singular in a fifth of the draws."""
    if rng.randrange(2):
        g = parse_descriptor(rng.choice(INT_GROUPS))
    else:
        g = _random_group(rng, rng.choice((1, 2)), 3)
        if rng.randrange(2):
            g = normalize(g)
    n = dimension(g)
    rows = [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)]
    if rng.randrange(5) == 0:
        k = rng.choice(ENTRIES)
        rows[-1] = [k * x for x in rows[0]]
    return g, matrix(rows)


def _has_int(g):
    """Whether G has an "int" generator; None for a ring, which has none,
    and for a g that does not normalize."""
    try:
        return any(kind == "int"
                   for kind, _ in invariance_generators(normalize(g)))
    except GroupAutError:
        return None


def _first_inverse_failure(g, a):
    """(kind, raised) of the first generator, in order, whose check under
    A^-1 fails or raises ContextError, as the two-pass inverse pass asks;
    (None, True) when A^-1 itself raises ContextError."""
    try:
        m, over = _inverse_pass(g, a)
    except ContextError:
        return None, True
    for kind, vec in invariance_generators(g):
        try:
            if not holds(kind, over, vec_mat_mul(vec, m)):
                return kind, False
        except ContextError:
            return kind, True
    return None


def _label(outcome):
    """"confirmed", the refuting direction, or the exception's name."""
    if outcome[0] is True:
        return "confirmed"
    return outcome[2] if outcome[0] is False else outcome[0].__name__


def test_forward_pass_matches_the_two_pass_certificate():
    # the one answer that may move: an old ContextError of the inverse pass
    # (A^-1, or adj A over d*G, mixing towers) on the image of a "rat" or
    # "real" generator, or on A^-1 itself where G has no "int" generator;
    # the new passes form neither, and decide.  The public call on the raw
    # draw is held to the reference on the draw's normal form
    rng = random.Random(20261020)
    same, moved, seen = 0, 0, Counter()
    for _ in range(5000):
        try:
            g, a = _draw(rng)
        except GroupAutError:
            continue
        old = _outcome(lambda g, a: _two_pass_acts_invariantly(normalize(g), a),
                       g, a)
        new = _outcome(acts_invariantly, g, a)
        seen[_label(old), _has_int(g)] += 1
        if new == old:
            same += 1
            continue
        g = normalize(g)    # it normalizes: else both raise its error
        assert old[0] is ContextError and new[0] in (True, False), (g, a, old, new)
        assert new[0] or new[2] == "inverse", (g, a, new)
        assert not a.is_singular(), (g, a)
        checks = {}
        assert failing_generator(checks, run_generators(checks, g), a.rows) is None
        kind, raised = _first_inverse_failure(g, a)
        assert raised and kind != "int", (g, a, kind)
        # A^-1 is formed whenever G has an "int" generator
        assert kind is not None or not _has_int(g), (g, a)
        moved += 1
    assert same > 4000 and moved > 15, (same, moved)
    # groups with "int" generators meet every outcome, in both directions
    for label in ("confirmed", "forward", "inverse", "SingularMatrixError",
                  "ContextError"):
        assert seen[label, True] >= 100, seen


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
