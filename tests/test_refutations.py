"""Refutation witnesses: the rational witness against the probe search it
replaced, and every refutation replayed without the certificate's own code.

``_ref_rat_witness`` is the search ``autgroup._rat_witness`` ran before the
witness was read off the module lattice: the multiples 1, 1/2, 1/3, ...,
1/29 of the generator, then 1/p over further primes up to a Cramer and
Hadamard count, each one membership walk.  It is copied verbatim with its
two constants so that the construction can be checked against it.
"""

import random
from collections import Counter
from fractions import Fraction

from groupaut import autgroup
from groupaut.autgroup import acts_invariantly
from groupaut.descriptors import (
    GroupDescriptor,
    _member,
    dimension,
    invariance_generators,
    member,
    rat_line_member,
)
from groupaut.dsl import parse_descriptor
from groupaut.errors import ConsistencyError, ContextError, GroupAutError
from groupaut.matrices import ExactMatrix, Vector, identity, matrix, vec_mat_mul
from groupaut.oracle import enumerate_members
from groupaut.scalars import exact_div, factorize, rational, sqrt_rational, t_monomial

from test_descriptors import _FACTORS, _MATRICES_2, _random_group

P = parse_descriptor
R2 = sqrt_rational(2)
T = t_monomial(1)


# --- the probe search, verbatim ----------------------------------------------

# No integer multiple is a probe: when vec * mat is in G, so is every
# integer multiple of it, and when it is not, the probe 1 returns first.
_RAT_PROBES = tuple(Fraction(1, p) for p in (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


def _witness_prime_budget(g: GroupDescriptor, image: Vector) -> int:
    """How many primes past the probes the search for 1/p may try.

    When image is in G but Q*image is not, the primes p with image/p in G
    are the prime factors of a nonzero integer: the gcd of the coordinates
    of image, modulo the divisible part of G, over a Z-basis of the rest of
    G.  A Cramer and Hadamard estimate over the k rational coordinates of
    the image and of G's generators, of height at most h, bounds its bit
    length by k * k * bits(h) + k * bits(k); past that many primes the
    search has found an inconsistency, not a hard case.
    """
    scalars = list(image) + [x for _, vec in invariance_generators(g)
                             for x in vec]
    k = sum(len(x.coords) for x in scalars)
    h = max(x.height for x in scalars)
    return k * k * h.bit_length() + k * k.bit_length()


def _ref_rat_witness(g: GroupDescriptor, vec: Vector, mat: ExactMatrix) -> Vector:
    # Q*vec maps outside G; pin down a concrete multiple that leaves it.
    for q in _RAT_PROBES:
        w = tuple(q * c for c in vec)
        if not _member(g, vec_mat_mul(w, mat)).member:
            return w
    # every probe stayed inside G: go on with 1/p over further primes
    p = max(q.denominator for q in _RAT_PROBES)
    for _ in range(_witness_prime_budget(g, vec_mat_mul(vec, mat))):
        p += 2
        while factorize(p) != [(p, 1)]:
            p += 2
        w = tuple(Fraction(1, p) * c for c in vec)
        if not _member(g, vec_mat_mul(w, mat)).member:
            return w
    from groupaut.dsl import group_to_text
    raise ConsistencyError(
        f"the rational line through {vec!r} leaves {group_to_text(g)} "
        f"under {mat!r}, but no multiple 1/p with p <= {p} does")


# --- the construction against the search --------------------------------------

def _outcome(fn, *args):
    try:
        w = fn(*args)
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))
    return ("value", w, repr(w))


PRIMORIAL_29 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29
_MULTIPLIERS = [rational(x) for x in (1, -2, Fraction(1, 2), 6, Fraction(5, 7),
                                      PRIMORIAL_29, PRIMORIAL_29 * 31,
                                      Fraction(PRIMORIAL_29, 7))] + [R2, T]
_FIXED = ["Z*2 + Z*3", "Z*6 + Z*sqrt(2) + Q*sqrt(3)", "Z*1 + Q*sqrt(2)",
          "Z*sqrt(2) + Q*sqrt(3)", "Z*(2/3) + Z*t + Q*t^2", "Z*3 x (Z + Q*sqrt(5))"]


def _groups(rng, count):
    """(g, members of height 1) for the fixed modules and random draws; a
    draw with a ring, which acts_invariantly sends by the unit route, or
    with a scale factor that does not join its leaf's context is skipped."""
    groups = [P(text) for text in _FIXED]
    out = [(g, enumerate_members(g, 1)) for g in groups]
    while len(out) < count:
        g = _random_group(rng, rng.choice((1, 2)), 3)
        try:
            invariance_generators(g)
            out.append((g, enumerate_members(g, 1)))
        except GroupAutError:
            continue
    return out


def _scaled(a: ExactMatrix, s) -> ExactMatrix:
    return matrix([[s * x for x in row] for row in a.rows])


def test_rat_witness_matches_the_probe_search():
    # vec is a member of G and mat a multiple of the identity or of a fixed
    # matrix, so vec * mat is often in G with a large divisor; a draw with
    # Q*(vec * mat) in G, or outside the tower, never reaches the witness
    rng = random.Random(20261019)
    drawn = past_29 = 0
    for g, members in _groups(rng, 60):
        n = dimension(g)
        mats = [identity(n)]
        mats += [rng.choice(_MATRICES_2)] if n == 2 else [matrix([[rng.choice(_FACTORS)]])]
        for vec in rng.sample(members, min(8, len(members))):
            for a in mats:
                for s in _MULTIPLIERS:
                    try:
                        mat = _scaled(a, s)
                        if rat_line_member(g, vec_mat_mul(vec, mat)):
                            continue
                    except GroupAutError:
                        continue    # Q*(vec * mat) is in G, or not in the tower
                    want = _outcome(_ref_rat_witness, g, vec, mat)
                    assert _outcome(autgroup._rat_witness, g, vec, mat) == want, \
                        (g, vec, mat)
                    drawn += 1
                    if want[0] == "value" and want[1] != vec:
                        i = next(i for i, c in enumerate(vec) if not c.is_zero())
                        past_29 += exact_div(vec[i], want[1][i]).as_fraction() > 29
    assert drawn > 1000
    assert past_29 >= 100


# --- every refutation replays ------------------------------------------------

def _image(w: Vector, a: ExactMatrix, direction: str):
    """w under A or A^-1; None when it is not in the scalar tower, which
    holds every group.  A 1 x 1 candidate is inverted by exact division,
    since 1/c need not exist in Q[t,1/t] where w/c does."""
    try:
        if direction == "forward":
            return vec_mat_mul(w, a)
        if a.n > 1:
            return vec_mat_mul(w, a.inverse())
        image = exact_div(w[0], a.rows[0][0])
    except ContextError:
        return None
    return None if image is None else (image,)


_CANDIDATES_1 = [matrix([[c]]) for c in _FACTORS + [rational(-1), rational(6), R2 + 3]]
_CANDIDATES_2 = _MATRICES_2 + [matrix([[0, 1], [1, 0]]), matrix([[1, 0], [0, 2]]),
                               matrix([[R2, 1], [1, R2]]), matrix([[1, Fraction(1, 2)], [0, 1]])]


def test_refutations_replay_through_member_alone():
    # the certificate replays its refutation itself (autgroup._replayed);
    # this replays each one again with member and the matrix product only
    rng = random.Random(20261020)
    refuted = Counter()
    for _ in range(1000):
        n = rng.choice((1, 2))
        g = _random_group(rng, n, 3)
        a = rng.choice(_CANDIDATES_1 if n == 1 else _CANDIDATES_2)
        try:
            cert = acts_invariantly(g, a)
        except GroupAutError as exc:
            assert not isinstance(exc, ConsistencyError), (g, a)
            continue
        if not cert.verdict:
            w, direction = cert.failing_generator, cert.direction
            assert member(g, w).member, (g, a, w)
            image = _image(w, a, direction)
            assert image is None or not member(g, image).member, (g, a, w)
            refuted[direction] += 1
    assert refuted["forward"] > 150 and refuted["inverse"] > 30
