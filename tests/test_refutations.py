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
from groupaut.autgroup import (
    Certificate,
    _rat_witness,
    _real_witness,
    _replayed,
    _ring_core,
    acts_invariantly,
    failing_generator,
    is_unit,
    run_generators,
)
from groupaut.descriptors import (
    GroupDescriptor,
    Image,
    Product,
    _member,
    dimension,
    full_line,
    invariance_generators,
    member,
    normalize,
)
from groupaut.dsl import parse_descriptor
from groupaut.errors import (
    ConsistencyError,
    ContextError,
    DomainError,
    GroupAutError,
    SingularMatrixError,
)
from groupaut.matrices import (
    ExactMatrix,
    Vector,
    identity,
    matrix,
    scalar_matrix,
    vec_mat_mul,
)
from groupaut.oracle import enumerate_members
from groupaut.scalars import (
    as_scalar,
    exact_div,
    factorize,
    rational,
    sqrt_rational,
    t_monomial,
)

from draws import _FACTORS, _MATRICES_2, _random_group
from test_descriptors import rat_line_member, real_line_member

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
    """(g, members of height 1) for the fixed modules and the normal forms
    of random draws, as the certificate's walks take them; a draw with a
    ring, which acts_invariantly sends by the unit route, or with a scale
    factor that does not join its leaf's context is skipped."""
    groups = [P(text) for text in _FIXED]
    out = [(g, enumerate_members(g, 1)) for g in groups]
    while len(out) < count:
        g = _random_group(rng, rng.choice((1, 2)), 3)
        try:
            g = normalize(g)
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


# --- the inverse pass where A^-1 leaves the tower ------------------------------

def _old_acts_invariantly(g, a, _checks=None):
    # autgroup.acts_invariantly as it was while the inverse pass formed A^-1
    # in the tower, copied verbatim; it raises DomainError where A^-1 has a
    # Laurent denominator that is not a monomial
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
        try:
            image = factor * r if direction == "forward" else exact_div(factor, r)
        except ContextError:
            image = None    # outside the tower, so outside G
        return _replayed(g, (factor,), None if image is None else (image,),
                         direction)

    checks = {} if _checks is None else _checks
    gens = run_generators(checks, g)
    for direction in ("forward", "inverse"):
        # the inverse is formed only after the forward pass succeeds; a
        # candidate refuted forward may not even be invertible in the tower
        m = mat if direction == "forward" else mat.inverse()
        if failing := failing_generator(checks, gens, m.rows):
            kind, vec = failing[:2]
            if kind != "int":
                witness = _rat_witness if kind == "rat" else _real_witness
                vec = witness(g, vec, m)
            return _replayed(g, vec, vec_mat_mul(vec, m), direction)
    return Certificate(True)


def _quotient_in(g, u: Vector, d) -> bool:
    """Is u / d in G?  By member alone, on the normal form: an Image's
    matrix folds into u, and a coordinate that d does not divide is outside
    the tower, so it lies only in a line R."""
    g = normalize(g)
    if isinstance(g, Image):
        g, u = g.inner, vec_mat_mul(u, g.matrix.inverse())
    factors = g.factors if isinstance(g, Product) else (g,)
    for f, c in zip(factors, u):
        try:
            x = exact_div(c, d)
        except ContextError:
            x = None
        if not (real_line_member(f, 1) if x is None else member(f, x).member):
            return False
    return True


def _inverse_image_in(g, w: Vector, a: ExactMatrix) -> bool:
    """Is w * A^-1 = w * adj A / det A in G?  A product is asked a factor at
    a time: where det A divides the factor's column of adj A, its
    coordinate is w times the divided column, so a surd in w need not meet
    a Laurent entry; any other coordinate is asked as ``_quotient_in``."""
    adj, d = a.adjugate()
    g = normalize(g)
    if not isinstance(g, Product):
        return _quotient_in(g, vec_mat_mul(w, adj), d)
    def dot(column):
        return sum((x * y for x, y in zip(w, column)), as_scalar(0))

    for f, column in zip(g.factors, zip(*adj.rows)):
        try:
            divided = [exact_div(x, d) for x in column]
        except ContextError:
            divided = [None]
        if None in divided:
            inside = _quotient_in(f, (dot(column),), d)
        else:
            inside = member(f, dot(divided)).member
        if not inside:
            return False
    return True


_ONE_PLUS_T = 1 + T
_OUTSIDE_1 = [matrix([[_ONE_PLUS_T]]), matrix([[_ONE_PLUS_T * T]])]
_OUTSIDE_2 = [matrix([[_ONE_PLUS_T, 0], [0, 1]]), matrix([[1, 0], [0, _ONE_PLUS_T]]),
              matrix([[T, 1], [1, T]]), matrix([[2, 0], [0, _ONE_PLUS_T]]),
              matrix([[_ONE_PLUS_T, 1], [0, 2]]), matrix([[1, 0], [1, _ONE_PLUS_T]]),
              matrix([[3, 1], [0, _ONE_PLUS_T]]), matrix([[_ONE_PLUS_T, 0], [0, 2]]),
              scalar_matrix(_ONE_PLUS_T, 2)]


def test_an_inverse_outside_the_tower_is_decided_on_the_adjugate():
    # A^-1 has the denominator 1+t; the inverse pass used to raise there.
    # Every answer the old certificate gave stays, and every new refutation
    # replays through member alone.  Half the planes have a line R as a
    # factor, where 1+t can act.  The old certificate is run on the draw's
    # normal form, as the public call on the raw draw answers
    rng = random.Random(20261021)
    new = Counter()
    for _ in range(3000):
        n = rng.choice((1, 2))
        g = _random_group(rng, n, 3)
        if n == 2 and rng.randrange(2):
            g = Product(tuple(rng.sample([_random_group(rng, 1, 2), full_line()], 2)))
        a = rng.choice(_OUTSIDE_1 if n == 1 else _OUTSIDE_2)
        try:
            old = _old_acts_invariantly(normalize(g), a)
        except GroupAutError as exc:
            old = exc
        try:
            cert = acts_invariantly(g, a)
        except GroupAutError as exc:
            # nothing that answered stops answering; an internal error is
            # one the old certificate met first (the forward real-line
            # search of ROADMAP item 3)
            assert isinstance(old, GroupAutError), (g, a, old)
            if isinstance(exc, ConsistencyError):
                assert repr(exc) == repr(old), (g, a)
            continue
        if not isinstance(old, GroupAutError):
            assert cert == old, (g, a)
            continue
        assert isinstance(old, DomainError) and "monomials" in str(old), (g, a, old)
        new[cert.verdict] += 1
        if not cert.verdict:
            w = cert.failing_generator
            assert cert.direction == "inverse" and member(g, w).member, (g, a, w)
            assert not _inverse_image_in(g, w, a), (g, a, w)
    assert new[True] > 250 and new[False] > 15, new
