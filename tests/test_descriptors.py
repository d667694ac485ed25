import math
import random
from fractions import Fraction

import pytest

from groupaut import descriptors as _d
from groupaut.descriptors import (
    Cyclic,
    Domain,
    FullSpace,
    MixedModule,
    LaurentRing,
    basis_from_group,
    cyclic,
    cyclic_form,
    dimension,
    divisible_hull,
    fraction_ring,
    full_line,
    full_space,
    hull_closure,
    image,
    invariance_generators,
    is_cyclic,
    is_dense,
    is_divisible,
    laurent_ring,
    member,
    mixed_module,
    normalize,
    product,
    rat_line_member,
    real_line_member,
    scaled,
    subgroup_of,
)
from groupaut.errors import (
    ContextError,
    DescriptorError,
    DomainError,
    GroupAutError,
    UnsupportedError,
)
from groupaut.matrices import matrix
from groupaut.scalars import rational, sqrt_rational, t_monomial


R2 = sqrt_rational(2)
R3 = sqrt_rational(3)
T = t_monomial(1)

Q = mixed_module([(Domain.RAT, 1)])
Z_PLUS_Q_R2 = mixed_module([(Domain.INT, 1), (Domain.RAT, R2)])


def _rational_module(*gens):
    return mixed_module([(Domain.RAT, g) for g in gens])


# -- construction ----------------------------------------------------------

def test_dependent_generators_rejected():
    with pytest.raises(DescriptorError):
        mixed_module([(Domain.INT, 1), (Domain.INT, 1)])
    with pytest.raises(DescriptorError):
        mixed_module([(Domain.RAT, 1), (Domain.RAT, 2)])
    with pytest.raises(DescriptorError):
        mixed_module([(Domain.INT, 1), (Domain.RAT, Fraction(1, 3))])
    with pytest.raises(DescriptorError):
        mixed_module([(Domain.INT, 1), (Domain.INT, R2), (Domain.INT, 1 + R2)])
    # Q-dependent but not redundant: fine
    mixed_module([(Domain.INT, 2), (Domain.INT, 3)])


def test_factory_validation():
    with pytest.raises(DescriptorError):
        cyclic(0)
    with pytest.raises(DescriptorError):
        fraction_ring(1)
    with pytest.raises(DescriptorError):
        scaled(0, Q)
    with pytest.raises(DescriptorError):
        product([])
    with pytest.raises(DescriptorError):
        product([Q, product([Q, Q])])
    with pytest.raises(DescriptorError):
        image(product([Q, Q]), matrix([[1, 1], [1, 1]]))
    with pytest.raises(UnsupportedError):
        divisible_hull(fraction_ring(2))
    with pytest.raises(ContextError):
        mixed_module([(Domain.RAT, T), (Domain.RAT, R2)])


# -- membership ------------------------------------------------------------

def test_member_mixed_module():
    v = member(Z_PLUS_Q_R2, rational(3) + Fraction(1, 2) * R2)
    assert v.member
    assert v.witness == (Fraction(3), Fraction(1, 2))
    assert not member(Z_PLUS_Q_R2, Fraction(1, 2)).member
    assert not member(Z_PLUS_Q_R2, R3).member
    assert member(Z_PLUS_Q_R2, -5 + 100 * R2).member


def test_member_witness_reevaluates():
    rng = random.Random(41)
    groups = [
        Z_PLUS_Q_R2,
        mixed_module([(Domain.INT, 2), (Domain.INT, 3)]),
        _rational_module(1, R2),
        mixed_module([(Domain.INT, R3), (Domain.RAT, 1)]),
        cyclic(Fraction(3, 7)),
    ]
    for g in groups:
        gens = [gen for _, gen in (g.terms if isinstance(g, MixedModule)
                                   else ((None, g.generator),))]
        for _ in range(30):
            coeffs = [Fraction(rng.randrange(-5, 6)) for _ in gens]
            target = sum((c * x for c, x in zip(coeffs, gens)), rational(0))
            v = member(g, target)
            assert v.member
            rebuilt = sum((c * x for c, x in zip(v.witness, gens)), rational(0))
            assert rebuilt == target


def test_member_fraction_ring():
    zh = fraction_ring(2)
    assert member(zh, Fraction(3, 4)).member
    assert not member(zh, Fraction(1, 3)).member
    assert member(fraction_ring(6), Fraction(5, 12)).member
    assert member(fraction_ring(4), Fraction(1, 8)).member  # 8 | 4^k
    assert not member(zh, R2).member


def test_member_laurent():
    zt = laurent_ring(Domain.INT)
    qt = laurent_ring(Domain.RAT)
    f = 3 * T - t_monomial(-2)
    assert member(zt, f).member
    assert member(zt, rational(5)).member
    assert not member(zt, Fraction(1, 2) * T).member
    assert member(qt, Fraction(1, 2) * T).member
    with pytest.raises(ContextError):
        member(zt, R2)


def test_member_hull():
    hull = divisible_hull(Z_PLUS_Q_R2)
    assert member(hull, Fraction(1, 2)).member
    # oracle: 2 * (1/2) = 1 lands in the inner group; check multiples m <= 16
    inner_hits = [m for m in range(1, 17)
                  if member(Z_PLUS_Q_R2, Fraction(m, 2)).member]
    assert inner_hits and min(inner_hits) == 2


def test_member_hull_monotone():
    rng = random.Random(5)
    groups = [Z_PLUS_Q_R2, cyclic(3), laurent_ring(Domain.INT)]
    for g in groups:
        hull = divisible_hull(g)
        for _ in range(25):
            v = rational(Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)))
            if member(g, v).member:
                assert member(hull, v).member


def test_member_scaled_image_product():
    s = scaled(R2, Q)
    assert member(s, 3 * R2).member
    assert not member(s, 1).member

    p = product([Q, full_line()])
    assert member(p, (Fraction(1, 2), R2)).member
    assert not member(p, (R2, R2)).member

    a = matrix([[1, 1], [0, 1]])
    im = image(product([Q, Q]), a)
    assert member(im, (1, 1)).member
    assert member(im, (Fraction(1, 2), R2 - R2 + Fraction(1, 3))).member
    assert not member(im, (0, R2)).member


def test_member_scaled_laurent_divisor():
    s = scaled(1 + T, laurent_ring(Domain.INT))
    assert member(s, (1 + T) * (3 - t_monomial(-2))).member
    assert not member(s, T).member
    assert not member(s, (1 + T) * Fraction(1, 2)).member


def test_member_dimension_checks():
    with pytest.raises(DomainError):
        member(product([Q, Q]), (1,))
    with pytest.raises(DomainError):
        member(Q, (1, 2))


# -- rational and real lines -------------------------------------------------

def test_rat_line_member():
    assert rat_line_member(Z_PLUS_Q_R2, R2)
    assert not rat_line_member(Z_PLUS_Q_R2, 1)
    assert rat_line_member(laurent_ring(Domain.RAT), 1 + T)
    assert not rat_line_member(laurent_ring(Domain.INT), 1 + T)
    assert rat_line_member(laurent_ring(Domain.INT), 0)
    assert not rat_line_member(fraction_ring(2), 1)
    assert rat_line_member(full_line(), R3)
    # 2 + sqrt(2) is a member, but its rational line leaves the group
    assert member(Z_PLUS_Q_R2, 2 + R2).member
    assert not rat_line_member(Z_PLUS_Q_R2, 2 + R2)


def test_real_line_member():
    p = product([Q, full_line()])
    assert real_line_member(p, (0, 1))
    assert real_line_member(p, (0, R2))
    assert not real_line_member(p, (1, 1))
    assert real_line_member(full_space(2), (1, R2))
    assert not real_line_member(Q, 1)
    assert real_line_member(Q, 0)


# -- structural predicates ---------------------------------------------------

def test_is_divisible():
    assert is_divisible(Q)
    assert not is_divisible(Z_PLUS_Q_R2)
    assert not is_divisible(cyclic(1))
    assert not is_divisible(laurent_ring(Domain.INT))
    assert is_divisible(laurent_ring(Domain.RAT))
    assert not is_divisible(fraction_ring(2))
    assert is_divisible(divisible_hull(Z_PLUS_Q_R2))
    assert is_divisible(full_line()) and is_divisible(full_space(3))
    assert is_divisible(product([Q, Q])) and not is_divisible(product([Q, cyclic(1)]))
    assert is_divisible(scaled(R2, Q))


def test_is_divisible_definition_samples():
    # divisible G: v/m stays inside for sampled members
    rng = random.Random(61)
    for g in (Q, _rational_module(1, R2), divisible_hull(cyclic(3))):
        assert is_divisible(g)
        for _ in range(20):
            v = rational(rng.randrange(-6, 7))
            for m in (2, 3, 5):
                assert member(g, Fraction(1, m) * v).member
    # non-divisible G: a concrete failing pair exists
    assert member(Z_PLUS_Q_R2, 1).member
    assert not member(Z_PLUS_Q_R2, Fraction(1, 2)).member


def test_is_cyclic():
    assert is_cyclic(cyclic(5))
    two_three = mixed_module([(Domain.INT, 2), (Domain.INT, 3)])
    assert cyclic_form(two_three) == Cyclic(rational(1))
    assert not is_cyclic(Z_PLUS_Q_R2)
    assert not is_cyclic(Q)
    assert not is_cyclic(laurent_ring(Domain.INT))
    assert not is_cyclic(fraction_ring(2))
    assert not is_cyclic(full_line())
    assert cyclic_form(mixed_module([(Domain.INT, Fraction(1, 2)),
                                     (Domain.INT, Fraction(1, 3))])) == \
        Cyclic(rational(Fraction(1, 6)))
    assert cyclic_form(scaled(R2, cyclic(-3))) == Cyclic(3 * R2)
    # Z*t + Z*(1+t) has rank 2
    assert not is_cyclic(mixed_module([(Domain.INT, T), (Domain.INT, 1 + T)]))


def test_cyclic_form_agrees_with_membership():
    # oracle: sample heights <= 10 against the claimed generator
    two_three = mixed_module([(Domain.INT, 2), (Domain.INT, 3)])
    claimed = cyclic_form(two_three)
    for p in range(-10, 11):
        for q in range(1, 11):
            v = Fraction(p, q)
            assert member(two_three, v).member == member(claimed, v).member


def test_is_dense():
    assert is_dense(Z_PLUS_Q_R2)
    assert not is_dense(cyclic(7))
    assert not is_dense(mixed_module([(Domain.INT, 2), (Domain.INT, 3)]))
    assert is_dense(product([Q, Q]))
    assert not is_dense(product([Q, cyclic(1)]))
    assert is_dense(image(product([Q, Q]), matrix([[1, 1], [0, 1]])))
    assert is_dense(full_space(4))
    assert is_dense(laurent_ring(Domain.INT))


# -- normalize ---------------------------------------------------------------

def test_normalize_folds_scalings():
    n = normalize(scaled(R2, _rational_module(1, R3)))
    assert n == MixedModule(((Domain.RAT, R2), (Domain.RAT, sqrt_rational(6))))
    assert normalize(scaled(R2, Q)) == MixedModule(((Domain.RAT, R2),))
    assert normalize(scaled(2, cyclic(3))) == Cyclic(rational(6))
    assert normalize(scaled(R2, scaled(R2, Q))) == Q  # folds to 2*Q = Q


def test_normalize_misc():
    assert normalize(product([full_line(), full_line()])) == FullSpace(2)
    assert normalize(product([Q])) == Q
    a = matrix([[1, 1], [0, 1]])
    b = matrix([[1, 0], [1, 1]])
    g = product([Q, Q])
    assert normalize(image(image(g, a), b)) == normalize(image(g, a * b))
    assert normalize(image(g, matrix([[2, 0], [0, 2]]))) == g  # scalar matrix folds
    assert normalize(divisible_hull(laurent_ring(Domain.INT))) == LaurentRing(Domain.RAT)
    assert normalize(divisible_hull(cyclic(3))) == Q
    assert normalize(scaled(-1, laurent_ring(Domain.INT))) == laurent_ring(Domain.INT)


def test_normalize_idempotent_and_set_preserving():
    rng = random.Random(97)
    corpus = [
        Z_PLUS_Q_R2,
        scaled(R2, _rational_module(1, R3)),
        divisible_hull(Z_PLUS_Q_R2),
        product([Q, full_line()]),
        image(product([Q, Q]), matrix([[1, 1], [0, 1]])),
        scaled(3, divisible_hull(cyclic(2))),
        product([scaled(R2, Q), Q]),
        mixed_module([(Domain.INT, 2), (Domain.INT, 3)]),
    ]
    for g in corpus:
        n = normalize(g)
        assert normalize(n) == n
        dim = dimension(g)
        for _ in range(100):
            v = tuple(rational(Fraction(rng.randrange(-8, 9), rng.randrange(1, 9)))
                      if rng.random() < 0.7 else
                      rng.randrange(-8, 9) * R2
                      for _ in range(dim))
            assert member(g, v).member == member(n, v).member


# -- generators / bases / containment ----------------------------------------

def test_invariance_generators():
    gens = invariance_generators(product([Q, full_line()]))
    assert [k for k, _ in gens] == ["rat", "real"]
    gens = invariance_generators(Z_PLUS_Q_R2)
    assert [k for k, _ in gens] == ["int", "rat"]
    with pytest.raises(UnsupportedError):
        invariance_generators(laurent_ring(Domain.INT))
    with pytest.raises(UnsupportedError):
        invariance_generators(fraction_ring(2))


def test_basis_from_group():
    assert basis_from_group(product([Q, Q])) == \
        [(rational(1), rational(0)), (rational(0), rational(1))]
    assert basis_from_group(product([Q, _rational_module(R2)])) == \
        [(rational(1), rational(0)), (rational(0), R2)]
    a = matrix([[1, 1], [0, 1]])
    rows = basis_from_group(image(product([Q, Q]), a))
    assert rows == [(rational(1), rational(1)), (rational(0), rational(1))]
    for row in rows:
        assert member(image(product([Q, Q]), a), row).member
    with pytest.raises(DescriptorError):
        basis_from_group(cyclic(1))


def test_subgroup_of():
    assert subgroup_of(cyclic(1), Q)
    assert subgroup_of(Z_PLUS_Q_R2, _rational_module(1, R2))
    assert not subgroup_of(_rational_module(1, R2), Z_PLUS_Q_R2)
    assert subgroup_of(product([Q, Q]), full_space(2))
    assert not subgroup_of(full_space(2), product([Q, Q]))


def test_example_biquad_system_trivial_kernel():
    # the mixed relation a + b*sqrt(de) = c*sqrt(d) + e0*sqrt(e) forces
    # a = b = c = e0 = 0: the four coordinate vectors are independent
    from groupaut import linalg
    from groupaut.scalars import biquad_context

    for d, e in ((2, 3), (2, 5), (3, 5)):
        ctx = biquad_context(d, e)
        one_v = rational(1)._embedded(ctx)
        xy = (sqrt_rational(d) * sqrt_rational(e))._embedded(ctx)
        x = sqrt_rational(d)._embedded(ctx)
        y = sqrt_rational(e)._embedded(ctx)
        assert len(linalg.rref_basis([list(one_v), list(xy), list(x), list(y)])) == 4


# -- one walk: differential test against the per-node recursions -------------
#
# The reference below is the decision code as it stood when each question had
# its own recursion through the Scaled, Image and Product nodes.  The corpus
# nests those nodes through the dataclass constructors, unnormalized, so the
# walk meets shapes that normalize() would have folded away.


def _ref_quotient(g, v):
    quotient = []
    for c in v:
        q = _d.exact_div(c, g.factor)
        if q is None:
            return None
        quotient.append(q)
    return tuple(quotient)


def _ref_member(g, v):
    if isinstance(g, _d.Cyclic):
        w = _d._module_solve(((Domain.INT, g.generator),), v[0])
        return _d.MembershipVerdict(w is not None, w)
    if isinstance(g, _d.MixedModule):
        w = _d._module_solve(g.terms, v[0])
        return _d.MembershipVerdict(w is not None, w)
    if isinstance(g, _d.LaurentRing):
        s = v[0]
        ctx = _d.join_context(s.context, _d.FORMAL_CONTEXT)
        coeffs = [c for _, c in s._embedded(ctx)]
        if g.coeffs is Domain.INT:
            return _d.MembershipVerdict(all(c.denominator == 1 for c in coeffs))
        return _d.MembershipVerdict(True)
    if isinstance(g, _d.FractionRing):
        s = v[0]
        if not s.is_rational():
            return _d.MembershipVerdict(False)
        q = s.as_fraction().denominator
        while (k := math.gcd(q, g.m)) > 1:
            while q % k == 0:
                q //= k
        return _d.MembershipVerdict(q == 1)
    if isinstance(g, _d.Scaled):
        quotient = _ref_quotient(g, v)
        if quotient is None:
            return _d.MembershipVerdict(False)
        inner = _ref_member(g.inner, quotient)
        return _d.MembershipVerdict(inner.member, inner.witness)
    if isinstance(g, _d.FullLine):
        return _d.MembershipVerdict(True)
    if isinstance(g, _d.Product):
        parts = []
        for f, c in zip(g.factors, v):
            verdict = _ref_member(f, (c,))
            if not verdict.member:
                return _d.MembershipVerdict(False)
            parts.append(verdict.witness)
        if any(p is None for p in parts):
            return _d.MembershipVerdict(True)
        return _d.MembershipVerdict(True, tuple(c for p in parts for c in p))
    if isinstance(g, _d.Image):
        inner = _ref_member(g.inner, _d.vec_mat_mul(v, g.matrix.inverse()))
        return _d.MembershipVerdict(inner.member, inner.witness)
    if isinstance(g, _d.FullSpace):
        return _d.MembershipVerdict(True)
    raise AssertionError(g)


def _ref_rat_line(g, v):
    if isinstance(g, _d.Cyclic):
        return v[0].is_zero()
    if isinstance(g, _d.MixedModule):
        return _d._module_rat_line(g.terms, v[0])
    if isinstance(g, _d.LaurentRing):
        if g.coeffs is Domain.INT:
            return v[0].is_zero()
        return _ref_member(g, v).member
    if isinstance(g, _d.FractionRing):
        return v[0].is_zero()
    if isinstance(g, _d.Scaled):
        quotient = _ref_quotient(g, v)
        return quotient is not None and _ref_rat_line(g.inner, quotient)
    if isinstance(g, (_d.FullLine, _d.FullSpace)):
        return True
    if isinstance(g, _d.Product):
        return all(_ref_rat_line(f, (c,)) for f, c in zip(g.factors, v))
    if isinstance(g, _d.Image):
        return _ref_rat_line(g.inner, _d.vec_mat_mul(v, g.matrix.inverse()))
    raise AssertionError(g)


def _ref_real_line(g, v):
    if isinstance(g, (_d.FullLine, _d.FullSpace)):
        return True
    if isinstance(g, _d.Product):
        return all(_ref_real_line(f, (c,)) for f, c in zip(g.factors, v))
    if isinstance(g, _d.Image):
        return _ref_real_line(g.inner, _d.vec_mat_mul(v, g.matrix.inverse()))
    if isinstance(g, _d.Scaled):
        quotient = _ref_quotient(g, v)
        return quotient is not None and _ref_real_line(g.inner, quotient)
    return all(c.is_zero() for c in v)


_LEAVES = [
    cyclic(1), cyclic(Fraction(2, 3)), cyclic(R2), Q, Z_PLUS_Q_R2,
    mixed_module([(Domain.INT, 2), (Domain.INT, 3)]),
    _rational_module(1, R2), laurent_ring(Domain.INT), laurent_ring(Domain.RAT),
    fraction_ring(2), fraction_ring(6), full_line(),
]
_FACTORS = [rational(2), rational(Fraction(1, 3)), R2, 1 + R2, T, 1 + T]
_MATRICES_1 = [matrix([[3]]), matrix([[R2]]), matrix([[T]])]
_MATRICES_2 = [matrix([[1, 1], [0, 1]]), matrix([[2, 1], [1, 1]]),
               matrix([[R2, 0], [1, 1]]), matrix([[T, 0], [0, 1]])]
_COORDS = [rational(0), rational(1), rational(Fraction(1, 2)), rational(-3),
           rational(6), R2, 2 * R2, 1 + R2, Fraction(3, 4) * R2, T, 2 * T,
           t_monomial(-1), 1 + T, 3 * (1 + T)]


def _random_group(rng, n, depth):
    """An unnormalized descriptor of dimension n, built bottom-up."""
    pick = rng.randrange(4) if depth else 0
    if n == 1:
        if pick == 0:
            return rng.choice(_LEAVES)
        if pick == 1:
            return _d.Scaled(rng.choice(_FACTORS), _random_group(rng, 1, depth - 1))
        if pick == 2:
            return _d.Image(_random_group(rng, 1, depth - 1), rng.choice(_MATRICES_1))
        return _d.Product((_random_group(rng, 1, depth - 1),))
    if pick == 0:
        return rng.choice([FullSpace(2), _d.Product((rng.choice(_LEAVES),
                                                     rng.choice(_LEAVES)))])
    if pick == 1:
        return _d.Scaled(rng.choice(_FACTORS), _random_group(rng, 2, depth - 1))
    if pick == 2:
        return _d.Image(_random_group(rng, 2, depth - 1), rng.choice(_MATRICES_2))
    return _d.Product((_random_group(rng, 1, depth - 1),
                       _random_group(rng, 1, depth - 1)))


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc))


def test_walk_matches_per_node_recursions():
    rng = random.Random(20261018)
    decided = 0
    for _ in range(600):
        n = rng.choice((1, 2))
        g = _random_group(rng, n, 3)
        v = tuple(rng.choice(_COORDS) for _ in range(n))
        got = _outcome(member, g, v)
        assert got == _outcome(_ref_member, g, v), (g, v)
        assert _outcome(rat_line_member, g, v) == _outcome(_ref_rat_line, g, v), (g, v)
        assert _outcome(real_line_member, g, v) == _outcome(_ref_real_line, g, v), (g, v)
        decided += got[0] == "value"
    assert decided > 300   # most draws are decided, not context clashes


def test_walk_is_lazy_in_coordinate_order():
    # the first coordinate already fails, so t never divides sqrt(2)
    g = _d.Product((cyclic(1), _d.Scaled(T, laurent_ring(Domain.INT))))
    v = (rational(Fraction(1, 2)), R2)
    assert member(g, v) == _d.MembershipVerdict(False)
    assert not rat_line_member(g, v)
    assert not real_line_member(g, v)
    with pytest.raises(ContextError):
        member(g, (rational(1), R2))


def test_holds_dispatches_the_three_questions():
    p = product([Q, full_line()])
    for v in ((rational(1), R2), (rational(0), R2), (R2, rational(0))):
        assert _d.holds("int", p, v) == member(p, v).member
        assert _d.holds("rat", p, v) == rat_line_member(p, v)
        assert _d.holds("real", p, v) == real_line_member(p, v)
    with pytest.raises(DescriptorError):
        _d.holds("ring", p, (rational(1), R2))


def test_divisible_hull_is_folded_when_built():
    from groupaut.dsl import descriptor_from_json, group_to_text, parse_descriptor

    assert not hasattr(_d, "DivisibleHull")
    for inner in (cyclic(3), Z_PLUS_Q_R2, laurent_ring(Domain.INT),
                  scaled(R2, cyclic(1)), product([cyclic(1), full_line()]),
                  image(product([Q, cyclic(2)]), matrix([[1, 1], [0, 1]]))):
        hull = divisible_hull(inner)
        assert hull == hull_closure(normalize(inner))
        assert is_divisible(hull)
    assert divisible_hull(cyclic(3)) == MixedModule(((Domain.RAT, rational(3)),))
    parsed = descriptor_from_json(
        {"kind": "hull", "inner": {"kind": "cyclic", "generator": "3"}})
    assert parsed == divisible_hull(cyclic(3))
    assert group_to_text(parse_descriptor("hull(cyclic(3))")) == "Q"
    with pytest.raises(UnsupportedError):
        hull_closure(scaled(2, fraction_ring(3)))


def _nodes(g):
    """g and every descriptor node inside it."""
    yield g
    if isinstance(g, (_d.Scaled, _d.Image)):
        yield from _nodes(g.inner)
    elif isinstance(g, _d.Product):
        for f in g.factors:
            yield from _nodes(f)


def test_normalize_is_stable_after_one_pass():
    # normalize runs one pass, and the rule table reads the inner nodes of
    # its output without normalizing them again: each node must be normal
    rng = random.Random(5)
    normalized = 0
    for _ in range(4000):
        g = _random_group(rng, rng.choice((1, 2)), 4)
        try:
            n = normalize(g)
        except GroupAutError:
            continue     # e.g. a product of matrices across towers
        for node in _nodes(n):
            assert _d._normalize(node) == node, (g, node)
        normalized += 1
    assert normalized > 3000


def test_zero_leaf_member_matches_the_module_solve():
    # zero lies in every group, so a module leaf answers it without a solve;
    # the verdict and the witness are the ones the module solve gives
    rng = random.Random(6)
    checked = 0
    for _ in range(400):
        try:
            g = normalize(_random_group(rng, rng.choice((1, 2)), 3))
        except GroupAutError:
            continue
        for node in _nodes(g):
            if isinstance(node, (Cyclic, MixedModule)):
                w = _d._module_solve(node.terms, rational(0))
                assert w is not None and not any(w), node
                assert _d._leaf_member(node, (rational(0),)) \
                    == _d.MembershipVerdict(True, w), node
                checked += 1
        assert member(g, (rational(0),) * dimension(g)).member, g
    assert checked > 100
