import dataclasses
import math
import random
import sys
import typing
from fractions import Fraction

import pytest

from groupaut import descriptors as _d
from groupaut.descriptors import (
    Domain,
    FullLine,
    MixedModule,
    LaurentRing,
    Product,
    cyclic,
    cyclic_form,
    dimension,
    divisible_hull,
    fraction_ring,
    full_line,
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
    scaled,
)
from groupaut.dsl import parse_descriptor, parse_matrix
from groupaut.errors import (
    ContextError,
    DescriptorError,
    DomainError,
    GroupAutError,
    UnsupportedError,
)
from groupaut.matrices import matrix, scalar_matrix
from groupaut.scalars import (FORMAL_CONTEXT, join_context, rational,
                              sqrt_rational, t_monomial)

from draws import (Q, R2, T, Z_PLUS_Q_R2, _COORDS, _full_space, _random_group,
                   _rational_module)
from scalar_support import _embedded


R3 = sqrt_rational(3)


def rat_line_member(g, v):
    """Does the whole rational line Q*v lie inside G?"""
    return _d.holds("rat", g, _d.as_vector(g, v))


def real_line_member(g, v):
    """Does the whole real line R*v lie inside G?"""
    return _d.holds("real", g, _d.as_vector(g, v))


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
        gens = [gen for _, gen in g.terms]
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
    # a surd is in no Laurent ring
    assert not member(zt, R2).member and not member(qt, 1 + R2).member


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
    assert real_line_member(_full_space(2), (1, R2))
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
    assert is_divisible(full_line()) and is_divisible(_full_space(3))
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
    assert cyclic_form(two_three) == cyclic(1)
    assert not is_cyclic(Z_PLUS_Q_R2)
    assert not is_cyclic(Q)
    assert not is_cyclic(laurent_ring(Domain.INT))
    assert not is_cyclic(fraction_ring(2))
    assert not is_cyclic(full_line())
    assert cyclic_form(mixed_module([(Domain.INT, Fraction(1, 2)),
                                     (Domain.INT, Fraction(1, 3))])) == \
        cyclic(Fraction(1, 6))
    assert cyclic_form(scaled(R2, cyclic(-3))) == cyclic(3 * R2)
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
    assert is_dense(_full_space(4))
    assert is_dense(laurent_ring(Domain.INT))


# -- normalize ---------------------------------------------------------------

def test_normalize_folds_scalings():
    n = normalize(scaled(R2, _rational_module(1, R3)))
    assert n == MixedModule(((Domain.RAT, R2), (Domain.RAT, sqrt_rational(6))))
    assert normalize(scaled(R2, Q)) == MixedModule(((Domain.RAT, R2),))
    assert normalize(scaled(2, cyclic(3))) == cyclic(6)
    assert normalize(scaled(R2, scaled(R2, Q))) == Q  # folds to 2*Q = Q


def test_normalize_misc():
    plane = _full_space(2)
    assert normalize(plane) == Product((FullLine(), FullLine()))
    assert normalize(image(plane, matrix([[1, 1], [0, 1]]))) == plane
    assert normalize(scaled(R2, plane)) == plane
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


# -- generators ---------------------------------------------------------------

def test_invariance_generators():
    gens = invariance_generators(product([Q, full_line()]))
    assert [k for k, _ in gens] == ["rat", "real"]
    gens = invariance_generators(Z_PLUS_Q_R2)
    assert [k for k, _ in gens] == ["int", "rat"]
    with pytest.raises(UnsupportedError):
        invariance_generators(laurent_ring(Domain.INT))
    with pytest.raises(UnsupportedError):
        invariance_generators(fraction_ring(2))


def test_example_biquad_system_trivial_kernel():
    # the mixed relation a + b*sqrt(de) = c*sqrt(d) + e0*sqrt(e) forces
    # a = b = c = e0 = 0: the four coordinate vectors are independent
    from groupaut import linalg
    from groupaut.scalars import biquad_context

    for d, e in ((2, 3), (2, 5), (3, 5)):
        ctx = biquad_context(d, e)
        one_v = _embedded(rational(1), ctx)
        xy = _embedded(sqrt_rational(d) * sqrt_rational(e), ctx)
        x = _embedded(sqrt_rational(d), ctx)
        y = _embedded(sqrt_rational(e), ctx)
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
    if isinstance(g, _d.MixedModule):
        w = _d._module_solve(g.terms, v[0])
        return _d.MembershipVerdict(w is not None, w)
    if isinstance(g, _d.LaurentRing):
        s = v[0]
        ctx = join_context(s.context, FORMAL_CONTEXT)
        coeffs = [c for _, c in _embedded(s, ctx)]
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
    raise AssertionError(g)


def _ref_rat_line(g, v):
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
    if isinstance(g, _d.FullLine):
        return True
    if isinstance(g, _d.Product):
        return all(_ref_rat_line(f, (c,)) for f, c in zip(g.factors, v))
    if isinstance(g, _d.Image):
        return _ref_rat_line(g.inner, _d.vec_mat_mul(v, g.matrix.inverse()))
    raise AssertionError(g)


def _ref_real_line(g, v):
    if isinstance(g, _d.FullLine):
        return True
    if isinstance(g, _d.Product):
        return all(_ref_real_line(f, (c,)) for f, c in zip(g.factors, v))
    if isinstance(g, _d.Image):
        return _ref_real_line(g.inner, _d.vec_mat_mul(v, g.matrix.inverse()))
    if isinstance(g, _d.Scaled):
        quotient = _ref_quotient(g, v)
        return quotient is not None and _ref_real_line(g.inner, quotient)
    return all(c.is_zero() for c in v)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc))


def _agrees(got, want):
    """got is the reference's outcome, or a decided one where the reference
    raised ContextError: a value a leaf cannot hold is not a member."""
    return got == want \
        or (want == ("raises", ContextError) and got[0] == "value")


def _on_normal(ref):
    """The reference ref, asked of normalize(g)."""
    return lambda g, v: ref(normalize(g), v)


def test_walk_matches_per_node_recursions():
    # member on the raw draw answers as the reference on its normal form,
    # where every Scaled is over a ring; holds takes a normal g
    rng = random.Random(20261018)
    decided = 0
    for _ in range(600):
        n = rng.choice((1, 2))
        g = _random_group(rng, n, 3)
        v = tuple(rng.choice(_COORDS) for _ in range(n))
        got = _outcome(member, g, v)
        assert _agrees(got, _outcome(_on_normal(_ref_member), g, v)), (g, v)
        for fn, ref in ((rat_line_member, _ref_rat_line),
                        (real_line_member, _ref_real_line)):
            assert _agrees(_outcome(_on_normal(fn), g, v),
                           _outcome(_on_normal(ref), g, v)), (g, v)
        decided += got[0] == "value"
    assert decided > 300   # most draws are decided, not context clashes


def _assert_normal(g):
    """g keeps to the grammar of normal forms: a leaf; Scaled over a ring;
    a Product of two or more one-dimensional normal factors; or an Image
    with a matrix that is not scalar over such a Product, other than R^n."""
    if isinstance(g, _d.Scaled):
        assert isinstance(g.inner, (LaurentRing, _d.FractionRing)), g
    elif isinstance(g, Product):
        assert len(g.factors) >= 2, g
        for f in g.factors:
            assert dimension(f) == 1, g
            _assert_normal(f)
    elif isinstance(g, _d.Image):
        a = g.matrix
        assert isinstance(g.inner, Product), g      # so never inside an Image
        assert g.inner != _full_space(a.n), g
        assert a != scalar_matrix(a.rows[0][0], a.n), g
        _assert_normal(g.inner)
    else:
        assert isinstance(g, (MixedModule, LaurentRing, _d.FractionRing,
                              FullLine)), g


def test_normal_forms_keep_to_the_grammar():
    rng = random.Random(20261019)
    normalized = 0
    for _ in range(600):
        g = _random_group(rng, rng.choice((1, 2)), 3)
        try:
            n = normalize(g)
        except GroupAutError:
            continue        # a scaling that joins incompatible towers
        _assert_normal(n)
        normalized += 1
    assert normalized > 300


@pytest.mark.parametrize("inner,a,want", [
    ("Q x Z", "[1,0;0,1]", "Q x Z"),
    ("Q x Z", "[2,0;0,2]", "Q x cyclic(2)"),
    ("ring(Z[t,1/t]) x R", "[1,0;0,1]", "ring(Z[t,1/t]) x R"),
])
def test_an_image_under_a_scalar_matrix_is_its_rescaled_group(inner, a, want):
    g = normalize(_d.Image(parse_descriptor(inner), parse_matrix(a)))
    assert g == parse_descriptor(want)
    assert parse_descriptor(f"image({inner}, {a})") == g


def test_walk_is_lazy_in_coordinate_order(monkeypatch):
    # the first coordinate already fails, so t never divides sqrt(2)
    g = _d.Product((cyclic(1), _d.Scaled(T, laurent_ring(Domain.INT))))
    v = (rational(Fraction(1, 2)), R2)
    divided = []
    honest = _d.exact_div
    for cache in (_d._member, _d._rat_line):
        cache.cache_clear()
    monkeypatch.setattr(_d, "exact_div",
                        lambda a, b: divided.append(a) or honest(a, b))
    assert member(g, v) == _d.MembershipVerdict(False)
    assert not rat_line_member(g, v)
    assert not real_line_member(g, v)
    assert divided == []
    # past a member, the walk reaches sqrt(2), which t does not divide
    assert member(g, (rational(1), R2)) == _d.MembershipVerdict(False)
    assert divided == [R2]


def test_an_image_inverts_its_matrix_once(monkeypatch, capsys):
    # _split carries every vector it walks through A^-1 of an Image node;
    # the inverse is formed once per matrix, not once per vector
    from groupaut import cli
    from groupaut.matrices import ExactMatrix
    for mod in [m for name, m in sys.modules.items() if name.startswith("groupaut")]:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    a = matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    inverted = []
    honest = ExactMatrix.inverse

    def counted(self):
        inverted.append(self)
        return honest(self)

    monkeypatch.setattr(ExactMatrix, "inverse", counted)
    code = cli.main(["aut-member", "image(Z x Z x Z, [2,1,0;1,1,0;0,0,1])",
                     "[1,1,0;0,1,0;0,0,1]"])
    assert (code, capsys.readouterr().out) == (0, '{"aut_member":true}\n')
    assert inverted.count(a) == 1


def test_holds_dispatches_the_three_questions():
    p = product([Q, full_line()])
    for v in ((rational(1), R2), (rational(0), R2), (R2, rational(0))):
        assert _d.holds("int", p, v) == member(p, v).member
        assert _d.holds("rat", p, v) == _d._rat_line(p, v)
        assert _d.holds("real", p, v) == _d._real_line(p, v)
    with pytest.raises(DescriptorError):
        _d.holds("ring", p, (rational(1), R2))


def test_divisible_hull_is_folded_when_built():
    from groupaut.dsl import group_to_text, parse_descriptor

    assert not hasattr(_d, "DivisibleHull")
    for inner in (cyclic(3), Z_PLUS_Q_R2, laurent_ring(Domain.INT),
                  scaled(R2, cyclic(1)), product([cyclic(1), full_line()]),
                  image(product([Q, cyclic(2)]), matrix([[1, 1], [0, 1]]))):
        hull = divisible_hull(inner)
        assert hull == normalize(hull_closure(normalize(inner)))
        assert is_divisible(hull)
    # the factory and the parser both return the normal form: Q*3 is Q
    assert divisible_hull(cyclic(3)) == MixedModule(((Domain.RAT, rational(1)),))
    assert parse_descriptor("hull(cyclic(3))") == divisible_hull(cyclic(3))
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
            if isinstance(node, MixedModule):
                w = _d._module_solve(node.terms, rational(0))
                assert w is not None and not any(w), node
                assert _d._leaf_member(node, (rational(0),)) \
                    == _d.MembershipVerdict(True, w), node
                checked += 1
        assert member(g, (rational(0),) * dimension(g)).member, g
    assert checked > 100


# -- hashing ------------------------------------------------------------------

# every descriptor kind, as DSL text and as the constructors build it
HASH_CASES = [
    ("Z", lambda: cyclic(1)),
    ("Z*1 + Q*sqrt(2)",
     lambda: mixed_module([(Domain.INT, 1), (Domain.RAT, R2)])),
    ("ring(Z[t,1/t])", lambda: laurent_ring(Domain.INT)),
    ("Zinv(6)", lambda: fraction_ring(6)),
    ("2*ring(Q[t,1/t])", lambda: scaled(2, laurent_ring(Domain.RAT))),
    ("R", full_line),
    ("Q x Z", lambda: product([_rational_module(1), cyclic(1)])),
    ("image(Q x Q*sqrt(2), [1,1;0,1])",
     lambda: image(product([_rational_module(1), _rational_module(R2)]),
                   matrix([[1, 1], [0, 1]]))),
    ("R x R", lambda: _full_space(2)),
]


def _dataclass_repr(d):
    names = [f.name for f in dataclasses.fields(d)]
    return f"{type(d).__name__}(" \
        + ", ".join(f"{n}={getattr(d, n)!r}" for n in names) + ")"


def test_hash_cases_cover_every_descriptor_kind():
    kinds = {type(build()) for _, build in HASH_CASES}
    assert kinds == set(typing.get_args(_d.GroupDescriptor))


@pytest.mark.parametrize("text,build", HASH_CASES,
                         ids=[text for text, _ in HASH_CASES])
def test_descriptor_hash_is_kept_and_is_the_dataclass_hash(text, build):
    parsed, built = parse_descriptor(text), build()
    assert type(parsed) is type(built) and parsed == built
    assert parsed is not built
    names = [f.name for f in dataclasses.fields(built)]
    # the hash the dataclass computes: the tuple of its fields
    expected = hash(tuple(getattr(built, n) for n in names))
    assert hash(parsed) == hash(built) == expected
    assert hash(built) == expected      # read back once kept
    # the kept hash is no field: repr, fields and replace are unchanged
    assert repr(built) == repr(parsed) == _dataclass_repr(built)
    assert [f.name for f in dataclasses.fields(built)] == names
    copy = dataclasses.replace(built)
    assert copy == built and copy is not built and hash(copy) == expected
    assert {parsed: text}[built] == text


def test_replace_does_not_inherit_the_kept_hash():
    g = fraction_ring(2)
    hash(g)
    wider = dataclasses.replace(g, m=3)
    assert wider == fraction_ring(3) and hash(wider) == hash((3,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.m = 3


def test_domain_members_are_dict_keys():
    table = {Domain.INT: "Z", Domain.RAT: "Q"}
    assert table[Domain("Z")] == "Z" and table[Domain("Q")] == "Q"
    assert hash(Domain.INT) == hash(Domain("Z")) != hash(Domain.RAT)
    assert hash(Domain.RAT) == object.__hash__(Domain.RAT)     # by identity
    assert {laurent_ring(Domain.INT): 1}[parse_descriptor("ring(Z[t,1/t])")] == 1


def test_a_scaled_module_whose_products_share_no_field_folds():
    # the module's columns are the radicands its generators have, so the
    # products need no common field
    inner = parse_descriptor("Q + Q*sqrt(2) + Q*sqrt(3)")
    r5 = sqrt_rational(5)
    g = normalize(scaled(r5, inner))
    assert g == _rational_module(r5, sqrt_rational(10), sqrt_rational(15))
    _assert_normal(g)
    assert normalize(g) == g == normalize(scaled(-r5, inner))
    assert member(g, (sqrt_rational(10),)) == \
        _d.MembershipVerdict(True, (0, 1, 0))
    assert member(g, (sqrt_rational(10) + sqrt_rational(15),)) == \
        _d.MembershipVerdict(True, (0, 1, 1))
    assert not member(g, (sqrt_rational(2),)).member
    # as do products that share a field
    assert normalize(scaled(R2, parse_descriptor("Q + Q*sqrt(3)"))) == \
        parse_descriptor("Q*sqrt(2) + Q*sqrt(6)")
    # and a product that cannot form raises, as before
    with pytest.raises(ContextError):
        normalize(scaled(T, inner))
