"""``cyclic(g)`` is the one-term Z-module ``((Domain.INT, g),)``.

For seeded generators g over every scalar context (RAT, QUAD, BIQUAD,
FORMAL), each decision on ``cyclic(g)`` is compared with the answer worked
out by hand for the group Z*g, and with the same decision on the module
``Z*g`` built by ``mixed_module``.
"""

import random
from fractions import Fraction

import pytest

from groupaut.autgroup import Exact, PlusMinusOne, aut_group
from groupaut.descriptors import (
    Domain,
    MixedModule,
    cyclic,
    cyclic_form,
    hull_closure,
    invariance_generators,
    is_cyclic,
    is_dense,
    is_divisible,
    member,
    mixed_module,
    normalize,
)
from groupaut.dsl import group_to_text, parse_descriptor, parse_scalar
from groupaut.oracle import enumerate_members
from groupaut.scalars import (
    ContextKind,
    exact_div,
    rational,
    sqrt_rational,
    t_monomial,
    zero,
)

from test_descriptors import rat_line_member, real_line_member


def _q(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


def _generator(rng, kind):
    """A nonzero scalar whose context is exactly ``kind``."""
    if kind is ContextKind.RAT:
        return rational(_q(rng))
    if kind is ContextKind.QUAD:
        d = rng.choice([2, 3, 5, 7])
        a = _q(rng) if rng.random() < 0.5 else 0
        return rational(a) + rational(_q(rng)) * sqrt_rational(d)
    if kind is ContextKind.BIQUAD:
        return (rational(_q(rng) if rng.random() < 0.5 else 0)
                + rational(_q(rng)) * sqrt_rational(2)
                + rational(_q(rng)) * sqrt_rational(3))
    exps = rng.sample(range(-2, 3), rng.randint(1, 3))
    g = zero()
    for k in exps:
        g = g + t_monomial(k, _q(rng))
    if g.is_rational():
        g = g + t_monomial(1)
    return g


KINDS = list(ContextKind)
CASES = [(kind, seed) for kind in KINDS for seed in range(6)]


@pytest.fixture(params=CASES, ids=[f"{k.value}-{s}" for k, s in CASES])
def g(request):
    kind, seed = request.param
    gen = _generator(random.Random(f"{kind.value}/{seed}"), kind)
    assert gen.context.kind is kind
    return gen


def _expected_member(gen, v):
    """(member, witness) of v in Z*gen, worked out by exact division."""
    q = exact_div(v, gen)
    if q is None or not q.is_rational() or q.as_fraction().denominator != 1:
        return False, None
    return True, (q.as_fraction(),)


def test_member_has_one_integer_coefficient(g):
    # the witness is over the generator of the normal form, which is g or
    # -g, whichever leads with a positive numerator
    probes = [rational(k) * g for k in range(-3, 4)]
    probes += [rational(Fraction(k, 2)) * g for k in (-3, 1, 5)]
    probes += [rational(Fraction(2, 3)) * g, g * g, zero()]
    module = mixed_module([(Domain.INT, g)])
    normal = normalize(cyclic(g)).terms[0][1]
    assert normal in (g, -g)
    for v in probes:
        expected = _expected_member(normal, v)
        verdict = member(cyclic(g), v)
        assert (verdict.member, verdict.witness) == expected, v
        assert member(module, v) == verdict
    sign = 1 if normal == g else -1
    for k in range(-3, 4):
        assert member(cyclic(g), rational(k) * g).witness == (Fraction(sign * k),)


def test_lines_through_a_cyclic_group(g):
    for v in (g, rational(Fraction(1, 2)) * g, g * g):
        assert not rat_line_member(cyclic(g), v)
        assert not real_line_member(cyclic(g), v)
    assert rat_line_member(cyclic(g), zero())
    assert real_line_member(cyclic(g), zero())


def test_structure_of_a_cyclic_group(g):
    c = cyclic(g)
    module = mixed_module([(Domain.INT, g)])
    assert c.terms == ((Domain.INT, g),)
    assert c == module
    assert hull_closure(c) == MixedModule(((Domain.RAT, g),))
    assert hull_closure(c) == hull_closure(module)
    assert not is_divisible(c)
    assert invariance_generators(c) == [("int", (g,))]
    assert invariance_generators(c) == invariance_generators(module)
    canonical = cyclic_form(c)
    assert canonical in (cyclic(g), cyclic(-g))
    assert canonical == cyclic_form(module)
    assert is_cyclic(c) and not is_dense(c)


def test_sign_of_the_cyclic_form(g):
    # the canonical generator of Z*g has a positive leading coefficient
    form = cyclic_form(cyclic(g)).terms[0][1]
    assert cyclic_form(cyclic(-g)).terms[0][1] == form
    lead = form.coords[0][1] if form.context.kind is ContextKind.FORMAL \
        else next(c for c in form.coords if c != 0)
    assert lead > 0


def test_aut_group_of_a_cyclic_group_is_plus_minus_one(g):
    assert aut_group(cyclic(g)) == Exact(PlusMinusOne())
    assert aut_group(mixed_module([(Domain.INT, g)])) == Exact(PlusMinusOne())


def test_enumerate_members_of_a_cyclic_group(g):
    h = 3
    expected = {(rational(k) * g).sort_key(): (rational(k) * g,)
                for k in range(-h, h + 1)}
    got = enumerate_members(cyclic(g), h)
    assert got == [expected[key] for key in sorted(expected)]
    assert got == enumerate_members(mixed_module([(Domain.INT, g)]), h)


# (text, its printed form, the generator of that form): the spellings of one
# cyclic group parse to one descriptor, the one-term Z-module, and print one
# text, Z for the integers and Z*g otherwise
SPELLINGS = [
    ("Z", "Z", "1"), ("Z*1", "Z", "1"), ("cyclic(1)", "Z", "1"),
    ("cyclic(-1)", "Z", "1"),
    ("Z*2", "Z*2", "2"), ("cyclic(2)", "Z*2", "2"), ("cyclic(-2)", "Z*2", "2"),
    ("2*Z", "Z*2", "2"),
    ("Z*(1+sqrt(2))", "Z*(1+sqrt(2))", "1+sqrt(2)"),
    ("cyclic(1+sqrt(2))", "Z*(1+sqrt(2))", "1+sqrt(2)"),
    ("Z*t", "Z*t", "t"),
]


@pytest.mark.parametrize("text,printed,gen", SPELLINGS,
                         ids=[text for text, _, _ in SPELLINGS])
def test_one_spelling_of_a_cyclic_group(text, printed, gen):
    g = parse_descriptor(text)
    assert g == cyclic(parse_scalar(gen))
    assert g == mixed_module([(Domain.INT, parse_scalar(gen))])
    assert group_to_text(g) == printed
    assert parse_descriptor(printed) == g
