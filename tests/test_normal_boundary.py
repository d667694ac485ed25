"""Every public entry answers on g as on ``normalize(g)``.

Phi(G) = {A : G*A = G} depends on the set G alone, not on how G is
written, so a hand-built descriptor and its normal form must get one
answer.  Each entry normalizes once, and ``normalize`` returns a g that is
already normal itself, so that a run's evidence can be matched to its
group by identity.  The draws are the unnormalized trees of
``tests/draws.py``.
"""

import random

from groupaut.autgroup import acts_invariantly, aut_member
from groupaut.descriptors import (
    cyclic_form,
    full_line,
    image,
    is_dense,
    is_divisible,
    member,
    normalize,
    product,
    scaled,
)
from groupaut.dsl import group_to_text, parse_descriptor
from groupaut.errors import GroupAutError
from groupaut.matrices import matrix
from groupaut.oracle import candidate_scalars, cross_check

from draws import (R2, T, _COORDS, _FACTORS, _MATRICES_2, _full_space,
                   _random_group)


def _draws(seed, count):
    """(raw g, its normal form, a vector, an action) for each draw whose
    group normalizes; every choice is made before normalizing."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((1, 2))
        g = _random_group(rng, n, 3)
        v = tuple(rng.choice(_COORDS) for _ in range(n))
        a = rng.choice(_FACTORS) if n == 1 else rng.choice(_MATRICES_2)
        try:
            yield g, normalize(g), v, a
        except GroupAutError:
            continue


def test_a_normal_form_normalizes_to_itself():
    parsed = 0
    for g, h, _, _ in _draws(20261024, 600):
        assert normalize(h) is h, g
        try:
            p = parse_descriptor(group_to_text(h))
        except GroupAutError:
            continue
        # an equal copy, not the object the cache holds
        assert p == h and normalize(p) is p, g
        parsed += p is not h
    assert parsed > 300, parsed


def _answer(fn, *args):
    try:
        out = fn(*args)
    except GroupAutError as exc:
        return "raises", type(exc), str(exc)
    return "value", out, getattr(out, "image", None)


def _questions(g, v, a):
    """Each public question about g, as (name, outcome)."""
    yield "member", _answer(member, g, v)
    yield "acts_invariantly", _answer(acts_invariantly, g, a)
    yield "aut_member", _answer(aut_member, g, a)
    yield "is_dense", _answer(is_dense, g)
    yield "is_divisible", _answer(is_divisible, g)
    if len(v) == 1:
        yield "cyclic_form", _answer(cyclic_form, g)
        yield "candidate_scalars", _answer(candidate_scalars, g, 1)
    yield "cross_check", _answer(cross_check, g, 1)


def test_raw_and_normal_descriptors_get_one_answer():
    checked = raw = 0
    for g, h, v, a in _draws(20261018, 3000):
        for (name, got), (_, want) in zip(_questions(g, v, a), _questions(h, v, a)):
            assert got == want, (name, g, v, a)
        checked += 1
        raw += h != g
    assert checked >= 2000 and raw >= 1500, (checked, raw)


def test_a_scaled_image_of_the_line_is_the_line():
    # sqrt(2) * (R * [sqrt(2)]) is R: t is a member, and every nonzero t
    # preserves it
    g = scaled(R2, product([image(full_line(), matrix([[R2]]))]))
    assert normalize(g) == full_line()
    verdict = member(g, T)
    assert verdict.member and verdict.witness is None
    cert = acts_invariantly(g, T)
    assert cert.verdict and cert.failing_generator is None
    assert acts_invariantly(scaled(R2, _full_space(2)), matrix([[T, 1], [0, 1]]))
