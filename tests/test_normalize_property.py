"""``normalize`` is idempotent and keeps the set, on drawn descriptors.

The hypothesis version of
``test_descriptors.test_normalize_idempotent_and_set_preserving``: groups
of dimension 1 and 2 are drawn unnormalized with
``test_descriptors._random_group``, and vectors are drawn from
``test_descriptors._COORDS`` and from the members of the normal form.
groupaut's own walks may answer a raw descriptor differently from its
normal form (ROADMAP item 7), so membership in the raw draw is decided by
the sympy referee of ``test_sympy_referee``; membership in the normal form
is groupaut's ``member``.
"""

from fractions import Fraction

import pytest

from groupaut.descriptors import (Domain, Image, cyclic, member, mixed_module,
                                  normalize, product)
from groupaut.dsl import group_to_text, scalar_to_text
from groupaut.errors import ContextError, GroupAutError
from groupaut.matrices import matrix, vec_mat_mul
from groupaut.oracle import enumerate_members
from groupaut.scalars import rational

from draws import _COORDS, _random_group

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
pytest.importorskip("sympy")

from test_sympy_referee import referee_for  # noqa: E402


@hypothesis.settings(derandomize=True, database=None, max_examples=120,
                     deadline=None)
@hypothesis.given(rng=st.randoms(use_true_random=False),
                  n=st.sampled_from((1, 2)))
def test_normalize_is_idempotent_and_keeps_the_set(rng, n):
    g = _random_group(rng, n, 3)
    try:
        norm = normalize(g)
    except ContextError:
        return              # a scaling that joins incompatible towers
    assert normalize(norm) == norm
    vectors = [tuple(rng.choice(_COORDS) for _ in range(n)) for _ in range(3)]
    try:
        members = enumerate_members(norm, 1)
    except GroupAutError:
        members = []
    vectors += rng.sample(members, min(3, len(members)))
    for v in vectors:
        try:
            verdict = member(norm, v).member
        except ContextError:
            continue        # v and the normal form share no field
        ref = referee_for(group_to_text(g), *map(scalar_to_text, v))
        assert ref.member(g, tuple(map(ref.number, v))) is verdict, \
            (group_to_text(g), v)


def test_nested_images_compose_in_order():
    # the draws nest two 2-D images too rarely to catch composing them in
    # the wrong order: (G*A)*B = G*(A*B), and G*(B*A) is another group
    # here, since A and B do not commute
    g = product([cyclic(1), mixed_module([(Domain.RAT, 1)])])
    a, b = matrix([[1, 1], [0, 1]]), matrix([[1, 0], [1, 1]])
    raw = Image(Image(g, a), b)
    norm = normalize(raw)
    assert norm == normalize(Image(g, a * b)) != normalize(Image(g, b * a))
    # A*B takes (0, 1/2) in G to (1/2, 1/2), and (B*A)^-1 takes that to
    # (1/2, 0), outside G
    half = rational(Fraction(1, 2))
    w = vec_mat_mul(vec_mat_mul((rational(0), half), a), b)
    ref = referee_for(group_to_text(raw))
    for v in (w, (half, rational(0)), (rational(1), rational(1))):
        assert ref.member(raw, tuple(map(ref.number, v))) is member(norm, v).member, v
    assert member(norm, w).member
