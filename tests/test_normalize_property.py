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

import pytest

from groupaut.descriptors import member, normalize
from groupaut.dsl import group_to_text, scalar_to_text
from groupaut.errors import ContextError, GroupAutError
from groupaut.oracle import enumerate_members

from test_descriptors import _COORDS, _random_group

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
