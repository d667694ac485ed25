"""Print and parse as a fixpoint on drawn descriptors.

``test_dsl.test_parse_print_parse_fixpoint`` checks a fixed list of texts.
Here hypothesis draws unnormalized descriptors of dimension 1 and 2 with
``test_descriptors._random_group``.  Printing one and parsing the text must
give its normal form, or the ``ContextError`` that normalizing it raises;
the normal form must then print and parse back to itself.
"""

import re

import pytest

from groupaut.descriptors import normalize
from groupaut.dsl import group_to_text, parse_descriptor
from groupaut.errors import ContextError

from draws import _random_group

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, database=None, max_examples=200,
                     deadline=None)
@hypothesis.given(rng=st.randoms(use_true_random=False),
                  n=st.sampled_from((1, 2)))
def test_parse_print_parse_fixpoint_on_drawn_groups(rng, n):
    g = _random_group(rng, n, 3)
    text = group_to_text(g)
    try:
        want = normalize(g)
    except ContextError as exc:
        with pytest.raises(ContextError, match=re.escape(str(exc))):
            parse_descriptor(text)
        return
    parsed = parse_descriptor(text)
    assert parsed == want, text
    printed = group_to_text(parsed)
    again = parse_descriptor(printed)
    assert again == parsed, printed
    assert group_to_text(again) == printed, printed
