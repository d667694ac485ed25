"""Property: Phi(G) = {A : G*A = G} is a group.

The paper identifies Aut(G) with Phi(G), so the scalings that the
brute-force referee confirms must be closed under products and inverses.
Among the confirmed candidates of ``brute_force_aut`` on the kinds of
one-dimensional groups the oracle corpus uses, hypothesis draws pairs and
checks that ``acts_invariantly`` confirms their product and each inverse.
The coset law checks refutations: if c is refuted and d confirmed, c * d
is refuted too, as otherwise c = (c * d) * d^-1 would lie in Phi(G).  It is
asked of every such pair among ``candidate_scalars(g, 1)``, each product
certified afresh, except a product that leaves the scalar tower.  The runs
are derandomized and keep no example database, so the tests are
deterministic.
"""

from functools import lru_cache

import pytest

from groupaut.autgroup import acts_invariantly
from groupaut.dsl import parse_descriptor
from groupaut.errors import ContextError
from groupaut.oracle import brute_force_aut, candidate_scalars

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RADICANDS = (2, 3, 5, 6, 7)
# the one-dimensional kinds of the oracle corpus
KINDS = (
    "Z*1 + Q*sqrt({d})",
    "Z*sqrt({d}) + Q*sqrt({e})",
    "Q + Q*sqrt({d})",
    "Q*sqrt({d}) + Q*sqrt({e})",
    "Q + Q*t",
    "ring(Z[t,1/t])",
    "hull(Z*1 + Z*sqrt({d}))",
    "Zinv({m})",
    "R",
)
HEIGHT = 2


@lru_cache(maxsize=None)
def _confirmed(text):
    g = parse_descriptor(text)
    return g, brute_force_aut(g, HEIGHT).confirmed


@st.composite
def _group_texts(draw):
    d, e = draw(st.lists(st.sampled_from(RADICANDS), min_size=2, max_size=2,
                         unique=True))
    m = draw(st.sampled_from((2, 3, 5, 6, 7, 10)))
    return draw(st.sampled_from(KINDS)).format(d=d, e=e, m=m)


@hypothesis.settings(derandomize=True, database=None, max_examples=120,
                     deadline=None)
@hypothesis.given(text=_group_texts(), data=st.data())
def test_confirmed_scalings_are_closed_under_products_and_inverses(text, data):
    g, confirmed = _confirmed(text)
    assert confirmed, text          # +-1 always act
    a = data.draw(st.sampled_from(confirmed), label="a")
    b = data.draw(st.sampled_from(confirmed), label="b")
    assert acts_invariantly(g, a * b).verdict, (text, a, b)
    assert acts_invariantly(g, a.invert()).verdict, (text, a)


@hypothesis.settings(derandomize=True, database=None, max_examples=120,
                     deadline=None)
@hypothesis.given(text=_group_texts())
def test_a_refuted_scaling_times_a_confirmed_one_is_refuted(text):
    g = parse_descriptor(text)
    verdicts = [(c, acts_invariantly(g, c).verdict)
                for c in candidate_scalars(g, 1)]
    refuted = [c for c, verdict in verdicts if not verdict]
    confirmed = [d for d, verdict in verdicts if verdict]
    assert confirmed, text          # +-1 always act
    for c in refuted:
        for d in confirmed:
            try:
                cd = c * d
            except ContextError:
                continue            # c * d leaves the tower
            assert not acts_invariantly(g, cd).verdict, (text, c, d)
