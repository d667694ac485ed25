"""Property: no proper dense subgroup of the plane is preserved by SL(2).

The paper's non-realization theorem says SL^{+-}(n) is never Phi(G) for a
proper dense G, because a dense group that every determinant-one matrix
preserves is the whole space.  ``sl_obstruction_witness`` exhibits the
matrix; here hypothesis draws products of two dense one-dimensional
leaves (modules in each scalar tower, or R), their images under a shear
and their scalings, and checks that the witness has determinant one and
that ``acts_invariantly`` refutes it with a witness that replays.  Density
is read through ``is_dense``, that is through ``cyclic_form``.  The runs
are derandomized and keep no example database.
"""

import pytest

from groupaut.autgroup import acts_invariantly
from groupaut.descriptors import (
    FullSpace,
    invariance_generators,
    is_dense,
    member,
    normalize,
)
from groupaut.dsl import parse_descriptor
from groupaut.errors import UnsupportedError
from groupaut.matrices import vec_mat_mul
from groupaut.scalars import one
from groupaut.witnesses import sl_obstruction_witness

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# dense one-dimensional leaves, one family per tower
LEAVES = {
    "rat": ("Q", "Q*3/2"),
    "quad": ("Q + Q*sqrt(2)", "Z*1 + Z*sqrt(2)", "Z*1 + Q*sqrt(2)",
             "Q*sqrt(3)", "Z*sqrt(3) + Q*(1+sqrt(3))"),
    "biquad": ("Q*sqrt(2) + Q*sqrt(3)", "Z*sqrt(2) + Z*sqrt(3)",
               "Z*1 + Q*sqrt(6)", "Q + Q*sqrt(2) + Q*sqrt(3)"),
    "formal": ("Q + Q*t", "Z*1 + Z*t", "Z*1 + Q*t", "Q*t", "Q*(1+t)",
               "Q*t^-1 + Q*t^2", "Z*(1+t) + Z*t^2"),
}
FACTORS = {"rat": ("2", "-1/3"), "quad": ("sqrt(2)", "1+sqrt(2)"),
           "biquad": ("sqrt(6)", "sqrt(2)+sqrt(3)"), "formal": ("t", "1+t")}


@st.composite
def _plane_groups(draw):
    tower = draw(st.sampled_from(sorted(LEAVES)))
    leaf = st.sampled_from(LEAVES[tower] + ("R",))
    text = f"({draw(leaf)}) x ({draw(leaf)})"
    if draw(st.booleans()):
        text = f"image({text}, [1,1;0,1])"
    factor = draw(st.sampled_from((None,) + FACTORS[tower]))
    return text if factor is None else f"({factor})*({text})"


@hypothesis.settings(derandomize=True, database=None, max_examples=150,
                     deadline=None)
@hypothesis.given(text=_plane_groups())
# the real line leaves these through t^2, t and sqrt(6)
@hypothesis.example(text="(Q + Q*t) x (R)")
@hypothesis.example(text="image((R) x (Q + Q*t), [1,1;0,1])")
@hypothesis.example(text="(t)*((Q*t^-1 + Q*t^2) x (R))")
@hypothesis.example(text="(R) x (Q + Q*sqrt(2) + Q*sqrt(3))")
def test_sl_obstruction_witness_refutes_every_proper_dense_group(text):
    g = parse_descriptor(text)
    gn = normalize(g)
    try:
        invariance_generators(gn)
    except UnsupportedError:
        return
    if isinstance(gn, FullSpace) or not is_dense(gn):
        return
    a = sl_obstruction_witness(g)
    assert a.det() == one(), text
    cert = acts_invariantly(gn, a)
    assert not cert.verdict, text
    w = cert.failing_generator
    m = a if cert.direction == "forward" else a.inverse()
    assert member(gn, w).member, text
    assert not member(gn, vec_mat_mul(w, m)).member, text
