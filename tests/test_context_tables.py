"""The join and the embedding of each pair of contexts are worked out once
per pair, in two ``lru_cache``s of ``scalars``.

``_old_join_context`` and ``_old_lift`` are ``join_context`` and
``ExactScalar._lift`` as they were when both worked the answer out on every
call, their bodies copied verbatim (``_old_lift`` takes the scalar as its
first argument).  On every ordered pair of a list of contexts, the tables
must give the same context, the same numerators, or the same ContextError.
"""

import sys
from pathlib import Path

import pytest

from groupaut import scalars
from groupaut.errors import ContextError
from groupaut.scalars import (
    FORMAL_CONTEXT,
    RAT_CONTEXT,
    ContextKind,
    ExactScalar,
    FieldContext,
    biquad_context,
    context_radicands,
    join_context,
    quad_context,
)

ROOT = Path(__file__).resolve().parents[1]

_FORMAL = ContextKind.FORMAL
_RAT = ContextKind.RAT
_NO_SURDS = {ContextKind.QUAD: (0,), ContextKind.BIQUAD: (0, 0, 0)}


# --- the routes that worked each pair out on every call, verbatim -------------

def _old_join_context(a: FieldContext, b: FieldContext) -> FieldContext:
    """Smallest supported context containing both, or raise ContextError."""
    if a is b or b.kind is ContextKind.RAT:
        return a
    if a.kind is ContextKind.RAT or a == b:
        return b
    if ContextKind.FORMAL in (a.kind, b.kind):
        raise ContextError(f"cannot join {a!r} with {b!r}")
    rads = {r for r in context_radicands(a) if r != 1}
    rads |= {r for r in context_radicands(b) if r != 1}
    # two different fields have at least two radicands between them; each
    # pair inside one biquadratic field multiplies into the set, so a join
    # exists exactly when at most three radicands close up
    small = sorted(rads)
    ctx = biquad_context(small[0], small[1])
    if rads <= set(context_radicands(ctx)):
        return ctx
    raise ContextError(f"joining {a!r} and {b!r} needs a field of degree > 4")


def _old_lift(self, ctx: FieldContext) -> tuple:
    """The numerators of self over the basis of ctx, a context that
    contains it; the denominator stays self.den."""
    sc, nums = self.context, self.nums
    if sc is ctx or sc == ctx:
        return nums
    if sc.kind is _RAT:
        if ctx.kind is not _FORMAL:
            return nums + _NO_SURDS[ctx.kind]
        return ((0, nums[0]),) if nums[0] else ()
    if _FORMAL in (sc.kind, ctx.kind) \
            or not set(context_radicands(sc)) <= set(context_radicands(ctx)):
        raise ContextError(f"cannot embed {sc!r} into {ctx!r}")
    at = dict(zip(context_radicands(sc), nums))
    return tuple(at.get(r, 0) for r in context_radicands(ctx))


# --- the contexts, and a value in each ----------------------------------------

CONTEXTS = ([RAT_CONTEXT, FORMAL_CONTEXT]
            + [quad_context(d) for d in (2, 3, 5, 6, 7, 10, 15)]
            + [biquad_context(d, e)
               for d, e in ((2, 3), (2, 5), (3, 5), (2, 7), (5, 6))]
            + [FieldContext(ContextKind.BIQUAD, 2, 3)])


def _values(ctx):
    """Values stored over ctx: every numerator nonzero, and (outside the
    FORMAL context) the zero; the numerators need not be in lowest terms,
    as a lift does not read them."""
    if ctx.kind is _FORMAL:
        return [ExactScalar(ctx, ((-2, 3), (1, -5)), 7),
                ExactScalar(ctx, ((4, 1),), 1)]
    n = len(context_radicands(ctx))
    return [ExactScalar(ctx, tuple(range(2, 2 + n)), 3),
            ExactScalar(ctx, tuple(-k for k in range(5, 5 + n)), 1),
            ExactScalar(ctx, (0,) * n, 1)]


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ContextError as exc:
        return ("raises", str(exc))


PAIRS = [(a, b) for a in CONTEXTS for b in CONTEXTS]


def test_the_list_holds_an_equal_context_that_is_not_the_interned_one():
    copy = CONTEXTS[-1]
    assert copy == biquad_context(2, 3) and copy is not biquad_context(2, 3)


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_join_matches_the_route_that_worked_each_pair_out(cold):
    joined = 0
    for a, b in PAIRS:
        if cold:
            scalars._join.cache_clear()
        got = _outcome(join_context, a, b)
        assert got == _outcome(_old_join_context, a, b), (a, b)
        joined += got[0] == "value"
    # RAT joins everything, FORMAL only itself and RAT
    assert 0 < joined < len(PAIRS)


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_lift_matches_the_route_that_worked_each_pair_out(cold):
    lifted = 0
    for a, b in PAIRS:
        for s in _values(a):
            # into the other context, and into the join of the two
            for ctx in {b, _outcome(_old_join_context, a, b)[1]}:
                if not isinstance(ctx, FieldContext):
                    continue
                if cold:
                    scalars._embedding.cache_clear()
                got = _outcome(s._lift, ctx)
                assert got == _outcome(_old_lift, s, ctx), (s, ctx)
                lifted += got[0] == "value"
    assert lifted > len(PAIRS)


def test_equal_contexts_hash_equal():
    for a, b in PAIRS:
        if a == b:
            assert hash(a) == hash(b), (a, b)


def test_the_benchmark_clears_the_tables_before_each_request(monkeypatch):
    # perfbench/workloads.py clears every package lru_cache before each
    # request, so the benchmark times the tables cold
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    names = {name for name, _ in workloads.CACHES}
    assert {"scalars._join", "scalars._embedding"} <= names
    join_context(quad_context(2), quad_context(3))
    ExactScalar(quad_context(2), (1, 1), 1)._lift(biquad_context(2, 3))
    workloads.clear_caches()
    assert scalars._join.cache_info().currsize == 0
    assert scalars._embedding.cache_info().currsize == 0
