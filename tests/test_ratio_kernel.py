"""The ratio kernel: the height bound tested on ints, and ``oracle._ratios``
halving by leading sign.

``_old_nums_height`` and ``_old_ratios`` are ``scalars.nums_height`` and
``oracle._ratios`` as they were when every product's height was computed in
full and the ratios were halved by negating scalars, their bodies copied
verbatim.  ``scalars._within`` must agree with the height on every small
numerator tuple.  ``_ratios`` takes lists closed under negation, as the
members that its callers enumerate are; on such lists of every kind of the
oracle corpus it must give the same dict, or the same error.

``_old_products_within`` is ``scalars.products_within`` as it was when a
Laurent monomial y formed every product x * y before the height test, its
body copied verbatim.  The window that now skips an x whose shifted
exponents leave [-h, h] must keep every product at both edges.
"""

import itertools
import random
from fractions import Fraction
import sys
import time
from math import gcd
from pathlib import Path

import pytest

from groupaut.dsl import parse_descriptor
from groupaut.errors import DomainError, GroupAutError
from groupaut.oracle import _factor_members, _ratios, enumerate_members
from groupaut.scalars import (
    FORMAL_CONTEXT,
    RAT_CONTEXT,
    ContextKind,
    ExactScalar,
    _laurent,
    _number,
    _within,
    biquad_context,
    join_context,
    lowest_terms,
    nums_product,
    products_within,
    quad_context,
    t_monomial,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

_FORMAL = ContextKind.FORMAL


# --- the routes as they were, verbatim ----------------------------------------

def _old_nums_height(ctx, nums: tuple, den: int) -> int:
    """Max of |numerator|, denominator and |exponent| over the coordinates
    of nums / den over the basis of ctx, each in its own lowest terms."""
    h = 0
    if ctx.kind is _FORMAL:
        h = max([abs(k) for k, _ in nums], default=0)
        nums = [n for _, n in nums]
    for n in nums:
        g = gcd(n, den)
        h = max(h, abs(n) // g, den // g)
    return h


def _old_ratios(numerators: list[ExactScalar], denominators: list[ExactScalar],
                h: int) -> dict:
    """The ratios x / y of height at most h, keyed by sort_key, over x in
    numerators and nonzero y in denominators.  They are formed on integer
    numerators, and a scalar is built only for a ratio inside the bound
    (scalars.products_within).  When the numerators are closed under
    negation, so are the ratios, and height does not depend on sign: a y
    whose negative came earlier adds no ratio, only the first x of each
    pair x, -x is used, and each ratio brings its negative."""
    closed = set(numerators).issuperset(-x for x in numerators)
    inverses, taken = [], set()
    for y in denominators:
        if y.is_zero() or (closed and -y in taken):
            continue
        try:
            inverses.append(y.invert())
        except DomainError:
            continue        # not a unit of the representation tower
        taken.add(y)
    if closed:
        half: dict = {}
        for x in numerators:
            if -x not in half:
                half[x] = None
        numerators = list(half)
    found = {}
    for r in products_within(numerators, inverses, h):
        for s in ((r, -r) if closed else (r,)):
            found[s.sort_key()] = s
    return found


def _old_products_within(xs: list, ys: list, h: int) -> list["ExactScalar"]:
    """The distinct products x * y of height at most h over y in ys and x in
    xs.  Each x is lifted once into its join with each context of ys, and
    products are formed on int numerators: a scalar is built only for a
    product inside the bound whose lowest terms are new in its join.  A pair
    with no join raises ContextError at the first such pair, y outer."""
    out, seen, lifts = [], {}, {}
    for y in ys:
        groups = lifts.get(y.context)
        if groups is None:
            # each x over its join with this context, grouped by the join
            groups = lifts[y.context] = {}
            for x in xs:
                ctx = join_context(x.context, y.context)
                groups.setdefault(ctx, []).append((x._lift(ctx), x.den))
        for ctx, lifted in groups.items():
            b, db, keys = y._lift(ctx), y.den, seen.setdefault(ctx, set())
            for a, da in lifted:
                nums, den = nums_product(ctx, a, b), da * db
                if not _within(ctx, nums, den, h):
                    continue
                key = lowest_terms(ctx, nums, den)
                if key not in keys:
                    keys.add(key)
                    out.append(_laurent(*key) if ctx.kind is _FORMAL
                               else _number(ctx, *key))
    return out


# --- the height bound on ints -------------------------------------------------

def _agrees(ctx, nums, den):
    height = _old_nums_height(ctx, nums, den)
    return all(_within(ctx, nums, den, h) == (height <= h) for h in (1, 2, 3))


def test_the_int_bound_agrees_with_the_height():
    start = time.process_time()
    entries = range(-12, 13)
    dens = range(1, 13)
    for n in entries:
        assert all(_agrees(RAT_CONTEXT, (n,), den) for den in dens), n
    q = quad_context(2)
    for nums in itertools.product(entries, repeat=2):
        assert all(_agrees(q, nums, den) for den in dens), nums
    rng = random.Random(20261019)
    b = biquad_context(2, 3)
    for _ in range(20_000):
        nums = tuple(rng.randint(-12, 12) for _ in range(4))
        assert _agrees(b, nums, rng.choice(dens)), nums
    for _ in range(20_000):
        exps = sorted(rng.sample(range(-4, 5), rng.randint(0, 4)))
        nums = tuple((k, rng.choice([n for n in entries if n])) for k in exps)
        assert _agrees(FORMAL_CONTEXT, nums, rng.choice(dens)), nums
    assert time.process_time() - start < 2


# --- _ratios against the route that negated scalars ---------------------------

def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))


def _kinds(rng):
    """One group of each kind of the one-dimensional oracle corpus
    (``perfbench/corpus.py``'s ``line_groups``), with drawn radicands."""
    d, e = rng.sample((2, 3, 5, 6, 7), 2)
    return [f"Z*1 + Q*sqrt({d})", f"Z*sqrt({d}) + Q*sqrt({e})",
            f"Q + Q*sqrt({d})", f"Q*sqrt({d}) + Q*sqrt({e})", "Q + Q*t",
            "ring(Z[t,1/t])", f"hull(Z*1 + Z*sqrt({e}))",
            f"Zinv({rng.choice((2, 3, 5, 6, 7, 10))})", "R"]


@pytest.mark.parametrize("h", [1, 2, 3])
def test_ratios_match_the_route_that_negated_scalars(h):
    rng = random.Random(20261020 + h)
    texts = _kinds(rng)
    members = {t: [v[0] for v in enumerate_members(parse_descriptor(t), h)]
               for t in texts}
    for t in texts:
        # as candidate_scalars asks, and as candidate_matrices asks
        nonzero = [s for s in members[t] if s]
        lists = [(nonzero, nonzero), (members[t], members[t])]
        # and across two kinds, as a plane of two factors asks; some of
        # these have no common field and raise
        lists.append((members[t], members[rng.choice(texts)]))
        for nums, dens in lists:
            assert _outcome(_ratios, nums, dens, h) == \
                _outcome(_old_ratios, nums, dens, h), (t, h)


def _exponents(x):
    return [k for k, _ in x.nums] if x.context is FORMAL_CONTEXT else [0]


@pytest.mark.parametrize("h", [1, 2, 3])
def test_the_shift_window_keeps_both_edges(h):
    # Laurent lists whose members and shifted exponents reach -h and h:
    # Q + Q*t has denominators above 1, t*ring(Z[t,1/t]) is no ring
    t = t_monomial
    reach = [t(h), t(-h), t(h) + t(-h), t(h, 2) - 1, 1 + t(-h, 3),
             t(1 - h, Fraction(1, 2)) + t(h - 1)]
    reach += [-x for x in reach]
    edges = {"low": 0, "high": 0, "past low": 0, "past high": 0}
    for text in ("Q + Q*t", "t*ring(Z[t,1/t])", "ring(Q[t,1/t])"):
        members = [v[0] for v in enumerate_members(parse_descriptor(text), h)]
        nums = [s for s in members if s] + reach
        units = [y.invert() for y in nums if len(_exponents(y)) == 1]
        assert products_within(nums, units, h) == \
            _old_products_within(nums, units, h), (text, h)
        assert _ratios(nums, nums, h) == _old_ratios(nums, nums, h), (text, h)
        for x in nums:
            for y in units:
                low, high = (min(_exponents(x)) + _exponents(y)[0],
                             max(_exponents(x)) + _exponents(y)[0])
                edges["low"] += low == -h
                edges["high"] += high == h
                edges["past low"] += low == -h - 1
                edges["past high"] += high == h + 1
    assert all(edges.values()), edges


def _closed(xs):
    return set(xs) >= {-x for x in xs}


@pytest.mark.parametrize("h", [1, 2, 3])
def test_the_members_that_callers_pass_are_closed_under_negation(h):
    # _ratios keeps only the x and y of positive lead: its callers pass the
    # members of a line group, or a plane's column of a factor's members
    lines = [parse_descriptor(g["text"]) for g in corpus.all_line_groups()]
    planes = [parse_descriptor(g["text"]) for g in corpus.all_plane_groups()]
    factors = [f for p in planes for f in p.factors]
    for g in dict.fromkeys(lines + factors):
        assert _closed([v[0] for v in enumerate_members(g, h)]), (g, h)
    for p in planes:
        for column in _factor_members(p, h):
            assert _closed([v[0] for v in column]), (p, h)


def test_a_laurent_non_unit_adds_no_ratio():
    t = parse_descriptor("t*ring(Z[t,1/t])")
    members = [v[0] for v in enumerate_members(t, 1)]
    binomials = [s for s in members if s.context is FORMAL_CONTEXT
                 and len(s.nums) == 2]
    assert binomials
    assert _ratios(members, binomials, 3) == {}
    assert _ratios(members, members, 1) == _old_ratios(members, members, 1)
