"""Differential test of the rule table's module rows.

``_module_rule`` decides a module from scalar products and the integer
module frame.  The reference copies below are the routines it replaces,
kept verbatim: they read every module through a second, Fraction-valued
coordinate frame and Gauss-Jordan elimination, and the rule they feed.
On seeded modules built through ``mixed_module`` in every context, both
rules must give the same answer, except on the two formal-tower families
the Fraction frame could not scale away, where the reference gives up
(None) and the rule answers Q^x:

* a single Q-line whose generator is not a unit of Q[t,1/t];
* a two-generator Q-span whose echelon basis did not start at 1.

There the answer holds because 1, y, y^2 are independent for y = g1/g0 in
Q(t) \\ Q, so r = a + b*y with r*g1 in the module forces b = 0; the
brute-force referee agrees on a sample.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from groupaut import linalg
from groupaut.autgroup import (
    FieldUnits,
    PlusMinusOne,
    RatStar,
    _module_rule,
)
from groupaut.descriptors import (
    Cyclic,
    Domain,
    MixedModule,
    _module_rat_line,
    _sign_canonical,
    cyclic_form,
    mixed_module,
    normalize,
)
from groupaut.errors import DescriptorError
from groupaut.oracle import cross_check
from groupaut.scalars import (
    FORMAL_CONTEXT,
    RAT_CONTEXT,
    ContextKind,
    ExactScalar,
    biquad_context,
    context_radicands,
    join_context,
    one,
    quad_context,
    ratio,
    rational,
    sqrt_rational,
)


# --- reference copies of the former routines, verbatim ---------------------

def ref_coordinate_rows(scalars):
    ctx = RAT_CONTEXT
    for s in scalars:
        ctx = join_context(ctx, s.context)
    if ctx.kind is not ContextKind.FORMAL:
        return [list(s._embedded(ctx)) for s in scalars], (ctx, None)
    embedded = [dict(s._embedded(ctx)) for s in scalars]
    support = sorted({k for d in embedded for k in d})
    rows = [[d.get(k, Fraction(0)) for k in support] for d in embedded]
    return rows, (ctx, support)


def ref_frame_scalars(frame, rows):
    ctx, support = frame
    if support is None:
        return [ExactScalar._make(ctx, tuple(row)) for row in rows]
    return [ExactScalar._make(ctx, tuple((k, c) for k, c in zip(support, row)
                                         if c != 0))
            for row in rows]


def ref_reduce_by_span(basis, vec):
    w = [Fraction(x) for x in vec]
    for col, row in basis:
        f = w[col]
        if f != 0:
            w = [a - f * b for a, b in zip(w, row)]
    return w


def ref_cyclic_form(g):
    # the module branch of the former cyclic_form
    if any(d is Domain.RAT for d, _ in g.terms):
        return None
    gens = [gen for _, gen in g.terms]
    lead = gens[0]
    ratios = []
    for gen in gens:
        rows, _ = ref_coordinate_rows([lead, gen])
        sol = linalg.solve_combination([rows[0]], rows[1])
        if sol is None:
            return None
        ratios.append(sol[0])
    denom = lcm(*(r.denominator for r in ratios))
    nums = [r.numerator * (denom // r.denominator) for r in ratios]
    step = Fraction(gcd(*nums), denom)
    return Cyclic(_sign_canonical(rational(step) * lead))


def ref_span_scalars(gens, base):
    rescaled = [ratio(g, base) for g in gens]
    if any(r is None for r in rescaled):
        return None
    rows, frame = ref_coordinate_rows(rescaled)
    return ref_frame_scalars(frame, [row for _, row in linalg.rref_basis(rows)])


def ref_reduce_mod_span(targets, span):
    rows, frame = ref_coordinate_rows(list(targets) + list(span))
    basis = linalg.rref_basis(rows[len(targets):])
    reduced = [ref_reduce_by_span(basis, r) for r in rows[:len(targets)]]
    return ref_frame_scalars(frame, reduced)


def ref_pure_root_radicand(x):
    if x.context.kind is not ContextKind.QUAD:
        return None
    if x.coords[0] != 0 or x.coords[1] == 0:
        return None
    return x.context.d


def ref_cyclic_generator_of(gens):
    module = MixedModule(tuple((Domain.INT, g) for g in gens))
    form = ref_cyclic_form(module)
    return form.generator if form is not None else None


def ref_module_rule(m) -> Optional[object]:
    int_gens = [g for d, g in m.terms if d is Domain.INT]
    rat_gens = [g for d, g in m.terms if d is Domain.RAT]

    if not rat_gens:
        return PlusMinusOne() if ref_cyclic_form(m) is not None else None

    if not int_gens:
        basis = ref_span_scalars(rat_gens, rat_gens[0])
        if basis is None:
            return None
        if len(basis) == 1:
            return RatStar()
        if len(basis) == 2 and basis[0] == one():
            x = basis[1]
            terms = ((Domain.RAT, basis[0]), (Domain.RAT, x))
            if _module_rat_line(terms, x * x):
                d = ref_pure_root_radicand(x)
                return FieldUnits(d) if d is not None else None
            return RatStar()
        return None

    reduced = [r for r in ref_reduce_mod_span(int_gens, rat_gens)
               if not r.is_zero()]
    if not reduced:
        return None
    lattice = ref_cyclic_generator_of(reduced)
    if lattice is None:
        return None
    basis = ref_span_scalars(rat_gens, lattice)
    if basis is not None and len(basis) == 1:
        x = basis[0]
        if not x.is_rational() and (x * x).is_rational():
            return PlusMinusOne()
    return None


# --- seeded modules -----------------------------------------------------------

CONTEXTS = ("rat", "quad", "biquad", "formal")
_QUADS = (quad_context(2), quad_context(3))
_BIQUAD = biquad_context(2, 3)
_SUBFIELDS = (quad_context(2), quad_context(3), quad_context(6))
MODULES_PER_CONTEXT = 5000


def _c(rng):
    """A small rational coordinate, zero a third of the time."""
    if rng.random() < 0.35:
        return 0
    return Fraction(rng.choice((-3, -2, -1, 1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _scalar(rng, kind):
    if kind == "rat" or rng.random() < 0.15:
        return rational(Fraction(rng.choice((1, -1, 2, 3, -3)), rng.choice((1, 2, 5))))
    if kind == "quad":
        return ExactScalar._make(rng.choice(_QUADS), (_c(rng), _c(rng)))
    if kind == "biquad":
        if rng.random() < 0.4:
            return ExactScalar._make(rng.choice(_SUBFIELDS), (_c(rng), _c(rng)))
        return ExactScalar._make(_BIQUAD, [_c(rng) for _ in range(4)])
    # Laurent polynomials, monomial or not
    exps = rng.sample(range(-2, 3), rng.choice((1, 1, 2, 3)))
    return ExactScalar._make(FORMAL_CONTEXT,
                             [(k, Fraction(rng.choice((-2, -1, 1, 1, 2, 3)),
                                           rng.choice((1, 1, 2))))
                              for k in sorted(exps)])


def _rigid_terms(rng, kind):
    """Z*z + Q*q, sometimes with a second Z-slot on the line of z, where z
    lies in the coset of q/sqrt(k) modulo Q*q: the rows where the rule
    answers +-1, which independent draws almost never meet."""
    q = _scalar(rng, kind)
    while q.is_zero():
        q = _scalar(rng, kind)
    k = rng.choice([r for r in context_radicands(q.context) if r != 1] or [2])
    z = q * sqrt_rational(Fraction(1, k)) * rational(_c(rng) or 1) \
        + q * rational(_c(rng))
    terms = [(Domain.INT, z), (Domain.RAT, q)]
    if rng.random() < 0.3:
        terms.append((Domain.INT, z * rational(Fraction(rng.choice((2, 3)), 2))))
    rng.shuffle(terms)
    return terms


def _modules(rng, kind, count):
    """``count`` valid modules of 1 to 3 Z- or Q-slots (dependent draws are
    rejected by mixed_module and drawn again).  Over Q only one slot, or two
    Z-slots like 2Z + 3Z, can be independent."""
    out = []
    while len(out) < count:
        if kind in ("quad", "biquad") and rng.random() < 0.1:
            try:
                out.append(mixed_module(_rigid_terms(rng, kind)))
            except DescriptorError:
                pass
            continue
        size = rng.choice((1, 1, 2, 2, 2, 3, 3) if kind != "rat" else (1, 2))
        terms = []
        for _ in range(size):
            g = _scalar(rng, kind)
            while g.is_zero():
                g = _scalar(rng, kind)
            dom = Domain.INT if kind == "rat" and size > 1 \
                else rng.choice((Domain.INT, Domain.RAT))
            terms.append((dom, g))
        try:
            out.append(mixed_module(terms))
        except DescriptorError:
            continue
    return out


def _in_moved_family(m) -> bool:
    """The two formal-tower families where only the new rule answers: a
    line through a Laurent polynomial that is not a monomial, or two
    Q-slots in Q[t,1/t]."""
    gens = [g for _, g in m.terms]
    if any(d is Domain.INT for d, _ in m.terms) or len(gens) > 2 \
            or all(g.context.kind is not ContextKind.FORMAL for g in gens):
        return False
    return len(gens) == 2 or len(gens[0].nums) > 1


def test_module_rule_matches_the_fraction_frame_reference():
    rng = random.Random(20261019)
    seen = set()
    moved = []
    for kind in CONTEXTS:
        # the rule table sees normal forms, and many draws share one
        for g in dict.fromkeys(normalize(m) for m in
                               _modules(rng, kind, MODULES_PER_CONTEXT)):
            old, new = ref_module_rule(g), _module_rule(g)
            seen.add((kind, type(new).__name__))
            if old == new:
                continue
            # only the two families above move, and only from None
            assert old is None and new == RatStar(), (g, old, new)
            assert _in_moved_family(g), g
            moved.append(g)
    for kind in CONTEXTS:
        assert (kind, "RatStar") in seen and (kind, "PlusMinusOne") in seen, kind
    for kind in ("quad", "biquad", "formal"):
        assert (kind, "NoneType") in seen, kind
    for kind in ("quad", "biquad"):
        assert (kind, "FieldUnits") in seen, kind
    # both families are met: a lone non-unit line, and two-slot spans
    assert any(len(g.terms) == 1 for g in moved)
    assert any(len(g.terms) == 2 for g in moved)
    for g in moved[::max(1, len(moved) // 6)][:6]:
        assert cross_check(g, 2).agreement, g


def test_moved_family_examples():
    from groupaut.dsl import parse_descriptor
    for text in ("Q*(1+t)", "Q + Q*t^-1", "Q*(1+t) + Q*t^2"):
        g = normalize(parse_descriptor(text))
        assert ref_module_rule(g) is None, text
        assert _module_rule(g) == RatStar(), text


def test_cyclic_form_ratios_match_the_elimination():
    # exact_div reads each generator ratio where the former code solved a
    # one-column system over the Fraction frame
    rng = random.Random(20261020)
    decided = 0
    for kind in CONTEXTS:
        for _ in range(300):
            gens = []
            for _ in range(rng.choice((1, 2, 3))):
                g = _scalar(rng, kind)
                while g.is_zero():
                    g = _scalar(rng, kind)
                if gens and rng.random() < 0.5:
                    # a rational multiple of an earlier generator
                    g = rng.choice(gens) * rational(
                        Fraction(rng.choice((-3, -2, 2, 3, 5)), rng.choice((1, 2, 7))))
                gens.append(g)
            m = MixedModule(tuple((Domain.INT, g) for g in gens))
            got = cyclic_form(m)
            assert got == ref_cyclic_form(m), m
            decided += got is not None and len(gens) > 1
    assert decided > 100
