"""Differential test of the module frame against the per-vector elimination.

``_module_solve`` and ``_module_rat_line`` answer from a frame built once per
generator family (integer rows, an annihilator of the Q-span, a Hermite
form).  The reference copies below are the routines they replace, kept
verbatim together with the linalg helpers only they used: every vector is
joined with the generators, converted to Fractions and eliminated from
scratch.  Both must give the same verdict, the same witness and the same
error type on every seeded module and target.
"""

import random
from fractions import Fraction
from math import gcd as math_gcd

from groupaut import descriptors as _d
from groupaut import linalg
from groupaut.descriptors import Domain
from groupaut.errors import ContextError, GroupAutError
from groupaut.scalars import (
    FORMAL_CONTEXT,
    RAT_CONTEXT,
    ContextKind,
    ExactScalar,
    biquad_context,
    join_context,
    quad_context,
    rational,
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


def ref_in_span(gens, target):
    return linalg.solve_combination(gens, target) is not None


def ref_xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def ref_integer_combination(gens, target):
    m = len(gens)
    if m == 0:
        return [] if all(x == 0 for x in target) else None
    n = len(gens[0])
    # rows are [generator | unit row] so the right part tracks coefficients
    rows = [list(gens[i]) + [1 if j == i else 0 for j in range(m)]
            for i in range(m)]
    pivots = []
    top = 0
    for col in range(n):
        live = [i for i in range(top, m) if rows[i][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            i1, i2 = live[0], live[1]
            a1, a2 = rows[i1][col], rows[i2][col]
            g, x, y = ref_xgcd(a1, a2)
            new1 = [x * u + y * v for u, v in zip(rows[i1], rows[i2])]
            new2 = [(a1 // g) * v - (a2 // g) * u for u, v in zip(rows[i1], rows[i2])]
            rows[i1], rows[i2] = new1, new2
            live = [i for i in live if rows[i][col] != 0]
        piv = live[0]
        rows[top], rows[piv] = rows[piv], rows[top]
        if rows[top][col] < 0:
            rows[top] = [-x for x in rows[top]]
        pivots.append((top, col))
        top += 1
    t = list(target)
    coeff = [0] * m
    for r, c in pivots:
        if t[c] == 0:
            continue
        a = rows[r][c]
        if t[c] % a != 0:
            return None
        q = t[c] // a
        t = [u - q * v for u, v in zip(t, rows[r][:n])]
        coeff = [u + q * v for u, v in zip(coeff, rows[r][n:])]
    if any(x != 0 for x in t):
        return None
    return coeff


def ref_reduce_by_span(basis, vec):
    w = [Fraction(x) for x in vec]
    for col, row in basis:
        f = w[col]
        if f != 0:
            w = [a - f * b for a, b in zip(w, row)]
    return w


def ref_clear_denominators(vectors):
    L = 1
    for v in vectors:
        for x in v:
            f = Fraction(x)
            L = L * f.denominator // math_gcd(L, f.denominator)
    out = [[int(Fraction(x) * L) for x in v] for v in vectors]
    return out, L


def ref_module_solve(terms, v):
    gens = [g for _, g in terms]
    rows, _ = ref_coordinate_rows(list(gens) + [v])
    gen_rows, target = rows[:-1], rows[-1]
    int_idx = [i for i, (d, _) in enumerate(terms) if d is Domain.INT]
    rat_idx = [i for i, (d, _) in enumerate(terms) if d is Domain.RAT]
    rat_rows = [gen_rows[i] for i in rat_idx]

    basis = linalg.rref_basis(rat_rows)
    reduced_int = [ref_reduce_by_span(basis, gen_rows[i]) for i in int_idx]
    reduced_v = ref_reduce_by_span(basis, target)
    intvecs, _ = ref_clear_denominators(reduced_int + [reduced_v])
    int_part = ref_integer_combination(intvecs[:-1], intvecs[-1])
    if int_part is None:
        return None

    residual = list(target)
    for zi, i in zip(int_part, int_idx):
        residual = [r - zi * c for r, c in zip(residual, gen_rows[i])]
    rat_coeffs = linalg.solve_combination(rat_rows, residual)
    if rat_coeffs is None:
        return None

    witness = [Fraction(0)] * len(terms)
    for i, c in zip(int_idx + rat_idx, int_part + rat_coeffs):
        witness[i] = Fraction(c)
    return tuple(witness)


def ref_module_rat_line(terms, v):
    rat_gens = [g for d, g in terms if d is Domain.RAT]
    rows, _ = ref_coordinate_rows(list(rat_gens) + [v])
    return ref_in_span(rows[:-1], rows[-1])


# --- seeded modules and targets ---------------------------------------------

CONTEXTS = ("rat", "quad", "biquad", "formal")
_QUAD = quad_context(2)
_BIQUAD = biquad_context(2, 3)
# a quadratic field inside the biquadratic one, and one that is not
_SUBFIELD = quad_context(6)
_FOREIGN = quad_context(5)


def _q(rng, lo=-4, hi=4, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _scalar(rng, kind):
    """A seeded nonzero-or-zero scalar whose context lies inside ``kind``."""
    if kind == "rat":
        return rational(_q(rng))
    if kind == "quad":
        return ExactScalar._make(_QUAD, (_q(rng), _q(rng)))
    if kind == "biquad":
        ctx = rng.choice((_QUAD, _SUBFIELD, _BIQUAD))
        width = 2 if ctx is not _BIQUAD else 4
        return ExactScalar._make(ctx, [_q(rng) for _ in range(width)])
    exps = rng.sample(range(-2, 3), rng.randint(1, 3))
    return ExactScalar._make(FORMAL_CONTEXT, [(k, _q(rng)) for k in sorted(exps)])


def _module(rng, kind):
    """1 to 4 nonzero generators, each a Z- or Q-slot.  Some families are
    Q-dependent on purpose: integer multiples (2Z + 3Z) and repeated lines."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        dom = rng.choice((Domain.INT, Domain.RAT))
        if terms and rng.random() < 0.35:
            g = terms[rng.randrange(len(terms))][1] * rational(
                Fraction(rng.choice((-3, -2, 2, 3, 5)), rng.choice((1, 1, 2))))
        else:
            g = _scalar(rng, kind)
            while g.is_zero():
                g = _scalar(rng, kind)
        terms.append((dom, g))
    return terms


def _combination(rng, terms, integral):
    """sum c_i * g_i with Z-slot coefficients integral, or, when not
    integral, one Z-slot coefficient off by a half."""
    out = rational(0)
    halved = integral
    for d, g in terms:
        if d is Domain.INT:
            c = Fraction(rng.randint(-3, 3))
            if not halved:
                c += Fraction(1, 2)
                halved = True
        else:
            c = _q(rng)
        out = out + g * rational(c)
    return out


def _targets(rng, terms, kind):
    """(label, target) pairs covering members, near misses, zero, wider
    contexts, exponents outside the support and unjoinable contexts."""
    out = [("member", _combination(rng, terms, True)),
           ("near", _combination(rng, terms, False)),
           ("random", _scalar(rng, kind)),
           ("zero", rational(0))]
    if kind == "rat":
        out.append(("wider", ExactScalar._make(_QUAD, (_q(rng), 1))))
    elif kind == "quad":
        out.append(("wider", ExactScalar._make(_BIQUAD, (0, 1, 1, _q(rng)))))
        out.append(("wider", ExactScalar._make(_SUBFIELD, (_q(rng), 1))))
    elif kind == "biquad":
        out.append(("unjoinable", ExactScalar._make(_FOREIGN, (0, 1))))
    else:
        exp = rng.choice((-4, -3, 3, 4))
        out.append(("outside", _combination(rng, terms, True)
                    + ExactScalar._make(FORMAL_CONTEXT, [(exp, 1)])))
        out.append(("unjoinable", ExactScalar._make(_QUAD, (_q(rng), 1))))
    if kind != "formal":
        # Q[t,1/t] contains Q but no surd
        out.append(("wider" if kind == "rat" else "unjoinable",
                    ExactScalar._make(FORMAL_CONTEXT, [(1, 1)])))
    return out


def _outcome(fn, terms, v):
    try:
        return "value", fn(terms, v)
    except GroupAutError as exc:
        return "error", type(exc)


MODULES_PER_CONTEXT = 100


def test_module_frame_matches_the_per_vector_elimination():
    rng = random.Random(20261018)
    seen = set()
    for kind in CONTEXTS:
        for _ in range(MODULES_PER_CONTEXT):
            terms = _module(rng, kind)
            # the redundancy check of mixed_module asks about each generator
            # against the others, which may be dependent among themselves
            families = []
            for i, (_, g) in enumerate(terms):
                rest = terms[:i] + terms[i + 1:]
                if rest:
                    families.append((rest, ("generator", g)))
            families += [(terms, t) for t in _targets(rng, terms, kind)]
            for fam, (label, v) in families:
                expected = _outcome(ref_module_solve, fam, v)
                got = _outcome(_d._module_solve, fam, v)
                assert got == expected, (kind, label, fam, v)
                if got[0] == "value" and got[1] is not None:
                    assert all(type(c) is Fraction for c in got[1])
                line = _outcome(_d._module_rat_line, fam, v)
                assert line == _outcome(ref_module_rat_line, fam, v), \
                    (kind, label, fam, v)
                verdict = "error" if got[0] == "error" else \
                    ("yes" if got[1] is not None else "no")
                seen.add((kind, label, verdict))
                if line == ("value", True):
                    seen.add((kind, label, "line"))
    # every context saw members with a witness, near misses and zero
    for kind in CONTEXTS:
        for label, verdict in (("member", "yes"), ("near", "no"),
                               ("zero", "yes"), ("generator", "yes"),
                               ("generator", "no"), ("member", "line")):
            assert (kind, label, verdict) in seen, (kind, label, verdict)
        if kind != "rat":
            assert (kind, "unjoinable", "error") in seen, kind
    assert ("rat", "wider", "no") in seen
    assert ("quad", "wider", "no") in seen
    assert ("formal", "outside", "no") in seen


def test_q_dependent_z_slots_and_zero_targets():
    # 2Z + 3Z = Z: the Hermite back-substitution finds 1 = -1*2 + 1*3
    terms = ((Domain.INT, rational(2)), (Domain.INT, rational(3)))
    for v in (rational(1), rational(7), rational(0), rational(Fraction(1, 2))):
        assert _d._module_solve(terms, v) == ref_module_solve(terms, v)
    assert _d._module_solve(terms, rational(1)) == (Fraction(-1), Fraction(1))
    assert _d._module_solve(terms, rational(Fraction(1, 2))) is None
    # Z*t + Q*t^2: a target with t^3 lies outside the frame's support
    t = ExactScalar._make(FORMAL_CONTEXT, [(1, 1)])
    terms = ((Domain.INT, t), (Domain.RAT, t * t))
    assert _d._module_solve(terms, t * t * t) is None
    assert not _d._module_rat_line(terms, t * t * t)
    try:
        _d._module_solve(terms, ExactScalar._make(_QUAD, (0, 1)))
    except ContextError:
        pass
    else:
        raise AssertionError("a quadratic target cannot join Q[t,1/t]")
