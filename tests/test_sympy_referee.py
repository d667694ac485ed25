"""An outside referee for membership, in sympy.

Inside groupaut every check of a verdict runs through its own ``member``.
Here membership in a group descriptor is decided again with sympy's exact
algebra alone, and the corpus verdicts of ``cross_check`` are replayed
through it:

* a number is p(t) * t^e for a sparse polynomial p over the field K of
  the square roots in play (``QQ.algebraic_field``), and its coordinates
  are read over the power basis of K; a quotient that is not of this form
  is a real number outside every group but R;
* a module Z*g_1 + ... + Q*h_1 + ... holds x when x, taken modulo the
  Q-span of the h_j (a ``DomainMatrix`` null space), lies in the lattice of
  the g_i: when adding x to them keeps their rank r and the gcd of their
  r x r minors, which is the covolume of the lattice (Smith form);
* Z[t,1/t] and Q[t,1/t] hold the Laurent polynomials in t with integer or
  rational coefficients, Z[1/m] the rationals whose denominators have only
  the primes of m, and R every number.

The referee reads the generators of a group off its descriptor itself.  A
confirmation of A holds when every generator's line (Z, Q or R times it)
goes into G under both A and A^-1, which is G*A = G; a ring f*R keeps c
exactly when c and 1/c are in R.  A refutation holds when its witness is
in G and the witness's image under A or A^-1 is not.
"""

import functools
import itertools
import math
import operator
import random
import re
import sys
from pathlib import Path

import pytest

from groupaut.autgroup import aut_member
from groupaut.cli import _parse_action, _parse_vector
from groupaut.descriptors import (
    Domain,
    FractionRing,
    FullLine,
    Image,
    LaurentRing,
    MixedModule,
    Product,
    Scaled,
    member,
)
from groupaut.dsl import group_to_text, parse_descriptor, scalar_to_text
from groupaut.matrices import ExactMatrix
from groupaut.oracle import cross_check

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

QQ, ZZ = sympy.QQ, sympy.ZZ
T = sympy.Symbol("t")
_RADICAND = re.compile(r"sqrt\((\d+)\)")


def _odd_primes(r):
    return frozenset(p for p, e in sympy.factorint(r).items() if e % 2)


def _independent(radicands):
    """Radicands whose square roots generate the field of all of them, none
    a product of the others up to a square."""
    kept = []
    for r in sorted(radicands):
        odd = [_odd_primes(x) for x in kept]
        if not any(functools.reduce(operator.xor, sub, frozenset()) == _odd_primes(r)
                   for k in range(len(kept) + 1)
                   for sub in itertools.combinations(odd, k)):
            kept.append(r)
    return tuple(kept)


@functools.lru_cache(maxsize=None)
def _referee(roots):
    return Referee(roots)


def referee_for(*texts):
    """The referee over the field of every square root named in the texts."""
    return _referee(_independent(
        {int(r) for text in texts for r in _RADICAND.findall(text)}))


def _dim(g):
    if isinstance(g, Product):
        return sum(_dim(f) for f in g.factors)
    if isinstance(g, Scaled):
        return _dim(g.inner)
    if isinstance(g, Image):
        return g.matrix.n
    return 1


def _minors_gcd(columns, r):
    """The gcd of the r x r minors of the integer matrix with these columns."""
    rows = range(len(columns[0]))
    d = 0
    for cs in itertools.combinations(columns, r):
        for rs in itertools.combinations(rows, r):
            sub = [[ZZ(c[i]) for c in cs] for i in rs]
            d = math.gcd(d, int(DomainMatrix(sub, (r, r), ZZ).det()))
    return d


def _rank(columns):
    return DomainMatrix([[QQ(x) for x in c] for c in columns],
                        (len(columns), len(columns[0])), QQ).rank()


class Referee:
    """Membership over K = Q(sqrt(r) for r in roots).  A number is a pair
    (num, den) of Laurent polynomials (p, e), p(t) * t^e, with den None for
    1."""

    def __init__(self, roots):
        self.K = QQ.algebraic_field(*[sympy.sqrt(r) for r in roots]) if roots else QQ
        self.R, self.t = ring("t", self.K)
        self._numbers = {}
        self._roots = {}
        self._matrices = {}
        self._frames = {}

    # -- numbers --------------------------------------------------------------

    def number(self, text):
        """The scalar printed as ``text`` (a groupaut scalar is printed)."""
        if not isinstance(text, str):
            text = scalar_to_text(text)
        if text not in self._numbers:
            expr = sympy.expand(sympy.sympify(text, locals={"t": T}))
            terms = {}
            for mono, q in expr.as_coefficients_dict().items():
                powers = mono.as_powers_dict()
                k = int(powers.pop(T, 0))
                c = self.K.convert(QQ(q.p, q.q))
                for base, half in powers.items():
                    if base != 1:
                        assert half == sympy.S.Half, text
                        if base not in self._roots:
                            self._roots[base] = self.K.from_sympy(sympy.sqrt(base))
                        c = c * self._roots[base]
                terms[k] = terms.get(k, self.K.zero) + c
            low = min(terms, default=0)
            self._numbers[text] = (
                self.R({(k - low,): c for k, c in terms.items()}), low), None
        return self._numbers[text]

    def _mul(self, x, y):
        return x[0] * y[0], x[1] + y[1]

    def _add(self, x, y):
        (p, e), (q, f) = sorted((x, y), key=operator.itemgetter(1))
        return (p + q if f == e else p + q * self.t ** (f - e)), e

    def mul(self, x, y):
        num = self._mul(x[0], y[0])
        if x[1] is None or y[1] is None:
            return num, x[1] or y[1]
        return num, self._mul(x[1], y[1])

    def add(self, x, y):
        if x[1] is None and y[1] is None:
            return self._add(x[0], y[0]), None
        one = (self.R.one, 0)
        dx, dy = x[1] or one, y[1] or one
        return (self._add(self._mul(x[0], dy), self._mul(y[0], dx)),
                self._mul(dx, dy))

    def div(self, x, y):
        return self.mul(x, (y[1] or (self.R.one, 0), y[0]))

    def laurent(self, x):
        """x as (p, e), or None when it is no Laurent polynomial over K."""
        (p, e), den = x
        if den is None:
            return p, e
        q, f = den
        low = min(k for (k,), _ in q.terms())
        quo, rem = p.div(q.exquo(self.t ** low))
        return None if rem else (quo, e - f - low)

    def coords(self, x):
        """{(k, i): q} with x = sum of q * theta^i * t^k over K's power
        basis theta^i, or None when x is not in K[t,1/t]."""
        x = self.laurent(x)
        if x is None:
            return None
        p, e = x
        out = {}
        for (k,), c in p.terms():
            for i, q in enumerate(reversed(c.to_list()) if self.K != QQ else [c]):
                if q:
                    out[k + e, i] = q
        return out

    def _matrix(self, a, direction):
        """(rows, det) for v * A = v * rows, or v * A^-1 = v * rows / det
        with rows = adj A; when det A is a monomial c*t^k, rows is A^-1
        itself and det is None.  A scalar a is a 1 x 1 matrix; n <= 2."""
        key = a, direction
        if key not in self._matrices:
            rows = [[self.number(x) for x in row] for row in a.rows] \
                if isinstance(a, ExactMatrix) else [[self.number(a)]]
            det = None
            if direction == "inverse":
                one, neg = self.number("1"), self.number("-1")
                if len(rows) == 1:
                    det, rows = rows[0][0], [[one]]
                else:
                    (a0, b0), (c0, e0) = rows
                    det = self.add(self.mul(a0, e0), self.mul(neg, self.mul(b0, c0)))
                    rows = [[e0, self.mul(neg, b0)], [self.mul(neg, c0), a0]]
                (p, e), den = det
                if den is None and len(p.terms()) == 1:
                    [((k,), c)] = p.terms()
                    inverse = (self.R.ground_new(self.K.one / c), -e - k), None
                    rows = [[self.mul(x, inverse) for x in row] for row in rows]
                    det = None
            self._matrices[key] = rows, det
        return self._matrices[key]

    def apply(self, v, a, direction):
        """v * A or v * A^-1."""
        rows, det = self._matrix(a, direction)
        out = []
        terms = [(x, row) for x, row in zip(v, rows) if x[0][0]]
        for j in range(len(rows)):
            s = self.number("0")
            for x, row in terms:
                s = self.add(s, self.mul(x, row[j]))
            out.append(s if det is None else self.div(s, det))
        return tuple(out)

    # -- groups ---------------------------------------------------------------

    def member(self, g, v, kind="int"):
        """Is v ("int"), Q*v ("rat") or R*v ("real") inside G?"""
        if isinstance(g, Product):
            i = 0
            for f in g.factors:
                n = _dim(f)
                if not self.member(f, v[i:i + n], kind):
                    return False
                i += n
            return True
        if isinstance(g, Scaled):
            f = self.number(g.factor)
            return self.member(g.inner, tuple(self.div(x, f) for x in v), kind)
        if isinstance(g, Image):
            return self.member(g.inner, self.apply(v, g.matrix, "inverse"), kind)
        if isinstance(g, FullLine):
            return True
        c = self.coords(v[0])
        if c is None:
            return False
        if not c:
            return True         # zero lies in every group
        if kind == "real":
            return False
        if isinstance(g, LaurentRing):
            return all(i == 0 for _, i in c) and (
                g.coeffs is Domain.RAT
                or kind == "int" and all(QQ.denom(q) == 1 for q in c.values()))
        if isinstance(g, FractionRing):
            if kind != "int" or set(c) != {(0, 0)}:
                return False
            return all(g.m % p == 0 for p in sympy.primefactors(int(QQ.denom(c[0, 0]))))
        return self._module(g, c, kind)

    def _frame(self, g):
        """(keys, ann, scale, columns, rank, content) of a module: the
        coordinate keys of its generators, rows spanning the annihilator of
        the Q-span of its Q-slots, the Z-slots' images under them times
        ``scale`` as integer columns, their rank, and the gcd of their
        rank x rank minors."""
        if g not in self._frames:
            gens = [(d, self.coords(self.number(x))) for d, x in g.terms]
            keys = sorted(set().union(*(c for _, c in gens)))
            rat = [[c.get(k, QQ.zero) for k in keys]
                   for d, c in gens if d is Domain.RAT]
            ann = (DomainMatrix(rat, (len(rat), len(keys)), QQ).nullspace().to_list()
                   if rat else [[QQ.one if i == j else QQ.zero for j in range(len(keys))]
                                for i in range(len(keys))])
            images = [[sum((y * c.get(k, QQ.zero) for y, k in zip(row, keys)), QQ.zero)
                       for row in ann] for d, c in gens if d is Domain.INT]
            scale = math.lcm(1, *(int(QQ.denom(x)) for col in images for x in col))
            columns = [[int(x * scale) for x in col] for col in images]
            rank = _rank(columns) if columns and ann else 0
            content = _minors_gcd(columns, rank) if rank else 0
            self._frames[g] = keys, ann, scale, columns, rank, content
        return self._frames[g]

    def _module(self, g, c, kind):
        keys, ann, scale, columns, rank, content = self._frame(g)
        if not set(c) <= set(keys):
            return False        # outside the Q-span of all the generators
        x = [c.get(k, QQ.zero) for k in keys]
        image = [sum((y * q for y, q in zip(row, x)), QQ.zero) * scale for row in ann]
        if kind == "rat" or not any(image):
            return not any(image)
        if any(QQ.denom(q) != 1 for q in image):
            return False
        if not rank:
            return False
        both = columns + [[int(q) for q in image]]
        return _rank(both) == rank and _minors_gcd(both, rank) == content

    def generators(self, g):
        """(kind, vector) pairs whose lines, Z, Q or R times each vector,
        generate G; None for a ring, which has no such finite family."""
        if isinstance(g, MixedModule):
            return [("int" if d is Domain.INT else "rat", (self.number(x),))
                    for d, x in g.terms]
        if isinstance(g, FullLine):
            return [("real", (self.number("1"),))]
        if isinstance(g, Scaled):
            inner = self.generators(g.inner)
            f = self.number(g.factor)
            return None if inner is None else [
                (kind, tuple(self.mul(f, x) for x in v)) for kind, v in inner]
        if isinstance(g, Image):
            inner = self.generators(g.inner)
            return None if inner is None else [
                (kind, self.apply(v, g.matrix, "forward")) for kind, v in inner]
        if isinstance(g, Product):
            out, n, i = [], _dim(g), 0
            zero = self.number("0")
            for f in g.factors:
                inner = self.generators(f)
                if inner is None:
                    return None
                k = _dim(f)
                out += [(kind, (zero,) * i + v + (zero,) * (n - i - k))
                        for kind, v in inner]
                i += k
            return out
        return None

    def keeps(self, g, a):
        """Is G*A = G?"""
        gens = self.generators(g)
        if gens is None:
            core = g
            while isinstance(core, Scaled):
                core = core.inner
            c = self.number(a if not isinstance(a, ExactMatrix) else a.rows[0][0])
            return self.member(core, (c,)) \
                and self.member(core, (self.div(self.number("1"), c),))
        return all(self.member(g, self.apply(v, a, direction), kind)
                   for kind, v in gens for direction in ("forward", "inverse"))

    def refutes(self, g, a, w, direction):
        """Is w in G, with its image under A or A^-1 outside G?"""
        w = tuple(self.number(x) for x in w)
        return self.member(g, w) and not self.member(g, self.apply(w, a, direction))


def _texts(a):
    if isinstance(a, ExactMatrix):
        return [scalar_to_text(x) for row in a.rows for x in row]
    return [scalar_to_text(a)]


def _referee_of(g, a, *vectors):
    return referee_for(group_to_text(g), *_texts(a),
                       *(scalar_to_text(x) for v in vectors for x in v))


@functools.lru_cache(maxsize=None)
def _reports(height):
    return [cross_check(parse_descriptor(g["text"]), height)
            for g in corpus.all_line_groups() + corpus.all_plane_groups()]


def test_the_referee_on_fixed_questions():
    P = parse_descriptor
    cases = [
        ("Z*2 + Z*3", "1", True), ("Z*4 + Z*6", "2", True), ("Z*4 + Z*6", "1", False),
        ("Z*1 + Q*sqrt(2)", "1/2", False), ("Z*1 + Q*sqrt(2)", "3+sqrt(2)/7", True),
        ("Z*sqrt(2) + Q*sqrt(6)", "sqrt(2)+sqrt(6)/5", True),
        ("Z*sqrt(2) + Q*sqrt(6)", "sqrt(3)", False),
        ("Zinv(6)", "5/12", True), ("Zinv(6)", "1/10", False),
        ("ring(Z[t,1/t])", "2*t^-3-t", True), ("ring(Z[t,1/t])", "t/2", False),
        ("ring(Q[t,1/t])", "t/2", True), ("ring(Q[t,1/t])", "sqrt(2)", False),
        ("R", "sqrt(7)", True), ("Q*t", "3*t", True), ("Q*t", "t^2", False),
    ]
    for text, x, want in cases:
        g = P(text)
        ref = referee_for(text, x)
        assert ref.member(g, (ref.number(x),)) is want, (text, x)
    ref = referee_for("sqrt(2)")
    one, r2 = ref.number("1"), ref.number("sqrt(2)")
    assert ref.member(P("Q x R"), (one, r2))
    assert not ref.member(P("Q x Z"), (r2, one))
    # 1/(1+t) is no Laurent polynomial: only R holds it
    q = ref.div(one, ref.number("1+t"))
    assert ref.coords(q) is None and ref.member(P("R"), (q,))
    assert not ref.member(P("ring(Q[t,1/t])"), (q,))
    assert ref.coords(ref.div(ref.number("t^2-1"), ref.number("t+1"))) \
        == ref.coords(ref.number("t-1"))


def test_every_height_one_refutation_replays():
    count = 0
    for report in _reports(1):
        g = report.group
        for r in report.refuted:
            ref = _referee_of(g, r.candidate, r.witness)
            assert ref.refutes(g, r.candidate, r.witness, r.direction), \
                (group_to_text(g), r)
            count += 1
    assert count == 126


def test_every_height_one_confirmation_keeps_the_group():
    count = 0
    for report in _reports(1):
        g = report.group
        for a in report.confirmed:
            assert _referee_of(g, a).keeps(g, a), (group_to_text(g), a)
            count += 1
    assert count == 698


def test_sampled_height_two_confirmations_on_divisible_planes():
    # the planes with no Z-slot, whose confirmations the certificate now
    # makes on the forward pass alone: here both directions are checked
    rng = random.Random(20261020)
    planes = [g["text"] for g in corpus.all_plane_groups()]
    divisible = [text for text in planes
                 if "Z" not in group_to_text(parse_descriptor(text))]
    count = 0
    for text in divisible:
        g = parse_descriptor(text)
        report = cross_check(g, 2)
        assert report.agreement, text
        for a in rng.sample(report.confirmed, min(4, len(report.confirmed))):
            assert _referee_of(g, a).keeps(g, a), (text, a)
            count += 1
    assert len(divisible) >= 20 and count >= 80, (len(divisible), count)


def _queries(*kinds):
    """(group, value) of the corpus queries of these kinds."""
    pools = corpus.query_pools()
    return [(q[1], q[-1]) for kind in kinds for q in pools[kind]]


def test_member_queries_of_the_corpus_agree():
    queries = _queries("member")
    for text, value in queries:
        g, v = parse_descriptor(text), _parse_vector(value)
        ref = referee_for(group_to_text(g), value)
        assert ref.member(g, tuple(map(ref.number, v))) is member(g, v).member, \
            (text, value)
    assert len(queries) == 439


def test_aut_member_queries_of_the_corpus_agree():
    queries = _queries("aut-member", "aut-member-matrix")
    for text, value in queries:
        g, a = parse_descriptor(text), _parse_action(value)
        assert _referee_of(g, a).keeps(g, a) is aut_member(g, a), (text, value)
    assert len(queries) == 560
