"""The parser returns the normal form, and the same answers as parsing
first and normalizing afterwards.

``parse_descriptor`` builds each group in normal form as it parses.  Below
is a verbatim copy of the earlier route, under ``_old_`` names: the
tokenizer and the parser that build raw nodes through the validating
factories, then ``normalize`` over the whole result, with the
``mixed_module``, ``divisible_hull``, ``_monic``, ``_sign_canonical`` and
``sqrt_rational`` it called.  Both routes must give equal descriptors, or
errors of equal type, message and position, on the texts of
``test_dsl.ROUNDTRIP``, the group texts of ``perfbench/pinned.json``, the
drawn groups of ``test_dsl_property`` and a list of malformed texts.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Optional

import pytest

from groupaut import (autgroup, cli, descriptors, dsl, linalg, matrices, oracle,
                      scalars, witnesses)
from groupaut.descriptors import (
    Domain,
    FractionRing,
    FullLine,
    GroupDescriptor,
    Image,
    LaurentRing,
    MixedModule,
    Product,
    Scaled,
    _module_rat_line,
    _module_solve,
    cyclic,
    fraction_ring,
    hull_closure,
    image,
    laurent_ring,
    normalize,
    product,
    scaled,
)
from groupaut.dsl import group_to_text, parse_descriptor, parse_matrix, parse_scalar
from groupaut.errors import DescriptorError, ParseError
from groupaut.matrices import ExactMatrix, identity, matrix, scalar_matrix
from groupaut.scalars import (
    ContextKind,
    ExactScalar,
    RAT_CONTEXT,
    Rationalish,
    as_scalar,
    canonicalize_radical,
    join_context,
    one,
    quad_context,
    rational,
    sqrt_rational,
    t_monomial,
    zero,
)

from test_descriptors import _random_group
from test_dsl import ROUNDTRIP

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


# ---------------------------------------------------------------------------
# the earlier route, verbatim but for the _old_ names and one absolute import
# ---------------------------------------------------------------------------

def _old_sqrt_rational(q: Rationalish) -> ExactScalar:
    """Exact square root of a positive rational, landing in RAT or QUAD."""
    q = Fraction(q)
    if q == 0:
        return zero()
    core, mult = canonicalize_radical(q)
    if core == 1:
        return rational(mult)
    return ExactScalar._make(quad_context(core), (0, mult))


def _old_sign_canonical(s: ExactScalar) -> ExactScalar:
    if s.context.kind is ContextKind.FORMAL:
        lead = s.coords[0][1]
    else:
        lead = next((c for c in s.coords if c != 0), Fraction(0))
    return -s if lead < 0 else s


def _old_monic(s: ExactScalar) -> ExactScalar:
    if s.context.kind is ContextKind.FORMAL:
        lead = s.coords[0][1]
    else:
        lead = next((c for c in s.coords if c != 0), Fraction(1))
    return s * rational(Fraction(1) / lead)


def _old_normalize(g: GroupDescriptor) -> GroupDescriptor:
    """The canonical form of g, stable after one pass."""
    return _old_normalize_cached(g)


@lru_cache(maxsize=4096)
def _old_normalize_cached(g: GroupDescriptor) -> GroupDescriptor:
    # a cyclic group is the one-term Z-module
    if isinstance(g, MixedModule):
        terms = []
        for d, gen in g.terms:
            gen = _old_sign_canonical(gen) if d is Domain.INT else _old_monic(gen)
            terms.append((d, gen))
        terms.sort(key=lambda t: (0 if t[0] is Domain.INT else 1, t[1].sort_key()))
        return MixedModule(tuple(terms))
    if isinstance(g, (LaurentRing, FractionRing, FullLine)):
        return g
    if isinstance(g, Scaled):
        r = g.factor
        inner = _old_normalize_cached(g.inner)
        while isinstance(inner, Scaled):
            r = r * inner.factor
            inner = _old_normalize_cached(inner.inner)
        if isinstance(inner, MixedModule):
            return _old_normalize_cached(MixedModule(tuple((d, r * gen) for d, gen in inner.terms)))
        if isinstance(inner, FullLine):
            return inner
        if isinstance(inner, Product):
            return _old_normalize_cached(Product(tuple(Scaled(r, f) for f in inner.factors)))
        if isinstance(inner, Image):
            return _old_normalize_cached(Image(Scaled(r, inner.inner), inner.matrix))
        if r == one() or r == rational(-1):   # -G = G for every group
            return inner
        return Scaled(_old_sign_canonical(r), inner)
    if isinstance(g, Product):
        factors = tuple(_old_normalize_cached(f) for f in g.factors)
        if len(factors) == 1:
            return factors[0]
        return Product(factors)
    if isinstance(g, Image):
        inner = _old_normalize_cached(g.inner)
        a = g.matrix
        while isinstance(inner, Image):
            a = inner.matrix * a
            inner = _old_normalize_cached(inner.inner)
        if inner == Product((FullLine(),) * a.n):
            return inner        # R^n * A = R^n
        if a.n == 1:
            return _old_normalize_cached(Scaled(a.rows[0][0], inner))
        if a == identity(a.n):
            return inner
        if a == scalar_matrix(a.rows[0][0], a.n):
            return _old_normalize_cached(Scaled(a.rows[0][0], inner))
        return Image(inner, a)
    raise DescriptorError(f"not a group descriptor: {g!r}")


def _old_mixed_module(terms: Iterable[tuple[Domain, object]]) -> MixedModule:
    """Build a sum of Z- and Q-lines, rejecting redundant generators.

    A term is redundant when its whole coefficient line already sits inside
    the group generated by the other terms (Z-slot: the generator itself is
    a member; Q-slot: the generator lies in the remaining Q-span).
    """
    norm: list[tuple[Domain, ExactScalar]] = []
    for d, g in terms:
        if not isinstance(d, Domain):
            raise DescriptorError(f"bad coefficient domain {d!r}")
        g = as_scalar(g)
        if g.is_zero():
            raise DescriptorError("module generators must be nonzero")
        norm.append((d, g))
    if not norm:
        raise DescriptorError("module needs at least one generator")
    ctx = RAT_CONTEXT
    for _, g in norm:
        ctx = join_context(ctx, g.context)   # raises for incompatible mixes
    for i, (d, g) in enumerate(norm):
        rest = norm[:i] + norm[i + 1:]
        if not rest:
            continue
        if d is Domain.INT:
            redundant = _module_solve(rest, g) is not None
        else:
            redundant = _module_rat_line(rest, g)
        if redundant:
            from groupaut.dsl import scalar_to_text
            raise DescriptorError(
                f"dependent generators: term {i} ({d.value}*{scalar_to_text(g)}) "
                "is contained in the group generated by the others")
    return MixedModule(tuple(norm))


def _old_divisible_hull(inner: GroupDescriptor) -> GroupDescriptor:
    """The divisible hull of inner, in closed form.

    The hull is taken of the normalized group, whose generator order
    decides which Q-basis of a module survives.
    """
    return hull_closure(_old_normalize(inner))


_OLD_PUNCT = set("()[],;+-*/^")


@dataclass(frozen=True)
class _OldTok:
    kind: str      # 'num', 'ident', or the punctuation character itself
    text: str
    pos: int


def _old_tokenize(src: str) -> list[_OldTok]:
    toks = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(_OldTok("num", src[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            toks.append(_OldTok("ident", src[i:j], i))
            i = j
            continue
        if c in _OLD_PUNCT:
            toks.append(_OldTok(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_OldTok("end", "", len(src)))
    return toks


class _OldParser:
    def __init__(self, text: str):
        self.toks = _old_tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _OldTok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def take(self) -> _OldTok:
        t = self.toks[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def expect(self, kind: str, what: Optional[str] = None) -> _OldTok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what or kind!r}, found {t.text or 'end of input'!r}",
                             t.pos)
        return self.take()

    def expect_ident(self, word: str) -> _OldTok:
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            raise ParseError(f"expected {word!r}, found {t.text or 'end of input'!r}", t.pos)
        return self.take()

    # -- scalars ----------------------------------------------------------

    def _number(self) -> Fraction:
        t = self.expect("num", "a number")
        val = Fraction(int(t.text))
        if self.peek().kind == "/":
            self.take()
            den = self.expect("num", "a denominator")
            if int(den.text) == 0:
                raise ParseError("zero denominator", den.pos)
            val = Fraction(val, int(den.text))
        return val

    def scalar_factor(self) -> ExactScalar:
        t = self.peek()
        if t.kind == "num":
            return rational(self._number())
        if t.kind == "ident" and t.text == "sqrt":
            self.take()
            self.expect("(")
            q = self._number()
            self.expect(")")
            if q <= 0:
                raise ParseError("sqrt needs a positive argument", t.pos)
            return _old_sqrt_rational(q)
        if t.kind == "ident" and t.text == "t":
            self.take()
            exp = 1
            if self.peek().kind == "^":
                self.take()
                sign = 1
                if self.peek().kind == "-":
                    self.take()
                    sign = -1
                exp = sign * int(self.expect("num", "an exponent").text)
            return t_monomial(exp)
        if t.kind == "(":
            self.take()
            s = self.scalar_expr()
            self.expect(")")
            return s
        raise ParseError(f"expected a scalar, found {t.text or 'end of input'!r}", t.pos)

    def scalar_term(self) -> ExactScalar:
        neg = False
        if self.peek().kind == "-":
            self.take()
            neg = True
        s = self.scalar_factor()
        while self.peek().kind == "*" and self._starts_scalar_factor_at(1):
            save = self.i
            self.take()
            try:
                s = s * self.scalar_factor()
            except ParseError:
                # a '(' after '*' may open a group, not a scalar: back off
                self.i = save
                break
        return -s if neg else s

    def _starts_scalar_factor_at(self, ahead: int) -> bool:
        t = self.peek(ahead)
        if t.kind in ("num", "("):
            return True
        return t.kind == "ident" and t.text in ("sqrt", "t")

    def scalar_expr(self) -> ExactScalar:
        s = self.scalar_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            u = self.scalar_term()
            s = s + u if op == "+" else s - u
        return s

    # -- matrices ---------------------------------------------------------

    def matrix_literal(self) -> ExactMatrix:
        self.expect("[")
        rows = [self._matrix_row()]
        while self.peek().kind == ";":
            self.take()
            rows.append(self._matrix_row())
        self.expect("]")
        if any(len(r) != len(rows) for r in rows):
            raise ParseError("matrix must be square", self.peek().pos)
        return matrix(rows)

    def _matrix_row(self) -> list[ExactScalar]:
        row = [self.scalar_expr()]
        while self.peek().kind == ",":
            self.take()
            row.append(self.scalar_expr())
        return row

    # -- groups -----------------------------------------------------------

    def group(self) -> GroupDescriptor:
        factors = [self.summand()]
        while self.peek().kind == "ident" and self.peek().text == "x":
            self.take()
            factors.append(self.summand())
        if len(factors) == 1:
            return factors[0]
        return product(factors)

    def summand(self) -> GroupDescriptor:
        t = self.peek()
        if t.kind == "ident" and t.text in ("Z", "Q"):
            terms = [self._module_term()]
            while self.peek().kind == "+":
                self.take()
                terms.append(self._module_term())
            if len(terms) == 1:
                dom, gen, explicit = terms[0]
                if not explicit:
                    if dom is Domain.INT:
                        return cyclic(1)
                    return _old_mixed_module([(Domain.RAT, rational(1))])
                return _old_mixed_module([(dom, gen)])
            return _old_mixed_module([(d, g) for d, g, _ in terms])
        return self.prefixed()

    def _module_term(self) -> tuple[Domain, ExactScalar, bool]:
        t = self.peek()
        if t.kind != "ident" or t.text not in ("Z", "Q"):
            raise ParseError(f"expected a Z or Q term, found {t.text or 'end of input'!r}",
                             t.pos)
        self.take()
        dom = Domain.INT if t.text == "Z" else Domain.RAT
        if self.peek().kind == "*":
            self.take()
            # product-level only: a '+' here separates module terms, so
            # compound generators must be parenthesized
            return dom, self.scalar_term(), True
        return dom, rational(1), False

    def prefixed(self) -> GroupDescriptor:
        if self._starts_scalar_factor_at(0):
            save = self.i
            try:
                s = self.scalar_term()
                self.expect("*")
                inner = self.prefixed()
                return scaled(s, inner)
            except ParseError:
                self.i = save
        return self.primary()

    def primary(self) -> GroupDescriptor:
        t = self.peek()
        if t.kind == "(":
            self.take()
            g = self.group()
            self.expect(")")
            return g
        if t.kind != "ident":
            raise ParseError(f"expected a group, found {t.text or 'end of input'!r}", t.pos)
        word = t.text
        if word == "R":
            self.take()
            return FullLine()
        if word == "Z":
            self.take()
            return cyclic(1)
        if word == "Q":
            self.take()
            return _old_mixed_module([(Domain.RAT, rational(1))])
        if word == "cyclic":
            self.take()
            self.expect("(")
            g = self.scalar_expr()
            self.expect(")")
            return cyclic(g)
        if word == "ring":
            self.take()
            self.expect("(")
            dom = self.expect("ident", "Z or Q")
            if dom.text not in ("Z", "Q"):
                raise ParseError(f"expected Z or Q, found {dom.text!r}", dom.pos)
            self.expect("[")
            self.expect_ident("t")
            self.expect(",")
            one_tok = self.expect("num", "1")
            if one_tok.text != "1":
                raise ParseError("expected '1/t'", one_tok.pos)
            self.expect("/")
            self.expect_ident("t")
            self.expect("]")
            self.expect(")")
            return laurent_ring(Domain.INT if dom.text == "Z" else Domain.RAT)
        if word == "Zinv":
            self.take()
            self.expect("(")
            m = self.expect("num", "an integer >= 2")
            self.expect(")")
            return fraction_ring(int(m.text))
        if word == "hull":
            self.take()
            self.expect("(")
            g = self.group()
            self.expect(")")
            return _old_divisible_hull(g)
        if word == "image":
            self.take()
            self.expect("(")
            g = self.group()
            self.expect(",")
            a = self.matrix_literal()
            self.expect(")")
            return image(g, a)
        raise ParseError(f"expected a group, found {word!r}", t.pos)


def _old_parse_whole(text: str, rule: Callable[[_OldParser], object]):
    """Parse text by one grammar rule, which must consume all of it."""
    p = _OldParser(text)
    out = rule(p)
    if p.peek().kind != "end":
        raise ParseError(f"unexpected trailing input {p.peek().text!r}", p.peek().pos)
    return out


def _old_parse_descriptor(text: str) -> GroupDescriptor:
    return _old_normalize(_old_parse_whole(text, _OldParser.group))


# ---------------------------------------------------------------------------
# texts
# ---------------------------------------------------------------------------

def _pinned_group_texts():
    """argv[1] of every pinned query whose first operand is a group."""
    with open(PINNED) as fh:
        queries = json.load(fh)["queries"]
    return sorted({argv[1] for argv, _, _ in queries
                   if argv[0] not in ("realize-ax", "perm-demo", "circle-witness")})


PINNED_TEXTS = _pinned_group_texts()

MALFORMED = [
    "1/0*Q", "(Q", "Q x", "ring(Z[t,2/t])", "image(Q x Q, [1,0;0])", "Q + Q",
    "", "Z*", "Q @ Q", "Z*1 + Z*1", "Zinv(1)", "hull(Zinv(2))", "cyclic(0)",
    "sqrt(-2)*Q", "(Q + Q*t) x", "Q*t + Q*sqrt(2)", "2*(Q + Q*sqrt(2)",
    # an error of a fold comes behind an error later in the text
    "sqrt(2)*(Q*t)", "sqrt(2)*(Q*t) x", "sqrt(2)*(Q*t) x Zinv(1)",
    "hull(sqrt(2)*(Q*t)) x", "(sqrt(2)*(Q*t)) )",
    "image(image(Q x Q, [t,0;0,1]), [sqrt(2),1;0,1])",
    "2*image(Q*t x Q, [sqrt(2),0;0,1]) x",
]

SCALARS = ["0", "3/4", "-2", "6/4", "0/5", "sqrt(8)", "sqrt(1/2)", "sqrt(12/25)",
           "sqrt(49)", "sqrt(0)", "1 + sqrt(2)", "sqrt(2)*sqrt(3)", "t^-2",
           "3*t + 1/2", "(1+t)*(1-t)", "2*(3)", "1/0", "sqrt(2", "t^"]

MATRICES = ["[1,1;0,1]", "[1,sqrt(2);sqrt(2),1]", "[1/2,0;0,2]", "[t,0;0,t^-1]",
            "[1,2;3]", "[1,0,0;0,1,0;0,0,1]"]


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _same_route(text):
    assert _outcome(parse_descriptor, text) == _outcome(_old_parse_descriptor, text), text


def _is_normal(text):
    try:
        g = parse_descriptor(text)
    except Exception:
        return
    assert normalize(g) == g, text


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("texts", [ROUNDTRIP, PINNED_TEXTS],
                         ids=["roundtrip", "pinned"])
def test_parser_output_is_normal(texts):
    for text in texts:
        _is_normal(text)


@pytest.mark.parametrize("texts", [ROUNDTRIP, PINNED_TEXTS, MALFORMED],
                         ids=["roundtrip", "pinned", "malformed"])
def test_parser_matches_parse_then_normalize(texts):
    for text in texts:
        _same_route(text)


def test_pinned_texts_are_read():
    assert len(PINNED_TEXTS) > 50
    assert "(Z*1 + Q*sqrt(3)) x (Z*1 + Q*sqrt(3))" in PINNED_TEXTS


def test_scalar_and_matrix_rules_match():
    for text in SCALARS:
        assert _outcome(parse_scalar, text) == \
            _outcome(lambda s: _old_parse_whole(s, _OldParser.scalar_expr), text), text
    for text in MATRICES:
        assert _outcome(parse_matrix, text) == \
            _outcome(lambda s: _old_parse_whole(s, _OldParser.matrix_literal), text), text


def test_int_helpers_match_the_fraction_ones():
    values = [parse_scalar(s) for s in (
        "0", "1", "-3/4", "sqrt(2)", "-2*sqrt(3)", "1/2 - 3*sqrt(5)",
        "-sqrt(2) + sqrt(3)", "sqrt(2) + sqrt(3) - sqrt(6)", "-t", "3/2*t^-1 - t",
        "(2/3)*t^2 + 1")]
    for s in values:
        assert descriptors._monic(s) == _old_monic(s), s
        assert descriptors._sign_canonical(s) == _old_sign_canonical(s), s
    for q in (1, 2, 8, 49, Fraction(1, 2), Fraction(12, 25), Fraction(50, 3), 0):
        assert sqrt_rational(q) == _old_sqrt_rational(q), q


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# the draws of test_dsl_property.test_parse_print_parse_fixpoint_on_drawn_groups
@hypothesis.settings(derandomize=True, database=None, max_examples=200,
                     deadline=None)
@hypothesis.given(rng=st.randoms(use_true_random=False),
                  n=st.sampled_from((1, 2)))
def test_drawn_groups_parse_to_normal_forms_by_both_routes(rng, n):
    text = group_to_text(_random_group(rng, n, 3))
    _is_normal(text)
    _same_route(text)


# ---------------------------------------------------------------------------
# dependent generators
# ---------------------------------------------------------------------------

DEPENDENT = {
    "Q + Q": "term 0 (Q*1)",
    "Q*sqrt(2) + Q*sqrt(8)": "term 0 (Q*sqrt(2))",
    "Z*2 + Z*4": "term 1 (Z*4)",
    "Q*t + Q*(2*t)": "term 0 (Q*t)",
}


def test_dependent_generator_texts_are_pinned():
    for text, term in DEPENDENT.items():
        with pytest.raises(DescriptorError) as info:
            parse_descriptor(text)
        assert str(info.value) == f"dependent generators: {term} is contained " \
            "in the group generated by the others", text
    # Q-dependent, but no term is redundant
    g = parse_descriptor("Z*2 + Z*3 + Q*sqrt(2)")
    assert group_to_text(g) == "Z*2 + Z*3 + Q*sqrt(2)"


def _clear_package_caches():
    for mod in (scalars, linalg, matrices, descriptors, autgroup, oracle, dsl,
                witnesses, cli):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                obj.cache_clear()


def test_independent_terms_skip_the_redundancy_solves():
    _clear_package_caches()
    parse_descriptor("Z*1 + Q*sqrt(3)")
    assert descriptors._lattice.cache_info().misses == 0
    # Q-dependent rows still go through the per-term solves
    with pytest.raises(DescriptorError):
        parse_descriptor("Z*2 + Z*4")
    assert descriptors._lattice.cache_info().misses > 0
