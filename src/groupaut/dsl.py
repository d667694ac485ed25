"""Text and JSON forms of groups, scalars and matrices.

Grammar (a documented superset of the README sketch; parentheses around
groups are accepted everywhere a group is):

    group   := summand ('x' summand)*
    summand := term ('+' term)* when it starts with Z or Q, else prefixed
    term    := ('Z' | 'Q') ('*' scalar)?
    prefixed:= scalar '*' prefixed | primary
    primary := 'R' | 'Z' | 'Q' | 'cyclic(' scalar ')'
             | 'ring(' ('Z'|'Q') '[t,1/t])' | 'Zinv(' int ')'
             | 'hull(' group ')' | 'image(' group ',' matrix ')'
             | '(' group ')'
    matrix  := '[' row (';' row)* ']',  row := scalar (',' scalar)*
    scalar  := sum of products of: integers, fractions p/q, sqrt(N),
               t, t^k (k possibly negative), parenthesized scalars

Precedence: '+' binds module terms, scalar prefixes bind one factor, and
'x' binds loosest.  A bare 'Z' is the cyclic group of the integers; a bare
'Q' is the one-generator rational module; inside a sum both are sugar for
'Z*1' / 'Q*1'.

Printing is canonical: parse(print(g)) == g for every normalized g, and
printed strings re-print to themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .descriptors import (
    Cyclic,
    Domain,
    FractionRing,
    FullLine,
    FullSpace,
    GroupDescriptor,
    Image,
    LaurentRing,
    MixedModule,
    Product,
    Scaled,
    cyclic,
    divisible_hull,
    fraction_ring,
    image,
    laurent_ring,
    mixed_module,
    normalize,
    product,
    scaled,
)
from .errors import ParseError
from .matrices import ExactMatrix, matrix
from .scalars import (
    ContextKind,
    ExactScalar,
    as_scalar,
    context_radicands,
    rational,
    sqrt_rational,
    t_monomial,
)


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_PUNCT = set("()[],;+-*/^")


@dataclass(frozen=True)
class _Tok:
    kind: str      # 'num', 'ident', or the punctuation character itself
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
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
            toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            toks.append(_Tok("ident", src[i:j], i))
            i = j
            continue
        if c in _PUNCT:
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Tok("end", "", len(src)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def expect(self, kind: str, what: Optional[str] = None) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what or kind!r}, found {t.text or 'end of input'!r}",
                             t.pos)
        return self.take()

    def expect_ident(self, word: str) -> _Tok:
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

    def _starts_scalar_factor(self) -> bool:
        t = self.peek()
        if t.kind in ("num", "("):
            return True
        return t.kind == "ident" and t.text in ("sqrt", "t")

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
            return sqrt_rational(q)
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
                    return mixed_module([(Domain.RAT, rational(1))])
                return mixed_module([(dom, gen)])
            return mixed_module([(d, g) for d, g, _ in terms])
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
        if self._starts_scalar_factor():
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
            return mixed_module([(Domain.RAT, rational(1))])
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
            return divisible_hull(g)
        if word == "image":
            self.take()
            self.expect("(")
            g = self.group()
            self.expect(",")
            a = self.matrix_literal()
            self.expect(")")
            return image(g, a)
        raise ParseError(f"expected a group, found {word!r}", t.pos)


def parse_scalar(text: str) -> ExactScalar:
    p = _Parser(text)
    s = p.scalar_expr()
    if p.peek().kind != "end":
        raise ParseError(f"unexpected trailing input {p.peek().text!r}", p.peek().pos)
    return s


def parse_matrix(text: str) -> ExactMatrix:
    p = _Parser(text)
    m = p.matrix_literal()
    if p.peek().kind != "end":
        raise ParseError(f"unexpected trailing input {p.peek().text!r}", p.peek().pos)
    return m


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse and return the canonical (normalized) descriptor."""
    p = _Parser(text)
    g = p.group()
    if p.peek().kind != "end":
        raise ParseError(f"unexpected trailing input {p.peek().text!r}", p.peek().pos)
    return normalize(g)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _coeff_prefix(c: Fraction) -> str:
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return f"{c}*"


def scalar_to_text(s: ExactScalar) -> str:
    s = as_scalar(s)
    parts: list[str] = []
    if s.context.kind is ContextKind.FORMAL:
        for k, c in s.coords:
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{_coeff_prefix(c)}t")
            else:
                parts.append(f"{_coeff_prefix(c)}t^{k}")
    else:
        rad = context_radicands(s.context)
        for i, c in enumerate(s.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(f"{_coeff_prefix(c)}sqrt({rad[i]})")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += "-" + p[1:]
        else:
            out += "+" + p
    return out


def _scalar_in_term(s: ExactScalar) -> str:
    txt = scalar_to_text(s)
    if "+" in txt[1:] or "-" in txt[1:]:
        return f"({txt})"
    return txt


def matrix_to_text(a: ExactMatrix) -> str:
    return "[" + ";".join(",".join(scalar_to_text(x) for x in row)
                          for row in a.rows) + "]"


def group_to_text(g: GroupDescriptor) -> str:
    if isinstance(g, Cyclic):
        if g.generator == rational(1):
            return "Z"
        return f"cyclic({scalar_to_text(g.generator)})"
    if isinstance(g, MixedModule):
        if g.terms == ((Domain.RAT, rational(1)),):
            return "Q"
        return " + ".join(f"{d.value}*{_scalar_in_term(gen)}" for d, gen in g.terms)
    if isinstance(g, LaurentRing):
        return f"ring({g.coeffs.value}[t,1/t])"
    if isinstance(g, FractionRing):
        return f"Zinv({g.m})"
    if isinstance(g, Scaled):
        txt = scalar_to_text(g.factor)
        if "+" in txt[1:] or "-" in txt[1:] or txt.startswith("-"):
            txt = f"({txt})"
        inner = group_to_text(g.inner)
        if isinstance(g.inner, (MixedModule, Product, Scaled)) and inner not in ("Q",):
            inner = f"({inner})"
        return f"{txt}*{inner}"
    if isinstance(g, FullLine):
        return "R"
    if isinstance(g, Product):
        parts = []
        for f in g.factors:
            txt = group_to_text(f)
            if isinstance(f, MixedModule) and len(f.terms) > 1:
                txt = f"({txt})"
            parts.append(txt)
        return " x ".join(parts)
    if isinstance(g, Image):
        return f"image({group_to_text(g.inner)}, {matrix_to_text(g.matrix)})"
    if isinstance(g, FullSpace):
        return " x ".join(["R"] * g.n)
    raise TypeError(f"not a group descriptor: {g!r}")


# ---------------------------------------------------------------------------
# JSON forms (stable field order, scalars as canonical strings)
# ---------------------------------------------------------------------------

def matrix_to_json(a: ExactMatrix) -> list[list[str]]:
    return [[scalar_to_text(x) for x in row] for row in a.rows]


def matrix_from_json(rows: list[list[str]]) -> ExactMatrix:
    return matrix([[parse_scalar(x) for x in row] for row in rows])


def descriptor_to_json(g: GroupDescriptor) -> dict:
    if isinstance(g, Cyclic):
        return {"kind": "cyclic", "generator": scalar_to_text(g.generator)}
    if isinstance(g, MixedModule):
        return {"kind": "module",
                "terms": [{"domain": d.value, "generator": scalar_to_text(gen)}
                          for d, gen in g.terms]}
    if isinstance(g, LaurentRing):
        return {"kind": "laurent", "coeffs": g.coeffs.value}
    if isinstance(g, FractionRing):
        return {"kind": "zinv", "m": g.m}
    if isinstance(g, Scaled):
        return {"kind": "scaled", "factor": scalar_to_text(g.factor),
                "inner": descriptor_to_json(g.inner)}
    if isinstance(g, FullLine):
        return {"kind": "line"}
    if isinstance(g, Product):
        return {"kind": "product",
                "factors": [descriptor_to_json(f) for f in g.factors]}
    if isinstance(g, Image):
        return {"kind": "image", "inner": descriptor_to_json(g.inner),
                "matrix": matrix_to_json(g.matrix)}
    if isinstance(g, FullSpace):
        return {"kind": "space", "n": g.n}
    raise TypeError(f"not a group descriptor: {g!r}")


def descriptor_from_json(d: dict) -> GroupDescriptor:
    kind = d.get("kind")
    if kind == "cyclic":
        return cyclic(parse_scalar(d["generator"]))
    if kind == "module":
        return mixed_module([(Domain(t["domain"]), parse_scalar(t["generator"]))
                             for t in d["terms"]])
    if kind == "laurent":
        return laurent_ring(Domain(d["coeffs"]))
    if kind == "zinv":
        return fraction_ring(d["m"])
    if kind == "hull":
        return divisible_hull(descriptor_from_json(d["inner"]))
    if kind == "scaled":
        return scaled(parse_scalar(d["factor"]), descriptor_from_json(d["inner"]))
    if kind == "line":
        return FullLine()
    if kind == "product":
        return product([descriptor_from_json(f) for f in d["factors"]])
    if kind == "image":
        return image(descriptor_from_json(d["inner"]), matrix_from_json(d["matrix"]))
    if kind == "space":
        return FullSpace(d["n"])
    raise ParseError(f"unknown descriptor kind {kind!r}", 0)
