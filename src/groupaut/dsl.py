"""Text forms of groups, scalars and matrices, and the JSON form of a matrix.

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
'x' binds loosest.  A bare 'Z' is sugar for 'Z*1' and a bare 'Q' for
'Q*1'.  A cyclic group is the one-term Z-module: 'Z', 'Z*1' and
'cyclic(1)' are one group, printed 'Z', and 'cyclic(g)' prints as 'Z*g'
(so 'cyclic(2)' as 'Z*2').  A digit is what ``int`` reads, a decimal
digit of any script; a numeral such as '²' is an unexpected character.

The parser returns the normal form in one pass, on int numerators: each rule
builds its group normal from normal parts, and only a scalar prefix, an
image or a hull folds them through ``normalize``.  Printing is canonical:
parse(print(g)) == g for every normalized g, and printed strings re-print
to themselves.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Optional

from .descriptors import (
    Domain,
    FractionRing,
    FullLine,
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
from .errors import BudgetExceededError, ContextError, ParseError
from .matrices import ExactMatrix, matrix
from .scalars import (
    ContextKind,
    ExactScalar,
    RAT_CONTEXT,
    _number,
    as_scalar,
    context_radicands,
    rational,
    sqrt_rational,
    t_monomial,
)


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_Tok = tuple[str, str, int]      # (kind, text, position)

# a run of decimal digits (exactly what int reads), a run of letters, one
# punctuation character, which is its own kind, or any other character but
# a space, which is an error
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<ident>[^\W\d_]+)|[()\[\],;+*/^-]|(?P<bad>\S)")


def _tokenize(src: str) -> list[_Tok]:
    """The (kind, text, position) of each token, then two 'end' tokens, so
    that peek(1) is defined everywhere.  A kind is 'num', 'ident', or the
    punctuation character itself."""
    toks = [(m.lastgroup or m.group(), m.group(), m.start())
            for m in _TOKEN.finditer(src)]
    for kind, text, pos in toks:
        # the letter class also takes numerals that are no digit, as '²'
        if kind == "bad" or kind == "ident" and not text.isalpha():
            pos += next(j for j, c in enumerate(text) if not c.isalpha())
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
    end = ("end", "", len(src))
    return toks + [end, end]


class _Parser:
    """Each group rule returns its group in normal form."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        # the first ContextError of a fold, raised once the whole text parses
        self.deferred: Optional[ContextError] = None

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[self.i + ahead]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def expect(self, kind: str, what: Optional[str] = None) -> _Tok:
        t = self.peek()
        if t[0] != kind:
            raise ParseError(f"expected {what or kind!r}, found {t[1] or 'end of input'!r}",
                             t[2])
        return self.take()

    def expect_ident(self, word: str) -> _Tok:
        t = self.peek()
        if t[1] != word:
            raise ParseError(f"expected {word!r}, found {t[1] or 'end of input'!r}", t[2])
        return self.take()

    # -- scalars ----------------------------------------------------------

    def _fraction(self) -> tuple[int, int]:
        """The numerator and positive denominator of n or n/d."""
        num = int(self.expect("num", "a number")[1])
        if self.peek()[0] != "/":
            return num, 1
        self.take()
        den = self.expect("num", "a denominator")
        if int(den[1]) == 0:
            raise ParseError("zero denominator", den[2])
        return num, int(den[1])

    def scalar_factor(self) -> ExactScalar:
        kind, word, pos = self.peek()
        if kind == "num":
            num, den = self._fraction()
            return _number(RAT_CONTEXT, (num,), den)
        if word == "sqrt":
            self.take()
            self.expect("(")
            num, den = self._fraction()
            self.expect(")")
            if num <= 0:
                raise ParseError("sqrt needs a positive argument", pos)
            return sqrt_rational(Fraction(num, den))
        if word == "t":
            self.take()
            exp = 1
            if self.peek()[0] == "^":
                self.take()
                sign = 1
                if self.peek()[0] == "-":
                    self.take()
                    sign = -1
                exp = sign * int(self.expect("num", "an exponent")[1])
            return t_monomial(exp)
        if kind == "(":
            self.take()
            s = self.scalar_expr()
            self.expect(")")
            return s
        raise ParseError(f"expected a scalar, found {word or 'end of input'!r}", pos)

    def scalar_term(self) -> ExactScalar:
        neg = False
        if self.peek()[0] == "-":
            self.take()
            neg = True
        s = self.scalar_factor()
        while self.peek()[0] == "*" and self._starts_scalar_factor_at(1):
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
        kind, word, _ = self.peek(ahead)
        if kind == "(":
            # a '(' before a word other than sqrt or t opens a group
            kind, word, _ = self.peek(ahead + 1)
            return kind != "ident" or word in ("sqrt", "t")
        return kind == "num" or word in ("sqrt", "t")

    def scalar_expr(self) -> ExactScalar:
        s = self.scalar_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            u = self.scalar_term()
            s = s + u if op == "+" else s - u
        return s

    # -- matrices ---------------------------------------------------------

    def matrix_literal(self) -> ExactMatrix:
        self.expect("[")
        rows = [self._matrix_row()]
        while self.peek()[0] == ";":
            self.take()
            rows.append(self._matrix_row())
        self.expect("]")
        if any(len(r) != len(rows) for r in rows):
            raise ParseError("matrix must be square", self.peek()[2])
        return matrix(rows)

    def _matrix_row(self) -> list[ExactScalar]:
        row = [self.scalar_expr()]
        while self.peek()[0] == ",":
            self.take()
            row.append(self.scalar_expr())
        return row

    # -- groups -----------------------------------------------------------

    def _fold(self, g: GroupDescriptor) -> GroupDescriptor:
        """normalize(g) for a scalar prefix or an image of normal groups.
        A ContextError of the fold waits for the end of the parse, behind
        any error later in the text, where normalizing the whole parse
        would raise it; g stands in for its normal form meanwhile."""
        try:
            return normalize(g)
        except ContextError as exc:
            self.deferred = self.deferred or exc
            return g

    def group(self) -> GroupDescriptor:
        factors = [self.summand()]
        while self.peek()[1] == "x":
            self.take()
            factors.append(self.summand())
        if len(factors) == 1:
            return factors[0]
        return product(factors)

    def summand(self) -> GroupDescriptor:
        if self.peek()[1] in ("Z", "Q"):
            terms = [self._module_term()]
            while self.peek()[0] == "+":
                self.take()
                terms.append(self._module_term())
            # validated in the order typed, so that an error names its place
            return normalize(mixed_module(terms))
        return self.prefixed()

    def _module_term(self) -> tuple[Domain, ExactScalar]:
        t = self.peek()
        if t[1] not in ("Z", "Q"):
            raise ParseError(f"expected a Z or Q term, found {t[1] or 'end of input'!r}",
                             t[2])
        self.take()
        dom = Domain.INT if t[1] == "Z" else Domain.RAT
        if self.peek()[0] == "*":
            self.take()
            # product-level only: a '+' here separates module terms, so
            # compound generators must be parenthesized
            return dom, self.scalar_term()
        return dom, rational(1)

    def prefixed(self) -> GroupDescriptor:
        if self._starts_scalar_factor_at(0):
            save = self.i
            try:
                s = self.scalar_term()
                self.expect("*")
                inner = self.prefixed()
            except ParseError:
                self.i = save
            else:
                return self._fold(scaled(s, inner))
        return self.primary()

    def primary(self) -> GroupDescriptor:
        kind, word, pos = self.peek()
        if kind == "(":
            self.take()
            g = self.group()
            self.expect(")")
            return g
        if kind != "ident":
            raise ParseError(f"expected a group, found {word or 'end of input'!r}", pos)
        if word == "R":
            self.take()
            return FullLine()
        if word in ("Z", "Q"):
            self.take()
            return MixedModule(((Domain(word), rational(1)),))
        if word == "cyclic":
            self.take()
            self.expect("(")
            g = self.scalar_expr()
            self.expect(")")
            return normalize(cyclic(g))
        if word == "ring":
            self.take()
            self.expect("(")
            dom = self.expect("ident", "Z or Q")
            if dom[1] not in ("Z", "Q"):
                raise ParseError(f"expected Z or Q, found {dom[1]!r}", dom[2])
            self.expect("[")
            self.expect_ident("t")
            self.expect(",")
            one_tok = self.expect("num", "1")
            if one_tok[1] != "1":
                raise ParseError("expected '1/t'", one_tok[2])
            self.expect("/")
            self.expect_ident("t")
            self.expect("]")
            self.expect(")")
            return laurent_ring(Domain.INT if dom[1] == "Z" else Domain.RAT)
        if word == "Zinv":
            self.take()
            self.expect("(")
            m = self.expect("num", "an integer >= 2")
            self.expect(")")
            return fraction_ring(int(m[1]))
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
            return self._fold(image(g, a))
        raise ParseError(f"expected a group, found {word!r}", pos)


def _parse_whole(text: str, rule: Callable[[_Parser], object]):
    """Parse text by one grammar rule, which must consume all of it."""
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        raise BudgetExceededError("nesting too deep to parse") from None
    kind, word, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {word!r}", pos)
    if p.deferred is not None:
        raise p.deferred
    return out


def parse_scalar(text: str) -> ExactScalar:
    return _parse_whole(text, _Parser.scalar_expr)


def parse_matrix(text: str) -> ExactMatrix:
    return _parse_whole(text, _Parser.matrix_literal)


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse and return the canonical (normalized) descriptor; normalize
    leaves it as it is."""
    return _parse_whole(text, _Parser.group)


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
    # (coefficient, basis element) of each nonzero term; "" is the unit
    if s.context.kind is ContextKind.FORMAL:
        terms = [(c, "" if k == 0 else "t" if k == 1 else f"t^{k}")
                 for k, c in s.coords]
    else:
        terms = [(c, "" if r == 1 else f"sqrt({r})")
                 for c, r in zip(s.coords, context_radicands(s.context)) if c]
    parts = [f"{_coeff_prefix(c)}{b}" if b else str(c) for c, b in terms] or ["0"]
    return parts[0] + "".join(p if p[0] == "-" else "+" + p for p in parts[1:])


def _scalar_in_term(s: ExactScalar) -> str:
    txt = scalar_to_text(s)
    if "+" in txt[1:] or "-" in txt[1:]:
        return f"({txt})"
    return txt


def matrix_to_text(a: ExactMatrix) -> str:
    return "[" + ";".join(",".join(scalar_to_text(x) for x in row)
                          for row in a.rows) + "]"


def group_to_text(g: GroupDescriptor) -> str:
    if isinstance(g, MixedModule):
        if len(g.terms) == 1 and g.terms[0][1] == rational(1):
            return g.terms[0][0].value      # Z or Q
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
        if isinstance(g.inner, (MixedModule, Product, Scaled)) \
                and inner not in ("Q", "Z"):
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
    raise TypeError(f"not a group descriptor: {g!r}")


# ---------------------------------------------------------------------------
# JSON form of a matrix (scalars as canonical strings)
# ---------------------------------------------------------------------------

def matrix_to_json(a: ExactMatrix) -> list[list[str]]:
    return [[scalar_to_text(x) for x in row] for row in a.rows]


def matrix_from_json(rows: list[list[str]]) -> ExactMatrix:
    return matrix([[parse_scalar(x) for x in row] for row in rows])
