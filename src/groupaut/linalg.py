"""Small exact linear-algebra helpers over Fraction coordinates.

Everything here works on plain lists of ``fractions.Fraction`` (or int) and is
deterministic: no pivoting heuristics beyond "first nonzero".  Two solvers are
provided because group membership needs both:

* :func:`solve_combination` -- rational solutions of ``sum c_i * g_i = v``;
* :func:`integer_combination` -- integer solutions, via a Hermite-style
  elimination with an integral transformation matrix carried along so a
  witness vector can be reported.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


Vec = list[Fraction]


def rank(vectors: list[Vec]) -> int:
    """Rank of the span of the given vectors."""
    return len(rref_basis(vectors))


def solve_combination(gens: list[Vec], target: Vec) -> list[Fraction] | None:
    """One rational solution ``c`` of ``sum c_i * gens[i] == target``, or None.

    Free variables are set to zero, so the answer is deterministic.  When the
    generators are linearly independent the solution is unique.
    """
    m = len(gens)
    n = len(target)
    if m == 0:
        return [] if all(x == 0 for x in target) else None
    # columns are the generators: rows of the augmented system are coordinates
    aug = [[Fraction(gens[i][r]) for i in range(m)] + [Fraction(target[r])]
           for r in range(n)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    row = 0
    for col in range(m):
        piv = next((i for i in range(row, n) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
    for i in range(row, n):
        if aug[i][m] != 0:
            return None
    out = [Fraction(0)] * m
    for r, c in pivots:
        out[c] = aug[r][m]
    return out


def in_span(gens: list[Vec], target: Vec) -> bool:
    """Whether target lies in the rational span of the generators."""
    return solve_combination(gens, target) is not None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y == g == gcd(a, b), g >= 0."""
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


def integer_combination(gens: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer coefficients ``c`` with ``sum c_i * gens[i] == target``, or None.

    Row-reduces the generator matrix to echelon form with integer operations
    only (gcd combinations), carrying the transformation so the coefficient
    vector refers to the original generators.
    """
    m = len(gens)
    if m == 0:
        return [] if all(x == 0 for x in target) else None
    n = len(gens[0])
    # rows are [generator | unit row] so the right part tracks coefficients
    rows = [list(gens[i]) + [1 if j == i else 0 for j in range(m)]
            for i in range(m)]
    pivots: list[tuple[int, int]] = []
    top = 0
    for col in range(n):
        live = [i for i in range(top, m) if rows[i][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            i1, i2 = live[0], live[1]
            a1, a2 = rows[i1][col], rows[i2][col]
            g, x, y = _xgcd(a1, a2)
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


def reduce_by_span(basis: list[tuple[int, Vec]], vec: Vec) -> Vec:
    """Reduce vec modulo an RREF basis (list of (pivot_col, row) pairs).

    The result has a zero in every pivot column, giving canonical
    coordinates for the quotient by the span.
    """
    w = [Fraction(x) for x in vec]
    for col, row in basis:
        f = w[col]
        if f != 0:
            w = [a - f * b for a, b in zip(w, row)]
    return w


def rref_basis(vectors: list[Vec]) -> list[tuple[int, Vec]]:
    """Reduced-row-echelon basis of the span, as (pivot_col, row) pairs."""
    basis: list[tuple[int, Vec]] = []
    for v in vectors:
        w = reduce_by_span(basis, v)
        col = next((j for j, x in enumerate(w) if x != 0), None)
        if col is None:
            continue
        inv = 1 / w[col]
        w = [x * inv for x in w]
        updated = []
        for c, row in basis:
            f = row[col]
            if f != 0:
                row = [a - f * b for a, b in zip(row, w)]
            updated.append((c, row))
        updated.append((col, w))
        updated.sort(key=lambda t: t[0])
        basis = updated
    return basis


def clear_denominators(vectors: list[Vec]) -> tuple[list[list[int]], int]:
    """Scale a family of rational vectors by one common L > 0 to integers."""
    L = 1
    for v in vectors:
        for x in v:
            f = Fraction(x)
            L = L * f.denominator // gcd(L, f.denominator)
    out = [[int(Fraction(x) * L) for x in v] for v in vectors]
    return out, L
