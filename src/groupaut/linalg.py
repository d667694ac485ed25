"""Small exact linear-algebra helpers over Fraction and integer coordinates.

Everything here is deterministic: the pivot is always the first nonzero
entry.  There is one rational elimination, :func:`_gauss_jordan`, and the
read-offs of the reduced row echelon form (RREF) it returns, which is
unique:

* :func:`rref_basis` -- the RREF of a family of vectors, a basis of its
  rational span;
* :func:`solve_combination` -- rational solutions of ``sum c_i * g_i = v``,
  read off the RREF of the augmented system;
* :func:`annihilator` -- primitive integer rows ``a`` with ``a . x == 0``
  exactly for ``x`` in the span, one per non-pivot column ``j``, where
  ``a . x`` is a positive multiple of coordinate ``j`` of ``x`` reduced
  modulo the span;
* :func:`combination_rows` -- the linear forms that give the coefficients
  ``solve_combination`` returns, for every target inside the span.

Integer solutions come from one Hermite-style elimination,
:func:`hermite`, which carries an integral transformation so a witness
vector can be reported, and a back-substitution, :func:`hermite_solve`;
:func:`integer_combination` is the two in a row.  A caller that asks
about many targets against one family eliminates once and back-substitutes
per target.  The answers do not change when every row is scaled by one
positive integer, or when one column is scaled by a positive integer in
every row and in the target: each gcd step then takes the same quotients.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


Vec = list[Fraction]


def _gauss_jordan(rows: list[Vec]) -> list[tuple[int, Vec]]:
    """RREF of the rows, as (pivot_col, row) pairs in pivot order.

    Columns are taken left to right; in each, the first remaining row with
    a nonzero entry becomes the pivot row, is scaled to a leading 1 and is
    subtracted from every other row.  Zero rows are dropped.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    pivot_cols: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivot_cols)
        piv = next((i for i in range(top, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = 1 / rows[top][col]
        pivot = rows[top] = [x * inv for x in rows[top]]
        for i, r in enumerate(rows):
            f = r[col]
            if i != top and f != 0:
                rows[i] = [a - f * b for a, b in zip(r, pivot)]
        pivot_cols.append(col)
    return list(zip(pivot_cols, rows))


# rref_basis, solve_combination and integer_combination keep their names:
# perfbench/spans.py wraps all three, and tests/test_perfbench_selftest.py
# fails if one goes.
def rref_basis(vectors: list[Vec]) -> list[tuple[int, Vec]]:
    """Reduced-row-echelon basis of the span, as (pivot_col, row) pairs."""
    return _gauss_jordan(vectors)


def solve_combination(gens: list[Vec], target: Vec) -> list[Fraction] | None:
    """One rational solution ``c`` of ``sum c_i * gens[i] == target``, or None.

    Read off the RREF of the augmented system ``[gens as columns | target]``:
    a pivot in the target column means there is no solution.  Free
    variables are set to zero, so the answer is deterministic.  When the
    generators are linearly independent the solution is unique.
    """
    m = len(gens)
    # columns are the generators: rows of the augmented system are coordinates
    aug = [[g[r] for g in gens] + [x] for r, x in enumerate(target)]
    out = [Fraction(0)] * m
    for col, row in _gauss_jordan(aug):
        if col == m:
            return None
        out[col] = row[m]
    return out


def _integral(row: Vec) -> tuple[list[int], int]:
    """(r, d) with row == r / d, r integral and d > 0 the least such."""
    d = lcm(*(x.denominator for x in row))
    return [int(x * d) for x in row], d


def annihilator(vectors: list[Vec], n: int) -> list[list[int]]:
    """Integer rows ``a`` with ``a . x == 0`` for every x in the span.

    One row per column j that is not a pivot of the span's RREF, in
    column order: ``a . x`` is a positive multiple of coordinate j of x
    minus its projection onto the span along the pivot columns, so x lies
    in the span exactly when every row gives 0.  Each row is primitive.
    """
    basis = rref_basis(vectors)
    pivots = {c for c, _ in basis}
    out = []
    for j in range(n):
        if j in pivots:
            continue
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        for c, b in basis:
            row[c] = -b[j]
        # entry j is 1, so clearing denominators leaves a primitive row
        out.append(_integral(row)[0])
    return out


def combination_rows(gens: list[Vec], n: int) -> list[tuple[int, list[int], int]]:
    """Linear forms for the coefficients of ``solve_combination``.

    Returns (i, r, d) triples: for every target v in the span,
    ``solve_combination(gens, v)[i] == r . v / d``, and the coefficients
    of the generators not listed are 0.  They come from the same
    elimination with the identity appended to the augmented system; the
    extra columns only add rows that vanish on the span.
    """
    m = len(gens)
    aug = [[g[r] for g in gens] + [1 if c == r else 0 for c in range(n)]
           for r in range(n)]
    return [(col, *_integral(row[m:])) for col, row in _gauss_jordan(aug)
            if col < m]


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


Hermite = tuple[int, list[tuple[int, list[int], list[int]]]]


def hermite(gens: list[list[int]]) -> Hermite:
    """Integer echelon form of the generator rows.

    Returns ``(m, pivots)``: m is the number of generators, and each pivot
    is ``(column, row, transformation)`` in pivot order, with a positive
    entry of ``row`` at ``column`` and ``row == sum transformation[i] *
    gens[i]``.  Rows are combined by gcd steps only, so the pivot rows
    generate the same lattice as the generators.
    """
    m = len(gens)
    if m == 0:
        return 0, []
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
            g, x, y = _xgcd(a1, a2)
            new1 = [x * u + y * v for u, v in zip(rows[i1], rows[i2])]
            new2 = [(a1 // g) * v - (a2 // g) * u for u, v in zip(rows[i1], rows[i2])]
            rows[i1], rows[i2] = new1, new2
            live = [i for i in live if rows[i][col] != 0]
        piv = live[0]
        rows[top], rows[piv] = rows[piv], rows[top]
        if rows[top][col] < 0:
            rows[top] = [-x for x in rows[top]]
        pivots.append((col, rows[top][:n], rows[top][n:]))
        top += 1
    return m, pivots


def hermite_solve(form: Hermite, target: list[int]) -> list[int] | None:
    """Integer coefficients ``c`` with ``sum c_i * gens[i] == target``, or
    None, by back-substitution through ``form = hermite(gens)``."""
    m, pivots = form
    t = list(target)
    coeff = [0] * m
    for c, row, trans in pivots:
        if t[c] == 0:
            continue
        a = row[c]
        if t[c] % a != 0:
            return None
        q = t[c] // a
        t = [u - q * v for u, v in zip(t, row)]
        coeff = [u + q * v for u, v in zip(coeff, trans)]
    if any(x != 0 for x in t):
        return None
    return coeff


def integer_combination(gens: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer coefficients ``c`` with ``sum c_i * gens[i] == target``, or None."""
    return hermite_solve(hermite(gens), target)
