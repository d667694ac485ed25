"""Small exact linear-algebra helpers over Fraction and integer coordinates.

Everything here is deterministic: the pivot is always the first nonzero
entry.  There is one elimination, :func:`fraction_free`, Bareiss
elimination over any exact ring, ints by default: every entry it forms is
a minor, so each division is exact.  ``matrices`` runs it for determinants
and inverses from 3 x 3 on, on ints when the matrix is rational.  Its
``jordan`` form, which :func:`_gauss_jordan` runs on the rows with their
denominators cleared, ends with each pivot row equal to the last pivot
times a row of the reduced row echelon form (RREF), which is unique; the
read-offs divide by that pivot:

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
per target.  The same back-substitution gives :func:`hermite_content`: a
lattice vector over q stays in the lattice exactly when q divides it.  The
answers do not change when every row is scaled by one positive integer, or
when one column is scaled by a positive integer in every row and in the
target: each gcd step then takes the same quotients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import floordiv


Vec = list[Fraction]


def fraction_free(rows: list[list], jordan: bool, div=floordiv, square: bool = False
                  ) -> tuple[int, list[int], list[list], object]:
    """Bareiss elimination of the rows, in place; returns
    ``(sign, cols, rows, p)``.

    The entries are ints, or ``ExactScalar``s with ``div`` their exact
    division; zero is falsy in both.  Columns go left to right; in each, the
    first remaining row with a nonzero entry becomes the pivot row (a swap
    flips ``sign``), and each row below it, and above it too when
    ``jordan``, becomes (p * row - row[col] * pivot_row) / p' for this
    pivot p and the one before, p' (1 at the start).  Only the entries this
    can change are formed, so the scalar products, and the first
    cross-tower ``ContextError`` among them, are those of the classic
    step.  ``cols`` are the pivot columns, pivot row k is ``rows[k]``, the
    rows past them are zero, and ``p`` is the last pivot: a square matrix
    of full rank has determinant ``sign * p``, and with ``jordan``
    ``rows[k] / p`` is row k of the RREF.  With ``square`` it stops at a
    column left of ``len(rows)`` without a pivot: the leading block is singular.
    """
    sign, cols, free, prev = 1, [], [], 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(cols)
        piv = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if piv is None:
            if square and col < len(rows):
                break
            free.append(col)
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            sign = -sign
        p = rows[top][col]
        pivot_row, zero = rows[top][col + 1:], p - p
        for i in range(0 if jordan else top + 1, len(rows)):
            if i != top:
                row = rows[i]
                f, row[col] = row[col], zero
                row[col + 1:] = [div(p * a - f * b, prev)
                                 for a, b in zip(row[col + 1:], pivot_row)]
                if i < top:
                    # left of col the pivot row is zero: a row above changes
                    # at its own pivot, prev to p, and where no pivot is
                    row[cols[i]] = p
                    for c in free:
                        row[c] = div(p * row[c], prev)
        cols.append(col)
        prev = p
    return sign, cols, rows, prev


def _gauss_jordan(rows: list[Vec]) -> tuple[list[int], list[list[int]], int]:
    """(cols, rows, p) of ``fraction_free`` in its ``jordan`` form, on the
    rows each scaled by the lcm of its denominators (the RREF is unchanged)."""
    ints = []
    for r in rows:
        d = lcm(*(x.denominator for x in r))
        ints.append([x.numerator * (d // x.denominator) for x in r])
    _, cols, ints, p = fraction_free(ints, jordan=True)
    return cols, ints, p


# rref_basis, solve_combination and integer_combination keep their names:
# perfbench/spans.py wraps all three, and tests/test_perfbench_selftest.py
# fails if one goes.
def rref_basis(vectors: list[Vec]) -> list[tuple[int, Vec]]:
    """Reduced-row-echelon basis of the span, as (pivot_col, row) pairs."""
    cols, rows, p = _gauss_jordan(vectors)
    return [(c, [Fraction(x, p) for x in r]) for c, r in zip(cols, rows)]


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
    cols, rows, p = _gauss_jordan(aug)
    for col, row in zip(cols, rows):
        if col == m:
            return None
        out[col] = Fraction(row[m], p)
    return out


def _primitive(row: list[int], lead: int) -> list[int]:
    """row divided by the gcd of its entries, signed so that entry lead of
    the result is positive; that entry is nonzero."""
    g = gcd(*row)
    return [x // g for x in row] if row[lead] > 0 else [-x // g for x in row]


def annihilator(vectors: list[Vec], n: int) -> list[list[int]]:
    """Integer rows ``a`` with ``a . x == 0`` for every x in the span.

    One row per column j that is not a pivot of the span's RREF, in
    column order: ``a . x`` is a positive multiple of coordinate j of x
    minus its projection onto the span along the pivot columns, so x lies
    in the span exactly when every row gives 0.  Each row is primitive.
    """
    cols, rows, p = _gauss_jordan(vectors)
    out = []
    for j in range(n):
        if j in cols:
            continue
        # p times e_j minus the RREF rows' entries j along the pivots
        row = [0] * n
        row[j] = p
        for c, b in zip(cols, rows):
            row[c] = -b[j]
        out.append(_primitive(row, j))
    return out


def combination_rows(gens: list[Vec], n: int) -> list[tuple[int, list[int], int]]:
    """Linear forms for the coefficients of ``solve_combination``.

    Returns (i, r, d) triples: for every target v in the span,
    ``solve_combination(gens, v)[i] == r . v / d``, with d > 0 the least
    such, and the coefficients of the generators not listed are 0.  They
    come from the same elimination with the identity appended to the
    augmented system; the extra columns only add rows that vanish on the
    span.
    """
    m = len(gens)
    aug = [[g[r] for g in gens] + [1 if c == r else 0 for c in range(n)]
           for r in range(n)]
    cols, rows, p = _gauss_jordan(aug)
    # r / d is row[m:] / p in lowest terms
    forms = [(col, _primitive(row[m:] + [p], n))
             for col, row in zip(cols, rows) if col < m]
    return [(col, f[:n], f[n]) for col, f in forms]


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


def hermite_content(form: Hermite, target: list[int]) -> int:
    """For target in the lattice, the gcd d (0 for zero) of its coordinates
    over the pivot rows, a Z-basis: target / q is in it exactly when q | d."""
    t, d = list(target), 0
    for c, row, _ in form[1]:
        if t[c]:
            q = t[c] // row[c]
            t = [u - q * v for u, v in zip(t, row)]
            d = gcd(d, q)
    return d


def integer_combination(gens: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer coefficients ``c`` with ``sum c_i * gens[i] == target``, or None."""
    return hermite_solve(hermite(gens), target)
