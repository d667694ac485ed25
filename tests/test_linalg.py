"""Differential tests of the one elimination in ``linalg``.

``solve_combination``, ``rref_basis``, ``annihilator`` and
``combination_rows`` are read-offs of one fraction-free integer
Gauss-Jordan routine.  The reference copies below are earlier versions
they replace, kept verbatim: the two separate eliminations, and the
single Gauss-Jordan elimination over Fractions with its read-offs.  The
reduced row echelon form is unique, and so is each primitive row read off
it, so every version must give identical answers on every system.  The
content read-off of the integer Hermite form is checked on its defining
property.
"""

import random
from fractions import Fraction
from math import lcm

from groupaut import linalg


# --- reference copies of the former routines, verbatim ---------------------

def ref_solve_combination(gens, target):
    m = len(gens)
    n = len(target)
    if m == 0:
        return [] if all(x == 0 for x in target) else None
    # columns are the generators: rows of the augmented system are coordinates
    aug = [[Fraction(gens[i][r]) for i in range(m)] + [Fraction(target[r])]
           for r in range(n)]
    pivots = []  # (row, col)
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


def ref_reduce_by_span(basis, vec):
    w = [Fraction(x) for x in vec]
    for col, row in basis:
        f = w[col]
        if f != 0:
            w = [a - f * b for a, b in zip(w, row)]
    return w


def ref_rref_basis(vectors):
    basis = []
    for v in vectors:
        w = ref_reduce_by_span(basis, v)
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


# --- the Fraction Gauss-Jordan and its read-offs, verbatim ---------------

def frac_gauss_jordan(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    pivot_cols = []
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


def frac_rref_basis(vectors):
    return frac_gauss_jordan(vectors)


def frac_solve_combination(gens, target):
    m = len(gens)
    # columns are the generators: rows of the augmented system are coordinates
    aug = [[g[r] for g in gens] + [x] for r, x in enumerate(target)]
    out = [Fraction(0)] * m
    for col, row in frac_gauss_jordan(aug):
        if col == m:
            return None
        out[col] = row[m]
    return out


def frac_integral(row):
    d = lcm(*(x.denominator for x in row))
    return [int(x * d) for x in row], d


def frac_annihilator(vectors, n):
    basis = frac_rref_basis(vectors)
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
        out.append(frac_integral(row)[0])
    return out


def frac_combination_rows(gens, n):
    m = len(gens)
    aug = [[g[r] for g in gens] + [1 if c == r else 0 for c in range(n)]
           for r in range(n)]
    return [(col, *frac_integral(row[m:])) for col, row in frac_gauss_jordan(aug)
            if col < m]


# --- seeded systems ---------------------------------------------------------

def _entry(rng):
    if rng.random() < 0.3:
        return 0 if rng.random() < 0.5 else Fraction(0)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _system(rng):
    """(kind, gens, target): 0 to 3 generators over 1 to 4 coordinates."""
    n = rng.randint(1, 4)
    m = rng.randint(0, 3)
    gens = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    kind = rng.choice(["random", "in_span", "zero_target", "dependent",
                       "zero_generator"])
    if kind == "dependent" and m >= 2:
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        gens[-1] = [k * x for x in gens[0]]
    elif kind == "zero_generator" and m >= 1:
        gens[rng.randrange(m)] = [0] * n
    if kind == "zero_target":
        target = [0] * n
    elif kind == "in_span":
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in gens]
        target = [sum((c * g[r] for c, g in zip(coeffs, gens)), Fraction(0))
                  for r in range(n)]
    else:
        target = [_entry(rng) for _ in range(n)]
    return kind, gens, target


SYSTEMS = 5000


def test_solve_combination_matches_reference_on_seeded_systems():
    rng = random.Random(20261018)
    outcomes = {"solved": 0, "inconsistent": 0}
    kinds = set()
    for _ in range(SYSTEMS):
        kind, gens, target = _system(rng)
        kinds.add(kind)
        expected = ref_solve_combination(gens, target)
        got = linalg.solve_combination(gens, target)
        assert got == expected, (gens, target)
        if got is not None:
            assert all(type(c) is Fraction for c in got)
        n = len(target)
        in_span = not any(sum(a * x for a, x in zip(row, target))
                          for row in linalg.annihilator(gens, n))
        assert in_span == (expected is not None), (gens, target)
        if expected is not None:
            read = [Fraction(0)] * len(gens)
            for i, r, d in linalg.combination_rows(gens, n):
                read[i] = Fraction(sum(a * x for a, x in zip(r, target)), d)
            assert read == expected, (gens, target)
        outcomes["solved" if expected is not None else "inconsistent"] += 1
    assert kinds == {"random", "in_span", "zero_target", "dependent",
                     "zero_generator"}
    assert min(outcomes.values()) > SYSTEMS // 10, outcomes


def test_rref_basis_matches_reference_on_seeded_systems():
    rng = random.Random(1018)
    ranks = set()
    for _ in range(SYSTEMS):
        _, gens, target = _system(rng)
        for vectors in (gens, gens + [target]):
            expected = ref_rref_basis(vectors)
            assert linalg.rref_basis(vectors) == expected, vectors
            assert len(linalg.rref_basis(vectors)) == len(expected)
            ranks.add(len(expected))
    assert ranks == {0, 1, 2, 3, 4}


def test_solve_combination_edge_shapes():
    # no generators: solvable exactly for the zero target
    assert linalg.solve_combination([], [0, 0]) == []
    assert linalg.solve_combination([], [0, 1]) is None
    # no coordinates: every coefficient is free, hence zero
    assert linalg.solve_combination([[], []], []) == [0, 0]
    # free variables are set to zero
    assert linalg.solve_combination([[1, 0], [2, 0]], [3, 0]) == [3, 0]
    assert linalg.solve_combination([[0, 0], [1, 1]], [2, 2]) == [0, 2]
    assert linalg.rref_basis([]) == []
    assert linalg.rref_basis([[0, 0]]) == []


# --- rank-deficient and rectangular systems against the Fraction versions ---

def _deficient(rng):
    """(n, vectors): 0 to 6 vectors over 1 to 6 coordinates whose span has
    rank below both counts as often as not.  Entries are fractions, ints or
    zero; some columns are zero, and some vectors combine earlier ones, so
    pivots skip columns and rows vanish during the elimination."""
    n = rng.randint(1, 6)
    m = rng.randint(0, 6)
    zero_cols = {j for j in range(n) if rng.random() < 0.2}
    vectors = []
    for _ in range(m):
        if vectors and rng.random() < 0.4:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in vectors]
            vectors.append([sum((c * v[j] for c, v in zip(coeffs, vectors)),
                                Fraction(0)) for j in range(n)])
        else:
            vectors.append([0 if j in zero_cols else _entry(rng)
                            for j in range(n)])
    if vectors and rng.random() < 0.3:
        # integer rows, as the module frame passes them
        vectors = [[int(x * lcm(*(y.denominator for y in map(Fraction, v))))
                    for x in map(Fraction, v)] for v in vectors]
    return n, vectors


def test_read_offs_match_the_fraction_gauss_jordan():
    rng = random.Random(11)
    shapes = set()
    for _ in range(1500):
        n, vectors = _deficient(rng)
        basis = frac_rref_basis(vectors)
        got = linalg.rref_basis(vectors)
        assert got == basis, vectors
        assert all(type(x) is Fraction for _, row in got for x in row)
        assert linalg.annihilator(vectors, n) == frac_annihilator(vectors, n)
        # the vectors as generators: n coordinates, one column per vector
        assert (linalg.combination_rows(vectors, n)
                == frac_combination_rows(vectors, n)), vectors
        target = [_entry(rng) for _ in range(n)]
        assert (linalg.solve_combination(vectors, target)
                == frac_solve_combination(vectors, target))
        rank = len(basis)
        shapes.add(("tall" if len(vectors) > n else "wide" if len(vectors) < n
                     else "square", rank < min(len(vectors), n)))
    assert shapes == {(shape, deficient) for shape in ("tall", "wide", "square")
                      for deficient in (True, False)}


def test_fraction_free_rows_are_the_rref_times_the_last_pivot():
    # pivot row k ends as p times RREF row k, for the last pivot p
    rng = random.Random(12)
    for _ in range(500):
        n, vectors = _deficient(rng)
        ints = [[int(x * lcm(*(Fraction(y).denominator for y in v)))
                 for x in map(Fraction, v)] for v in vectors]
        _, cols, rows, p = linalg.fraction_free([list(r) for r in ints],
                                                jordan=True)
        basis = frac_gauss_jordan(ints)
        assert cols == [c for c, _ in basis]
        assert [[Fraction(x, p) for x in r] for r in rows[:len(cols)]] \
            == [row for _, row in basis]
        assert not any(any(r) for r in rows[len(cols):])


# --- the content of a lattice vector ----------------------------------------

_PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _lattice_family(rng):
    """(n, gens): 0 to 5 integer rows over 1 to 4 coordinates.  Some are
    multiples k * w of one row w with the k coprime, as in 2Z + 3Z, so the
    family is Q-dependent without being redundant; some are integer
    combinations of earlier rows, so the lattice has rank below their
    count."""
    n = rng.randint(1, 4)
    gens = []
    for _ in range(rng.randint(0, 5)):
        pick = rng.random()
        if gens and pick < 0.3:
            w = rng.choice(gens)
            gens.append([rng.choice((2, 3, 5, -3)) * x for x in w])
        elif gens and pick < 0.5:
            gens.append([sum(rng.randint(-2, 2) * g[j] for g in gens)
                         for j in range(n)])
        else:
            gens.append([rng.randint(-6, 6) if rng.random() < 0.8 else 0
                         for _ in range(n)])
    return n, gens


def test_hermite_content_is_the_largest_divisor_in_the_lattice():
    rng = random.Random(13)
    seen = set()
    for _ in range(800):
        n, gens = _lattice_family(rng)
        form = linalg.hermite(gens)
        assert linalg.hermite_content(form, [0] * n) == 0
        coeffs = [rng.randint(-4, 4) for _ in gens]
        scale = rng.choice((1, 2, 6, 35, 2 * 3 * 5 * 7 * 11 * 13))
        t = [scale * sum((c * g[j] for c, g in zip(coeffs, gens)), 0)
             for j in range(n)]
        d = linalg.hermite_content(form, t)
        if not any(t):
            assert d == 0
            continue
        assert d > 0 and all(x % d == 0 for x in t)
        assert linalg.hermite_solve(form, [x // d for x in t]) is not None
        for p in _PRIMES_TO_50:
            assert any(x % (d * p) for x in t) \
                or linalg.hermite_solve(form, [x // (d * p) for x in t]) is None
        seen.add((len(form[1]) < len(gens), d == scale))
    assert seen == {(False, True), (True, True), (True, False), (False, False)}
    # 2Z + 3Z is Z: 6 is six times a generator of it
    form = linalg.hermite([[2], [3]])
    assert [linalg.hermite_content(form, [x]) for x in (1, 6, -4)] == [1, 6, 4]
