"""Differential tests of the one rational elimination in ``linalg``.

``solve_combination``, ``rref_basis``, ``annihilator`` and
``combination_rows`` are read-offs of one Gauss-Jordan routine.  The reference copies below are the two separate eliminations they
replace, kept verbatim; the reduced row echelon form is unique, so both
must give identical answers on every system.
"""

import random
from fractions import Fraction

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
