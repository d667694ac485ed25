"""Seeded test draws shared by the tests and ``tools/census.py``.

``_random_group(rng, n, depth)`` builds an unnormalized descriptor of
dimension n from the pools below, nesting Scaled, Image and Product nodes
through the dataclass constructors, so a walk meets shapes that
``normalize`` would fold away.  ``_COORDS`` is the pool of vector
coordinates drawn beside it.  A seeded caller sees the same draws in the
same order wherever it imports them from.
"""

from fractions import Fraction

from groupaut import descriptors as _d
from groupaut.descriptors import (
    Domain,
    cyclic,
    fraction_ring,
    full_line,
    laurent_ring,
    mixed_module,
    product,
)
from groupaut.matrices import matrix
from groupaut.scalars import rational, sqrt_rational, t_monomial


R2 = sqrt_rational(2)
T = t_monomial(1)

Q = mixed_module([(Domain.RAT, 1)])
Z_PLUS_Q_R2 = mixed_module([(Domain.INT, 1), (Domain.RAT, R2)])


def _full_space(n):
    """R^n: its one spelling, the product of n lines."""
    return product([full_line()] * n)


def _rational_module(*gens):
    return mixed_module([(Domain.RAT, g) for g in gens])


_LEAVES = [
    cyclic(1), cyclic(Fraction(2, 3)), cyclic(R2), Q, Z_PLUS_Q_R2,
    mixed_module([(Domain.INT, 2), (Domain.INT, 3)]),
    _rational_module(1, R2), laurent_ring(Domain.INT), laurent_ring(Domain.RAT),
    fraction_ring(2), fraction_ring(6), full_line(),
]
_FACTORS = [rational(2), rational(Fraction(1, 3)), R2, 1 + R2, T, 1 + T]
_MATRICES_1 = [matrix([[3]]), matrix([[R2]]), matrix([[T]])]
_MATRICES_2 = [matrix([[1, 1], [0, 1]]), matrix([[2, 1], [1, 1]]),
               matrix([[R2, 0], [1, 1]]), matrix([[T, 0], [0, 1]])]
_COORDS = [rational(0), rational(1), rational(Fraction(1, 2)), rational(-3),
           rational(6), R2, 2 * R2, 1 + R2, Fraction(3, 4) * R2, T, 2 * T,
           t_monomial(-1), 1 + T, 3 * (1 + T)]


def _random_group(rng, n, depth):
    """An unnormalized descriptor of dimension n, built bottom-up."""
    pick = rng.randrange(4) if depth else 0
    if n == 1:
        if pick == 0:
            return rng.choice(_LEAVES)
        if pick == 1:
            return _d.Scaled(rng.choice(_FACTORS), _random_group(rng, 1, depth - 1))
        if pick == 2:
            return _d.Image(_random_group(rng, 1, depth - 1), rng.choice(_MATRICES_1))
        return _d.Product((_random_group(rng, 1, depth - 1),))
    if pick == 0:
        return rng.choice([_full_space(2), _d.Product((rng.choice(_LEAVES),
                                                     rng.choice(_LEAVES)))])
    if pick == 1:
        return _d.Scaled(rng.choice(_FACTORS), _random_group(rng, 2, depth - 1))
    if pick == 2:
        return _d.Image(_random_group(rng, 2, depth - 1), rng.choice(_MATRICES_2))
    return _d.Product((_random_group(rng, 1, depth - 1),
                       _random_group(rng, 1, depth - 1)))
