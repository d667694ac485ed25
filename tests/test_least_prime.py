"""Answers that need only the least prime of m, or only gcds with m.

``realize_Ax`` takes the least prime of m from the trial-division loop of
``factorize`` and stops there, and the unit test of Z[1/m] strips the
primes of m by repeated gcd, so a composite m with a small prime factor is
answered even when its cofactor is beyond the factoring budget.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import groupaut
from groupaut.autgroup import acts_invariantly, is_unit, realize_Ax
from groupaut.descriptors import coprime_part, fraction_ring, member
from groupaut.errors import BudgetExceededError
from groupaut.scalars import factorize, iter_factors, rational

PRIME = 1000000000000000000000000000057      # beyond trial division
COMPOSITE = 2 * PRIME


def _cli(*argv):
    src = Path(groupaut.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "groupaut", *argv],
                          capture_output=True, text=True, env=env, timeout=10)


def test_realize_ax_with_small_factor_and_huge_cofactor_is_decided():
    proc = _cli("realize-ax", str(COMPOSITE))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"realizable":false,"refuter":"2"}\n'
    assert proc.stderr == ""


def test_realize_ax_of_a_huge_prime_still_exits_two():
    proc = _cli("realize-ax", str(PRIME))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: ")


def test_iter_factors_yields_the_least_prime_before_the_budget():
    factors = iter_factors(COMPOSITE)
    assert next(factors) == (2, 1)
    with pytest.raises(BudgetExceededError):
        next(factors)
    with pytest.raises(BudgetExceededError):
        factorize(COMPOSITE)
    assert list(iter_factors(360)) == factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert list(iter_factors(1)) == []


def test_realize_ax_in_process():
    r = realize_Ax(COMPOSITE)
    assert (r.realizable, r.refuter) == (False, 2)
    r = realize_Ax(3 * 7 * 7)
    assert (r.realizable, r.refuter) == (False, 3)
    assert realize_Ax(7).realizable


@pytest.mark.parametrize("k, m, part", [(12, 6, 1), (40, 6, 5), (7, 6, 7),
                                        (1, 6, 1), (2 ** 40 * 9, 2, 9),
                                        (COMPOSITE, 2, PRIME)])
def test_coprime_part(k, m, part):
    assert coprime_part(k, m) == part


def test_units_of_zinv_with_an_unfactorable_cofactor():
    ring = fraction_ring(COMPOSITE)
    assert is_unit(ring, rational(2))
    assert is_unit(ring, rational(Fraction(-1, 8)))
    assert not is_unit(ring, rational(3))
    assert is_unit(ring, rational(PRIME))
    assert is_unit(ring, rational(Fraction(4, COMPOSITE)))
    assert member(ring, rational(Fraction(1, PRIME))).member
    assert not member(ring, rational(Fraction(1, 3))).member
    assert acts_invariantly(ring, rational(2)).verdict
    assert not acts_invariantly(ring, rational(3)).verdict


def _strip_primes(k, primes):
    for p in primes:
        while k % p == 0:
            k //= p
    return k


def test_units_of_zinv_agree_with_the_primes_of_m():
    # small m: stripping by gcd gives the verdict of stripping by primes
    for m in range(2, 40):
        ring = fraction_ring(m)
        primes = [p for p, _ in factorize(m)]
        for num in range(1, 30):
            for den in (1, 2, 3, 4, 6, 9, 10):
                f = Fraction(num, den)
                if not member(ring, rational(f)).member:
                    continue
                expected = _strip_primes(f.numerator, primes) == 1 \
                    and _strip_primes(f.denominator, primes) == 1
                assert is_unit(ring, rational(f)) == expected, (m, f)
