"""Finding determinant-one matrices that move a dense group off itself.

A dense subgroup of R^n that is preserved by all of SL(n) must already be
the whole space, so every proper dense group admits an obstruction witness:
a matrix of determinant one that fails invariance.  The search below walks
a fixed ladder of shears (and, in the plane, a few rational rotations), built
as read, so a group's witness never changes; its candidates share one memo.
"""

from fractions import Fraction
from math import gcd
from typing import Iterator

from .autgroup import Certificate, acts_invariantly
from .descriptors import (
    FullLine,
    GroupDescriptor,
    Product,
    dimension,
    is_dense,
    normalize,
)
from .errors import BudgetExceededError, ContextError, DomainError
from .matrices import ExactMatrix, matrix, shear
from .scalars import ExactScalar, rational, sqrt_rational, t_monomial


def _lambda_ladder() -> Iterator[ExactScalar]:
    """Shear coefficients, built as they are read: 1, 1/2, sqrt(2), sqrt(3),
    t, then each reduced a/b with 1 <= a, b <= 8 save 1 and 1/2, ordered by
    max(a, b), then b, then a/b (a = max(a, b) until b reaches it)."""
    yield from (rational(1), rational(Fraction(1, 2)),
                sqrt_rational(2), sqrt_rational(3), t_monomial(1))
    for m in range(2, 9):
        for b in range(1, m + 1):
            for a in range(1 if b == m else m, m + 1):
                if gcd(a, b) == 1 and (a, b) != (1, 2):
                    yield rational(Fraction(a, b))


_ROTATIONS = (
    ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))),
    ((Fraction(5, 13), Fraction(12, 13)), (Fraction(-12, 13), Fraction(5, 13))),
    ((0, 1), (-1, 0)),
)


def sl_candidates(n: int) -> Iterator[ExactMatrix]:
    """Deterministic stream of determinant-one candidates."""
    for lam in _lambda_ladder():
        yield from (shear(n, i, j, lam)
                    for i in range(n) for j in range(n) if i != j)
    if n == 2:
        for rows in _ROTATIONS:
            yield matrix(rows)


def sl_obstruction_witness(g: GroupDescriptor, budget: int = 64) -> ExactMatrix:
    """First determinant-one matrix on the ladder that G does not absorb.

    Raises DomainError for a negative budget or when no witness can exist
    (the full space, or a group that is not dense, or one dimension where
    determinant one means the identity map up to sign) and
    BudgetExceededError when the allotted number of certificate checks runs
    out before a witness appears.
    """
    return _sl_search(g, budget)[0]


def _sl_search(g: GroupDescriptor, budget: int) -> tuple[ExactMatrix, Certificate]:
    """The witness of ``sl_obstruction_witness`` with the refutation that
    certified it, on the normalized group, all candidates sharing one check
    memo as ``oracle._referee`` does.  A check not known to hold forms the
    whole image, so a candidate outside the tower still raises ContextError."""
    gn = normalize(g)
    n = dimension(gn)
    if n < 2:
        raise DomainError("an obstruction needs at least two dimensions")
    if budget < 0:
        raise DomainError(f"the budget must be at least 0, got {budget}")
    if gn == Product((FullLine(),) * n):
        raise DomainError("the full space absorbs every invertible matrix")
    if not is_dense(gn):
        raise DomainError("only dense groups are searched")
    certified, checks = 0, {}    # certificates made; the generator checks
    for cand in sl_candidates(n):
        if certified >= budget:
            raise BudgetExceededError(
                f"no witness within {budget} certificate checks")
        try:
            cert = acts_invariantly(gn, cand, checks)
        except ContextError:
            continue      # candidate scalar lives in an incompatible tower
        certified += 1
        if not cert.verdict:
            return cand, cert
    raise BudgetExceededError(
        f"candidate ladder exhausted after {certified} checks")
