"""Finding determinant-one matrices that move a dense group off itself.

A dense subgroup of R^n that is preserved by all of SL(n) must already be
the whole space, so every proper dense group admits an obstruction witness:
a matrix of determinant one that fails invariance.  The search below walks
a fixed ladder of shears (and, in the plane, a few rational rotations), so
the witness returned for a given group never changes between runs.
"""

from fractions import Fraction
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


def _lambda_ladder() -> list[ExactScalar]:
    out = [rational(1), rational(Fraction(1, 2)),
           sqrt_rational(2), sqrt_rational(3), t_monomial(1)]
    seen = {Fraction(1), Fraction(1, 2)}
    heights = sorted(
        {Fraction(a, b) for a in range(1, 9) for b in range(1, 9)},
        key=lambda q: (max(q.numerator, q.denominator), q.denominator, q))
    for q in heights:
        if q not in seen:
            seen.add(q)
            out.append(rational(q))
    return out


_ROTATIONS = (
    ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))),
    ((Fraction(5, 13), Fraction(12, 13)), (Fraction(-12, 13), Fraction(5, 13))),
    ((0, 1), (-1, 0)),
)


def sl_candidates(n: int) -> Iterator[ExactMatrix]:
    """Deterministic stream of determinant-one candidates."""
    for lam in _lambda_ladder():
        for i in range(n):
            for j in range(n):
                if i != j:
                    yield shear(n, i, j, lam)
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
    certified it, checked on the normalized group."""
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
    checks = 0
    for cand in sl_candidates(n):
        if checks >= budget:
            raise BudgetExceededError(
                f"no witness within {budget} certificate checks")
        try:
            cert = acts_invariantly(gn, cand)
        except ContextError:
            continue      # candidate scalar lives in an incompatible tower
        checks += 1
        if not cert.verdict:
            return cand, cert
    raise BudgetExceededError(
        f"candidate ladder exhausted after {checks} checks")
