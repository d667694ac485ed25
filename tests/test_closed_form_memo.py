"""The 2 x 2 closed forms on memoized products and reciprocals.

``det`` and ``inverse`` up to 2 x 2 and ``pattern_quad_member`` take their
entry products and reciprocals from ``matrices._product`` and
``matrices._reciprocals``.  The references below are verbatim copies of the
code that formed every product and reciprocal afresh.  Equal scalars have
one representation and ``lru_cache`` never stores an exception, so each
call must give the reference's value, or its error type and text, whether
the memo is cold or warm.
"""

import random
from collections import Counter
from typing import Optional

from groupaut import matrices
from groupaut.dsl import parse_descriptor, parse_scalar
from groupaut.errors import ContextError, DomainError, SingularMatrixError
from groupaut.matrices import ExactMatrix
from groupaut.oracle import cross_check
from groupaut.scalars import ExactScalar, as_scalar, zero

from test_autgroup import _clear_package_caches
from test_rational_det import TOWER

PATTERN_SCALARS = TOWER + ["sqrt(5)", "sqrt(10)", "1+t"]
RATIONALS = [s for s in TOWER if parse_scalar(s).is_rational()]


# ---------------------------------------------------------------------------
# reference copies of the closed forms without the memo
# ---------------------------------------------------------------------------

def ratio(a, b) -> Optional[ExactScalar]:
    """a / b when b is invertible in the tower; None when undefined.

    b == 0 is an error; a non-monomial Laurent denominator is "undefined"
    rather than an error because callers enumerate over candidate
    denominators.
    """
    a, b = as_scalar(a), as_scalar(b)
    if b.is_zero():
        raise DomainError("ratio by zero")
    try:
        return a * b.invert()
    except DomainError:
        return None


def _ref_det(a: ExactMatrix) -> ExactScalar:
    rows = a.rows
    if a.n == 1:
        return rows[0][0]
    if a.n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    raise AssertionError("closed forms only")


def _ref_inverse(self: ExactMatrix) -> ExactMatrix:
    n = self.n
    d = _ref_det(self)
    if d.is_zero():
        raise SingularMatrixError("matrix has determinant 0")
    dinv = d.invert()   # DomainError for non-monomial Laurent determinants
    if n == 1:
        return ExactMatrix(((dinv,),))
    (a, b), (c, e) = self.rows
    return ExactMatrix(((e * dinv, -b * dinv), (-c * dinv, a * dinv)))


def _ref_pattern_quad_member(x: ExactScalar, m: ExactMatrix) -> bool:
    """Membership in { [[a, b*x], [c*x, d]] : a,b,c,d rational, det != 0 }."""
    if m.n != 2:
        raise DomainError("pattern membership is a 2x2 notion")
    x = as_scalar(x)
    if x.is_zero():
        raise DomainError("pattern scalar must be nonzero")
    if not (m.rows[0][0].is_rational() and m.rows[1][1].is_rational()):
        return False
    for off in (m.rows[0][1], m.rows[1][0]):
        r = ratio(off, x)
        if r is None or not r.is_rational():
            return False
    return not _ref_det(m).is_zero()


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------

def _outcome(f):
    try:
        return f()
    except (ContextError, DomainError, SingularMatrixError) as exc:
        return type(exc), str(exc)


def _kind(out):
    if not isinstance(out, tuple):
        return out if isinstance(out, bool) else "value"
    return {SingularMatrixError: "singular", DomainError: "domain",
            ContextError: "cannot join"}[out[0]]


def _tower_matrix(rng):
    """A 1 x 1 or 2 x 2 draw from TOWER, with repeated rows and zero columns
    as in the 3 x 3 eliminations."""
    n = rng.choice((1, 2, 2))
    pool = rng.sample(TOWER, rng.randint(2, 6))
    rows = [[parse_scalar(rng.choice(pool)) for _ in range(n)] for _ in range(n)]
    if n == 2 and rng.random() < 0.3:
        rows[1] = list(rows[0])
    if rng.random() < 0.2:
        c = rng.randrange(n)
        for r in rows:
            r[c] = zero()
    return ExactMatrix(tuple(map(tuple, rows)))


def _pattern_matrix(rng, x):
    """[[a, b*x], [c*x, d]] over TOWER's rationals, with one off-diagonal
    entry in half the draws taken from the whole tower instead."""
    a, b, c, d = (parse_scalar(rng.choice(RATIONALS)) for _ in range(4))
    rows = [[a, b * x], [c * x, d]]
    if rng.random() < 0.5:
        rows[rng.randrange(2)][1 - rng.randrange(2)] = parse_scalar(rng.choice(TOWER))
    return ExactMatrix(tuple(map(tuple, rows)))


def _cold_then_warm(f):
    """f() with every memo cleared, then f() again, which reads its
    products and reciprocals back."""
    for cache in (matrices._product, matrices._reciprocals):
        cache.cache_clear()
    cold = _outcome(f)
    return cold, _outcome(f)


def test_memoized_closed_forms_match_the_fresh_ones():
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(800):
        a = _tower_matrix(rng)
        for name, got, ref in (("det", a.det, lambda: _ref_det(a)),
                               ("inverse", a.inverse, lambda: _ref_inverse(a))):
            want = _outcome(ref)
            assert _cold_then_warm(got) == (want, want), (name, a)
            seen[name, _kind(want)] += 1
        x = parse_scalar(rng.choice(PATTERN_SCALARS))
        m = _pattern_matrix(rng, x) if rng.random() < 0.5 and x else a
        want = _outcome(lambda: _ref_pattern_quad_member(x, m))
        got = _cold_then_warm(lambda: matrices.pattern_quad_member(x, m))
        assert got == (want, want), (x, m)
        seen["pattern", _kind(want)] += 1
    expected = {("det", "value"), ("det", "cannot join"),
                ("inverse", "value"), ("inverse", "singular"),
                ("inverse", "domain"), ("inverse", "cannot join"),
                ("pattern", True), ("pattern", False),
                ("pattern", "domain"), ("pattern", "cannot join")}
    assert set(seen) == expected, seen
    assert min(seen.values()) >= 10, seen


def test_plane_cross_check_shares_products_and_reciprocals(monkeypatch):
    # formed afresh, the a*d, b*c, 1/det and adjugate entries of the 2,080
    # candidates take 13,137 multiplications and 2,092 inversions
    _clear_package_caches()
    counts = Counter()
    mul, invert = ExactScalar.__mul__, ExactScalar.invert

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_invert(self):
        counts["invert"] += 1
        return invert(self)

    monkeypatch.setattr(ExactScalar, "__mul__", counted_mul)
    monkeypatch.setattr(ExactScalar, "invert", counted_invert)
    report = cross_check(parse_descriptor("Q x Q"), 2)
    assert report.candidates == 2080 and report.agreement is True
    assert counts["mul"] < report.candidates, counts
    assert counts["invert"] < 100, counts
