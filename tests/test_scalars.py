import random
from fractions import Fraction

import pytest

from groupaut import linalg
from groupaut.errors import ContextError, DomainError
from groupaut.scalars import (
    FORMAL_CONTEXT,
    ContextKind,
    ExactScalar,
    FieldContext,
    as_scalar,
    biquad_context,
    canonicalize_radical,
    context_radicands,
    exact_div,
    join_context,
    quad_context,
    rational,
    sqrt_rational,
    squarefree_decomposition,
    t_monomial,
    zero,
)

from scalar_support import _embedded


def _is_squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def test_squarefree_decomposition_identity():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 5000)
        s, core = squarefree_decomposition(n)
        assert s * s * core == n
        assert _is_squarefree(core)


def test_canonicalize_radical_identity():
    # oracle: the defining identity q == multiplier^2 * core, core square-free
    rng = random.Random(23)
    for _ in range(300):
        q = Fraction(rng.randrange(1, 400), rng.randrange(1, 400))
        core, mult = canonicalize_radical(q)
        assert mult > 0
        assert mult * mult * core == q
        assert _is_squarefree(core)


def test_canonicalize_radical_pinned():
    assert canonicalize_radical(8) == (2, 2)
    assert canonicalize_radical(Fraction(1, 2)) == (2, Fraction(1, 2))
    assert canonicalize_radical(49) == (1, 7)
    assert canonicalize_radical(Fraction(12, 25)) == (3, Fraction(2, 5))
    with pytest.raises(DomainError):
        canonicalize_radical(0)


def test_quad_context_validation():
    assert quad_context(2).d == 2
    for bad in (1, 4, 12, -3):
        with pytest.raises(ContextError):
            quad_context(bad)


def test_biquad_context_canonical_pair():
    # {2, 6} and {3, 6} both generate the field with radicands {2, 3, 6}
    a = biquad_context(2, 3)
    assert (a.d, a.e) == (2, 3)
    assert biquad_context(2, 6) == a
    assert biquad_context(3, 6) == a
    assert context_radicands(a) == (1, 2, 3, 6)
    with pytest.raises(ContextError):
        biquad_context(2, 2)
    with pytest.raises(ContextError):
        biquad_context(2, 8)  # 2*8 = 16 is a perfect square


def test_join_context():
    q2, q3, q5 = quad_context(2), quad_context(3), quad_context(5)
    assert join_context(q2, q2) == q2
    assert join_context(q2, q3) == biquad_context(2, 3)
    assert join_context(biquad_context(2, 3), quad_context(6)) == biquad_context(2, 3)
    with pytest.raises(ContextError):
        join_context(biquad_context(2, 3), q5)
    from groupaut.scalars import FORMAL_CONTEXT
    with pytest.raises(ContextError):
        join_context(FORMAL_CONTEXT, q2)


def test_quadratic_arithmetic():
    r2 = sqrt_rational(2)
    x = rational(1) + r2
    assert x * x == rational(3) + 2 * r2
    assert x * (rational(1) - r2) == rational(-1)
    assert r2 * r2 == rational(2)
    assert (r2 * r2).is_rational()


def test_inverse_quadratic():
    r2 = sqrt_rational(2)
    x = rational(1) + r2
    assert x * x.invert() == rational(1)
    assert x.invert() == r2 - 1
    assert (rational(3) + 2 * r2).invert() == rational(3) - 2 * r2


def test_biquadratic_products_minimize():
    r2, r3 = sqrt_rational(2), sqrt_rational(3)
    r6 = r2 * r3
    assert r6 == sqrt_rational(6)
    assert r6.context == quad_context(6)   # minimized back out of the join
    y = (r2 + r3) * (r2 + r3)
    assert y == rational(5) + 2 * sqrt_rational(6)
    # sqrt6 * sqrt2 == 2*sqrt3
    assert r6 * r2 == 2 * r3


def test_inverse_biquadratic():
    x = 1 + sqrt_rational(2) + sqrt_rational(3)
    assert x.context.kind is ContextKind.BIQUAD
    assert x * x.invert() == rational(1)
    y = sqrt_rational(2) + sqrt_rational(6)
    assert y * y.invert() == rational(1)


def test_inverse_random_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        coords = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(4)]
        x = ExactScalar._make(biquad_context(2, 3), coords)
        if x.is_zero():
            continue
        assert x * x.invert() == rational(1)


def test_formal_arithmetic():
    t = t_monomial(1)
    assert t * t == t_monomial(2)
    assert (t + t_monomial(-1)) * t == t_monomial(2) + 1
    assert t - t == rational(0)          # minimizes to the rational context
    assert (t * t_monomial(-1)).is_rational()


def test_formal_inverse_rules():
    with pytest.raises(DomainError):
        (1 + t_monomial(1)).invert()
    with pytest.raises(DomainError):
        rational(0).invert()


def test_exact_div_laurent():
    t = t_monomial(1)
    assert exact_div(t * t - 1, t - 1) == t + 1
    assert exact_div(t * t + 1, t + 1) is None
    assert exact_div(t - t_monomial(-1), t - 1) == 1 + t_monomial(-1)
    assert exact_div(rational(0), t + 1) == rational(0)
    assert exact_div(rational(6), rational(4)) == rational(Fraction(3, 2))


def test_sqrt_rational():
    assert sqrt_rational(Fraction(9, 4)) == rational(Fraction(3, 2))
    s8 = sqrt_rational(8)
    assert s8 == 2 * sqrt_rational(2)
    assert s8.context == quad_context(2)
    assert sqrt_rational(Fraction(1, 2)) * sqrt_rational(2) == rational(1)


def test_minimization_and_hashing():
    a = sqrt_rational(2) * sqrt_rational(2)
    assert a == rational(2)
    assert hash(a) == hash(rational(2))
    seen = {rational(2), a, as_scalar(2)}
    assert len(seen) == 1
    # zero is falsy, as the int and Fraction zeros are, and so is a value
    # that minimizes to it; one nonzero value of each context is truthy
    assert not zero() and not rational(0) and not sqrt_rational(2) - sqrt_rational(2)
    assert all((rational(Fraction(-1, 3)), sqrt_rational(2) - 1,
                sqrt_rational(2) + sqrt_rational(3), t_monomial(-2, 5)))


def test_height():
    assert rational(Fraction(3, 7)).height == 7
    assert t_monomial(-5, Fraction(2, 3)).height == 5
    assert (sqrt_rational(2) / 1 if False else sqrt_rational(2)).height == 1
    assert (rational(10) + sqrt_rational(2)).height == 10


# ---------------------------------------------------------------------------
# differential tests: the fast paths against the general route
# ---------------------------------------------------------------------------

_QUADS = (2, 3, 5, 6, 7)
_BIQUADS = ((2, 3), (2, 5), (3, 5), (2, 7))


def _rand_q(rng, allow_zero=True):
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if q or allow_zero:
            return q


def _random_scalar(rng, kind):
    """A seeded operand of the given kind; zero coordinates are drawn often,
    so some operands minimize to a smaller context."""
    if kind == "rat":
        return rational(_rand_q(rng))
    if kind == "quad":
        ctx = quad_context(rng.choice(_QUADS))
        return ExactScalar._make(ctx, (_rand_q(rng), _rand_q(rng, False)))
    if kind == "biquad":
        ctx = biquad_context(*rng.choice(_BIQUADS))
        return ExactScalar._make(ctx, [_rand_q(rng) for _ in range(4)])
    terms = {rng.randint(-3, 3): _rand_q(rng) for _ in range(rng.randint(1, 3))}
    return ExactScalar._make(FORMAL_CONTEXT, terms.items())


_KINDS = ("rat", "quad", "biquad", "formal")


def _reference(op, x, y):
    """x op y by the general route: join the contexts, embed both operands,
    combine the coordinates, minimize.  The basis products come from
    squarefree_decomposition directly, not from the scalar module's table."""
    ctx = join_context(x.context, y.context)
    a, b = _embedded(x, ctx), _embedded(y, ctx)
    if ctx.kind is ContextKind.FORMAL:
        acc = {}
        if op == "mul":
            for k1, c1 in a:
                for k2, c2 in b:
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
        else:
            sign = 1 if op == "add" else -1
            acc = dict(a)
            for k, c in b:
                acc[k] = acc.get(k, 0) + sign * c
        return ExactScalar._make(ctx, acc.items())
    if op == "add":
        return ExactScalar._make(ctx, [p + q for p, q in zip(a, b)])
    if op == "sub":
        return ExactScalar._make(ctx, [p - q for p, q in zip(a, b)])
    rad = context_radicands(ctx)
    out = [Fraction(0)] * len(rad)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            s, core = squarefree_decomposition(rad[i] * rad[j])
            out[rad.index(core)] += p * q * s
    return ExactScalar._make(ctx, out)


def _reference_inverse(x):
    """1/x by solving x * y == 1 coordinatewise (multiplication by x is
    Q-linear), or the monomial rule in the formal context."""
    if x.context.kind is ContextKind.FORMAL:
        if len(x.coords) != 1:
            raise DomainError("not a monomial")
        (k, c), = x.coords
        return ExactScalar._make(FORMAL_CONTEXT, ((-k, 1 / c),))
    ctx = x.context
    k = len(context_radicands(ctx))
    cols = []
    for j in range(k):
        unit = ExactScalar._make(ctx, [int(i == j) for i in range(k)])
        cols.append(list(_embedded(_reference("mul", x, unit), ctx)))
    sol = linalg.solve_combination(cols, [1] + [0] * (k - 1))
    if sol is None:
        raise DomainError("not invertible")
    return ExactScalar._make(ctx, sol)


def _outcome(fn, *args):
    """The value of fn(*args), or the class of the error it raised."""
    try:
        return fn(*args)
    except (ContextError, DomainError) as exc:
        return type(exc)


@pytest.mark.parametrize("left", _KINDS)
@pytest.mark.parametrize("right", _KINDS)
def test_fast_paths_match_the_general_route(left, right):
    rng = random.Random(f"{left}-{right}")
    ops = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
           "mul": lambda x, y: x * y}
    for _ in range(60):
        x, y = _random_scalar(rng, left), _random_scalar(rng, right)
        for name, op in ops.items():
            got = _outcome(op, x, y)
            want = _outcome(_reference, name, x, y)
            assert got == want, (name, x, y)
            if isinstance(got, ExactScalar):
                assert got.context == want.context
                assert hash(got) == hash(want)


@pytest.mark.parametrize("kind", _KINDS)
def test_invert_matches_the_linear_solve(kind):
    rng = random.Random(f"invert-{kind}")
    for _ in range(60):
        x = _random_scalar(rng, kind)
        got = _outcome(lambda s: s.invert(), x)
        if x.is_zero():
            assert got is DomainError
            continue
        assert got == _outcome(_reference_inverse, x), x
        if isinstance(got, ExactScalar):
            assert x * got == rational(1)


def test_equal_scalars_built_by_different_routes_hash_equal():
    r2, r3 = sqrt_rational(2), sqrt_rational(3)
    t = t_monomial(1)
    pairs = [
        (r2 * r2, rational(2)),
        ((1 + r2) * (1 - r2), rational(-1)),
        (r2 * r3, sqrt_rational(6)),
        (r2 * r3 * sqrt_rational(6), as_scalar(6)),
        ((r2 + r3) - r3, r2),
        (t * t_monomial(-1), rational(1)),
        ((t + 1) - t, rational(1)),
        (r2 + (-r2), zero()),
        (ExactScalar._make(biquad_context(2, 3), (1, 1, 1, 0)), 1 + r2 + r3),
        # a context object built outside the interning table
        (ExactScalar._make(FieldContext(ContextKind.BIQUAD, 2, 3), (0, 1, 1, 0)),
         r2 + r3),
        ((1 + r2 + r3).invert() * (1 + r2 + r3), rational(1)),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
        assert hash(x) == hash(y)   # the cached value is the computed one
        assert len({x, y}) == 1


def test_scalars_are_immutable():
    x = 1 + sqrt_rational(2)
    h = hash(x)
    with pytest.raises(AttributeError):
        x.coords = (Fraction(0), Fraction(1))
    with pytest.raises(AttributeError):
        x.context = quad_context(3)
    with pytest.raises(AttributeError):
        del x.coords
    assert hash(x) == h
    assert x == 1 + sqrt_rational(2)


def test_contexts_of_one_field_are_one_object():
    assert quad_context(2) is quad_context(2)
    assert biquad_context(2, 6) is biquad_context(3, 6) is biquad_context(2, 3)
    assert (sqrt_rational(2) + sqrt_rational(3)).context is biquad_context(2, 3)


def test_factorize_is_bounded():
    from groupaut.errors import BudgetExceededError
    from groupaut.scalars import FACTOR_BOUND, factorize

    assert factorize(1) == []
    assert factorize(2 ** 5 * 3 * 1_000_003) == [(2, 5), (3, 1), (1_000_003, 1)]
    # small primes to any power are found however large the number
    assert factorize(2 ** 100 * 3 ** 50) == [(2, 100), (3, 50)]
    # a cofactor below the bound's square is prime once trial division ends
    p = 1_048_573   # the largest prime below 2^20
    assert factorize(6 * p * p) == [(2, 1), (3, 1), (p, 2)]
    # 2^61 - 1 is prime and above the bound's square: it cannot be certified
    assert (2 ** 61 - 1) > FACTOR_BOUND ** 2
    with pytest.raises(BudgetExceededError):
        factorize(2 ** 61 - 1)
    with pytest.raises(BudgetExceededError):
        squarefree_decomposition(2 ** 61 - 1)
