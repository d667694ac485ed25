"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ACCEPTANCE line (visible under ``pytest -s`` or in
the captured output of a failure) so a log diff shows at a glance which
guarantees hold.  Everything here is exact arithmetic — no tolerances.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from groupaut.autgroup import (
    Exact,
    FieldUnits,
    PlusMinusOne,
    RatStar,
    acts_invariantly,
    aut_group,
    aut_member,
    contains,
    dim_of_aut,
    is_unit,
    pm_powers,
    rat_times_pm_powers,
    realize_Ax,
)
from groupaut.descriptors import fraction_ring, member, normalize
from groupaut.dsl import parse_descriptor, parse_matrix, parse_scalar
from groupaut.errors import ContextError
from groupaut.matrices import (
    block_triangular_member,
    circle_sum_witness,
    classify,
    matrix,
    scalar_matrix,
    shear,
    vec_mat_mul,
)
from groupaut.oracle import (
    brute_force_aut,
    cross_check,
    enumerate_members,
    finite_permutation_action,
    injectivity_demo,
)
from groupaut.scalars import one, rational, sqrt_rational, t_monomial, zero
from groupaut.witnesses import sl_obstruction_witness

P = parse_descriptor
M = parse_matrix
S = parse_scalar

SIGNS = {one(), rational(-1)}


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:2d} FAIL — {description}", flush=True)
        raise
    print(f"ACCEPTANCE {n:2d} PASS — {description}", flush=True)


def assert_valid_failure(g, mat):
    """A refuting certificate must name a member whose image escapes."""
    cert = acts_invariantly(g, mat)
    assert not cert.verdict
    assert cert.failing_generator is not None
    assert member(g, cert.failing_generator).member
    image_side = mat if cert.direction == "forward" else mat.inverse()
    moved = vec_mat_mul(cert.failing_generator, image_side)
    assert not member(g, moved).member
    return cert


def test_01_rational_line_aut_is_rational_units():
    with criterion(1, "aut of the rational line is the nonzero rationals; "
                      "oracle at H=4 confirms every candidate"):
        assert aut_group(P("Q")) == Exact(RatStar())
        start = time.monotonic()
        rep = brute_force_aut(P("Q"), 4)
        elapsed = time.monotonic() - start
        assert rep.candidates == 22
        assert rep.refuted == ()
        assert len(rep.confirmed) == rep.candidates
        assert elapsed < 1.0


def test_02_rigidity_suite():
    with criterion(2, "mixed integer/rational quadratic lines are rigid: "
                      "aut = {+1,-1}, oracle at H=3 agrees"):
        shapes = (["Z*1 + Q*sqrt(%d)" % d for d in (2, 3, 5)]
                  + ["Q + Z*sqrt(%d)" % d for d in (2, 3, 5)]
                  + ["Z*sqrt(2) + Q*sqrt(3)", "Z*sqrt(2) + Q*sqrt(5)"])
        for text in shapes:
            assert aut_group(P(text)) == Exact(PlusMinusOne()), text
        # the scaled shape Q + Z*sqrt(d) has the same aut as its unscaled
        # twin, so the oracle runs on the five distinct parameter points
        probed = (["Z*1 + Q*sqrt(%d)" % d for d in (2, 3, 5)]
                  + ["Z*sqrt(2) + Q*sqrt(3)", "Z*sqrt(2) + Q*sqrt(5)"])
        start = time.monotonic()
        for text in probed:
            rep = brute_force_aut(P(text), 3)
            assert rep.candidates > 2, text
            assert set(rep.confirmed) == SIGNS, text
        assert time.monotonic() - start < 5.0


def test_03_quadratic_field_aut_is_unit_group():
    with criterion(3, "aut of the quadratic field line is its unit group; "
                      "1+sqrt(2) accepted; cross-check agrees at H=3"):
        g = P("Q + Q*sqrt(2)")
        assert aut_group(g) == Exact(FieldUnits(2))
        assert aut_member(g, S("1+sqrt(2)")) is True
        assert cross_check(g, 3).agreement is True


def test_04_formal_line_aut_is_rational_units():
    with criterion(4, "aut of the rational-plus-formal line is the nonzero "
                      "rationals; oracle confirms only rationals at H=3"):
        g = P("Q + Q*t")
        assert aut_group(g) == Exact(RatStar())
        rep = brute_force_aut(g, 3)
        assert len(rep.confirmed) == 14
        assert all(s.is_rational() for s in rep.confirmed)
        assert rep.refuted  # e.g. t itself survives forward but not squared


def test_05_laurent_units():
    with criterion(5, "Laurent units are exactly +-t^k (integer coefficients) "
                      "and q*t^k (rational coefficients)"):
        ring_z = P("ring(Z[t,1/t])")
        ring_q = P("ring(Q[t,1/t])")
        for k in range(-5, 6):
            assert is_unit(ring_z, t_monomial(k)) is True
            assert is_unit(ring_z, t_monomial(k, -1)) is True
            assert is_unit(ring_q, t_monomial(k)) is True
            for q in (2, Fraction(-3, 2), Fraction(1, 7)):
                assert is_unit(ring_q, t_monomial(k, q)) is True
                if k:  # q*t^k with q != +-1 is in Z[t,1/t] only for integral q
                    assert is_unit(ring_z, t_monomial(k, 2)) is False
        assert is_unit(ring_z, S("1+t")) is False
        assert is_unit(ring_q, S("1+t")) is False
        assert is_unit(ring_z, rational(2)) is False
        assert aut_group(ring_z) == Exact(pm_powers(t_monomial(1)))
        assert aut_group(P("hull(ring(Z[t,1/t]))")) == \
            Exact(rat_times_pm_powers(t_monomial(1)))
        assert aut_group(ring_q) == Exact(rat_times_pm_powers(t_monomial(1)))


def test_06_prime_power_realizability():
    with criterion(6, "{+-m^k} is an aut group exactly for prime m: "
                      "realized for 2,3,5,7,11; refuted for 4,6,8,9,10,12"):
        for m in (2, 3, 5, 7, 11):
            r = realize_Ax(m)
            assert r.realizable
            assert r.group == fraction_ring(m)
            assert r.refuter is None
        for m, p in ((4, 2), (6, 2), (8, 2), (9, 3), (10, 2), (12, 2)):
            r = realize_Ax(m)
            assert not r.realizable
            assert r.refuter == p
            # the refuting divisor really does act on the candidate group
            # while falling outside {+-m^k}
            assert acts_invariantly(fraction_ring(m), rational(p)).verdict
            assert not contains(pm_powers(m), rational(p))


def test_07_rational_plane_aut_is_rational_matrices():
    with criterion(7, "aut of the rational plane is the invertible rational "
                      "matrices; irrational shear refuted with witness"):
        g = P("Q x Q")
        rep = brute_force_aut(g, 2)
        assert rep.refuted == ()
        assert len(rep.confirmed) == rep.candidates == 2080
        assert all(classify(m).in_GLQ for m in rep.confirmed)
        assert_valid_failure(g, shear(2, 0, 1, sqrt_rational(2)))


def test_08_divisibility_bridge():
    with criterion(8, "divisible coordinate lines absorb all rational "
                      "matrices; non-divisible ones refute 2*I"):
        plane = P("Q x Q")
        rng = random.Random(88)
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(1, 2), Fraction(-3), Fraction(2, 3)]
        found = 0
        while found < 10:
            a = matrix([[rng.choice(pool) for _ in range(2)]
                        for _ in range(2)])
            if a.det().is_zero():
                continue
            assert acts_invariantly(plane, a).verdict
            found += 1
        two_i = scalar_matrix(rational(2), 2)
        square = P("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))")
        assert_valid_failure(square, two_i)
        # an integer shear already escapes the mixed rectangle
        cert = assert_valid_failure(P("Q x Q*sqrt(2)"), M("[1,1;0,1]"))
        assert cert.direction == "forward"
        assert cert.failing_generator == (one(), zero())
        moved = vec_mat_mul(cert.failing_generator, M("[1,1;0,1]"))
        assert moved == (one(), one())


def test_09_rectangle_auts_cross_checked():
    with criterion(9, "rectangle auts: rational matrices, sqrt(2)-pattern, "
                      "sqrt(6)-pattern; oracle agrees at H=2"):
        expected = [("Q x Q", "GLQ(2)"),
                    ("Q x Q*sqrt(2)", "Pattern(sqrt(2))"),
                    ("Q*sqrt(2) x Q*sqrt(3)", "Pattern(sqrt(6))")]
        from groupaut.autgroup import descriptor_code
        for text, code in expected:
            res = aut_group(P(text))
            assert isinstance(res, Exact)
            assert descriptor_code(res.descriptor) == code
            assert cross_check(P(text), 2).agreement is True


def test_10_integer_unimodular_lower_bound():
    with criterion(10, "every sign-entry unimodular matrix preserves the "
                       "mixed quadratic square; diag(2,1) does not"):
        square = P("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))")
        entries = (Fraction(-1), Fraction(0), Fraction(1))
        unimodular = []
        for quad in itertools.product(entries, repeat=4):
            m = matrix([[quad[0], quad[1]], [quad[2], quad[3]]])
            if classify(m).in_EZ:
                unimodular.append(m)
        # det = ad - bc = +-1 forces (ad, bc) in {(+-1, 0), (0, -+1)}:
        # 2 * (2*5) + 2 * (5*2) = 40 such matrices
        assert len(unimodular) == 40
        for m in unimodular:
            assert acts_invariantly(square, m).verdict
        assert_valid_failure(square, M("[2,0;0,1]"))


def test_11_block_membership_matches_certificates():
    with criterion(11, "block-triangular membership matches invariance "
                       "certificates on 50 sampled matrices per group"):
        rng = random.Random(110)
        pool = [zero(), one(), rational(-1), rational(2), rational(Fraction(1, 2)),
                rational(-3), sqrt_rational(2), rational(3) * sqrt_rational(2)]
        for text, p, q in (("Q x R", 1, 1), ("Q x Q x R", 2, 1)):
            g = P(text)
            n = p + q
            checked = 0
            while checked < 50:
                m = matrix([[rng.choice(pool) for _ in range(n)]
                            for _ in range(n)])
                if m.det().is_zero():
                    continue
                expected = block_triangular_member(p, q, m)
                assert acts_invariantly(g, m).verdict is expected
                checked += 1


def test_12_det_one_obstructions():
    with criterion(12, "a det-1 escape witness is found within budget for "
                       "four plane groups, each with a valid certificate"):
        for text in ("Q x Q", "Q x R",
                     "(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))",
                     "Q x Q*sqrt(2)"):
            g = P(text)
            w = sl_obstruction_witness(g)
            assert classify(w).in_SL, text
            assert_valid_failure(g, w)


def test_13_dimension_table():
    with criterion(13, "aut dimensions over mixed rational/real products "
                       "realize {q*n : q=0..n} for n=2,3"):
        families = {2: ["Q x Q", "Q x R", "R x R"],
                    3: ["Q x Q x Q", "Q x Q x R", "Q x R x R", "R x R x R"]}
        for n, texts in families.items():
            dims = {dim_of_aut(aut_group(P(t))) for t in texts}
            assert dims == {q * n for q in range(n + 1)}
        assert {0, 2, 4} <= {dim_of_aut(aut_group(P(t)))
                             for t in families[2]}


def test_14_circle_sums_are_exact():
    with criterion(14, "every axis target inside the disc splits into two "
                       "exact circle points"):
        rng = random.Random(140)
        for r2 in (1, 25):
            for _ in range(10):
                bound = 2 if r2 == 1 else 10
                s = Fraction(rng.randint(-bound * 6, bound * 6), 6)
                target = (s, Fraction(0)) if rng.random() < 0.5 \
                    else (Fraction(0), s)
                a, b = circle_sum_witness(r2, target)
                for point in (a, b):
                    norm = point[0] * point[0] + point[1] * point[1]
                    assert norm == rational(r2)
                assert tuple(x + y for x, y in zip(a, b)) == \
                    tuple(rational(c) for c in target)


def _cycles_of(perm: list[int]) -> list[tuple[int, ...]]:
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = perm[i]
        cycles.append(tuple(cycle))
    return cycles


def test_15_permutation_action_is_injective_and_additive():
    with criterion(15, "the permutation action is injective on 24 probe "
                       "orders and additive on 100 random sequences"):
        assert injectivity_demo(4) is True
        rng = random.Random(150)
        for _ in range(100):
            perm = list(range(8))
            rng.shuffle(perm)
            cycles = _cycles_of(perm)
            length = rng.randint(1, 8)
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(length)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(length)]
            total = [x + y for x, y in zip(a, b)]
            image_sum = finite_permutation_action(cycles, total)
            summed = [x + y for x, y in zip(finite_permutation_action(cycles, a),
                                            finite_permutation_action(cycles, b))]
            assert list(image_sum) == summed


CORPUS = ["Q", "Z", "Q + Q*sqrt(2)", "Z*1 + Q*sqrt(2)", "Q + Q*t",
          "ring(Z[t,1/t])", "Zinv(3)", "Q x Q", "Q x Q*sqrt(2)", "Q x R",
          "(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))"]


def test_16_property_sweep():
    with criterion(16, "algebraic sanity sweep: sign symmetry, closure, "
                       "scaling invariance, conjugation, monotonicity, "
                       "normalization"):
        # negating a candidate never changes the verdict
        scalar_probes = [rational(2), rational(Fraction(3, 2)),
                         S("1+sqrt(2)"), t_monomial(1)]
        matrix_probes = [M("[1,1;0,1]"), M("[2,0;0,1]"), M("[0,1;1,0]")]
        for text in CORPUS:
            g = P(text)
            from groupaut.descriptors import dimension
            probes = scalar_probes if dimension(g) == 1 else matrix_probes
            for a in probes:
                try:
                    verdict = aut_member(g, a)
                except ContextError:
                    continue
                minus = -a if dimension(g) == 1 else \
                    scalar_matrix(rational(-1), 2) * a
                assert aut_member(g, minus) == verdict, (text, a)

        # confirmed candidates multiply back into the aut group
        field = P("Q + Q*sqrt(2)")
        confirmed = brute_force_aut(field, 2).confirmed
        rng = random.Random(160)
        for _ in range(30):
            c1, c2 = rng.choice(confirmed), rng.choice(confirmed)
            assert aut_member(field, c1 * c2) is True

        # scaling a group leaves its aut untouched
        for text in ("Z*1 + Q*sqrt(2)", "ring(Z[t,1/t])", "Q + Q*sqrt(2)"):
            scaled = P(f"sqrt(2)*({text})")
            assert aut_group(scaled) == aut_group(P(text))
        for a in (rational(2), S("1+sqrt(2)")):
            assert aut_member(P("sqrt(2)*(Z*1 + Q*sqrt(2))"), a) == \
                aut_member(P("Z*1 + Q*sqrt(2)"), a)

        # acting after a rational coordinate change is the same as acting
        # on the conjugated matrix
        from test_autgroup import conjugation_transfer
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(1, 2)]
        for text in ("Q x Q", "Q x R"):
            g = P(text)
            done = 0
            while done < 10:
                a = matrix([[rng.choice(pool) for _ in range(2)]
                            for _ in range(2)])
                b = matrix([[rng.choice(pool) for _ in range(2)]
                            for _ in range(2)])
                if a.det().is_zero() or b.det().is_zero():
                    continue
                assert conjugation_transfer(g, a, b) in (True, False)
                done += 1

        # raising the search height only ever adds confirmations
        for text in ("Q", "Z*1 + Q*sqrt(2)"):
            small = set(brute_force_aut(P(text), 2).confirmed)
            large = set(brute_force_aut(P(text), 3).confirmed)
            assert small <= large

        # normalization preserves the member set and is idempotent
        for text in CORPUS:
            g = P(text)
            n = normalize(g)
            assert normalize(n) == n
            for v in enumerate_members(g, 2)[:15]:
                assert member(n, v).member
            probe = tuple([rational(Fraction(1, 7))]
                          + [zero()] * (len(enumerate_members(g, 1)[0]) - 1))
            assert member(g, probe).member == member(n, probe).member
