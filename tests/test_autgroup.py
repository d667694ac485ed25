import random
import sys
from fractions import Fraction

import pytest

from groupaut.autgroup import (
    Bounds,
    BlockTriangular,
    CardinalityClass,
    Certificate,
    EZLowerBound,
    Exact,
    FieldUnits,
    GLQ,
    GLR,
    PatternQuad,
    PlusMinusOne,
    RatStar,
    acts_invariantly,
    aut_group,
    aut_member,
    cardinality_class,
    contains,
    descriptor_code,
    descriptor_json,
    dim_of_aut,
    is_unit,
    pm_powers,
    rat_times_pm_powers,
    realize_Ax,
)
from groupaut.descriptors import image, is_divisible, member
from groupaut.dsl import parse_descriptor, parse_matrix, parse_scalar, scalar_to_text
from groupaut.errors import (
    ConsistencyError,
    DomainError,
    SingularMatrixError,
    UnsupportedError,
)
from groupaut.matrices import classify, identity, matrix, scalar_matrix, vec_mat_mul
from groupaut.scalars import one, rational, sqrt_rational, t_monomial

P = parse_descriptor
M = parse_matrix
S = parse_scalar

R2 = sqrt_rational(2)
T = t_monomial(1)


EXACT_TABLE = [
    ("Z", "PM1"),
    ("cyclic(3/2)", "PM1"),
    ("Q", "Qx"),
    ("Q*sqrt(7)", "Qx"),
    ("R", "GL(1)"),
    ("R x R x R", "GL(3)"),
    ("Q + Q*sqrt(2)", "U(Q+Q*sqrt(2))"),
    ("Q + Q*sqrt(15)", "U(Q+Q*sqrt(15))"),
    ("Q*sqrt(2) + Q*sqrt(3)", "U(Q+Q*sqrt(6))"),
    ("Q + Q*t", "Qx"),
    ("Q*(1+t)", "Qx"),
    ("Q + Q*t^-1", "Qx"),
    ("Z*1 + Q*sqrt(2)", "PM1"),
    ("Q + Z*sqrt(2)", "PM1"),
    ("Z*sqrt(2) + Q*sqrt(3)", "PM1"),
    ("Z*3 + Q*sqrt(5)", "PM1"),
    ("Z*1 + Q*(1+sqrt(2))", "PM1"),     # a cyclic Z-part beside one Q-line
    ("ring(Z[t,1/t])", "A(t)"),
    ("ring(Q[t,1/t])", "Qx*A(t)"),
    ("hull(ring(Z[t,1/t]))", "Qx*A(t)"),
    ("sqrt(2)*ring(Z[t,1/t])", "A(t)"),
    ("Zinv(2)", "A(2)"),
    ("Zinv(13)", "A(13)"),
    ("Q x Q", "GLQ(2)"),
    ("Q x Q x Q x Q", "GLQ(4)"),
    ("Q*sqrt(2) x Q*sqrt(2)", "GLQ(2)"),
    ("Q*sqrt(3) x Q*sqrt(3) x Q*sqrt(3)", "GLQ(3)"),
    ("Q x Q*sqrt(2)", "Pattern(sqrt(2))"),
    ("Q*sqrt(2) x Q*sqrt(3)", "Pattern(sqrt(6))"),
    ("Q x R", "Block(1,1)"),
    ("Q x Q x R", "Block(2,1)"),
    ("Q x R x R", "Block(1,2)"),
    ("Q*sqrt(2) x R", "Block(1,1)"),        # Phi(r*G) = Phi(G)
    ("sqrt(2)*(Q x R)", "Block(1,1)"),
    ("Q*sqrt(3) x Q*sqrt(3) x R", "Block(2,1)"),
]

BOUNDS_TABLE = [
    ("Zinv(6)", ["A(2)", "A(3)"]),
    ("Zinv(4)", ["A(2)"]),
    ("Zinv(30)", ["A(2)", "A(3)", "A(5)"]),
    ("Q + Q*sqrt(2) + Q*sqrt(3)", ["PM1"]),
    ("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))", ["EZ(2)", "PM1"]),
    ("Zinv(2) x Zinv(2)", ["EZ(2)", "PM1"]),
    ("R x Q", ["PM1"]),
    ("Q*sqrt(2) x Q*sqrt(3) x R", ["PM1"]),     # no common rescaling
    ("ring(Z[t,1/t]) x Q", ["PM1"]),
]


def test_rule_table_exact():
    for text, code in EXACT_TABLE:
        res = aut_group(P(text))
        assert isinstance(res, Exact), text
        assert descriptor_code(res.descriptor) == code, text


def test_rule_table_bounds():
    for text, codes in BOUNDS_TABLE:
        res = aut_group(P(text))
        assert isinstance(res, Bounds), text
        assert [descriptor_code(d) for d in res.lower] == codes, text
        assert res.upper == ()


def test_scaling_is_invisible():
    # r*G and G have the same invariance group, whatever r is
    for text in ("Q + Q*sqrt(2)", "Z*1 + Q*sqrt(2)", "Zinv(2)", "ring(Q[t,1/t])"):
        g = P(text)
        for factor in ("3", "-1/2", "sqrt(5)"):
            assert aut_group(P(f"({factor})*({text})")) == aut_group(g)
    # in the formal tower too, by factors that are not units of Q[t,1/t]
    for text in ("Q + Q*t", "Q", "Q*t", "Q*t^-1 + Q*t", "Q + Q*t^2"):
        assert aut_group(P(text)) == Exact(RatStar()), text
        for factor in ("t^-1", "1+t", "t-t^-1"):
            assert aut_group(P(f"({factor})*({text})")) == Exact(RatStar()), \
                (factor, text)


def _rank_one_generator(rng):
    """A rational, surd or t multiple, of either sign."""
    q = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
    kind = rng.randrange(3)
    if kind == 0:
        return rational(q)
    if kind == 1:
        return q * sqrt_rational(rng.choice((2, 3, 5)))
    return t_monomial(rng.randint(-2, 2), q)


def test_a_rank_one_module_answers_alike_however_it_is_spelled():
    # cyclic(g), Z*g, cyclic(-g) and Z*(-g) are one set, and Phi depends
    # only on the set, so every respelling of a product answers alike
    rng = random.Random(2210)
    spellings = ("cyclic({})", "Z*({})", "cyclic(-({}))", "Z*(-({}))")
    identical = 0
    for _ in range(200):
        pool = [_rank_one_generator(rng) for _ in range(2)]
        gens = [rng.choice(pool) * rng.choice((1, -1))
                for _ in range(rng.choice((2, 3)))]
        texts = [scalar_to_text(g) for g in gens]
        want = aut_group(P(" x ".join(f"cyclic({x})" for x in texts)))
        identical += EZLowerBound(len(gens)) in want.lower
        for _ in range(4):
            spelled = " x ".join(rng.choice(spellings).format(x) for x in texts)
            assert aut_group(P(spelled)) == want, spelled
    assert identical > 50


def test_image_rule_transfers():
    shear = M("[1,1;0,1]")
    assert aut_group(image(P("Q x Q"), shear)) == Exact(GLQ(2))
    assert aut_group(image(P("R x R"), M("[1,sqrt(2);0,1]"))) == Exact(GLR(2))
    res = aut_group(image(P("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))"), shear))
    assert isinstance(res, Bounds)
    assert EZLowerBound(2) in res.lower and PlusMinusOne() in res.lower
    # an irrational change of coordinates destroys the rational closed form
    res = aut_group(image(P("Q x Q"), M("[1,sqrt(2);0,1]")))
    assert res == Bounds((PlusMinusOne(),))


# ---------------------------------------------------------------------------
# contains: the descriptor predicates
# ---------------------------------------------------------------------------

def test_contains_scalar_descriptors():
    assert contains(PlusMinusOne(), rational(-1))
    assert not contains(PlusMinusOne(), rational(2))
    assert contains(RatStar(), S("22/7"))
    assert not contains(RatStar(), rational(0))
    assert not contains(RatStar(), R2)
    assert contains(FieldUnits(2), S("1 + sqrt(2)"))
    assert contains(FieldUnits(2), S("-5"))
    assert not contains(FieldUnits(2), sqrt_rational(3))
    assert not contains(FieldUnits(2), rational(0))


def test_contains_power_descriptors():
    a2 = pm_powers(2)
    for s, want in [("8", True), ("-1/4", True), ("1", True), ("-1", True),
                    ("6", False), ("2/3", False), ("0", False), ("3", False)]:
        assert contains(a2, S(s)) is want, s
    at = pm_powers(T)
    assert contains(at, S("t^3")) and contains(at, S("-t^-2"))
    assert contains(at, rational(-1))
    assert not contains(at, S("2*t")) and not contains(at, S("1 + t"))
    qat = rat_times_pm_powers(T)
    assert contains(qat, S("2/3*t^-1")) and contains(qat, S("5"))
    assert not contains(qat, S("1 + t")) and not contains(qat, rational(0))
    # Q^x * 2^k is Q^x, which holds no t
    q2 = rat_times_pm_powers(2)
    assert contains(q2, S("-3/2")) and not contains(q2, rational(0))
    assert not contains(q2, T) and not contains(q2, R2)


def test_contains_matrix_descriptors():
    assert contains(GLQ(2), M("[1,2;3,4]"))
    assert not contains(GLQ(2), M("[1,2;2,4]"))          # singular
    assert not contains(GLQ(2), M("[1,sqrt(2);0,1]"))    # irrational entry
    assert contains(GLR(2), M("[1,sqrt(2);0,1]"))
    assert contains(BlockTriangular(1, 1), M("[2,sqrt(3);0,sqrt(2)]"))
    assert not contains(BlockTriangular(1, 1), M("[sqrt(2),0;0,1]"))
    assert contains(PatternQuad(R2), M("[1,2*sqrt(2);3*sqrt(2),4]"))
    assert not contains(PatternQuad(R2), M("[1,1;0,1]"))
    assert contains(EZLowerBound(2), M("[2,1;1,1]"))
    assert not contains(EZLowerBound(2), M("[2,0;0,1]"))
    # scalars promote to scalar matrices of the right size
    assert contains(GLQ(3), rational(5))
    assert contains(EZLowerBound(2), rational(-1))
    assert not contains(EZLowerBound(2), rational(2))
    # a non-scalar matrix is never "a scalar"
    assert not contains(PlusMinusOne(), M("[1,1;0,1]"))
    assert contains(PlusMinusOne(), scalar_matrix(rational(-1), 3))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

CERT_CASES = [
    # (group, matrix text or scalar, expected verdict)
    ("Q", "3/2", True),
    ("Q", "sqrt(2)", False),
    ("Z", "-1", True),
    ("Z", "2", False),
    ("Z*1 + Q*sqrt(2)", "1 + sqrt(2)", False),
    ("Q + Q*sqrt(2)", "1 + sqrt(2)", True),
    ("Q + Q*sqrt(2)", "sqrt(2)", True),
    ("Q + Q*sqrt(2) + Q*sqrt(3)", "sqrt(6)", False),
    ("Zinv(2)", "-8", True),
    ("Zinv(2)", "3", False),
    ("Zinv(6)", "2/3", True),
    ("ring(Z[t,1/t])", "t^-4", True),
    ("ring(Z[t,1/t])", "1 + t", False),
    ("ring(Q[t,1/t])", "2/3*t", True),
    ("hull(ring(Z[t,1/t]))", "5*t^-1", True),
    ("sqrt(2)*Zinv(3)", "9", True),
    ("sqrt(2)*Zinv(3)", "2", False),
]

CERT_MATRIX_CASES = [
    ("Q x Q", "[1,2;3,4]", True),
    ("Q x Q", "[1,sqrt(2);0,1]", False),
    ("Q x Q*sqrt(2)", "[1,1;0,1]", False),
    ("Q x Q*sqrt(2)", "[1,2*sqrt(2);3*sqrt(2),4]", True),
    ("Q x R", "[1,1;0,1]", True),
    ("Q x R", "[1,0;1,1]", False),
    ("Q x R", "[1,0;sqrt(2),sqrt(3)]", False),
    ("R x R", "[1,sqrt(2);sqrt(3),1]", True),
    ("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))", "[0,1;-1,0]", True),
    ("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))", "[2,0;0,1]", False),
    ("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))", "[1,1/2;0,1]", False),
]


def _as_action(g, text):
    try:
        return M(text)
    except Exception:
        return S(text)


def test_certificate_verdicts():
    for gt, at, want in CERT_CASES + CERT_MATRIX_CASES:
        g = P(gt)
        cert = acts_invariantly(g, _as_action(g, at))
        assert cert.verdict is want, (gt, at)
        assert bool(cert) is want


def test_certificate_failure_invariant():
    """On failure the witness is a member of G that A (or its inverse)
    pushes out of G."""
    for gt, at, want in CERT_CASES + CERT_MATRIX_CASES:
        if want:
            continue
        g = P(gt)
        a = _as_action(g, at)
        cert = acts_invariantly(g, a)
        assert not cert.verdict
        assert cert.direction in ("forward", "inverse")
        assert member(g, cert.failing_generator).member
        mat = a if hasattr(a, "rows") else scalar_matrix(a, len(cert.failing_generator))
        if cert.direction == "inverse":
            try:
                mat = mat.inverse()
            except DomainError:
                continue   # the inverse leaves the scalar tower, so certainly G
        assert not member(g, vec_mat_mul(cert.failing_generator, mat)).member


def test_rat_witness_leaves_g_when_every_probe_stays_inside():
    # the image sqrt(2) * a = 6469693230 is the product of the primes up to
    # 29, so every probe multiple of it stays in Z; the witness needs 1/31
    g = P("Z*1 + Q*sqrt(2)")
    a = S("3234846615*sqrt(2)")
    cert = acts_invariantly(g, a)
    assert not cert.verdict and cert.direction == "forward"
    w = cert.failing_generator
    assert w == (R2 * Fraction(1, 31),)
    assert member(g, w).member
    assert not member(g, tuple(x * a for x in w)).member


def test_rat_witness_probes_no_integer_multiple(monkeypatch):
    # the multiples 1, 1/2, ..., 1/29 all stay in G, and 1/31 leaves it;
    # the witness is read off the lattice, so membership is asked once
    from groupaut import autgroup
    asked, honest = [], autgroup._member

    def counted(g, v):
        asked.append(v)
        return honest(g, v)

    monkeypatch.setattr(autgroup, "_member", counted)
    a = scalar_matrix(S("3234846615*sqrt(2)"), 1)
    w = autgroup._rat_witness(P("Z*1 + Q*sqrt(2)"), (R2,), a)
    assert w == (R2 * Fraction(1, 31),)
    assert len(asked) == 1


def _clear_package_caches():
    for mod in [m for name, m in sys.modules.items() if name.startswith("groupaut")]:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_ez_membership_matches_classify_on_the_matrix_samples():
    from test_matrices import _random_matrix
    samples = [M(t) for t in ("[1,1;0,1]", "[0,1;-1,0]", "[1,0;3,1]",
                              "[-1,0;0,1]", "[2,1;1,1]", "[2,0;0,1]")]
    rng = random.Random(3)
    entries = [rational(k) for k in range(-2, 3)] + [R2, rational(Fraction(1, 2))]
    samples += [_random_matrix(rng, 2, entries) for _ in range(60)]
    rng = random.Random(11)
    entries = [rational(k) for k in range(-3, 4)] + [R2, 1 + sqrt_rational(3)]
    samples += [_random_matrix(rng, n, entries) for n in (2, 3, 4) for _ in range(12)]
    verdicts = [contains(EZLowerBound(a.n), a) for a in samples]
    assert verdicts == [classify(a).in_EZ for a in samples]
    assert True in verdicts and False in verdicts


def test_cross_check_and_the_image_rule_never_classify(monkeypatch):
    from groupaut import autgroup, matrices
    from groupaut.oracle import cross_check

    def refuse(a):
        raise AssertionError("in_EZ needs no classify record")

    _clear_package_caches()
    monkeypatch.setattr(matrices, "classify", refuse)
    monkeypatch.setattr(autgroup, "classify", refuse, raising=False)
    z2 = P("Z x Z")
    assert cross_check(z2, 2).agreement is True
    assert EZLowerBound(2) in aut_group(image(z2, M("[2,1;1,1]"))).lower
    assert EZLowerBound(2) not in aut_group(image(z2, M("[2,0;0,1]"))).lower


def test_witness_search_is_bounded(monkeypatch):
    # with a membership test that never says no, no witness can replay: the
    # certificate and the real search stop with ConsistencyError instead of
    # returning one
    from groupaut import autgroup
    from groupaut.descriptors import MembershipVerdict
    monkeypatch.setattr(autgroup, "_member", lambda g, v: MembershipVerdict(True))
    with pytest.raises(ConsistencyError, match="does not replay"):
        acts_invariantly(P("Z*1 + Q*sqrt(2)"), S("3234846615*sqrt(2)"))
    with pytest.raises(ConsistencyError):
        autgroup._real_witness(P("R x Q"), (one(), rational(0)), M("[1,1;0,1]"))


def test_certificate_success_is_symmetric():
    # G*A = G forces G*A^-1 = G; spot-check on the confirmed cases
    for gt, at, want in CERT_MATRIX_CASES:
        if not want:
            continue
        g = P(gt)
        cert = acts_invariantly(g, M(at).inverse())
        assert cert.verdict, (gt, at)


def test_certificate_rejects_singular_and_misshapen():
    with pytest.raises(SingularMatrixError):
        acts_invariantly(P("Q x Q"), M("[1,2;2,4]"))
    with pytest.raises(SingularMatrixError):
        acts_invariantly(P("Zinv(2)"), rational(0))
    with pytest.raises(DomainError):
        acts_invariantly(P("Q x Q"), M("[1]"))


def test_rings_via_unit_group():
    cert = acts_invariantly(P("ring(Z[t,1/t])"), S("2"))
    assert not cert.verdict and cert.direction == "inverse"
    assert cert.failing_generator == (one(),)
    cert = acts_invariantly(P("ring(Z[t,1/t])"), S("1/2"))
    assert not cert.verdict and cert.direction == "forward"
    # scaled ring: the witness has to live inside sqrt(2)*Z[1/3]
    g = P("sqrt(2)*Zinv(3)")
    cert = acts_invariantly(g, S("2"))
    assert not cert.verdict
    assert cert.failing_generator == (R2,)
    assert member(g, cert.failing_generator).member


# ---------------------------------------------------------------------------
# aut_member: closed form and certificate must agree
# ---------------------------------------------------------------------------

def test_aut_member_examples():
    assert aut_member(P("Q"), Fraction(3, 2))
    assert not aut_member(P("Z*1 + Q*sqrt(2)"), S("1 + sqrt(2)"))
    assert aut_member(P("Q + Q*sqrt(2)"), S("1 + sqrt(2)"))
    assert aut_member(P("Zinv(2)"), -8)
    assert not aut_member(P("Q x Q*sqrt(2)"), M("[1,1;0,1]"))
    assert aut_member(P("Q x Q"), M("[1,1;0,1]"))
    assert aut_member(P("Q x R"), M("[1,1;0,1]"))
    assert not aut_member(P("Q x R"), M("[1,0;1,1]"))


def test_aut_member_agreement_sampled():
    rng = random.Random(73)
    scalars = [S(s) for s in ("1", "-1", "2", "-2", "1/2", "3", "-3", "5/7",
                              "22/7", "sqrt(2)", "1 + sqrt(2)", "2*sqrt(2)")]
    groups = [P(t) for t, _ in EXACT_TABLE if " x " not in t and t != "R"
              and "t" not in t]
    for _ in range(200):
        g = rng.choice(groups)
        s = rng.choice(scalars)
        aut_member(g, s)   # raises ConsistencyError on any disagreement


def test_aut_member_matrix_agreement_sampled():
    rng = random.Random(74)
    entries = [rational(k) for k in (-2, -1, 0, 1, 2)] \
        + [rational(Fraction(1, 2)), R2, R2 * rational(2)]
    groups = [P(t) for t in ("Q x Q", "Q x Q*sqrt(2)", "Q x R", "R x R",
                             "Q*sqrt(2) x Q*sqrt(3)")]
    checked = 0
    while checked < 120:
        rows = [[rng.choice(entries) for _ in range(2)] for _ in range(2)]
        a = matrix(rows)
        if a.det().is_zero():
            continue
        aut_member(rng.choice(groups), a)
        checked += 1


def test_plus_minus_one_always_inside():
    # every group admits negation and the identity (products of rings fall
    # outside the certificate-checkable class and are skipped)
    all_groups = [t for t, _ in EXACT_TABLE] + [t for t, _ in BOUNDS_TABLE]
    for text in all_groups:
        if " x " in text and ("Zinv" in text or "ring" in text):
            continue
        g = P(text)
        for s in (1, -1):
            assert acts_invariantly(g, rational(s)).verdict, (text, s)
            assert aut_member(g, rational(s)), (text, s)


def test_group_closure_sampled():
    """Confirmed elements multiply and invert back into the group."""
    rng = random.Random(75)
    pairs = [(gt, at) for gt, at, want in CERT_MATRIX_CASES if want]
    by_group: dict = {}
    for gt, at in pairs:
        by_group.setdefault(gt, []).append(M(at))
    for gt, mats in by_group.items():
        g = P(gt)
        for a in mats:
            assert acts_invariantly(g, a.inverse()).verdict
            for b in mats:
                assert acts_invariantly(g, a * b).verdict


def test_divisibility_bridge():
    # divisible one-dimensional groups are exactly those every nonzero
    # rational acts on
    probes = [S(s) for s in ("2", "1/2", "3", "-3", "5/7")]
    for text in ("Q", "Z", "cyclic(3/2)", "Q + Q*sqrt(2)", "Z*1 + Q*sqrt(2)",
                 "Zinv(2)", "Zinv(6)", "ring(Z[t,1/t])", "ring(Q[t,1/t])",
                 "hull(ring(Z[t,1/t]))", "Q*sqrt(7)", "sqrt(2)*Zinv(3)"):
        g = P(text)
        assert is_divisible(g) == all(aut_member(g, q) for q in probes), text


def test_rational_bridge_products():
    # every invertible rational matrix acts on H^n iff H is divisible;
    # for non-divisible H the scalar matrix m*I is already a refuter
    rng = random.Random(76)
    for _ in range(40):
        rows = [[rational(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        a = matrix(rows)
        if a.det().is_zero():
            continue
        assert acts_invariantly(P("Q x Q"), a).verdict
        assert acts_invariantly(P("(Q + Q*sqrt(2)) x (Q + Q*sqrt(2))"), a).verdict
    g = P("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))")
    cert = acts_invariantly(g, scalar_matrix(rational(2), 2))
    assert not cert.verdict and cert.direction == "inverse"


def test_entry_constraint():
    # entries of a confirmed matrix are ratios of group members: some
    # nonzero x in factor i has x * a[i][j] inside factor j
    g = P("Q x Q*sqrt(2)")
    a = M("[1,2*sqrt(2);3*sqrt(2),4]")
    assert acts_invariantly(g, a).verdict
    factors = [P("Q"), P("Q*sqrt(2)")]
    gens = [one(), R2]
    for i in range(2):
        for j in range(2):
            assert member(factors[j], (gens[i] * a.rows[i][j],)).member


def test_ring_products_are_not_certificate_checkable():
    with pytest.raises(UnsupportedError):
        acts_invariantly(P("Zinv(2) x Zinv(2)"), identity(2))


# ---------------------------------------------------------------------------
# realizability of the power groups
# ---------------------------------------------------------------------------

def test_realize_primes():
    for p in (2, 3, 5, 7, 11, 13):
        r = realize_Ax(p)
        assert r.realizable and r.refuter is None
        assert r.group == P(f"Zinv({p})")
        assert aut_group(r.group) == Exact(pm_powers(p))


def test_realize_composites():
    for m, d in ((4, 2), (6, 2), (9, 3), (12, 2), (15, 3), (49, 7), (100, 2)):
        r = realize_Ax(m)
        assert not r.realizable and r.group is None
        assert r.refuter == d
        # the refuter really does act invariantly without being a power of m
        assert acts_invariantly(P(f"Zinv({m})"), rational(d)).verdict
        assert not contains(pm_powers(m), rational(d))


def test_realize_rejects_bad_base():
    for m in (1, 0, -3):
        with pytest.raises(DomainError):
            realize_Ax(m)


# ---------------------------------------------------------------------------
# conjugation, cardinality, dimension
# ---------------------------------------------------------------------------

def conjugation_transfer(g, a, b) -> bool:
    """Check B against G*A and A*B*A^-1 against G; the verdicts must agree
    (acting after a coordinate change is conjugate to acting before it)."""
    left = acts_invariantly(image(g, a), b).verdict
    right = acts_invariantly(g, a * b * a.inverse()).verdict
    if left != right:
        raise ConsistencyError(
            "conjugation transfer failed: the two routes disagree")
    return left


def test_conjugation_transfer():
    rng = random.Random(77)
    groups = [P(t) for t in ("Q x Q", "Q x Q*sqrt(2)", "Q x R",
                             "(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))")]
    actions = [M(t) for t in ("[1,1;0,1]", "[0,1;-1,0]", "[2,0;0,1]",
                              "[1,0;1,1]", "[1,2;1,3]")]
    for _ in range(60):
        g = rng.choice(groups)
        a = rng.choice(actions)
        b = rng.choice(actions)
        expected = acts_invariantly(g, a * b * a.inverse()).verdict
        assert conjugation_transfer(g, a, b) is expected


def test_cardinality_class():
    assert cardinality_class(aut_group(P("Z"))) is CardinalityClass.TWO
    assert cardinality_class(aut_group(P("Z*1 + Q*sqrt(2)"))) is CardinalityClass.TWO
    for text in ("Q", "Q + Q*sqrt(2)", "Zinv(2)", "ring(Z[t,1/t])",
                 "ring(Q[t,1/t])", "Q x Q", "Q x R", "R x R",
                 "Q x Q*sqrt(2)"):
        assert cardinality_class(aut_group(P(text))) is CardinalityClass.INFINITE
    with pytest.raises(DomainError):
        cardinality_class(aut_group(P("Zinv(6)")))


def test_dim_of_aut():
    assert dim_of_aut(aut_group(P("Q x Q"))) == 0
    assert dim_of_aut(aut_group(P("Q"))) == 0
    assert dim_of_aut(aut_group(P("Z"))) == 0
    assert dim_of_aut(aut_group(P("R"))) == 1
    assert dim_of_aut(aut_group(P("R x R"))) == 4
    assert dim_of_aut(aut_group(P("Q x R"))) == 2
    assert dim_of_aut(aut_group(P("Q x Q x R"))) == 3
    assert dim_of_aut(aut_group(P("Q x R x R"))) == 6
    assert dim_of_aut(GLR(3)) == 9
    with pytest.raises(DomainError):
        dim_of_aut(aut_group(P("Zinv(6)")))


def test_dimension_dichotomy_for_the_plane():
    # realized values over R^2 so far: 0, 2 and 4
    seen = {dim_of_aut(aut_group(P(t))) for t in ("Q x Q", "Q x R", "R x R")}
    assert seen == {0, 2, 4}


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def test_is_unit_laurent():
    zint = P("ring(Z[t,1/t])")
    assert is_unit(zint, S("-t^3")) and is_unit(zint, one())
    assert not is_unit(zint, S("2*t")) and not is_unit(zint, S("1 + t"))
    assert not is_unit(zint, rational(0))
    qt = P("ring(Q[t,1/t])")
    assert is_unit(qt, S("2/3*t^-2")) and is_unit(qt, rational(5))
    assert not is_unit(qt, S("1 + t"))
    with pytest.raises(DomainError):
        is_unit(zint, S("1/2*t"))     # not even a member


def test_is_unit_fraction_ring():
    z6 = P("Zinv(6)")
    for s, want in (("2", True), ("-27/4", True), ("1/36", True),
                    ("5", False), ("10/3", False)):
        assert is_unit(z6, S(s)) is want, s
    with pytest.raises(DomainError):
        is_unit(P("Zinv(2)"), S("1/3"))


def test_is_unit_field_like():
    f = P("Q + Q*sqrt(2)")
    assert is_unit(f, S("1 + sqrt(2)")) and is_unit(f, S("-1/3"))
    assert not is_unit(f, rational(0))
    assert is_unit(P("Q"), S("5/7"))
    with pytest.raises(UnsupportedError):
        is_unit(P("Q + Q*sqrt(2) + Q*sqrt(3)"), one())
    with pytest.raises(UnsupportedError):
        is_unit(P("Z"), one())
    with pytest.raises(UnsupportedError):
        is_unit(P("sqrt(2)*Zinv(3)"), one())


# ---------------------------------------------------------------------------
# serialization of the descriptors
# ---------------------------------------------------------------------------

def test_descriptor_codes_and_json():
    res = aut_group(P("Q + Q*sqrt(2)"))
    assert descriptor_json(res.descriptor) == {"kind": "FieldUnits", "d": 2}
    assert descriptor_json(PlusMinusOne()) == {"kind": "PlusMinusOne"}
    assert descriptor_json(pm_powers(T)) == {"kind": "PMPowers", "base": "t"}
    assert descriptor_json(pm_powers(5)) == {"kind": "PMPowers", "base": "5"}
    assert descriptor_json(rat_times_pm_powers(T)) == \
        {"kind": "RatTimesPMPowers", "base": "t"}
    assert descriptor_json(GLQ(2)) == {"kind": "GLQ", "n": 2}
    assert descriptor_json(BlockTriangular(2, 1)) == \
        {"kind": "BlockTriangular", "p": 2, "q": 1}
    assert descriptor_json(PatternQuad(R2)) == \
        {"kind": "PatternQuad", "x": "sqrt(2)"}
    assert descriptor_code(EZLowerBound(2)) == "EZ(2)"
    assert descriptor_code(pm_powers(2)) == "A(2)"
    with pytest.raises(DomainError):
        pm_powers(S("1 + t"))
    with pytest.raises(DomainError):
        pm_powers(1)
