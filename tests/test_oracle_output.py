"""The oracle and output layers against reference copies of the loops they
replaced: one ratio-set helper for scalar and matrix candidates, the member
enumeration of R^n as that of a product of lines, the agreement flag of
``cross_check`` with exact closed forms read as their own bounds, and
``descriptor_json`` built from the dataclass fields."""

import itertools
import json
from dataclasses import replace

import pytest

from groupaut import autgroup, oracle
from groupaut.autgroup import (
    GLQ,
    GLR,
    BlockTriangular,
    Bounds,
    EZLowerBound,
    Exact,
    FieldUnits,
    PatternQuad,
    PlusMinusOne,
    RatStar,
    acts_invariantly,
    aut_group,
    contains,
    descriptor_json,
    pm_powers,
    rat_times_pm_powers,
)
from groupaut.descriptors import (
    FullLine,
    Product,
    dimension,
    holds,
    invariance_generators,
)
from groupaut.dsl import parse_descriptor, parse_matrix, scalar_to_text
from groupaut.errors import ContextError, DomainError
from groupaut.matrices import ExactMatrix, matrix, vec_mat_mul
from groupaut.oracle import (
    brute_force_aut,
    candidate_matrices,
    candidate_scalars,
    cross_check,
    enumerate_members,
)
from groupaut.scalars import (ContextKind, one, rational, sqrt_rational,
                              t_monomial)

P = parse_descriptor


# --- reference copies of the former loops ----------------------------------

def ref_candidate_scalars(g, h):
    members = [v[0] for v in enumerate_members(g, h) if not v[0].is_zero()]
    found = {}
    for y in members:
        try:
            inv = y.invert()
        except DomainError:
            continue
        for x in members:
            r = x * inv
            if r.height > h:
                continue
            found.setdefault(r.sort_key(), r)
    for s in (one(), rational(-1)):
        found.setdefault(s.sort_key(), s)
    return [found[k] for k in sorted(found)]


def factor_members(g, h):
    """Each factor's members as the product g samples them: the
    coordinates of g's members.  (Beside a factor in the formal tower, a
    real line is sampled by t, not by sqrt(2).)"""
    members = enumerate_members(g, h)
    return [list({v[i].sort_key(): v[i] for v in members}.values())
            for i in range(len(g.factors))]


def ref_candidate_matrices(g, h):
    columns = factor_members(g, h)
    entries = [[], [], [], []]
    for i in range(2):
        for j in range(2):
            found = {}
            for x in columns[i]:
                if x.is_zero():
                    continue
                try:
                    inv = x.invert()
                except DomainError:
                    continue
                for y in columns[j]:
                    r = y * inv
                    if r.height > h:
                        continue
                    found.setdefault(r.sort_key(), r)
            entries[2 * i + j] = [found[k] for k in sorted(found)]
    gens = invariance_generators(g)
    rows = [[], []]
    for i in range(2):
        for c0, c1 in itertools.product(entries[2 * i], entries[2 * i + 1]):
            ok = True
            for kind, vec in gens:
                if vec[i].is_zero():
                    continue
                if not holds(kind, g, (vec[i] * c0, vec[i] * c1)):
                    ok = False
                    break
            if ok:
                rows[i].append((c0, c1))
    out = []
    for r0, r1 in itertools.product(rows[0], rows[1]):
        m = matrix([r0, r1])
        if not m.det().is_zero():
            out.append(m)
    return out


def ref_certificate(g, mat):
    """The generator loop of acts_invariantly without the run's memo: one
    vec_mat_mul and one holds per generator and direction."""
    for direction in ("forward", "inverse"):
        m = mat if direction == "forward" else mat.inverse()
        for kind, vec in invariance_generators(g):
            if holds(kind, g, vec_mat_mul(vec, m)):
                continue
            if kind != "int":
                witness = autgroup._rat_witness if kind == "rat" \
                    else autgroup._real_witness
                vec = witness(g, vec, m)
            return False, vec, direction
    return True, None, None


def _key(c):
    return c if isinstance(c, ExactMatrix) else c.sort_key()


def ref_agreement(report, result):
    confirmed_keys = {_key(c) for c in report.confirmed}
    agreement = True
    if isinstance(result, Exact):
        for c in list(report.confirmed) + [r.candidate for r in report.refuted]:
            if contains(result.descriptor, c) != (_key(c) in confirmed_keys):
                agreement = False
                break
    else:
        for c in [r.candidate for r in report.refuted]:
            if any(contains(d, c) for d in result.lower):
                agreement = False
                break
        for c in report.confirmed:
            if not all(contains(d, c) for d in result.upper):
                agreement = False
                break
    return agreement


def ref_descriptor_json(d):
    if isinstance(d, FieldUnits):
        return {"kind": "FieldUnits", "d": d.d}
    if type(d).__name__ == "PMPowers":
        return {"kind": "PMPowers", "base": scalar_to_text(d.base)}
    if type(d).__name__ == "RatTimesPMPowers":
        return {"kind": "RatTimesPMPowers", "base": scalar_to_text(d.base)}
    if isinstance(d, GLQ):
        return {"kind": "GLQ", "n": d.n}
    if isinstance(d, GLR):
        return {"kind": "GLR", "n": d.n}
    if isinstance(d, BlockTriangular):
        return {"kind": "BlockTriangular", "p": d.p, "q": d.q}
    if isinstance(d, PatternQuad):
        return {"kind": "PatternQuad", "x": scalar_to_text(d.x)}
    if isinstance(d, EZLowerBound):
        return {"kind": "EZLowerBound", "n": d.n}
    return {"kind": type(d).__name__}


# --- comparisons ------------------------------------------------------------

LINES = ["Z", "Q", "R", "Zinv(6)", "Q + Q*sqrt(2)", "Z*1 + Q*sqrt(2)",
         "cyclic(1+sqrt(2))", "ring(Z[t,1/t])", "Q + Q*t", "sqrt(3)*Z",
         "Q*sqrt(2) + Q*sqrt(3)", "Z*sqrt(6) + Q*sqrt(2)",
         "hull(Z*1 + Z*sqrt(7))", "Zinv(5)"]
PLANES = ["Q x Z", "Q x Q*sqrt(2)", "R x R", "Z x Z", "Q x R",
          "Q*sqrt(2) x Q*sqrt(3)"]


@pytest.mark.parametrize("text", LINES)
def test_candidate_scalars_match_reference(text):
    g = P(text)
    for h in (1, 2):
        assert candidate_scalars(g, h) == ref_candidate_scalars(g, h)


@pytest.mark.parametrize("text", PLANES)
def test_candidate_matrices_match_reference(text):
    g = P(text)
    for h in (1, 2):
        assert candidate_matrices(g, h) == ref_candidate_matrices(g, h)


# cheap lines at height 3; at height 1, a line whose ratios take equal
# numerators in two quadratic fields (1+sqrt(2) and 1+sqrt(3)), and a
# plane that is slow at height 2
@pytest.mark.parametrize("text,h", [
    ("Zinv(5)", 3), ("cyclic(1+sqrt(2))", 3),
    ("Z*1 + Z*sqrt(2) + Z*sqrt(3)", 1),
    ("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))", 1)])
def test_candidates_at_one_height_match_reference(text, h):
    g = P(text)
    if dimension(g) == 1:
        assert candidate_scalars(g, h) == ref_candidate_scalars(g, h)
    else:
        assert candidate_matrices(g, h) == ref_candidate_matrices(g, h)


@pytest.mark.parametrize("text", ["(Q*sqrt(2) + Q*sqrt(3)) x Q*sqrt(5)"])
def test_cross_tower_entries_raise_like_the_reference(text):
    g = P(text)
    with pytest.raises(ContextError) as expected:
        ref_candidate_matrices(g, 1)
    with pytest.raises(ContextError) as got:
        candidate_matrices(g, 1)
    assert str(got.value) == str(expected.value)


# sampled by sqrt(2), R has no ratio with t in any field
LAURENT_PLANES = {"R x Q*t": 60, "Q*t x R": 60, "R x (Q + Q*t)": 84,
                  "(Q + Q*t) x R": 84}


@pytest.mark.parametrize("text", LAURENT_PLANES)
def test_a_real_line_beside_a_laurent_factor_is_sampled_by_t(text):
    g = P(text)
    assert candidate_matrices(g, 1) == ref_candidate_matrices(g, 1)
    t = t_monomial(1)
    for f, column in zip(g.factors, oracle._factor_members(g, 1)):
        if isinstance(f, FullLine):
            assert {v[0] for v in column} == {
                rational(q) * u for q in (-1, 0, 1) for u in (one(), t)}
    report = cross_check(g, 1)
    assert report.candidates == LAURENT_PLANES[text]
    assert report.agreement is True
    assert report == replace(brute_force_aut(g, 1), agreement=True)
    # every entry is rational or Laurent: none reads sqrt(2)
    for a in report.confirmed + tuple(r.candidate for r in report.refuted):
        assert all(y.is_rational() or y.context.kind is ContextKind.FORMAL
                   for row in a.rows for y in row)


def test_quadratic_ratios_are_the_known_values():
    # pinned as text, so that a product formula shared by the two sides
    # cannot make them agree on wrong values
    g = P("Q + Q*sqrt(2)")
    assert [scalar_to_text(s) for s in candidate_scalars(g, 1)] == [
        "-1", "1", "-1-sqrt(2)", "-1+sqrt(2)", "-sqrt(2)", "sqrt(2)",
        "1-sqrt(2)", "1+sqrt(2)"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_space_members_are_those_of_a_product_of_lines(n):
    line = enumerate_members(FullLine(), 1)
    expected = {tuple(s.sort_key() for part in combo for s in part):
                tuple(s for part in combo for s in part)
                for combo in itertools.product(*([line] * n))}
    got = enumerate_members(Product((FullLine(),) * n), 1)
    assert got == [expected[k] for k in sorted(expected)]


@pytest.mark.parametrize("text", LINES + PLANES)
def test_cross_check_agreement_matches_reference(text):
    g = P(text)
    report = cross_check(g, 1)
    assert report.agreement is True
    assert report.agreement == ref_agreement(brute_force_aut(g, 1), aut_group(g))
    assert replace(report, agreement=None) == brute_force_aut(g, 1)


def _verdict(cert):
    return cert.verdict, cert.failing_generator, cert.direction


# a factor with two generators of one kind on the same coordinate
@pytest.mark.parametrize("text", PLANES + ["(Z*1 + Z*sqrt(2)) x Z"])
def test_run_certificates_match_fresh_certificates(text):
    # brute_force_aut shares one memo of generator checks across its row
    # filter and every certificate; each verdict must be the one a
    # certificate computed on its own gives
    g = P(text)
    for h in (1, 2):
        report = brute_force_aut(g, h)
        got = [(c, True, None, None) for c in report.confirmed] \
            + [(r.candidate, False, r.witness, r.direction)
               for r in report.refuted]
        assert len(got) == report.candidates
        for c, *verdict in got:
            assert tuple(verdict) == _verdict(acts_invariantly(g, c)), c


# generators that touch both rows, so a check reads two rows of the matrix
TWO_ROW_GROUPS = ["image(Q x Q*sqrt(2), [1,1;0,1])", "image(Z x Z, [1,1;0,1])",
                  "image(Z x R, [2,1;1,1])", "sqrt(2)*(Z x Z)",
                  "image((Z*1 + Z*sqrt(2)) x Z, [1,1;0,1])"]
# confirmed and refuted, forward and inverse, and rows shared between them
CERTIFIED = ["[1,0;0,1]", "[1,1;0,1]", "[1,0;1,1]", "[2,0;0,1]", "[1/2,0;0,1]",
             "[0,1;1,0]", "[-1,0;0,-1]", "[2,1;1,1]", "[1,1/2;0,1]",
             "[1,sqrt(2);0,1]", "[sqrt(2),0;0,1]", "[1,0;0,sqrt(2)]",
             "[1,1;1,2]", "[1,1;0,2]", "[3,1;2,1]", "[1,0;1/3,1]"]


@pytest.mark.parametrize("text", TWO_ROW_GROUPS)
def test_certificates_match_the_per_generator_loop(text):
    g = P(text)
    shared = {}     # one memo across the list, as a run shares it
    verdicts = set()
    for m in map(parse_matrix, CERTIFIED):
        expected = ref_certificate(g, m)
        assert _verdict(acts_invariantly(g, m)) == expected, m
        assert _verdict(acts_invariantly(g, m, shared)) == expected, m
        verdicts.add((expected[0], expected[2]))
    assert (True, None) in verdicts and (False, "forward") in verdicts


@pytest.mark.parametrize("wrong", [Exact(RatStar()), Exact(PlusMinusOne()),
                                   Bounds((RatStar(),)),
                                   Bounds((PlusMinusOne(),), (PlusMinusOne(),))])
@pytest.mark.parametrize("text", ["Z", "Q", "Zinv(6)"])
def test_cross_check_flags_a_wrong_closed_form_like_the_reference(
        monkeypatch, text, wrong):
    g = P(text)
    report = brute_force_aut(g, 2)
    expected = ref_agreement(report, wrong)
    monkeypatch.setattr(oracle, "aut_group", lambda _: wrong)
    assert cross_check(g, 2).agreement == expected


AUT_DESCRIPTORS = [PlusMinusOne(), RatStar(), FieldUnits(2), pm_powers(3),
                   pm_powers(t_monomial(1)), rat_times_pm_powers(2),
                   rat_times_pm_powers(t_monomial(1)), GLQ(2), GLR(3),
                   BlockTriangular(1, 2), PatternQuad(sqrt_rational(2)),
                   PatternQuad(rational(2) * sqrt_rational(6)),
                   EZLowerBound(2)]


@pytest.mark.parametrize("d", AUT_DESCRIPTORS, ids=lambda d: type(d).__name__)
def test_descriptor_json_matches_reference(d):
    got = descriptor_json(d)
    expected = ref_descriptor_json(d)
    assert got == expected
    assert json.dumps(got, separators=(",", ":")) \
        == json.dumps(expected, separators=(",", ":"))
