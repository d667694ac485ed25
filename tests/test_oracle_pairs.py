"""The one-dimensional referee uses G = -G: each ± pair of ratios is formed
once, and each ± pair of candidates is certified once.  The plane referee
certifies each sign class {D A D'} of candidates once.

``_old_ratios``, ``_old_brute_force_aut`` and ``_old_laurent_members`` are
the routes that formed and certified both signs, their bodies copied
verbatim: the Laurent members are the Laurent branch of
``oracle._scalars_1d``, built by scalar ops, and ``_old_candidate_scalars``
is ``candidate_scalars`` over ``_old_ratios``.  The new routes must give
the same candidates, members and reports.
"""

import itertools
import random
from fractions import Fraction

import pytest

from groupaut import autgroup, oracle
from groupaut.autgroup import (acts_invariantly, failing_generator, replayed,
                               run_generators)
from groupaut.descriptors import Domain, Product, dimension
from groupaut.dsl import parse_descriptor, parse_matrix
from groupaut.errors import DomainError, GroupAutError, UnsupportedError
from groupaut.matrices import ExactMatrix, matrix
from groupaut.oracle import (
    _MATRIX_HEIGHT_CAP,
    OracleReport,
    Refutation,
    _check_height,
    _fractions,
    _ratios,
    _scalars_1d,
    brute_force_aut,
    candidate_matrices,
    candidate_scalars,
    enumerate_members,
    report_to_json,
)
from groupaut.scalars import (ExactScalar, one, products_within, rational,
                              t_monomial, zero)

from test_descriptors import _random_group
from test_oracle_output import PLANES, factor_members


# --- the routes that used both signs, verbatim --------------------------------

def _old_ratios(numerators, denominators, h):
    closed = set(numerators).issuperset(-x for x in numerators)
    inverses, taken = [], set()
    for y in denominators:
        if y.is_zero() or (closed and -y in taken):
            continue
        try:
            inverses.append(y.invert())
        except DomainError:
            continue        # not a unit of the representation tower
        taken.add(y)
    return {r.sort_key(): r for r in products_within(numerators, inverses, h)}


def _old_candidate_scalars(g, height):
    h = _check_height(height)
    if dimension(g) != 1:
        raise DomainError("scalar candidates are a one-dimensional notion")
    members = [v[0] for v in enumerate_members(g, h) if not v[0].is_zero()]
    found = _old_ratios(members, members, h)
    for s in (one(), rational(-1)):
        found.setdefault(s.sort_key(), s)
    return [found[k] for k in sorted(found)]


def _old_brute_force_aut(g, height=3):
    h = _check_height(height)
    n = dimension(g)
    checks: dict = {}       # the run's generator checks, each asked once
    if n == 1:
        candidates: list = _old_candidate_scalars(g, h)
    elif n == 2:
        candidates = candidate_matrices(g, h, checks)
    else:
        raise UnsupportedError(
            "the brute-force referee handles one or two dimensions")
    confirmed = []
    refuted = []
    for c in candidates:
        cert = acts_invariantly(g, c, checks)
        if cert.verdict:
            confirmed.append(c)
        else:
            refuted.append(Refutation(c, cert.failing_generator,
                                      cert.direction))
    return OracleReport(g, h, len(candidates), tuple(confirmed),
                        tuple(refuted))


def _old_laurent_members(g, h):
    coeffs = [Fraction(k) for k in range(-h, h + 1) if k != 0] \
        if g.coeffs is Domain.INT else [q for q in _fractions(h) if q != 0]
    exps = range(-h, h + 1)
    out = [zero()]
    for k in exps:
        for c in coeffs:
            out.append(t_monomial(k) * rational(c))
    for k1, k2 in itertools.combinations(exps, 2):
        for c1 in coeffs:
            for c2 in coeffs:
                out.append(t_monomial(k1) * rational(c1)
                           + t_monomial(k2) * rational(c2))
    return out


# --- new against old ----------------------------------------------------------

LINES = ["Z", "Q", "Z*3", "Zinv(2)", "Zinv(6)", "sqrt(2)*Zinv(3)", "R",
         "ring(Z[t,1/t])", "t*ring(Z[t,1/t])", "ring(Q[t,1/t])", "Q + Q*t",
         "Z*(2/3) + Z*t + Q*t^2", "Z*1 + Q*sqrt(2)", "Z*sqrt(2) + Q*sqrt(3)",
         "Q + Q*sqrt(5)", "Q*sqrt(2) + Q*sqrt(3)", "hull(Z*1 + Z*sqrt(2))"]


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))


def _same_route(g, h):
    got = _outcome(candidate_scalars, g, h)
    assert got == _outcome(_old_candidate_scalars, g, h), (g, h)
    report = _outcome(brute_force_aut, g, h)
    old = _outcome(_old_brute_force_aut, g, h)
    assert report == old, (g, h)
    if report[0] == "value":
        assert report_to_json(report[1]) == report_to_json(old[1]), (g, h)
    return got[0] == "value"


@pytest.mark.parametrize("text", LINES)
def test_paired_route_matches_both_signs_on_fixed_lines(text):
    g = parse_descriptor(text)
    for h in (1, 2, 3):
        assert _same_route(g, h)


def test_paired_route_matches_both_signs_on_drawn_lines():
    rng = random.Random(20261022)
    decided = 0
    for _ in range(60):
        g = _random_group(rng, 1, 3)
        for h in (1, 2):
            decided += _same_route(g, h)
    assert decided > 40


@pytest.mark.parametrize("text", ["ring(Z[t,1/t])", "ring(Q[t,1/t])"])
def test_laurent_members_are_built_from_their_terms(text):
    g = parse_descriptor(text)
    for h in (1, 2, 3):
        new, old = _scalars_1d(g, h), _old_laurent_members(g, h)
        assert new == old
        assert [s.sort_key() for s in new] == [s.sort_key() for s in old]
        assert [(s.context, s.nums, s.den) for s in new] == \
            [(s.context, s.nums, s.den) for s in old]


# --- each ± class is certified once, each refutation replayed once -------------

@pytest.mark.parametrize("text", ["Z*1 + Q*sqrt(2)", "Zinv(3)", "Q + Q*t",
                                  "ring(Z[t,1/t])", "Z*sqrt(2) + Q*sqrt(3)"])
def test_one_certificate_per_pair_and_one_replay_per_refutation(
        monkeypatch, text):
    calls = {"acts": 0, "replayed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every refutation, carried over or not, replays through this name
    monkeypatch.setattr(autgroup, "_replayed",
                        counted("replayed", autgroup._replayed))
    monkeypatch.setattr(oracle, "acts_invariantly",
                        counted("acts", oracle.acts_invariantly))
    g = parse_descriptor(text)
    report = brute_force_aut(g, 2)
    classes = {frozenset((c.sort_key(), (-c).sort_key()))
               for c in candidate_scalars(g, 2)}
    assert calls["acts"] == len(classes) < report.candidates
    assert calls["replayed"] == len(report.refuted) > 0


# --- the plane referee: one certificate per sign class {D A D'} ----------------
#
# ``_old_candidate_matrices`` is ``candidate_matrices`` as it was while it
# tested each candidate by forming its determinant, copied verbatim but for
# its columns, which are the factors' members as the product samples them
# (``factor_members``); the reference report is ``_old_brute_force_aut``,
# which certifies every candidate afresh.

def _old_candidate_matrices(g, height, _checks=None):
    h = _check_height(height)
    if h > _MATRIX_HEIGHT_CAP:
        raise DomainError(
            f"matrix enumeration is capped at height {_MATRIX_HEIGHT_CAP}")
    if not isinstance(g, Product):
        raise UnsupportedError(
            "matrix candidates need an explicit product of factors")
    if len(g.factors) != 2:
        raise UnsupportedError("matrix enumeration is capped at two factors")

    columns = factor_members(g, h)
    entries: list[list[ExactScalar]] = [[], [], [], []]
    for i in range(2):
        for j in range(2):
            found = _ratios(columns[j], columns[i], h)
            entries[2 * i + j] = [found[k] for k in sorted(found)]

    # Each generator of a two-factor product lives on a single coordinate,
    # so each coordinate of its image reads one entry of one row: a row
    # passes exactly when each entry passes its column's block of the
    # certificate's check, asked here on the matrix with e everywhere.  The
    # run's memo then answers each forward half.
    checks = {} if _checks is None else _checks
    gens = run_generators(checks, g)
    rows: list[list[tuple[ExactScalar, ExactScalar]]] = []
    for i in range(2):
        on_row = tuple(gen for gen in gens if i in gen[2])
        kept = [[e for e in entries[2 * i + j]
                 if failing_generator(checks, on_row, ((e, e), (e, e)), j)
                 is None]
                for j in range(2)]
        rows.append(list(itertools.product(*kept)))
    if len(rows[0]) * len(rows[1]) > 400_000:
        raise DomainError(
            "matrix candidate set too large; lower the height bound")
    out = []
    for r0, r1 in itertools.product(rows[0], rows[1]):
        m = ExactMatrix((r0, r1))
        if not m.det().is_zero():
            out.append(m)
    return out


# a Laurent factor, a rank-one Laurent factor, two Laurent generators, and a
# factor with two generators of one kind on the same coordinate
MORE_PLANES = ["(Q + Q*t) x Q", "Q*t x Z", "(Z*1 + Z*t) x Q",
               "(Z*1 + Z*sqrt(2)) x Z"]


def _same_plane_route(g, h):
    got = _outcome(candidate_matrices, g, h)
    assert got == _outcome(_old_candidate_matrices, g, h), (g, h)
    report = _outcome(brute_force_aut, g, h)
    old = _outcome(_old_brute_force_aut, g, h)
    assert report == old, (g, h)
    if report[0] == "value":
        assert report_to_json(report[1]) == report_to_json(old[1]), (g, h)
    return report[0] == "value"


@pytest.mark.parametrize("text", PLANES + MORE_PLANES)
def test_sign_classes_match_fresh_certificates_on_fixed_planes(text):
    g = parse_descriptor(text)
    for h in (1, 2):
        assert _same_plane_route(g, h)


def test_sign_classes_match_fresh_certificates_on_drawn_planes():
    rng = random.Random(20261023)
    decided = 0
    for _ in range(40):
        g = Product((_random_group(rng, 1, 1), _random_group(rng, 1, 1)))
        for h in (1, 2):
            decided += _same_plane_route(g, h)
    assert decided > 20, decided


def _sign_class(a):
    """The sort keys of the members of {D A D'}, D and D' sign diagonals."""
    (x, y), (z, w) = a.rows
    return frozenset(
        tuple(e.sort_key() for e in (s * t * x, s * u * y, v * t * z, v * u * w))
        for s, v, t, u in itertools.product((1, -1), repeat=4))


@pytest.mark.parametrize("text", ["Z x Z", "Q x Z", "(Z*1 + Z*sqrt(2)) x Z",
                                  "Q*t x Z", "Z*sqrt(2) x Q*sqrt(3)"])
def test_one_certificate_per_sign_class_and_one_replay_per_refutation(
        monkeypatch, text):
    calls = {"acts": 0, "replayed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(autgroup, "_replayed",
                        counted("replayed", autgroup._replayed))
    monkeypatch.setattr(oracle, "acts_invariantly",
                        counted("acts", oracle.acts_invariantly))
    g = parse_descriptor(text)
    report = brute_force_aut(g, 2)
    classes = {_sign_class(a) for a in candidate_matrices(g, 2)}
    assert calls["acts"] == len(classes) < report.candidates
    assert calls["replayed"] == len(report.refuted) > 0


@pytest.mark.parametrize("text,a", [("Z x R", "[2,0;0,1+t]"),
                                    ("Z x R", "[3,1;0,1+t]"),
                                    ("Z*sqrt(2) x R", "[3,1;0,1+t]")])
def test_a_carried_refutation_replays_where_the_inverse_leaves_the_tower(
        text, a):
    # det A = 1+t, so each member of the class reads A^-1 off adj A / det A
    g, a = parse_descriptor(text), parse_matrix(a)
    cert = acts_invariantly(g, a)
    assert not cert.verdict and cert.direction == "inverse"
    (x, y), (z, w) = a.rows
    for s, v, t, u in itertools.product((1, -1), repeat=4):
        other = matrix([[s * t * x, s * u * y], [v * t * z, v * u * w]])
        assert replayed(g, cert.failing_generator, other, cert.direction) \
            == acts_invariantly(g, other) == cert
