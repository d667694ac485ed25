"""The plane referee decides each sign class {D A D'} once: its
singularity in ``candidate_matrices``, its certificate in
``brute_force_aut`` and its closed-form check in ``cross_check``.

``_old_candidate_matrices``, ``_old_sign_class``, ``_old_brute_force_aut``
and ``_old_agreement`` (the loop of ``cross_check``) are the routes that
tested singularity, formed the class key and asked ``admits`` for every
candidate, their bodies copied verbatim (``_old_candidate_matrices`` reads
each factor's members through ``enumerate_members``, as it did).  The new
routes must give the same reports: order, witnesses and agreement, on the
benchmark corpus and under closed forms patched to be wrong.
"""

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from groupaut import oracle
from groupaut.autgroup import (Bounds, PlusMinusOne, acts_invariantly, admits,
                               aut_group, failing_generator, replayed,
                               run_generators)
from groupaut.descriptors import (Product, _lead, _sign_canonical,
                                  dimension)
from groupaut.dsl import parse_descriptor
from groupaut.errors import (ConsistencyError, DomainError, GroupAutError,
                             UnsupportedError)
from groupaut.matrices import ExactMatrix, matrix
from groupaut.oracle import (
    _MATRIX_HEIGHT_CAP,
    OracleReport,
    Refutation,
    _check_height,
    _ratios,
    candidate_matrices,
    candidate_scalars,
    cross_check,
    enumerate_members,
)

from test_consistency import LINES, PLANES, WRONG

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

P = parse_descriptor


# --- verbatim copies of the per-candidate routes ------------------------------

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

    columns = [[v[0] for v in enumerate_members(f, h)] for f in g.factors]
    entries = [[], [], [], []]
    for i in range(2):
        for j in range(2):
            found = _ratios(columns[j], columns[i], h)
            entries[2 * i + j] = [found[k] for k in sorted(found)]

    checks = {} if _checks is None else _checks
    gens = run_generators(checks, g)
    rows = []
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
        if not m.is_singular():
            out.append(m)
    return out


def _old_sign_class(signs, c):
    if not isinstance(c, ExactMatrix):
        return _sign_canonical(c)
    got = []
    for y in c.rows[0] + c.rows[1]:
        pair = signs.get(y)
        if pair is None:
            lead = _lead(y) if y else 0
            pair = signs[y] = (-y, -1) if lead < 0 else (y, 1 if lead else 0)
        got.append(pair)
    (a, sa), (b, sb), (x, sx), (e, se) = got
    return a, b, x, e, sa * sb * sx * se


def _old_brute_force_aut(g, height=3):
    h = _check_height(height)
    n = dimension(g)
    checks = {}
    if n == 1:
        candidates = candidate_scalars(g, h)
    elif n == 2:
        candidates = _old_candidate_matrices(g, h, checks)
    else:
        raise UnsupportedError(
            "the brute-force referee handles one or two dimensions")
    confirmed = []
    refuted = []
    signs = {}
    certs = {}
    for c in candidates:
        key = _old_sign_class(signs, c)
        cert = certs.get(key)
        if cert is None:
            cert = certs[key] = acts_invariantly(g, c, checks)
        elif not cert.verdict:
            cert = replayed(g, cert.failing_generator, c, cert.direction)
        if cert.verdict:
            confirmed.append(c)
        else:
            refuted.append(Refutation(c, cert.failing_generator,
                                      cert.direction))
    return OracleReport(g, h, len(candidates), tuple(confirmed),
                        tuple(refuted))


def _old_agreement(report, result):
    """The loop of the former ``cross_check``: ``admits`` on every
    candidate, refutations first."""
    try:
        for r in report.refuted:
            admits(result, r.candidate, False)
        for c in report.confirmed:
            admits(result, c, True)
    except ConsistencyError:
        return False
    return True


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))


# --- new against old ------------------------------------------------------------

CORPUS = sorted({g["text"] for g in
                 corpus.all_plane_groups() + corpus.all_line_groups()})


@pytest.mark.parametrize("text", CORPUS)
def test_reports_match_the_per_candidate_route_on_the_corpus(text):
    g = P(text)
    for h in (1, 2):
        old = _outcome(_old_brute_force_aut, g, h)
        if old[0] == "value":
            old = ("value", replace(old[1], agreement=_old_agreement(
                old[1], aut_group(g))))
        assert _outcome(cross_check, g, h) == old, (text, h)
        if dimension(g) == 2:
            assert _outcome(candidate_matrices, g, h) \
                == _outcome(_old_candidate_matrices, g, h), (text, h)


@pytest.mark.parametrize("text", LINES + PLANES)
def test_agreement_matches_the_per_candidate_route_under_wrong_closed_forms(
        monkeypatch, text):
    g = P(text)
    height = 2 if dimension(g) == 1 else 1
    old = _old_brute_force_aut(g, height)
    seen = set()
    for result in [aut_group(g)] + WRONG:
        monkeypatch.setattr(oracle, "aut_group", lambda _: result)
        got = cross_check(g, height)
        expected = _old_agreement(old, result)
        assert got == replace(old, agreement=expected), (text, result)
        seen.add(expected)
    assert seen == {True, False}


# --- the admits memo is keyed on the class and the is-scalar flag ---------------

def test_a_scalar_closed_form_is_refused_off_the_scalar_members(
        monkeypatch):
    # the sign diagonals diag(-1, 1) and diag(1, -1) share a class with
    # -I and I; PM1 holds only the last two
    g = P("Z*sqrt(2) x Z*sqrt(3)")
    report = cross_check(g, 1)
    assert report.agreement is True
    assert set(report.confirmed) == {
        matrix([[-1, 0], [0, -1]]), matrix([[-1, 0], [0, 1]]),
        matrix([[1, 0], [0, -1]]), matrix([[1, 0], [0, 1]])}
    bounds = Bounds((PlusMinusOne(),), (PlusMinusOne(),))
    monkeypatch.setattr(oracle, "aut_group", lambda _: bounds)
    assert cross_check(g, 1).agreement is False


def test_admits_is_asked_once_per_class_and_flag(monkeypatch):
    asked = []
    honest = oracle.admits

    def counted(result, a, verdict):
        asked.append(a)
        return honest(result, a, verdict)

    monkeypatch.setattr(oracle, "admits", counted)
    report = cross_check(P("Q x Q"), 1)
    assert report.agreement is True
    assert 0 < len(asked) < report.candidates
    assert len(set(asked)) == len(asked)
