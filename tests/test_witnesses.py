import sys
from fractions import Fraction
from pathlib import Path

import pytest

from groupaut import autgroup, witnesses
from groupaut.autgroup import acts_invariantly
from groupaut.descriptors import (
    FullLine,
    Product,
    dimension,
    is_dense,
    member,
    normalize,
)
from groupaut.dsl import matrix_to_text, parse_descriptor
from groupaut.errors import BudgetExceededError, ContextError, DomainError
from groupaut.matrices import classify, vec_mat_mul
from groupaut.scalars import rational, sqrt_rational, t_monomial
from groupaut.witnesses import (
    _lambda_ladder,
    _sl_search,
    sl_candidates,
    sl_obstruction_witness,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

P = parse_descriptor


def test_candidates_have_determinant_one():
    for n in (2, 3):
        stream = sl_candidates(n)
        for _ in range(40):
            assert classify(next(stream)).in_SL


EXPECTED = [
    ("Q x Q", "[1,sqrt(2);0,1]"),
    ("Q x R", "[1,0;1,1]"),
    ("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))", "[1,1/2;0,1]"),
    ("Q x Q*sqrt(2)", "[1,1;0,1]"),
    ("(Q + Q*t) x (Q + Q*t)", "[1,t;0,1]"),
    ("Q x Q x Q", "[1,sqrt(2),0;0,1,0;0,0,1]"),
]


def test_first_witnesses_are_pinned():
    # the ladder is deterministic, so these exact matrices come out
    for text, want in EXPECTED:
        w = sl_obstruction_witness(P(text))
        assert matrix_to_text(w) == want, text


def test_witness_certificate_reverifies():
    for text, _ in EXPECTED:
        g = P(text)
        w = sl_obstruction_witness(g)
        assert classify(w).in_SL
        cert = acts_invariantly(g, w)
        assert not cert.verdict
        assert member(g, cert.failing_generator).member
        mat = w if cert.direction == "forward" else w.inverse()
        assert not member(g, vec_mat_mul(cert.failing_generator, mat)).member


def test_witness_rejections():
    with pytest.raises(DomainError):
        sl_obstruction_witness(P("R x R"))      # nothing obstructs GL itself
    with pytest.raises(DomainError):
        sl_obstruction_witness(P("Q"))          # one dimension
    with pytest.raises(DomainError):
        sl_obstruction_witness(P("Z x Z"))      # not dense


def test_budget_is_respected():
    # Q x Q needs shears past the rational block of the ladder
    with pytest.raises(BudgetExceededError):
        sl_obstruction_witness(P("Q x Q"), budget=2)
    assert sl_obstruction_witness(P("Q x Q*sqrt(2)"), budget=1) is not None


# --- copies of the eager ladder and of the fresh-memo search -----------------
# (verbatim, but that the search takes each candidate's memo from ``memo``)

def _old_lambda_ladder():
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


class _Forgetful(dict):
    """A generator-check memo that keeps what it holds per group (its
    generators, and whether one has kind "int") but no verdict, so every
    check is asked afresh, whatever its key."""

    def __setitem__(self, key, value):
        # a verdict is kept under (position, block, entries)
        if not (isinstance(key, tuple) and isinstance(key[0], int)):
            super().__setitem__(key, value)


def _old_sl_search(g, budget, memo=lambda: None):
    # ``memo`` gives each candidate's memo: None (a fresh one) as before
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
            cert = acts_invariantly(gn, cand, memo())
        except ContextError:
            continue      # candidate scalar lives in an incompatible tower
        checks += 1
        if not cert.verdict:
            return cand, cert
    raise BudgetExceededError(
        f"candidate ladder exhausted after {checks} checks")


def test_ladder_matches_the_list_builder():
    assert list(_lambda_ladder()) == _old_lambda_ladder()
    assert len(_old_lambda_ladder()) == 46


def test_ladder_is_built_only_as_far_as_it_is_read(monkeypatch):
    built = []

    def counting(x):
        built.append(x)
        return rational(x)

    monkeypatch.setattr(witnesses, "rational", counting)
    assert sl_obstruction_witness(P("Q x Q*sqrt(2)"), budget=1) is not None
    assert len(built) <= 2


def _outcome(search, g, budget):
    """(witness text, certificate), or (exception type, message)."""
    try:
        w, cert = search(g, budget)
    except Exception as exc:            # compared, not swallowed
        return type(exc), str(exc)
    return matrix_to_text(w), cert


DIFFERENTIAL = sorted(
    {g["text"] for g in corpus.all_plane_groups()}
    | {q[1] for q in corpus.query_universe() if q[0] == "sl-witness"}
    | {text for text, _ in EXPECTED}
    | {"Q*sqrt(2) x Q*sqrt(3) x Q", "(Q + Q*t) x Q*sqrt(2)",
       "(Q + Q*t) x (Q + Q*sqrt(2))", "Q*t x Q*sqrt(2)"})


def _memoless(g, budget):
    return _old_sl_search(g, budget, _Forgetful)


@pytest.mark.parametrize("text", DIFFERENTIAL)
def test_shared_memo_search_matches_fresh_memos(text):
    # fresh memos share the memo key with the search; no memo shares nothing,
    # so a key that conflates two checks shows up against it
    g = P(text)
    for budget in (0, 1, 2, 3, 64):
        want = _outcome(_old_sl_search, g, budget)
        assert _outcome(_sl_search, g, budget) == want, (text, budget)
        assert _outcome(_memoless, g, budget) == want, (text, budget)


def test_candidates_outside_the_tower_are_skipped_uncounted():
    # the first six candidates mix t with sqrt(2) and raise; the seventh is
    # the witness, within a budget of one
    g = P("(Q + Q*t) x (Q + Q*sqrt(2))")
    for cand in list(sl_candidates(2))[:6]:
        with pytest.raises(ContextError):
            acts_invariantly(normalize(g), cand)
    assert _outcome(_sl_search, g, 1)[0] == "[1,sqrt(3);0,1]"


def test_shared_memo_asks_fewer_checks(monkeypatch):
    asked = []
    holds = autgroup.holds

    def counting(*args):
        asked.append(args)
        return holds(*args)

    monkeypatch.setattr(autgroup, "holds", counting)
    g = P("(Z*1 + Q*sqrt(3)) x (Z*1 + Q*sqrt(3))")
    want = _old_sl_search(g, 64)
    fresh = len(asked)
    asked.clear()
    assert _sl_search(g, 64) == want
    assert len(asked) < fresh
