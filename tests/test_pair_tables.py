"""The plane referee builds each (factor j, factor i) pair's entry table
once per run.

``_old_factor_members`` and ``_old_matrix_classes`` are the routes that
enumerated every factor and formed and filtered all four entry tables, their
bodies copied verbatim.  The new route must yield the same (key, is scalar,
matrix) sequence, the same ``cross_check`` report and the same exceptions,
on the benchmark corpus and on planes of unequal factors; and on equal
factors it must form one ratio table instead of four.
"""

import itertools
import sys
from pathlib import Path

import pytest

from groupaut import oracle
from groupaut.autgroup import failing_generator, run_generators
from groupaut.descriptors import FullLine, Product
from groupaut.dsl import parse_descriptor
from groupaut.errors import DomainError, UnsupportedError
from groupaut.matrices import ExactMatrix, _product
from groupaut.oracle import (
    _MATRIX_HEIGHT_CAP,
    _line,
    _ratios,
    _signed,
    cross_check,
    enumerate_members,
    report_to_json,
)
from groupaut.scalars import ContextKind, t_monomial

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

P = parse_descriptor


# --- verbatim copies of the four-table route ----------------------------------

def _old_factor_members(g, h):
    columns = [enumerate_members(f, h) for f in g.factors]
    if any(s.context.kind is ContextKind.FORMAL
           for column in columns for v in column for s in v):
        columns = [[(s,) for s in _line(h, t_monomial(1))]
                   if isinstance(f, FullLine) else column
                   for f, column in zip(g.factors, columns)]
    return columns


def _old_matrix_classes(g, h, checks):
    if h > _MATRIX_HEIGHT_CAP:
        raise DomainError(
            f"matrix enumeration is capped at height {_MATRIX_HEIGHT_CAP}")
    if not isinstance(g, Product):
        raise UnsupportedError(
            "matrix candidates need an explicit product of factors")
    if len(g.factors) != 2:
        raise UnsupportedError("matrix enumeration is capped at two factors")

    columns = [[v[0] for v in column] for column in _old_factor_members(g, h)]
    entries = [[], [], [], []]
    for i in range(2):
        for j in range(2):
            found = _ratios(columns[j], columns[i], h)
            entries[2 * i + j] = [found[k] for k in sorted(found)]

    gens = run_generators(checks, g)
    ids = {}
    rows = []
    for i in range(2):
        on_row = tuple(gen for gen in gens if i in gen[2])
        kept = [[_signed(ids, e) for e in entries[2 * i + j]
                 if failing_generator(checks, on_row, ((e, e), (e, e)), j)
                 is None]
                for j in range(2)]
        rows.append([((a, b), ua, ub, sa, sb) for (a, ua, sa), (b, ub, sb)
                     in itertools.product(*kept)])
    if len(rows[0]) * len(rows[1]) > 400_000:
        raise DomainError(
            "matrix candidate set too large; lower the height bound")
    unsigned = list(ids)
    singular = {}
    for (r0, ua, ub, sa, sb), (r1, ux, ue, sx, se) \
            in itertools.product(rows[0], rows[1]):
        key = ua, ub, ux, ue, sa * sb * sx * se
        degenerate = singular.get(key)
        if degenerate is None:
            ae = _product(unsigned[ua], unsigned[ue])
            bx = _product(unsigned[ub], unsigned[ux])
            degenerate = singular[key] = ae == (-bx if key[4] < 0 else bx)
        if not degenerate:
            yield key, sb == sx == 0 and r0[0] == r1[1], ExactMatrix((r0, r1))


# --- the differential ---------------------------------------------------------

def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _both(monkeypatch, g, h):
    """(old, new) outcomes of the class sequence and the cross_check JSON."""
    got = []
    for route in (_old_matrix_classes, oracle._matrix_classes):
        monkeypatch.setattr(oracle, "_matrix_classes", route)
        got.append((_outcome(lambda: list(route(g, h, {}))),
                    _outcome(lambda: report_to_json(cross_check(g, h)))))
    return got


# unequal factors of one kind, and a real line beside a formal factor
UNEQUAL = ["R x Q*t", "Q*t x R", "Z x Z*2", "Q*sqrt(2) x Q*sqrt(3)"]
TEXTS = list(dict.fromkeys([g["text"] for g in corpus.all_plane_groups()]
                           + UNEQUAL))


@pytest.mark.parametrize("h", (1, 2))
@pytest.mark.parametrize("text", TEXTS)
def test_classes_and_reports_match_the_four_table_route(monkeypatch, text, h):
    old, new = _both(monkeypatch, P(text), h)
    assert old[0][0] == old[1][0] == "ok"
    assert new == old


def test_a_field_past_the_tower_raises_as_before(monkeypatch):
    g = P("(Q*sqrt(2) + Q*sqrt(3)) x Q*sqrt(5)")
    old, new = _both(monkeypatch, g, 1)
    assert old[0][0] != "ok" and old[1][0] != "ok"
    assert new == old


# --- work counts --------------------------------------------------------------

@pytest.mark.parametrize("text, factors, pairs", [
    ("Z x Z", 1, 1),
    ("(Z*1 + Q*sqrt(3)) x (Z*1 + Q*sqrt(3))", 1, 1),
    ("Q x Z", 2, 4),
])
def test_each_factor_and_pair_is_built_once(monkeypatch, text, factors, pairs):
    seen = {}
    for name in ("enumerate_members", "_ratios"):
        def counted(*args, _fn=getattr(oracle, name), _name=name):
            seen[_name] = seen.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(oracle, name, counted)
    cross_check(P(text), 2)
    assert seen == {"enumerate_members": factors, "_ratios": pairs}
