"""The oracle's generator checks against the reference loops of
``test_oracle_output``: the row filter of ``candidate_matrices`` asks each
matrix entry once per generator, the run's memo keeps one verdict per
generator, coordinate block and entries, and ``_ratios`` forms each pair of
ratios x / y and x / (-y) once."""

import random

from groupaut import autgroup
from groupaut.descriptors import Product, invariance_generators, normalize
from groupaut.dsl import parse_descriptor
from groupaut.errors import GroupAutError
from groupaut.oracle import (_ratios, brute_force_aut, candidate_matrices,
                             enumerate_members)
from groupaut.scalars import rational

from draws import _random_group
from test_oracle_output import ref_candidate_matrices, ref_certificate


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except GroupAutError as exc:
        return ("raises", type(exc), str(exc))


def test_random_products_match_the_reference_loops():
    # raw two-factor products: scaled, imaged and nested factors, and pairs
    # of towers that do not join, which must raise the reference's error.
    # The public calls on the raw draw answer as the references do on its
    # normal form
    rng = random.Random(20261018)
    decided = candidates = 0
    for _ in range(400):
        g = Product((_random_group(rng, 1, 2), _random_group(rng, 1, 2)))
        expected = _outcome(lambda g, h: ref_candidate_matrices(normalize(g), h),
                            g, 1)
        assert _outcome(candidate_matrices, g, 1) == expected, g
        if expected[0] != "value":
            continue
        report = brute_force_aut(g, 1)
        g = normalize(g)
        assert report.group is g
        assert report.candidates == len(expected[1])
        for c in report.confirmed:
            assert ref_certificate(g, c) == (True, None, None), (g, c)
        for r in report.refuted:
            assert ref_certificate(g, r.candidate) \
                == (False, r.witness, r.direction), (g, r.candidate)
        decided += 1
        candidates += report.candidates
    assert decided >= 80 and candidates >= 4000


def test_the_row_filter_asks_entries_not_row_pairs(monkeypatch):
    # a row passes when each of its two entries passes its column, so the
    # filter asks each entry once per generator on the row; asking row
    # pairs would take the product of the two list sizes
    g = parse_descriptor("(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))")
    columns = [[v[0] for v in enumerate_members(f, 1)] for f in g.factors]
    bound = pairs = 0
    for i in range(2):
        on_row = sum(not vec[i].is_zero() for _, vec in invariance_generators(g))
        sizes = [len(_ratios(columns[j], columns[i], 1)) for j in range(2)]
        bound += on_row * sum(sizes)
        pairs += sizes[0] * sizes[1]
    asked = []
    honest = autgroup.holds

    def counted(kind, g, v):
        asked.append(kind)
        return honest(kind, g, v)

    monkeypatch.setattr(autgroup, "holds", counted)
    assert candidate_matrices(g, 1) == ref_candidate_matrices(g, 1)
    assert 0 < len(asked) <= bound < pairs


def test_ratios_keep_both_signs_when_numerators_are_not_symmetric():
    # x / (-y) = (-x) / y only adds nothing when -x is a numerator too
    found = _ratios([rational(1), rational(2)], [rational(1), rational(-1)], 2)
    assert sorted(r.as_fraction() for r in found.values()) == [-2, -1, 1, 2]
    symmetric = [rational(k) for k in (-2, -1, 1, 2)]
    found = _ratios(symmetric, symmetric + [rational(0)], 2)
    assert sorted(r.as_fraction() for r in found.values()) \
        == [-2, -1, -0.5, 0.5, 1, 2]
