"""The plane referee replays a refuted class's members on images derived
from the representative's.

``oracle._member_image`` reads each member's image of the witness w off the
representative's (w * A, or w * A^-1), flipping coordinate signs.  Here
every derived image is compared with the image formed fresh from the
member's own matrix, on every corpus group at heights 1 and 2 and on drawn
planes.  A class whose inverse leaves the tower must replay in full.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

from groupaut import oracle
from groupaut.autgroup import Certificate, acts_invariantly
from groupaut.descriptors import Product, _lead
from groupaut.dsl import parse_descriptor, parse_matrix
from groupaut.errors import DomainError, GroupAutError
from groupaut.matrices import ExactMatrix, matrix, vec_mat_mul
from groupaut.oracle import cross_check

from test_descriptors import _random_group

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def _signs(a):
    leads = [_lead(x) if x else 0 for row in a.rows for x in row]
    return tuple((s > 0) - (s < 0) for s in leads)


def _instrument(monkeypatch):
    """Check each derived image against a fresh one while the referee runs,
    and count the derived images, the classes that replay in full because
    A^-1 leaves the tower, and the matrices replayed in full."""
    counts = {"derived": 0, "adjugate": 0, "full": 0}
    current, witnesses = {}, {}
    classes, first, derive, replayed = (
        oracle._matrix_classes, oracle._witness_image, oracle._member_image,
        oracle.replayed)

    def tracked(g, h, checks):
        for item in classes(g, h, checks):
            assert item[3] == _signs(item[2])
            current["a"] = item[2]
            yield item

    def witness_image(cert, a, signs):
        found = first(cert, a, signs)
        if found is None and cert.direction == "inverse":
            with pytest.raises(DomainError):
                a.inverse()
            counts["adjugate"] += 1
        # the witness, kept beside the object that stands for it
        witnesses[id(found)] = found, cert.failing_generator
        return found

    def member_image(found, direction, signs):
        image = derive(found, direction, signs)
        a = current["a"]
        w = witnesses[id(found)][1]
        fresh = vec_mat_mul(w, a if direction == "forward" else a.inverse())
        assert image == fresh, (a, w, direction)
        counts["derived"] += 1
        return image

    def counted(g, w, a, direction):
        counts["full"] += isinstance(a, ExactMatrix)
        return replayed(g, w, a, direction)

    monkeypatch.setattr(oracle, "_matrix_classes", tracked)
    monkeypatch.setattr(oracle, "_witness_image", witness_image)
    monkeypatch.setattr(oracle, "_member_image", member_image)
    monkeypatch.setattr(oracle, "replayed", counted)
    return counts


TEXTS = [g["text"] for g in corpus.all_line_groups() + corpus.all_plane_groups()]


def test_derived_images_match_fresh_ones_on_the_corpus(monkeypatch):
    stats = _instrument(monkeypatch)
    assert len(TEXTS) * 2 == 176
    for text in TEXTS:
        for h in (1, 2):
            assert cross_check(parse_descriptor(text), h).agreement, (text, h)
    assert stats["derived"] > 1000 and stats["full"] == 0, stats


def test_derived_images_match_fresh_ones_on_drawn_planes(monkeypatch):
    stats = _instrument(monkeypatch)
    rng = random.Random(20261030)
    decided = 0
    for _ in range(40):
        g = Product((_random_group(rng, 1, 1), _random_group(rng, 1, 1)))
        for h in (1, 2):
            try:
                cross_check(g, h)
            except GroupAutError:
                continue
            decided += 1
    assert decided > 20, decided
    assert stats["derived"] > 0, stats


def _sign_class(a):
    """The distinct members of {D A D'}, D and D' sign diagonals."""
    (x, y), (z, w) = a.rows
    members = (matrix([[s * t * x, s * u * y], [v * t * z, v * u * w]])
               for s, v, t, u in itertools.product((1, -1), repeat=4))
    return list(dict.fromkeys(members))


def test_a_class_whose_inverse_leaves_the_tower_replays_in_full(monkeypatch):
    # No candidate of the corpus or of the drawn planes has an inverse
    # outside the tower, so the referee is handed two classes on Z x R:
    # det = 3(1+t) is no monomial, and det = 2 is.  Both are refuted by the
    # inverse pass.
    g = parse_descriptor("Z x R")
    carried, derived = (_sign_class(parse_matrix(text))
                        for text in ("[3,1;0,1+t]", "[2,1;0,1]"))
    monkeypatch.setattr(oracle, "_matrix_classes", lambda g, h, checks: (
        (key, False, a, _signs(a))
        for key, members in enumerate((carried, derived)) for a in members))
    stats = _instrument(monkeypatch)
    report = oracle.brute_force_aut(g, 1)
    assert not report.confirmed
    assert len(report.refuted) == len(carried) + len(derived)
    for r in report.refuted:
        assert acts_invariantly(g, r.candidate) \
            == Certificate(False, r.witness, r.direction) \
            and r.direction == "inverse"
    assert stats == {"adjugate": 1, "full": len(carried) - 1,
                     "derived": len(derived) - 1}
