"""The referee replays a refuted class's members on images derived from
the image its representative's certificate recorded.

``oracle._member_image`` reads each member's image of the witness w off the
representative's (w * A, or w * A^-1, kept in ``Certificate.image``): on a
plane by flipping coordinate signs, and for a scalar's partner -c by
negating w * c or w / c.  Here every derived image is compared with the
image formed fresh from the member itself, on every corpus group at heights
1 and 2 and on drawn lines and planes.  A class whose inverse leaves the
tower must replay in full.  The evidence every refuting certificate of the
corpus carries is checked on its own, and every plane refutation of the
corpus is an inverse one on a witness with one nonzero coordinate, which
is all ``_member_image`` derives.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

from groupaut import oracle
from groupaut.autgroup import Certificate, acts_invariantly
from groupaut.descriptors import Product, _lead, _sign_canonical, member
from groupaut.dsl import parse_descriptor, parse_matrix
from groupaut.errors import ContextError, DomainError, GroupAutError
from groupaut.matrices import ExactMatrix, matrix, scalar_matrix, vec_mat_mul
from groupaut.oracle import cross_check
from groupaut.scalars import exact_div

from draws import _random_group

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def _signs(a):
    leads = [_lead(x) if x else 0 for row in a.rows for x in row]
    return tuple((s > 0) - (s < 0) for s in leads)


def _as_matrix(a):
    return a if isinstance(a, ExactMatrix) else scalar_matrix(a, 1)


def _partner_image(w, c, direction):
    """w * c, or w / c by exact division; None outside the scalar tower."""
    try:
        q = w[0] * c if direction == "forward" else exact_div(w[0], c)
    except ContextError:
        return None
    return None if q is None else (q,)


def _instrument(monkeypatch):
    """Check each derived image against a fresh one while the referee runs,
    and count the derived images on planes and of scalar partners, the
    classes whose representative's image was read against det A * G, and
    the matrices replayed in full."""
    counts = {"derived": 0, "partners": 0, "adjugate": 0, "full": 0}
    current, certs = {}, {}
    classes, scalars, acts, derive, replayed = (
        oracle._matrix_classes, oracle._scalar_classes,
        oracle.acts_invariantly, oracle._member_image, oracle.replayed)

    def tracked(g, h, checks):
        for item in classes(g, h, checks):
            assert item[3] == _signs(item[2])
            current.update(key=item[0], a=item[2])
            yield item

    def tracked_scalars(g, h):
        for item in scalars(g, h):
            # the class generation names is c's member of positive lead
            assert item[0] == _sign_canonical(item[2]) and item[3] is None
            current.update(key=item[0], a=item[2])
            yield item

    def certified(g, a, checks):
        # the certificate of the class of the current candidate
        cert = certs[current["key"]] = acts(g, a, checks)
        if not cert.verdict and cert.over is not g:
            assert cert.direction == "inverse"
            with pytest.raises(DomainError):
                _as_matrix(a).inverse()
            counts["adjugate"] += 1
        return cert

    def member_image(found, direction, signs):
        image = derive(found, direction, signs)
        a, cert = current["a"], certs[current["key"]]
        assert found[0] is cert.image and direction == cert.direction
        w = cert.failing_generator
        if isinstance(a, ExactMatrix):
            fresh = vec_mat_mul(w, a if direction == "forward" else a.inverse())
            counts["derived"] += 1
        else:
            fresh = _partner_image(w, a, direction)
            counts["partners"] += 1
        assert image == fresh, (a, w, direction)
        return image

    def counted(g, w, a, direction):
        counts["full"] += isinstance(a, ExactMatrix)
        return replayed(g, w, a, direction)

    monkeypatch.setattr(oracle, "_matrix_classes", tracked)
    monkeypatch.setattr(oracle, "_scalar_classes", tracked_scalars)
    monkeypatch.setattr(oracle, "acts_invariantly", certified)
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
    assert stats["partners"] > 500, stats


def test_derived_partner_images_match_fresh_ones_on_drawn_lines(monkeypatch):
    stats = _instrument(monkeypatch)
    rng = random.Random(20261101)
    decided = 0
    for _ in range(60):
        g = _random_group(rng, 1, 2)
        for h in (1, 2):
            try:
                cross_check(g, h)
            except GroupAutError:
                continue
            decided += 1
    assert decided > 40, decided
    assert stats["partners"] > 0, stats


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
                     "derived": len(derived) - 1, "partners": 0}


def test_refuting_certificates_carry_their_evidence(monkeypatch):
    made = []
    acts = oracle.acts_invariantly

    def recorded(g, a, checks):
        cert = acts(g, a, checks)
        if not cert.verdict:
            made.append((g, a, cert))
        return cert

    monkeypatch.setattr(oracle, "acts_invariantly", recorded)
    for text in TEXTS:
        for h in (1, 2):
            oracle.brute_force_aut(parse_descriptor(text), h)
    # no corpus candidate has an inverse outside the tower: add two that do
    for text, a in (("Z x R", "[3,1;0,1+t]"), ("Z*sqrt(2) x R", "[2,0;0,1+t]")):
        g, a = parse_descriptor(text), parse_matrix(a)
        made.append((g, a, acts_invariantly(g, a)))
    kinds = {"image": 0, "outside": 0, "adjugate": 0}
    for g, a, cert in made:
        w, direction = cert.failing_generator, cert.direction
        assert member(g, w).member, (g, a, w)
        assert cert.image is None \
            or not member(cert.over, cert.image).member, (g, a, w)
        if cert.over is not g:
            kinds["adjugate"] += 1
        elif cert.image is None:
            kinds["outside"] += 1
        else:
            m = _as_matrix(a)
            assert cert.image == vec_mat_mul(
                w, m if direction == "forward" else m.inverse()), (g, a, w)
            kinds["image"] += 1
        # the evidence stays out of equality and hashing
        bare = Certificate(False, w, direction)
        assert cert == bare and hash(cert) == hash(bare)
    assert kinds["image"] > 500 and kinds["outside"] > 0 \
        and kinds["adjugate"] == 2, kinds


def test_plane_refutations_are_inverse_on_one_coordinate():
    # the row filter of _matrix_classes asks every forward block check on
    # the run's memo, so a 2 x 2 candidate fails only the inverse pass, on
    # an "int" generator, which lies on one coordinate: _member_image has
    # no forward half, and the referee reads k off w's one nonzero entry
    count = 0
    for g in corpus.all_plane_groups():
        for h in (1, 2):
            report = oracle.brute_force_aut(parse_descriptor(g["text"]), h)
            for r in report.refuted:
                assert r.direction == "inverse", (g["text"], h, r)
                assert sum(1 for x in r.witness if x) == 1, (g["text"], h, r)
                count += 1
    assert count == 2484
