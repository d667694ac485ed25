from fractions import Fraction

import pytest

from groupaut.descriptors import (
    Domain,
    FullLine,
    MixedModule,
    Product,
    Scaled,
    cyclic,
    fraction_ring,
    mixed_module,
    normalize,
    product,
    scaled,
)
from groupaut.dsl import (
    group_to_text,
    matrix_from_json,
    matrix_to_json,
    matrix_to_text,
    parse_descriptor,
    parse_matrix,
    parse_scalar,
    scalar_to_text,
)
from groupaut.errors import DescriptorError, ParseError, UnsupportedError
from groupaut.matrices import matrix
from groupaut.scalars import rational, sqrt_rational, t_monomial


ROUNDTRIP = [
    "Z",
    "Q",
    "R",
    "cyclic(3)",
    "cyclic(3/7)",
    "cyclic(sqrt(2))",
    "Z*1 + Q*sqrt(2)",
    "Z*2 + Z*3",
    "Q + Q*sqrt(2)",
    "Q*sqrt(2) + Q*sqrt(3) + Q*sqrt(6)",
    "Z*1 + Z*sqrt(2) + Q*sqrt(3)",
    "ring(Z[t,1/t])",
    "ring(Q[t,1/t])",
    "Zinv(2)",
    "Zinv(6)",
    "hull(Z*1 + Q*sqrt(2))",
    "sqrt(2)*ring(Z[t,1/t])",
    "(1+sqrt(2))*ring(Z[t,1/t])",
    "(1+t)*ring(Z[t,1/t])",
    "Q x Q",
    "Q x R",
    "R x R",
    "R x R x R",
    "Z x (Z*1 + Q*sqrt(2))",
    "(Z*1 + Q*sqrt(2)) x (Z*1 + Q*sqrt(2))",
    "cyclic(1/3) x Q",
    "image(Q x Q,[1,1;0,1])",
    "image(Q x Q x Q,[1,0,0;1,1,0;0,0,2])",
    "image(Q x ring(Z[t,1/t]),[1,1;0,1])",
    "Q*t + Q*t^2",
    "Z*t^-1 + Z*t",
    "cyclic(t)",
    "Zinv(2) x Zinv(3)",
    "hull(ring(Z[t,1/t])) x Q",
]


def test_parse_print_parse_fixpoint():
    for text in ROUNDTRIP:
        g = parse_descriptor(text)
        printed = group_to_text(g)
        again = parse_descriptor(printed)
        assert again == g, text
        assert group_to_text(again) == printed, text


def test_parse_normalizes():
    assert parse_descriptor("R x R") == Product((FullLine(), FullLine()))
    assert parse_descriptor("Q*2") == parse_descriptor("Q")
    assert parse_descriptor("2*cyclic(3)") == cyclic(6)
    assert parse_descriptor("hull(cyclic(3))") == parse_descriptor("Q")
    assert parse_descriptor("sqrt(2)*(Q + Q*sqrt(3))") == \
        parse_descriptor("Q*sqrt(2) + Q*sqrt(6)")
    assert parse_descriptor("image(Q x Q,[2,0;0,2])") == parse_descriptor("Q x Q")
    assert parse_descriptor("(Q)") == parse_descriptor("Q")


def test_parse_scalars():
    assert parse_scalar("3/4") == rational(Fraction(3, 4))
    assert parse_scalar("-2") == rational(-2)
    assert parse_scalar("sqrt(8)") == 2 * sqrt_rational(2)
    assert parse_scalar("1 + sqrt(2)") == 1 + sqrt_rational(2)
    assert parse_scalar("sqrt(2)*sqrt(3)") == sqrt_rational(6)
    assert parse_scalar("t^-2") == t_monomial(-2)
    assert parse_scalar("3*t + 1/2") == 3 * t_monomial(1) + Fraction(1, 2)
    assert parse_scalar("(1+t)*(1-t)") == 1 - t_monomial(2)


def test_scalar_text_roundtrip():
    for text in ("0", "1", "-1", "3/4", "sqrt(2)", "2*sqrt(2)", "-sqrt(3)",
                 "1 + sqrt(2)", "1/2 - 3*sqrt(5)", "t", "t^-1", "2*t^3",
                 "1 + t", "t^-1 - t", "sqrt(2) + sqrt(3)"):
        s = parse_scalar(text)
        assert parse_scalar(scalar_to_text(s)) == s, text


def test_matrix_roundtrip():
    for text in ("[1,1;0,1]", "[1,sqrt(2);sqrt(2),1]", "[1/2,0;0,2]",
                 "[0,1;-1,0]", "[1,0,0;0,1,0;0,0,1]", "[t,0;0,t^-1]"):
        a = parse_matrix(text)
        assert parse_matrix(matrix_to_text(a)) == a, text
    assert matrix_to_text(matrix([[1, 1], [0, 1]])) == "[1,1;0,1]"


def test_canonical_spellings():
    assert group_to_text(cyclic(1)) == "Z"
    assert group_to_text(mixed_module([(Domain.RAT, 1)])) == "Q"
    # a raw scaling of a one-generator line keeps it unparenthesized
    assert group_to_text(scaled(2, cyclic(1))) == "2*Z"
    assert group_to_text(scaled(2, mixed_module([(Domain.RAT, 1)]))) == "2*Q"
    assert group_to_text(parse_descriptor("R x R")) == "R x R"
    assert group_to_text(parse_descriptor("Z*1 + Q*sqrt(2)")) == "Z*1 + Q*sqrt(2)"
    assert group_to_text(parse_descriptor("(Z*2+Z*3) x Q")) == "(Z*2 + Z*3) x Q"
    assert group_to_text(parse_descriptor("sqrt(2)*Q")) == "Q*sqrt(2)"
    assert group_to_text(parse_descriptor("image(Q x Q,[1,1;0,1])")) == \
        "image(Q x Q, [1,1;0,1])"


def test_parse_errors():
    for text in ("", "Z*", "Q +", "cyclic()", "cyclic(0)", "sqrt(-2)",
                 "image(Q,[1,1;0,1])", "Zinv(1)", "[1,2;3]", "Z*1 + Z*1",
                 "Q x x Q", "ring(Z[t])", "hull(Zinv(2))", "Z)"):
        with pytest.raises((ParseError, DescriptorError, UnsupportedError)):
            parse_descriptor(text)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_descriptor("Q @ Q")
    assert info.value.position == 2


def test_matrix_json():
    a = matrix([[1, sqrt_rational(2)], [0, 1]])
    assert matrix_from_json(matrix_to_json(a)) == a
    assert matrix_to_json(a) == [["1", "sqrt(2)"], ["0", "1"]]


def test_structured_results_match_manual_construction():
    assert parse_descriptor("Q x Q") == product(
        [mixed_module([(Domain.RAT, 1)]), mixed_module([(Domain.RAT, 1)])])
    assert parse_descriptor("sqrt(2)*Zinv(2)") == Scaled(
        sqrt_rational(2), fraction_ring(2))
    got = parse_descriptor("Z*1 + Q*sqrt(2)")
    assert isinstance(got, MixedModule)
    assert got.terms[0] == (Domain.INT, rational(1))


def test_a_scaled_module_without_a_common_field_folds_and_round_trips():
    # sqrt(5) times these generators would need a field of degree 8, but a
    # module's columns are only the radicands its generators have
    g = parse_descriptor("sqrt(5)*(Q + Q*sqrt(2) + Q*sqrt(3))")
    printed = group_to_text(g)
    assert printed == "Q*sqrt(5) + Q*sqrt(10) + Q*sqrt(15)"
    again = parse_descriptor(printed)
    assert again == g
    assert group_to_text(again) == printed
