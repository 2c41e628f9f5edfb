"""Exact scalar layer: parsing, formatting, and the two infinities."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackspt.rational import (
    _SCALAR_RE,
    INF,
    NEG_INF,
    _scaled,
    _unscaled,
    ensure_scalar,
    format_scalar,
    is_finite,
    parse_scalar,
)

rationals = st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6)

# signs, ASCII digits, leading zeros, non-ASCII decimal digits (Arabic-Indic
# three, fullwidth five), superscript two, and the decimal and ratio marks
_digits = st.text(alphabet="0123456789\u0663\uff15", min_size=1, max_size=6)
_literals = st.one_of(
    st.text(alphabet="+-0123456789\u0663\uff15\u00b2./_ ", max_size=10),
    st.builds(
        lambda sign, zeros, whole, mark, rest: sign + zeros + whole + mark + rest,
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["", "0", "00"]),
        _digits,
        st.sampled_from(["", "", ".", "/"]),
        st.one_of(st.just(""), st.just("0"), _digits),
    ),
    st.sampled_from(["-0", "+0", "-00", "0/5", "-0.0", "007", "\u0663/\uff15", "1/0", "-0/0"]),
)


def _reference_parse(text: str):
    """Reference parser: the same spelling gate, then every literal through ``Fraction``."""
    text = text.strip()
    if not _SCALAR_RE.match(text):
        raise ValueError(f"not a scalar literal: {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return int(value) if value.denominator == 1 else value


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("5", 5),
            ("-3", -3),
            ("+2", 2),
            ("0", 0),
            ("1.25", Fraction(5, 4)),
            ("0.5", Fraction(1, 2)),
            ("-0.75", Fraction(-3, 4)),
            ("7/3", Fraction(7, 3)),
            ("-7/3", Fraction(-7, 3)),
            ("4/2", 2),
            ("10.0", 10),
        ],
    )
    def test_literals(self, text, expected):
        value = parse_scalar(text)
        assert value == expected
        # integral values come back as ints, not Fractions
        assert isinstance(value, int) == (Fraction(expected).denominator == 1)

    @pytest.mark.parametrize(
        "text",
        ["", "a", "1e3", "1_000", "1.2.3", "1/0", "1/ 2", "2/-3", "--5", "1.", ".5", "nan", "inf",
         "\u00b2", "1\u00b2", "-\u00b2"],
    )
    def test_rejects(self, text):
        # "\u00b2" (superscript two) passes str.isdigit but is no decimal digit
        with pytest.raises(ValueError):
            parse_scalar(text)

    @given(_literals)
    def test_matches_fraction_reference(self, text):
        try:
            expected = _reference_parse(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_scalar(text)
            return
        value = parse_scalar(text)
        assert value == expected and type(value) is type(expected)

    @given(rationals)
    def test_roundtrip(self, q):
        assert parse_scalar(format_scalar(q)) == q


class TestFormat:
    def test_canonical(self):
        assert format_scalar(5) == "5"
        assert format_scalar(-2) == "-2"
        assert format_scalar(Fraction(1, 3)) == "1/3"
        assert format_scalar(Fraction(-1, 3)) == "-1/3"
        assert format_scalar(Fraction(4, 2)) == "2"

    def test_rejects_non_scalars(self):
        with pytest.raises(TypeError):
            format_scalar(0.5)
        with pytest.raises(TypeError):
            format_scalar(INF)
        with pytest.raises(TypeError):
            format_scalar(True)


class TestInfinity:
    def test_total_order(self):
        big = 10**100
        assert NEG_INF < -big < 0 < Fraction(1, 3) < big < INF
        # exact even where a float conversion would overflow
        huge = Fraction(10**400 + 1, 7)
        assert NEG_INF < -(10**400) < -huge < huge < 10**400 < INF
        assert INF > NEG_INF
        assert not INF < INF
        assert INF <= INF and INF >= INF
        assert NEG_INF <= NEG_INF

    def test_sorting_mixed(self):
        values = [INF, 3, NEG_INF, Fraction(1, 2), -7]
        assert sorted(values) == [NEG_INF, -7, Fraction(1, 2), 3, INF]

    def test_equality_and_hash(self):
        assert INF == INF and NEG_INF == NEG_INF
        assert INF != NEG_INF
        assert INF != 10**50
        d = {INF: "top", NEG_INF: "bottom"}
        assert d[INF] == "top" and d[NEG_INF] == "bottom"

    def test_negation(self):
        assert -INF == NEG_INF
        assert -NEG_INF == INF

    def test_absorbing_addition(self):
        assert 3 + INF == INF
        assert INF + 3 == INF
        assert INF + Fraction(1, 2) == INF
        assert INF + INF == INF
        assert NEG_INF + NEG_INF == NEG_INF
        assert sum([1, Fraction(2, 3), INF]) == INF

    def test_subtraction(self):
        assert INF - 5 == INF
        assert 5 - INF == NEG_INF
        assert NEG_INF - 5 == NEG_INF
        assert 5 - NEG_INF == INF

    def test_is_finite(self):
        assert is_finite(0) and is_finite(Fraction(1, 3)) and is_finite(10**400)
        assert not is_finite(INF) and not is_finite(NEG_INF)
        assert not is_finite(float("inf")) and not is_finite(float("-inf"))

    @given(rationals)
    def test_finite_vs_infinity_order(self, q):
        assert NEG_INF < q < INF
        assert q + INF == INF
        assert q - INF == NEG_INF


class TestExactness:
    @given(rationals, rationals, rationals)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(rationals, rationals)
    def test_add_then_subtract_is_identity(self, a, b):
        assert a + b - b == a

    @given(rationals, rationals)
    def test_order_is_exact(self, a, b):
        # no epsilon anywhere: trichotomy must hold exactly
        assert (a < b) + (a == b) + (a > b) == 1


class TestEnsureScalar:
    def test_accepts_and_normalizes(self):
        assert ensure_scalar(5) == 5
        assert ensure_scalar(Fraction(1, 3)) == Fraction(1, 3)
        normalized = ensure_scalar(Fraction(6, 2))
        assert normalized == 3 and isinstance(normalized, int)

    def test_rejects(self):
        with pytest.raises(TypeError):
            ensure_scalar(0.5)
        with pytest.raises(TypeError):
            ensure_scalar(True)
        with pytest.raises(TypeError):
            ensure_scalar("3")
        for bad in (INF, NEG_INF, float("inf"), float("nan")):
            with pytest.raises(TypeError):
                ensure_scalar(bad)


class TestScaling:
    def test_all_ints_keep_the_base(self):
        assert _scaled([3, -1, 0, 7]) == (1, [3, -1, 0, 7])
        assert _scaled((3, 5), 4) == (4, [12, 20])

    def test_mixed_fractions_take_the_lcm_with_the_base(self):
        scale, ints = _scaled([Fraction(1, 4), 2, Fraction(-5, 6)], 9)
        assert scale == 36 and ints == [9, 72, -30]
        assert all(type(x) is int for x in ints)

    def test_a_common_multiple_base_is_kept(self):
        assert _scaled([Fraction(1, 3), Fraction(1, 2)], 12) == (12, [4, 6])

    def test_empty_input_returns_the_base(self):
        assert _scaled([]) == (1, [])
        assert _scaled((), 6) == (6, [])

    def test_unscaled_is_an_int_when_integral(self):
        for x, scale, want in [(12, 4, 3), (0, 7, 0), (-12, 4, -3), (5, 1, 5), (-5, 1, -5)]:
            got = _unscaled(x, scale)
            assert got == want and type(got) is int
        for x, scale, want in [(6, 4, Fraction(3, 2)), (-2, 6, Fraction(-1, 3))]:
            got = _unscaled(x, scale)
            assert got == want and type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @given(st.lists(rationals, max_size=6), st.integers(1, 60))
    def test_unscaled_inverts_scaled(self, values, base):
        scale, ints = _scaled(values, base)
        assert scale % base == 0 and all(type(x) is int for x in ints)
        back = [_unscaled(x, scale) for x in ints]
        assert back == values
        assert [type(x) is int for x in back] == [Fraction(x).denominator == 1 for x in values]
