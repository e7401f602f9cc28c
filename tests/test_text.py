"""The text boundary: signed sums, powers, the scanner, and round trips
of printed forms back through the parsers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pdc.descendents import (DescElement, DescParseError, format_element, gen,
                             parse_element)
from pdc.fields import GaussianRational
from pdc.polynomial import Polynomial
from pdc.ratfun import RationalFunction, RFParseError, parse_rf
from pdc.text import ParseError, Scanner, power, signed_sum


class TestPrinter:
    def test_power(self):
        assert power("q", 0) == ""
        assert power("q", 1) == "q"
        assert power("u", -3) == "u^-3"
        assert power("lam2", 2) == "lam2^2"

    def test_plain_coefficients_carry_the_sign(self):
        terms = [(Fraction(-1), "x"), (Fraction(0), "y"), (Fraction(3, 2), ""),
                 (Fraction(-2), "z"), (Fraction(1), "w")]
        assert signed_sum(terms) == "-x + 3/2 - 2*z + w"

    def test_unit_constant_is_kept(self):
        assert signed_sum([(Fraction(1), "")]) == "1"
        assert signed_sum([(Fraction(-1), "")]) == "-1"

    def test_other_coefficients_are_parenthesised(self):
        terms = [(GaussianRational(0, -1), "q"), (GaussianRational(2, 1), "")]
        assert signed_sum(terms) == "(-1*i)*q + (2+1*i)"

    def test_no_terms_is_zero(self):
        assert signed_sum([]) == "0"
        assert signed_sum([(Fraction(0), "x")]) == "0"


class TestScanner:
    def test_cursor_operations(self):
        s = Scanner("  ab12 ( c")
        assert s.peek() == "a"
        assert s.take(str.isalpha) == "ab"
        assert s.take(str.isdigit) == "12"
        assert s.accept("+-") == ""
        s.expect("(")
        assert s.skip_space() == 9
        with pytest.raises(ParseError) as info:
            s.expect(")")
        assert info.value.pos == 9 and "expected ')'" in str(info.value)

    def test_digits_are_ascii_only(self):
        s = Scanner("12\u00b23")
        assert s.digits() == "12"
        assert s.digits() == "" and s.pos == 2
        assert "\u00b2".isdigit()  # what str.isdigit would have taken

    def test_finish_and_unexpected(self):
        s = Scanner("x ")
        with pytest.raises(ParseError, match="unexpected 'x'"):
            s.finish(None)
        s.pos = 2
        assert s.finish(7) == 7
        with pytest.raises(ParseError, match="unexpected end of input"):
            s.unexpected()

    def test_sum_of(self):
        s = Scanner("-1 + 20 - 3")

        def term():
            s.skip_space()
            return int(s.take(str.isdigit))
        assert s.sum_of(term) == -1 + 20 - 3
        assert s.finish(0) == 0

    def test_rational(self):
        s = Scanner(" 12 / 8*x")
        value = s.rational()
        assert value == Fraction(3, 2) and s.text[s.pos:] == "*x"
        s = Scanner("6/3")
        value = s.rational()
        assert value == 2 and type(value) is Fraction
        s = Scanner("7/x")
        value = s.rational()
        assert value == 7 and type(value) is int
        assert s.text[s.pos:] == "/x"  # a "/" without digits stays unread
        with pytest.raises(ParseError, match="zero denominator"):
            Scanner("1/0").rational()
        with pytest.raises(ParseError, match="unexpected 'x'"):
            Scanner("x").rational()

    def test_parser_errors_keep_their_classes(self):
        with pytest.raises(DescParseError) as info:
            parse_element("ch3(p")
        assert isinstance(info.value, ParseError) and info.value.pos == 5
        with pytest.raises(RFParseError) as info:
            parse_rf("(1+q")
        assert isinstance(info.value, ParseError) and info.value.pos == 4
        assert not issubclass(RFParseError, DescParseError)

    def test_non_ascii_digits_are_positioned_errors(self):
        with pytest.raises(DescParseError) as info:
            parse_element("ch\u00b2(p)")
        assert info.value.pos == 2
        with pytest.raises(DescParseError) as info:
            parse_element("\u00b2*ch2(p)")
        assert info.value.pos == 0
        with pytest.raises(RFParseError) as info:
            parse_rf("q^\u00b2")
        assert info.value.pos == 2
        with pytest.raises(RFParseError) as info:
            parse_rf("1 + \u00b2")
        assert info.value.pos == 4
        # ASCII digits, fractions and spacing parse as before
        assert parse_element(" 3 / 4 * ch2(p)") == parse_element("3/4*ch2(p)")
        assert parse_rf("q ^ 2 + 10") == parse_rf("q^2+10")
        assert not issubclass(DescParseError, RFParseError)


generators = st.builds(gen, st.integers(0, 12), st.integers(0, 4))
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7)
elements = st.dictionaries(st.lists(generators, max_size=3).map(tuple),
                           coefficients, max_size=5).map(DescElement)
polynomials = st.lists(coefficients, max_size=6).map(
    lambda cs: Polynomial("Q", cs))


class TestRoundTrips:
    @given(elements)
    def test_descendent_elements(self, e):
        assert parse_element(format_element(e)) == e

    @given(polynomials, polynomials.filter(bool))
    def test_rational_functions(self, num, den):
        F = RationalFunction(num, den)
        assert parse_rf(F.to_str()) == F
