"""Descendent algebra: generators, normalization, parsing, printing."""

import random
from fractions import Fraction

import pytest

from pdc.descendents import (CLASS_NAMES, DescElement, DescParseError,
                             Generator, boundary_split, class_degree,
                             format_element,
                             format_monomial, from_tau, gen,
                             generator_degree, kunneth_pairs, monomial,
                             monomial_degree, normalize, parse_element)

from helpers import kunneth_expand


class TestGenerators:
    def test_gen_accepts_names_and_indices(self):
        assert gen(3, "p") == gen(3, 3) == Generator(3, 3)
        assert str(gen(2, "H")) == "ch2(H)"
        assert str(gen(5, "p0")) == "ch5(p0)"

    def test_gen_validation(self):
        with pytest.raises(ValueError):
            gen(-1, "p")
        with pytest.raises(ValueError):
            gen(2, 7)
        with pytest.raises(KeyError):
            gen(2, "X")

    def test_tau_shift(self):
        assert from_tau(0, "p") == gen(2, "p")
        assert from_tau(5, "1") == gen(7, "1")
        with pytest.raises(ValueError):
            from_tau(-1, "p")

    def test_degrees(self):
        assert [class_degree(k) for k in range(5)] == [0, 1, 2, 3, 3]
        assert generator_degree(gen(3, "1")) == 0
        assert generator_degree(gen(2, "H")) == 0
        assert generator_degree(gen(4, "p")) == 4
        assert generator_degree(gen(4, "p0")) == 4
        assert monomial_degree(monomial([gen(2, "p"), gen(2, "p")])) == 4

    def test_monomial_is_sorted(self):
        a, b = gen(7, "1"), gen(3, "p")
        assert monomial([a, b]) == monomial([b, a])


class TestElementAlgebra:
    def test_zero_and_constant(self):
        assert DescElement.zero().is_zero
        assert DescElement.constant(0).is_zero
        e = DescElement.constant(Fraction(3, 4))
        assert e.terms == {(): Fraction(3, 4)}

    def test_integral_coefficients_are_ints(self):
        m = monomial((gen(3, "p"),))
        two = DescElement({m: Fraction(4, 2)})
        assert two.terms == {m: 2} and type(two.terms[m]) is int
        assert type(DescElement.constant("6/3").terms[()]) is int
        assert type(DescElement.of(gen(3, "p"), coeff=Fraction(3))
                    .terms[m]) is int
        assert type(two.scale(Fraction(1, 2)).terms[m]) is int
        parsed = parse_element("3/4*ch3(p)")
        assert parsed.terms == {m: Fraction(3, 4)}
        assert type(parsed.terms[m]) is Fraction
        assert type(parse_element("2*ch3(p)").terms[m]) is int

    def test_commutative_ring_ops(self):
        a = DescElement.of(gen(3, "p"))
        b = DescElement.of(gen(4, "1"), coeff=2)
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) - b == a
        assert a * (a + b) == a * a + a * b
        assert 3 * a == a.scale(3) == a * 3

    def test_cancellation_drops_terms(self):
        a = DescElement.of(gen(3, "p"))
        assert (a - a).is_zero
        assert (a + a.scale(-1)).terms == {}

    def test_permuted_keys_merge(self):
        a, b = gen(3, "p"), gen(7, "1")
        merged = DescElement({(a, b): 1, (b, a): Fraction(1, 2)})
        assert merged.terms == {monomial((a, b)): Fraction(3, 2)}
        assert DescElement({(a, b): 1, (b, a): -1}).is_zero

    def test_immutability_and_unhashable(self):
        a = DescElement.of(gen(3, "p"))
        with pytest.raises(AttributeError):
            a.terms = {}
        with pytest.raises(TypeError):
            hash(a)


class TestNormalize:
    def test_point_subscript_zero_gives_minus_one(self):
        e = DescElement.of(gen(0, "p"), gen(3, "p"))
        assert normalize(e) == DescElement.of(gen(3, "p"), coeff=-1)
        double = DescElement.of(gen(0, "p"), gen(0, "p"), gen(4, "1"))
        assert normalize(double) == DescElement.of(gen(4, "1"))

    def test_low_classes_at_subscript_zero_annihilate(self):
        for cls in ("1", "H", "L"):
            e = DescElement.of(gen(0, cls), gen(3, "p"))
            assert normalize(e).is_zero

    def test_subscript_one_annihilates(self):
        for cls in CLASS_NAMES:
            e = DescElement.of(gen(1, cls), gen(3, "p"))
            assert normalize(e).is_zero

    def test_fixed_point_class_is_inert(self):
        e = DescElement.of(gen(0, "p0"), gen(3, "p"))
        assert normalize(e) == e

    def test_idempotent_on_random_elements(self):
        rng = random.Random(40)
        for _ in range(30):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                factors = tuple(gen(rng.randint(0, 5), rng.randint(0, 4))
                                for _ in range(rng.randint(0, 3)))
                terms[factors] = Fraction(rng.randint(-3, 3))
            e = DescElement(terms)
            once = normalize(e)
            assert normalize(once) == once

    def test_boundary_split_sorts_every_factor(self):
        # kept, the sign of the ch_0(p) factors, and every killed factor
        factors = monomial((gen(0, "1"), gen(0, "p"), gen(0, "p"),
                            gen(0, "p0"), gen(1, "p"), gen(2, "H"),
                            gen(0, "p")))
        kept, coeff, killed = boundary_split(factors, Fraction(3, 2))
        assert kept == monomial((gen(0, "p0"), gen(2, "H")))
        assert coeff == Fraction(-3, 2)
        assert sorted(killed) == sorted([gen(0, "1"), gen(1, "p")])

    def test_collision_after_normalization_merges(self):
        e = (DescElement.of(gen(0, "p"), gen(3, "p"))
             + DescElement.of(gen(3, "p")))
        assert normalize(e).is_zero


class TestKunneth:
    def test_pairs(self):
        assert kunneth_pairs(0) == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert kunneth_pairs(1) == [(1, 3), (2, 2), (3, 1)]
        assert kunneth_pairs(2) == [(2, 3), (3, 2)]
        assert kunneth_pairs(3) == [(3, 3)]
        with pytest.raises(ValueError):
            kunneth_pairs(4)

    def test_expand(self):
        out = kunneth_expand(4, 5, 3)
        assert out == DescElement.of(gen(4, "p"), gen(5, "p"))
        out = kunneth_expand(2, 2, 2)
        assert out == (DescElement.of(gen(2, "L"), gen(2, "p"))
                       + DescElement.of(gen(2, "p"), gen(2, "L")))


class TestParsingAndPrinting:
    def test_basic_forms(self):
        assert parse_element("ch3(p)") == DescElement.of(gen(3, "p"))
        assert parse_element("tau1(p)") == DescElement.of(gen(3, "p"))
        assert parse_element("2*ch3(p)") == DescElement.of(gen(3, "p"),
                                                           coeff=2)
        assert parse_element("3/4*ch3(H)*ch3(p)") == DescElement.of(
            gen(3, "H"), gen(3, "p"), coeff=Fraction(3, 4))
        assert parse_element("ch3(p) - ch3(p)").is_zero
        assert parse_element("1") == DescElement.constant(1)

    def test_round_trip_random(self):
        rng = random.Random(41)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                factors = tuple(gen(rng.randint(0, 9), rng.randint(0, 4))
                                for _ in range(rng.randint(0, 3)))
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if c:
                    terms[factors] = c
            e = DescElement(terms)
            assert parse_element(format_element(e)) == e

    def test_error_positions(self):
        with pytest.raises(DescParseError) as info:
            parse_element("ch3(p")
        assert info.value.pos == 5
        with pytest.raises(DescParseError) as info:
            parse_element("ch3(x)")
        assert info.value.pos == 4
        with pytest.raises(DescParseError):
            parse_element("foo3(p)")
        with pytest.raises(DescParseError):
            parse_element("ch(p)")
        with pytest.raises(DescParseError):
            parse_element("ch3(p) ch4(p)")
        with pytest.raises(DescParseError):
            parse_element("")

    def test_format_monomial(self):
        assert format_monomial(()) == "1"
        assert format_monomial(monomial([gen(3, "p"), gen(2, "H")])) == (
            "ch2(H)*ch3(p)")

    def test_format_signs_and_units(self):
        e = (DescElement.of(gen(3, "p"), coeff=-1)
             + DescElement.of(gen(4, "1"), coeff=Fraction(1, 2)))
        assert format_element(e) == "-ch3(p) + 1/2*ch4(1)"
        assert format_element(DescElement.zero()) == "0"
        assert format_element(DescElement.constant(-2)) == "-2"
