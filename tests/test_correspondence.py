"""Correspondence symbols, set-partition expansions, and parity checks."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pdc.correspondence import (CorrespondenceTerm, KCoefficient, expand_bar,
                                format_expansion, format_term, leading_term,
                                parity_reality_check)
from pdc.laurent import LaurentSeries, u_expand
from pdc.partitions import koszul_sign, partitions_of, set_partitions
from pdc.ratfun import parse_rf


def expand_bar_reference(alpha, degrees):
    """expand_bar by building and testing one KCoefficient per block and
    candidate target, every target size up to the block size."""
    terms = []
    for blocks in set_partitions(len(alpha)):
        blocks = tuple(tuple(b) for b in blocks)
        choices = []
        for block in blocks:
            alpha_s = tuple(sorted((alpha[i - 1] for i in block),
                                   reverse=True))
            choices.append([
                hat for size in range(1, sum(alpha_s) + 1)
                for hat in partitions_of(size)
                if not KCoefficient(alpha_s, hat).is_zero])
        sign = koszul_sign(blocks, [d % 2 for d in degrees])
        for targets in product(*choices):
            terms.append(CorrespondenceTerm(blocks, targets, sign))
    terms.sort(key=lambda t: (t.blocks, t.targets))
    return terms


def format_expansion_reference(alpha, terms):
    """format_expansion through str() of each term's KCoefficients."""
    return "\n".join(
        ("- " if t.sign < 0 else "+ ")
        + "*".join(str(c) for c in t.coefficients(alpha)) for t in terms)


def assert_matches_reference(alpha, degrees):
    terms = expand_bar(alpha, degrees)
    assert terms == expand_bar_reference(alpha, degrees), (alpha, degrees)
    assert format_expansion(alpha, terms) == format_expansion_reference(
        alpha, terms), (alpha, degrees)


# sizes up to 14, past the exhaustive check's 9, with at most 4 parts so
# the reference stays cheap
partitions = st.lists(st.integers(1, 6), min_size=1, max_size=4).filter(
    lambda parts: sum(parts) <= 14).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


class TestKCoefficient:
    def test_validation(self):
        with pytest.raises(ValueError):
            KCoefficient((), (1,))
        with pytest.raises(ValueError):
            KCoefficient((1, 2), (1,))
        with pytest.raises(ValueError):
            KCoefficient((2,), (0,))

    @pytest.mark.parametrize("call", [
        lambda: KCoefficient((1.9,), (1,)),
        lambda: KCoefficient((1,), (True,)),
        lambda: KCoefficient((2, 1), ("1",)),
        lambda: expand_bar((2.5,)),
        lambda: expand_bar((2.0, 1)),
        lambda: leading_term(("3", 1)),
        lambda: format_expansion((False,)),
    ], ids=["float", "bool", "str", "expand_float", "expand_integral_float",
            "leading_str", "format_bool"])
    def test_parts_must_be_ints(self, call):
        # a non-integer part is refused, never truncated to an int
        with pytest.raises(ValueError, match="must be integers"):
            call()

    def test_homogeneity_values(self):
        # |a| + len(a) - |ah| - len(ah) - 3*(len(a) - 1)
        assert KCoefficient((2,), (1,)).homogeneity == 1
        assert KCoefficient((2,), (2,)).homogeneity == 0
        assert KCoefficient((1, 1), (1,)).homogeneity == -1
        assert KCoefficient((3, 1), (1,)).homogeneity == 1
        assert KCoefficient((3, 1), (1, 1)).homogeneity == -1

    def test_is_zero(self):
        assert not KCoefficient((2,), (1,)).is_zero
        assert KCoefficient((1,), (2,)).is_zero       # target too large
        assert KCoefficient((1, 1), (1,)).is_zero     # negative homogeneity
        assert not KCoefficient((4, 2), (3,)).is_zero

    def test_equal_size_forces_equality_for_single_blocks(self):
        # when |alpha_hat| == |alpha|, homogeneity = 3 - 2*len(alpha)
        # - len(alpha_hat) + ... is nonnegative only in the minimal case
        for n in range(1, 8):
            for a in partitions_of(n):
                if not a:
                    continue
                for ah in partitions_of(n):
                    k = KCoefficient(a, ah)
                    if not k.is_zero:
                        assert len(a) == 1 and len(ah) == 1 and a == ah

    def test_str(self):
        assert str(KCoefficient((2, 1), (1,))) == "K{(2,1)->(1)}"


class TestExpandBar:
    def test_single_part(self):
        terms = expand_bar((2,))
        assert [t.targets for t in terms] == [((1,),), ((2,),)]
        assert all(t.blocks == ((1,),) and t.sign == 1 for t in terms)

    def test_three_ones_collapses_to_one_term(self):
        # any block holding two size-one parts has negative homogeneity
        # for every target, so only the all-singletons grouping survives
        terms = expand_bar((1, 1, 1))
        assert len(terms) == 1
        t = terms[0]
        assert t.blocks == ((1,), (2,), (3,))
        assert t.targets == ((1,), (1,), (1,))
        assert t.sign == 1

    def test_two_one_expansion(self):
        terms = expand_bar((2, 1))
        rendered = {(t.blocks, t.targets) for t in terms}
        assert rendered == {
            (((1,), (2,)), ((1,), (1,))),
            (((1,), (2,)), ((2,), (1,))),
            (((1, 2),), ((1,),)),
        }

    def test_no_structurally_zero_symbols_emitted(self):
        rng = random.Random(60)
        for _ in range(25):
            n = rng.randint(1, 5)
            alpha = tuple(rng.choice(partitions_of(n)))
            if not alpha:
                continue
            for term in expand_bar(alpha):
                for coeff in term.coefficients(alpha):
                    assert not coeff.is_zero

    def test_every_block_present_exactly_once(self):
        for term in expand_bar((3, 2, 1)):
            flat = sorted(i for block in term.blocks for i in block)
            assert flat == [1, 2, 3]
            assert len(term.blocks) == len(term.targets)

    def test_odd_degrees_produce_signs(self):
        plain = expand_bar((1, 1))
        signed = expand_bar((1, 1), degrees=[1, 1])
        assert {t.sign for t in plain} == {1}
        # canonical block order never inverts the slot order, so the sign
        # stays +1 even with odd degrees
        assert {t.sign for t in signed} == {1}

    def test_degrees_length_mismatch(self):
        with pytest.raises(ValueError):
            expand_bar((2, 1), degrees=[0])

    def test_term_count_grows_with_parts(self):
        # coarse sanity: more or larger parts, more terms
        assert len(expand_bar((1,))) == 1
        assert len(expand_bar((2,))) == 2
        assert len(expand_bar((2, 1))) == 3
        assert len(expand_bar((2, 2))) > len(expand_bar((2, 1)))


class TestExpandBarReference:
    @pytest.mark.parametrize("parity", [0, 1])
    def test_every_small_partition(self, parity):
        for size in range(1, 10):
            for alpha in partitions_of(size):
                if len(alpha) <= 7:
                    assert_matches_reference(alpha, [parity] * len(alpha))

    def test_odd_degrees_give_both_signs(self):
        terms = expand_bar((3, 3, 3), degrees=[1, 1, 1])
        assert len(terms) == 146
        assert {t.sign for t in terms} == {1, -1}
        assert "\n- K{" in format_expansion((3, 3, 3), terms)

    @given(partitions, st.data())
    def test_random_alpha_and_degrees(self, alpha, data):
        degrees = data.draw(st.lists(st.integers(0, 3), min_size=len(alpha),
                                     max_size=len(alpha)))
        assert_matches_reference(alpha, degrees)


class TestLeadingTerm:
    def test_structure(self):
        t = leading_term((3, 1))
        assert t.blocks == ((1,), (2,))
        assert t.targets == ((3,), (1,))
        assert t.sign == 1
        assert t.iu_exponent == 2 - 4

    def test_exponent_random(self):
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randint(1, 12)
            alpha = tuple(rng.choice(partitions_of(n)))
            if not alpha:
                continue
            t = leading_term(alpha)
            assert t.iu_exponent == len(alpha) - sum(alpha)
            assert t.targets == tuple((p,) for p in alpha)

    def test_leading_term_appears_in_expansion(self):
        alpha = (3, 2)
        lead = leading_term(alpha)
        matches = [t for t in expand_bar(alpha)
                   if t.blocks == lead.blocks and t.targets == lead.targets]
        assert len(matches) == 1 and matches[0].sign == 1


class TestFormatting:
    def test_format_term(self):
        t = CorrespondenceTerm(((1,), (2,)), ((2,), (1,)), 1)
        assert format_term(t, (2, 1)) == "+ K{(2)->(2)}*K{(1)->(1)}"
        minus = CorrespondenceTerm(((1, 2),), ((1,),), -1)
        assert format_term(minus, (2, 1)) == "- K{(2,1)->(1)}"

    def test_format_leading_with_exponent(self):
        t = leading_term((3, 1))
        assert format_term(t, (3, 1)) == (
            "+ (iu)^-2 K{(3)->(3)}*K{(1)->(1)}")

    def test_format_expansion_lines(self):
        text = format_expansion((2, 1))
        lines = text.split("\n")
        assert len(lines) == 3
        assert all(line.startswith(("+ ", "- ")) for line in lines)


class TestParityReality:
    def test_fixture_parities(self):
        # q-side series with even subscript sums transform with +1 and
        # give real even u-series; odd sums give -1
        cases = [("q + 2*q^2 + q^3", 4, 1),
                 ("q/12 - 5*q^2/6 + q^3/12", 4, 1),
                 ("(-2*q - q^2 + 31*q^3 - 31*q^4 + q^5 + 2*q^6)"
                  "/(18*(1+q)^3)", 4, -1),
                 ("3/4*q - 3/2*q^2 + 3/4*q^3", 4, 1),
                 ("q/(1+q)^2", 0, 1)]
        for text, d, sign in cases:
            S = u_expand(parse_rf(text), d, 8)
            assert parity_reality_check(S, sign), text
            assert not parity_reality_check(S, -sign), text

    def test_odd_series_fails_even_check(self):
        # u^3 alone: odd and real, so it passes neither signed test
        S = LaurentSeries("u", 3, [1], 4, "Qi")
        assert not parity_reality_check(S, 1)
        # S(-u) == -S holds, but u^3 has a real coefficient where sign -1
        # demands purely imaginary ones
        assert not parity_reality_check(S, -1)

    def test_sign_validation(self):
        S = LaurentSeries("u", 0, [1], 1, "Qi")
        with pytest.raises(ValueError):
            parity_reality_check(S, 0)
