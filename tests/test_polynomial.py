"""Dense univariate polynomials over the exact coefficient fields."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from pdc import polynomial
from pdc.fields import FIELDS, Q
from pdc.polynomial import Polynomial


def rand_poly(rng, max_deg=6):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(rng.randint(0, max_deg + 1))]
    return Polynomial(Q, coeffs)


def to_sympy(p: Polynomial):
    x = sympy.symbols("q")
    return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(p.coeffs))


def from_sympy(expr) -> Polynomial:
    coeffs = sympy.Poly(expr, sympy.symbols("q")).all_coeffs()[::-1]
    return Polynomial(Q, [Fraction(int(c.p), int(c.q)) for c in coeffs])


def lowest_one(p: Polynomial) -> Polynomial:
    """p scaled so that its lowest-order nonzero coefficient is one."""
    return p.scale(1 / p.coeffs[p.valuation]) if p else p


def sympy_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    return lowest_one(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))


def cyclotomic(m: int) -> Polynomial:
    """1 - (-q)^m, the factors of every local-curve denominator."""
    return Polynomial(Q, [1] + [0] * (m - 1) + [-(-1) ** m])


class TestArithmetic:
    def test_matches_sympy_oracle(self):
        rng = random.Random(3)
        x = sympy.symbols("q")
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            assert sympy.expand(to_sympy(a * b)
                                - to_sympy(a) * to_sympy(b)) == 0
            assert sympy.expand(to_sympy(a + b)
                                - to_sympy(a) - to_sympy(b)) == 0
            assert sympy.expand(to_sympy(a - b)
                                - to_sympy(a) + to_sympy(b)) == 0

    def test_trimming_and_degree(self):
        p = Polynomial(Q, [1, 2, 0, 0])
        assert p.degree == 1
        assert Polynomial.zero(Q).degree == -1
        assert Polynomial.zero(Q).valuation == 0
        assert Polynomial(Q, [0, 0, 5]).valuation == 2

    def test_shift_and_reversed(self):
        p = Polynomial(Q, [0, 1, 3])        # q + 3q^2
        assert p.shift(2).coeffs == (0, 0, 0, 1, 3)
        assert p.reversed_().coeffs == (3, 1)  # trailing q-power dropped

    def test_deriv(self):
        p = Polynomial(Q, [5, 1, 3])
        assert p.deriv().coeffs == (1, 6)

    def test_pow(self):
        p = Polynomial(Q, [1, 1])
        assert (p ** 3).coeffs == (1, 3, 3, 1)
        assert (p ** 0).coeffs == (1,)


class TestDivision:
    def test_divmod_identity_random(self):
        rng = random.Random(4)
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            if b.is_zero:
                continue
            quot, rem = a.divmod_(b)
            assert quot * b + rem == a
            assert rem.degree < b.degree

    def test_exact_div_raises_on_remainder(self):
        a = Polynomial(Q, [1, 1])
        b = Polynomial(Q, [1, 1, 1])
        with pytest.raises(ValueError):
            b.exact_div(a)

    def test_gcd_matches_sympy(self):
        rng = random.Random(5)
        x = sympy.symbols("q")
        for _ in range(30):
            a, b = rand_poly(rng, 4), rand_poly(rng, 4)
            c = rand_poly(rng, 3)
            a, b = a * c, b * c
            if a.is_zero or b.is_zero:
                continue
            g = Polynomial.gcd(a, b)
            sg = sympy.gcd(to_sympy(a), to_sympy(b), x)
            assert g.degree == sympy.degree(sg, x)
            # our normalization: lowest-order nonzero coefficient is one
            assert g.coeffs[g.valuation] == Fraction(1)
            assert g.divides(a) and g.divides(b)

    def test_gcd_over_gaussian_field(self):
        f = FIELDS["Qi"]
        from pdc.fields import I, GaussianRational
        # (q - i)(q + i) = q^2 + 1 shares (q - i) with (q - i)(q - 1)
        qi = Polynomial(f, [-I + 0, f.one])      # q - i
        a = qi * Polynomial(f, [I + 0, f.one])   # q^2 + 1
        b = qi * Polynomial(f, [-f.one, f.one])
        g = Polynomial.gcd(a, b)
        assert g.degree == 1
        scaled = qi.scale(1 / (-I + 0))
        assert g == scaled


small_polys = st.lists(
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    max_size=6).map(lambda cs: Polynomial(Q, cs))


class TestIntegerGcd:
    """The integer core behind Polynomial.gcd over Q."""

    @given(small_polys, small_polys, small_polys,
           st.lists(st.integers(1, 7), max_size=4))
    def test_planted_factor_matches_sympy(self, a, b, c, ms):
        # fractional and negative-leading coefficients, constants and zero
        # all come from small_polys; the planted factor may carry
        # cyclotomic factors 1 - (-q)^m, repeated
        for m in ms:
            c = c * cyclotomic(m)
        a, b = a * c, b * c
        g = Polynomial.gcd(a, b)
        assert g == sympy_gcd(a, b)
        if g:
            assert g.divides(a) and g.divides(b)

    def test_local_curve_shape(self):
        # a numerator against a product of cyclotomic powers, as in the
        # local-curve evaluator
        den = Polynomial.one(Q)
        for m in range(1, 6):
            den = den * cyclotomic(m) ** (2 * (5 // m))
        num = (cyclotomic(2) ** 3 * cyclotomic(5)
               * Polynomial(Q, [Fraction(-7, 3), 0, 4, Fraction(1, 2)]))
        num = num.shift(5)
        assert Polynomial.gcd(num, den) == sympy_gcd(num, den)

    @pytest.mark.parametrize("f, g", [
        # read back from the point 3 or 4, the gcd of each of these pairs
        # comes out as a proper divisor that still divides both inputs;
        # evaluation points above 2*min(|f|, |g|) + 2 rule this out
        ([6, -9, -1, 6, -2], [-4, 4, -1]),
        ([0, -9, 9, 4, -5, 1], [0, -3, -2, 1]),
        ([2, -1, 2, -1], [-6, 7, -2]),
        ([-2, 5, -2], [0, 6, -3, -2, 1]),
        # coprime pairs whose first integer-gcd candidate fails and whose
        # f-cofactor candidate is f itself, which does not divide g
        ([-3, -1], [1, 2, 3, -2]),
        ([3, -2], [0, 0, 2, 1]),
    ])
    def test_misleading_candidates(self, f, g):
        a, b = Polynomial(Q, f), Polynomial(Q, g)
        assert Polynomial.gcd(a, b) == sympy_gcd(a, b)

    def test_prs_fallback_alone(self, monkeypatch):
        # with no evaluation point allowed, every gcd goes through the PRS
        monkeypatch.setattr(polynomial, "_HEU_TRIES", 0)
        assert polynomial._heu_gcd([1, 1], [1, 1]) is None
        rng = random.Random(11)
        for _ in range(30):
            c = rand_poly(rng, 3) * cyclotomic(rng.randint(1, 4))
            a, b = rand_poly(rng, 4) * c, rand_poly(rng, 4) * c
            assert Polynomial.gcd(a, b) == sympy_gcd(a, b)

    def test_prs_on_integer_lists(self):
        # (1 + q)(2 - q) and (1 + q)(3 + q^2): gcd 1 + q up to sign
        g = polynomial._prs_gcd([2, 1, -1], [3, 3, 1, 1])
        assert g in ([1, 1], [-1, -1])
        assert polynomial._prs_gcd([4, 0, -1], [3, 1]) in ([1], [-1])

    def test_lowest_coefficient_one(self):
        common = Polynomial(Q, [6, 4])                        # 6 + 4q
        g = Polynomial.gcd(common * Polynomial(Q, [5, 1]),
                           common * Polynomial(Q, [-7, 1]))
        assert g.coeffs == (1, Fraction(2, 3))
        # q^2 (3 - q) against q^3 (3 - q): lowest coefficient sits at q^2
        base = Polynomial(Q, [3, -1]).shift(2)
        g = Polynomial.gcd(base * Polynomial(Q, [1, 1]), base.shift(1))
        assert g.coeffs == (0, 0, 1, Fraction(-1, 3))
        # coprime inputs, and a constant against a polynomial
        coprime = Polynomial(Q, [Fraction(1, 2), -1])
        assert Polynomial.gcd(Polynomial(Q, [1, 1]), coprime).coeffs == (1,)
        assert Polynomial.gcd(Polynomial.const(Q, Fraction(-3, 4)),
                              common).coeffs == (1,)
        assert Polynomial.gcd(Polynomial.zero(Q), common).coeffs == (
            1, Fraction(2, 3))
        assert Polynomial.gcd(Polynomial.zero(Q), Polynomial.zero(Q)).is_zero
