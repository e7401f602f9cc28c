"""Laurent expansion engines and truncated-series arithmetic."""

import random
from fractions import Fraction

import pytest
import sympy

from pdc.fields import QI, GaussianRational, I, Q
from pdc.laurent import LaurentSeries, laurent_expand, u_expand
from pdc.polynomial import Polynomial
from pdc.ratfun import RationalFunction, parse_rf
from pdc.series import builtin_db, key_from_str

U, X = sympy.symbols("u q")


def sympy_laurent_coeffs(expr, var, lo, order):
    ser = sympy.series(expr, var, 0, order).removeO()
    return {n: sympy.nsimplify(ser.coeff(var, n)) for n in range(lo, order)}


class TestLaurentExpand:
    def test_matches_sympy_on_random_functions(self):
        rng = random.Random(20)
        for _ in range(15):
            num = Polynomial(Q, [Fraction(rng.randint(-4, 4))
                                 for _ in range(rng.randint(1, 5))])
            den = Polynomial(Q, [0] * rng.randint(0, 2)
                             + [1] + [Fraction(rng.randint(-3, 3))
                                      for _ in range(rng.randint(0, 3))])
            F = RationalFunction(num, den)
            S = laurent_expand(F, 8)
            expr = (sum(sympy.Rational(c) * X ** k
                        for k, c in enumerate(F.num.coeffs))
                    / sum(sympy.Rational(c) * X ** k
                          for k, c in enumerate(F.den.coeffs)))
            expect = sympy_laurent_coeffs(expr, X, -4, 9)
            for n in range(-4, 9):
                assert sympy.Rational(S.coeff(n)) == expect[n], (F, n)

    def test_max_exp_is_inclusive(self):
        S = laurent_expand(parse_rf("1/(1-q)"), 5)
        assert S.order == 6
        assert S.coeff(5) == 1
        with pytest.raises(ValueError):
            S.coeff(6)

    def test_pole_at_origin(self):
        S = laurent_expand(parse_rf("(1+q)/q^3"), 2)
        assert S.min_exp == -3
        assert S.as_dict() == {-3: 1, -2: 1}

    def test_zero_function_and_empty_window(self):
        S = laurent_expand(RationalFunction.zero(Q), 4)
        assert S.is_zero and S.min_exp == S.order == 5
        # window entirely above the requested order
        T = laurent_expand(parse_rf("q^9"), 4)
        assert T.is_zero and T.order == 5


def sympy_gaussian(c):
    c = GaussianRational.of(c)
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def assert_u_expand_matches_sympy(F, d):
    S = u_expand(F, d, 6)
    expr = (sympy.exp(-sympy.I * d * U / 2)
            * (sympy.Rational(1) * sum(
                sympy_gaussian(c) * X ** k
                for k, c in enumerate(F.num.coeffs))
               / sum(sympy_gaussian(c) * X ** k
                     for k, c in enumerate(F.den.coeffs)))
            .subs(X, -sympy.exp(sympy.I * U)))
    expect = sympy_laurent_coeffs(expr, U, -6, 7)
    for n in range(-6, 7):
        got = sympy_gaussian(S.coeff(n))
        assert sympy.simplify(got - expect[n]) == 0, (F, n)


def over_qi(F, scale=1):
    """F with coefficients in Qi and its numerator multiplied by scale."""
    return RationalFunction(Polynomial(QI, [scale * c for c in F.num.coeffs]),
                            Polynomial(QI, F.den.coeffs))


class TestUExpand:
    def test_matches_sympy_oracle(self):
        cases = [("q + 2*q^2 + q^3", 4), ("q/(1+q)^2", 0),
                 ("q*(1-q)/(1+q)^3", 4), ("(1+q^2)/(1+q)^2", 2)]
        for text, d in cases:
            assert_u_expand_matches_sympy(parse_rf(text), d)

    def test_gaussian_input_matches_sympy_oracle(self):
        F = RationalFunction(
            Polynomial(QI, [0, GaussianRational(1, 2),
                            GaussianRational(3, -1), GaussianRational(0, -1)]),
            Polynomial(QI, [1, 2, 1]))
        for d in (0, 3):
            assert_u_expand_matches_sympy(F, d)

    def test_gaussian_input_is_i_times_rational_input(self):
        db = builtin_db()
        for text, d in [("P3:1:ch7(1)", 4), ("P3:1:ch2(p)*ch2(p)", 4),
                        ("P3:2:ch11(1)", 8)]:
            F = db.get(key_from_str(text)).value
            assert u_expand(over_qi(F, I), d, 7) == u_expand(F, d, 7).scale(I)
            assert u_expand(over_qi(F), d, 7) == u_expand(F, d, 7)

    def test_two_minus_two_cos(self):
        S = u_expand(parse_rf("q + 2*q^2 + q^3"), 4, 10)
        assert S.as_dict() == {2: GaussianRational(1),
                               4: GaussianRational(Fraction(-1, 12)),
                               6: GaussianRational(Fraction(1, 360)),
                               8: GaussianRational(Fraction(-1, 20160)),
                               10: GaussianRational(Fraction(1, 1814400))}

    def test_inverse_four_sine_squared(self):
        S = u_expand(parse_rf("q/(1+q)^2"), 0, 8)
        assert S.as_dict() == {
            -2: GaussianRational(1),
            0: GaussianRational(Fraction(1, 12)),
            2: GaussianRational(Fraction(1, 240)),
            4: GaussianRational(Fraction(1, 6048)),
            6: GaussianRational(Fraction(1, 172800)),
            8: GaussianRational(Fraction(1, 5322240))}

    def test_pole_order_matches_pole_at_minus_one(self):
        for text, expect in [("q/(1+q)^2", -2), ("1/(1+q)^3", -3),
                             ("q/(1+q)", -1)]:
            S = u_expand(parse_rf(text), 0, 4)
            assert S.min_exp == expect, text

    def test_rejects_parameter_fields(self):
        F = RationalFunction.one("Q_s")
        with pytest.raises(TypeError):
            u_expand(F, 0, 4)


class TestSeriesArithmetic:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LaurentSeries("x", 0, [1], 1)
        with pytest.raises(ValueError):
            LaurentSeries("q", 0, [1, 2], 1)

    def test_leading_zeros_trimmed(self):
        S = LaurentSeries("q", -1, [0, 0, 5], 2)
        assert S.min_exp == 1 and S.coeffs == (5,)

    def test_add_mul_track_truncation(self):
        a = LaurentSeries("q", 0, [1, 1, 1], 3)
        b = LaurentSeries("q", 1, [2, 3], 3)
        s = a + b
        assert s.order == 3 and s.as_dict() == {0: 1, 1: 3, 2: 4}
        p = a * b
        # b's unknown tail at order 3 meets a's constant term, so the
        # product is exact only below q^3
        assert p.order == 3
        assert p.as_dict() == {1: 2, 2: 5}

    def test_mul_agrees_with_expand(self):
        f = parse_rf("1/(1-q)")
        g = parse_rf("(1+q)/(1-q^2)")
        lhs = laurent_expand(f, 9) * laurent_expand(g, 9)
        rhs = laurent_expand(f * g, 9)
        for n in range(0, 10):
            assert lhs.coeff(n) == rhs.coeff(n)

    def test_scale_and_negate(self):
        a = LaurentSeries("q", -1, [1, 2, 3], 2)
        assert a.scale(Fraction(1, 2)).as_dict() == {
            -1: Fraction(1, 2), 0: 1, 1: Fraction(3, 2)}
        assert a.scale(0).is_zero
        assert (-a).as_dict() == {-1: -1, 0: -2, 1: -3}

    def test_substitute_negated(self):
        S = laurent_expand(parse_rf("1/(1-q)"), 5)
        T = S.substitute_negated()
        assert T.as_dict() == {n: (-1) ** n for n in range(6)}

    def test_conjugate(self):
        S = LaurentSeries("u", 0, [GaussianRational(1, 2)], 1, "Qi")
        assert S.conjugate().coeff(0) == GaussianRational(1, -2)
        plain = LaurentSeries("q", 0, [Fraction(1, 3)], 1)
        assert plain.conjugate() == plain

    def test_equality_is_window_sensitive(self):
        a = LaurentSeries("q", 0, [1, 2], 2)
        b = LaurentSeries("q", 0, [1, 2, 0], 3)
        assert a != b
        assert a == LaurentSeries("q", 0, [1, 2], 2)

    def test_incompatible_operands_rejected(self):
        a = LaurentSeries("q", 0, [1], 1)
        b = LaurentSeries("u", 0, [1], 1)
        with pytest.raises(ValueError):
            a + b

    def test_str_format(self):
        S = LaurentSeries("q", -1, [1, 0, Fraction(-3, 2)], 2)
        assert str(S) == "q^-1 - 3/2*q + O(q^2)"
