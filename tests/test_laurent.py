"""Laurent expansion engines and truncated series."""

import json
import random
import time
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pdc.fields import FIELDS, QI, GaussianRational, I, Q
from pdc.laurent import (LaurentSeries, _quotient_ints, laurent_expand,
                         u_expand)
from pdc.polynomial import Polynomial
from pdc.ratfun import RationalFunction, parse_rf
from pdc.series import builtin_db, local_curve_series

from helpers import ps_quo_reference, u_expand_reference

U, X = sympy.symbols("u q")


# ---------------------------------------------------------------------------
# reference: the inverse-then-product route both expansions took before
# the quotient recurrence (reciprocal of the denominator, then a product)


def reference_mul(a: list, b: list, n: int, zero) -> list:
    out = [zero] * n
    for i, x in enumerate(a):
        if not x or i >= n:
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def reference_inverse(a: list, n: int, one) -> list:
    inv0 = one / a[0]
    zero = one * 0
    out = [inv0] + [zero] * (n - 1)
    for k in range(1, n):
        acc = zero
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                acc = acc + a[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def reference_quotient(num: list, den: list, n: int, f) -> list:
    return reference_mul(num, reference_inverse(den, n, f.one), n, f.zero)


def reference_laurent(num: list, den: list, max_exp: int, f):
    """The q-expansion of num/den through q**max_exp, from coefficient
    lists that need not be coprime or normalised."""
    vn = next(k for k, c in enumerate(num) if c)
    vd = next(k for k, c in enumerate(den) if c)
    lo, order = vn - vd, max_exp + 1
    if lo >= order:
        return LaurentSeries("q", order, [], order, f)
    return LaurentSeries("q", lo, reference_quotient(num[vn:], den[vd:],
                                                     order - lo, f),
                         order, f)


def reference_u_expand(F, d_beta: int, max_exp: int):
    """u_expand by the reference route, over F's field."""
    f = F.field
    order = max_exp + 1
    if F.is_zero:
        return LaurentSeries("u", order, [], order, QI)
    work = max(0, max_exp) + 2 * F.den.degree + F.num.degree + 2
    signed = [[(k, -c if k % 2 else c) for k, c in enumerate(p.coeffs) if c]
              for p in (F.num, F.den)]
    num_s, den_s = ([sum((c * k ** j for k, c in terms), f.zero)
                     / factorial(j) for j in range(work)] for terms in signed)
    val_d = next(k for k, c in enumerate(den_s) if c)
    val_n = next((k for k, c in enumerate(num_s) if c), None)
    if val_n is None or val_n - val_d > max_exp:
        return LaurentSeries("u", order, [], order, QI)
    lo = val_n - val_d
    count = order - lo
    quotient = reference_quotient(num_s[val_n:], den_s[val_d:], count, f)
    rate = Fraction(-d_beta, 2)
    prefactor = [f.coerce(rate ** j / factorial(j)) for j in range(count)]
    coeffs = reference_mul(quotient, prefactor, count, f.zero)
    twist = (1, I, -1, -I)
    return LaurentSeries("u", lo, [QI.coerce(c) * twist[(lo + k) % 4]
                                   for k, c in enumerate(coeffs)], order, QI)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def q_scalar(tag):
    """A coefficient over Q, or over Q_s a combination a + b*s1 + c*s2."""
    if tag == "Q":
        return small_fractions
    s1, s2, _ = FIELDS["Q_s"].gens()
    return st.tuples(small_fractions, small_fractions, small_fractions).map(
        lambda abc: abc[0] + abc[1] * s1 + abc[2] * s2)


@st.composite
def q_quotient(draw, tag):
    """(field, num, den), with coefficient lists over Q or Q_s.  Either
    list may start with up to two zeros, so F can have a pole at q = 0,
    and its lowest nonzero coefficient is any nonzero scalar.  The
    denominator is read from Q[q], as every evaluator's is: with
    parameters there, every step of an expansion over Q_s would multiply
    parameter denominators that nothing cancels."""
    f = FIELDS[tag]

    def side(scalar):
        low = draw(scalar.filter(bool))
        tail = draw(st.lists(scalar, max_size=3))
        return [f.coerce(c) for c in [0] * draw(st.integers(0, 2))
                + [low] + tail]

    return f, side(q_scalar(tag)), side(small_fractions)


@st.composite
def vanishing_quotient(draw):
    """A rational function over Q whose numerator and denominator are
    random lists times (1+q)**a and (1+q)**b, a, b <= 3, so either side
    may vanish at q = -1 to any of these orders."""
    one_plus_q = Polynomial(Q, [1, 1])

    def side():
        coeffs = draw(st.lists(small_fractions, min_size=1, max_size=5)
                      .filter(any))
        return Polynomial(Q, coeffs) * one_plus_q ** draw(st.integers(0, 3))

    return RationalFunction(side(), side())


class TestQuotientKernel:
    @given(st.lists(small_fractions, max_size=6),
           st.lists(small_fractions, min_size=1, max_size=5).filter(
               lambda d: d[0]), st.integers(0, 12))
    def test_matches_inverse_then_product(self, num, den, n):
        assert ps_quo_reference(num, den, n, Fraction(0)) == (
            reference_quotient(num, den, n, Q))

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=6),
           st.lists(st.integers(-40, 40), min_size=1, max_size=5).filter(
               lambda d: d[0]), st.integers(1, 12))
    def test_integer_quotient_matches_fraction_route(self, num, den, n):
        # one Fraction per coefficient, in lowest terms
        num = num + [0] * (n - len(num))
        got = _quotient_ints(num, den, n)
        assert got == ps_quo_reference(list(map(Fraction, num)), den, n,
                                       Fraction(0))
        assert all(type(c) is Fraction for c in got)

    @settings(max_examples=40)
    @given(st.sampled_from(["Q", "Q_s"]).flatmap(q_quotient),
           st.integers(-3, 8))
    def test_laurent_expand_matches_reference(self, case, max_exp):
        f, num, den = case
        F = RationalFunction(Polynomial(f, num), Polynomial(f, den))
        assert laurent_expand(F, max_exp) == reference_laurent(
            num, den, max_exp, f)

    @given(q_quotient("Q"), st.integers(0, 8), st.integers(-3, 8))
    def test_u_expand_matches_reference(self, case, d_beta, max_exp):
        _, num, den = case
        F = RationalFunction(Polynomial(Q, num), Polynomial(Q, den))
        assert u_expand(F, d_beta, max_exp) == reference_u_expand(
            F, d_beta, max_exp)


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

    def test_parameter_denominators_expand_on_rows(self):
        # numerator coefficients over s1 + s2, s1*s2*s3 and s2 + 1: the
        # rows carry those denominators once, where a quotient over the
        # field would multiply them up at every order
        fs = FIELDS["Q_s"]
        s1, s2, s3 = fs.gens()
        num = Polynomial(fs, [1 / (s1 + s2), s1 / (s1 * s2 * s3), 3,
                              (s2 - 1) / (s2 + 1), s3 / (s1 + s2)])
        F = RationalFunction(num, Polynomial(fs, [1, 1]) ** 2)
        start = time.perf_counter()
        S = laurent_expand(F, 12)
        assert time.perf_counter() - start < 1.0
        assert S.coeff(0) == 1 / (s1 + s2)
        assert str(S.coeff(0)) == "1/(s1 + s2)"
        low = laurent_expand(F, 3)
        assert S.coeffs[:4] == low.coeffs
        assert low == reference_laurent(F.num.coeffs, F.den.coeffs, 3, fs)

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


class TestUExpand:
    def test_matches_sympy_oracle(self):
        cases = [("q + 2*q^2 + q^3", 4), ("q/(1+q)^2", 0),
                 ("q*(1-q)/(1+q)^3", 4), ("(1+q^2)/(1+q)^2", 2)]
        for text, d in cases:
            assert_u_expand_matches_sympy(parse_rf(text), d)

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

    def test_matches_stored_records_and_local_curves(self):
        # every Q record and local curve, against the reference route
        records = [r.value for r in builtin_db().records()
                   if r.value.field.tag == "Q"]
        for F in records + [local_curve_series(d) for d in range(1, 6)]:
            for d, n in ((0, 5), (4, 3), (7, -2)):
                assert u_expand(F, d, n) == reference_u_expand(F, d, n)

    @settings(max_examples=60)
    @given(vanishing_quotient(), st.integers(0, 9), st.integers(-3, 9))
    def test_integer_power_sums_match_reference(self, F, d_beta, max_exp):
        # fractional and negative coefficients, zeros and poles at q = -1
        # (u = 0), and both parities of d_beta
        got = u_expand(F, d_beta, max_exp)
        want = reference_u_expand(F, d_beta, max_exp)
        assert got == want
        assert str(got) == str(want)


def u_side_functions():
    """Every built-in record over Q, the local curves of degree 1..6, and
    a function whose pole at u = 0 has the order deg den, the deepest
    window u_expand reads."""
    records = [r.value for r in builtin_db().records()
               if r.value.field.tag == "Q"]
    return (records + [local_curve_series(d) for d in range(1, 7)]
            + [parse_rf("(2 - q + 3*q^2)/(1+q)^5")])


class TestIntegerUExpand:
    def test_deepest_window_has_pole_order_deg_den(self):
        F = u_side_functions()[-1]
        assert u_expand(F, 0, 0).min_exp == -F.den.degree

    @pytest.mark.parametrize("d_beta", [0, 1, 4, 8])
    def test_matches_fraction_route(self, d_beta):
        # str and JSON of every window from u^-3 through u^16
        for F in u_side_functions():
            for max_exp in range(-3, 17):
                got = u_expand(F, d_beta, max_exp)
                want = u_expand_reference(F, d_beta, max_exp)
                assert str(got) == str(want)
                assert json.dumps([QI.coeff_to_json(c) for c in got.coeffs]
                                  ) == json.dumps([QI.coeff_to_json(c)
                                                   for c in want.coeffs])
                assert (got.min_exp, got.order) == (want.min_exp,
                                                    want.order)


class TestSeriesArithmetic:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LaurentSeries("x", 0, [1], 1)
        with pytest.raises(ValueError):
            LaurentSeries("q", 0, [1, 2], 1)

    def test_leading_zeros_trimmed(self):
        S = LaurentSeries("q", -1, [0, 0, 5], 2)
        assert S.min_exp == 1 and S.coeffs == (5,)

    def test_mul_agrees_with_expand(self):
        # the expansion of f*g is the truncated product of the expansions
        f = parse_rf("1/(1-q)")
        g = parse_rf("(1+q)/(1-q^2)")
        a, b = laurent_expand(f, 9), laurent_expand(g, 9)
        lo = a.min_exp + b.min_exp
        order = min(a.order + b.min_exp, b.order + a.min_exp)
        lhs = LaurentSeries("q", lo, reference_mul(
            a.coeffs, b.coeffs, order - lo, Fraction(0)), order)
        assert lhs == laurent_expand(f * g, 9)

    def test_negate(self):
        a = LaurentSeries("q", -1, [1, 2, 3], 2)
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

    def test_str_format(self):
        S = LaurentSeries("q", -1, [1, 0, Fraction(-3, 2)], 2)
        assert str(S) == "q^-1 - 3/2*q + O(q^2)"
