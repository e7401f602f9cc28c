"""Rational functions of q: canonical form, checks, and the parser."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from pdc.fields import FIELDS, Q
from pdc.polynomial import Polynomial
from pdc.ratfun import (RationalFunction, RFParseError, _cyclotomic_reach,
                        fe_check, parse_rf, pole_check, q_ddq, q_ddq_minus)
from pdc.series import builtin_db, cap_series, local_curve_series, rf_to_obj

from helpers import degree_six_pair, invert_q, q_ddq_reference


def rand_rf(rng):
    def rand_poly(nonzero=False):
        while True:
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 6))]
            p = Polynomial(Q, coeffs)
            if not (nonzero and p.is_zero):
                return p
    return RationalFunction(rand_poly(), rand_poly(nonzero=True))


def to_sympy(F):
    x = sympy.symbols("q")

    def conv(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                   for k, c in enumerate(p.coeffs))

    return conv(F.num) / conv(F.den)


class TestCanonicalForm:
    def test_gcd_cancelled_and_denominator_normalized(self):
        num = Polynomial(Q, [0, 2, 2])        # 2q(1+q)
        den = Polynomial(Q, [0, 0, 4, 4])     # 4q^2(1+q)
        F = RationalFunction(num, den)
        assert F.num.coeffs == (Fraction(1, 2),)
        assert F.den.coeffs == (0, 1)

    def test_equality_is_structural_on_canonical_forms(self):
        a = parse_rf("(1 - q^2)/(1 - q)")
        b = parse_rf("1 + q")
        assert a == b

    def test_zero(self):
        F = RationalFunction(Polynomial.zero(Q), Polynomial(Q, [3, 1]))
        assert F.is_zero and F.den.coeffs == (1,)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial.one(Q), Polynomial.zero(Q))

    def test_arithmetic_matches_sympy(self):
        rng = random.Random(6)
        for _ in range(25):
            a, b = rand_rf(rng), rand_rf(rng)
            assert sympy.simplify(to_sympy(a + b)
                                  - (to_sympy(a) + to_sympy(b))) == 0
            assert sympy.simplify(to_sympy(a * b)
                                  - to_sympy(a) * to_sympy(b)) == 0
            if not b.is_zero:
                assert sympy.simplify(to_sympy(a / b)
                                      - to_sympy(a) / to_sympy(b)) == 0

    def test_parameter_lowest_coefficient_cancels(self):
        # dividing by a lowest denominator coefficient that spans several
        # parameter monomials leaves it once in the numerator, not as
        # (2*s1 + s2)/(2*s1 + s2) in every coefficient
        fs = FIELDS["Q_s"]
        s1, s2, _ = fs.gens()
        F = RationalFunction(Polynomial.one(fs),
                             Polynomial(fs, [2 * s1 + s2, 2 * s1 + s2]))
        assert str(F) == "((1/(2*s1 + s2)))/(1 + q)"
        assert F.den == Polynomial(fs, [1, 1])
        assert F.num == Polynomial.const(fs, 1 / (2 * s1 + s2))

    def test_cleared_denominators_cancel_when_lowest_is_one(self):
        # the lowest denominator coefficient is already one, and the
        # ratios (s1 + 1)/(s1 + 1) still cancel: two equal functions
        # print and export alike
        fs = FIELDS["Q_s"]
        r = (fs.gens()[0] + 1) / (fs.gens()[0] + 1)
        spelled = RationalFunction(Polynomial.one(fs), Polynomial(
            fs, [1, Fraction(1, 2), r, r]))
        plain = RationalFunction(Polynomial.one(fs), Polynomial(
            fs, [1, Fraction(1, 2), 1, 1]))
        assert str(spelled) == "(1)/(1 + 1/2*q + q^2 + q^3)"
        assert spelled == plain
        assert rf_to_obj(spelled) == rf_to_obj(plain)
        # a partial common factor divides no numerator and stays as
        # spelled
        s1, s2, _ = fs.gens()
        part = (s1 + 1) * (s2 + 1) / ((s1 + 1) * (s2 + 2))
        F = RationalFunction(Polynomial.one(fs), Polynomial(fs, [1, part]))
        assert str(F.den.coeffs[1]) == str(part)

    def test_parameter_denominators_are_lcms(self):
        # dividing out a lowest coefficient whose parameter denominator is
        # not constant leaves each part over the lcm of its coefficients'
        # denominators; a product on the rows kept every factor they
        # shared with the scale, and a q-expansion then took gcds against
        # powers of it (7.7 s against 0.07 s to q^8 on a Q_lambda draw)
        fs = FIELDS["Q_s"]
        s1, s2, s3 = fs.gens()
        a, b, _ = degree_six_pair()
        for num, den in ((a, b), (Polynomial(fs, [s1 / (s2 + 1), 1]),
                                  Polynomial(fs, [(s1 + 1) / (s2 + 1), s3]))):
            F = RationalFunction(num, den)
            for p in (F.num, F.den):
                assert p.denom.poly == Polynomial(fs, p.coeffs).denom.poly

    def test_pow_negative(self):
        F = parse_rf("q/(1+q)")
        assert F ** -2 == parse_rf("(1+q)^2/q^2")


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# factors that numerators and denominators may share, so that a sum,
# product or quotient has something to cancel
SHARED = [Polynomial(Q, c) for c in ([1], [0, 1], [1, 1], [-1, 0, 1])]


@st.composite
def rational_function(draw):
    def side(nonzero):
        coeffs = st.lists(small_fractions, min_size=1, max_size=4)
        p = Polynomial(Q, draw(coeffs.filter(any) if nonzero else coeffs))
        return p * draw(st.sampled_from(SHARED))

    return RationalFunction(side(False), side(True))


def assert_canonical(F):
    """Coprime parts, the denominator's lowest coefficient one, 0 as 0/1."""
    assert Polynomial.gcd(F.num, F.den).degree == 0
    assert F.den.coeffs[F.den.valuation] == 1
    if F.is_zero:
        assert F.den == Polynomial.one(Q)


class TestRingAxioms:
    """Q(q) is a field, and its canonical form is unique: equality is
    structural, so every law below also checks the canonical form."""

    @settings(max_examples=60)
    @given(rational_function(), rational_function(), rational_function())
    def test_axioms(self, a, b, c):
        zero, one = RationalFunction.zero(Q), RationalFunction.one(Q)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a - a == zero and (a - b) + b == a
        for F in (a + b, a - b, a * b, a * (b + c)):
            assert_canonical(F)
            assert str(F) == str(RationalFunction(F.num, F.den))
        if a:
            assert a * (one / a) == one
            assert (b / a) * a == b and (b * a) / a == b
            assert_canonical(b / a)
            assert str((b * a) / a) == str(b)


class TestScaleMonomial:
    def test_matches_generic_multiply(self):
        rng = random.Random(7)
        for _ in range(40):
            F = rand_rf(rng)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            k = rng.randint(-3, 3)
            qk = RationalFunction(Polynomial(Q, [0] * max(k, 0) + [1]),
                                  Polynomial(Q, [0] * max(-k, 0) + [1]))
            assert F.scale_monomial(c, k) == F * qk * c

    def test_result_is_canonical(self):
        F = parse_rf("(1+q)/q^2")
        G = F.scale_monomial(Fraction(1, 2), 3)
        assert G == parse_rf("(q + q^2)/2")
        assert G.den.coeffs == (1,)

    def test_param_field_scaling(self):
        fs = FIELDS["Q_s"]
        s1, s2, _ = fs.gens()
        F = RationalFunction(Polynomial(fs, [0, 1]), Polynomial(fs, [1, 1]))
        G = F.scale_monomial(s1 + s2, 1)
        assert G.num == Polynomial(fs, [0, 0, s1 + s2])
        assert G.den == Polynomial(fs, [1, 1])

    def test_parameter_scalar_lifts_from_q(self):
        # over Q a parameter scalar moves the function into its field,
        # where the lifted pair is still canonical
        fs = FIELDS["Q_s"]
        s1, s2, _ = fs.gens()
        F = parse_rf("(2 - 2*q)/(q*(3 + q))")
        G = F.scale_monomial((s1 + s2) / 4, 2)
        assert G.field.tag == "Q_s"
        assert G == RationalFunction(
            Polynomial(fs, [0, 2, -2]).scale((s1 + s2) / 4),
            Polynomial(fs, [3, 1]))
        assert G.den.coeffs[0] == fs.one

    @pytest.mark.parametrize("tag, scalar", [
        ("Q_s", lambda s: (s[0] + s[1]) / 24),
        ("Q_s", lambda s: 3 * s[2] * s[2] - s[0] / 7),
        ("Q_s", lambda s: s[0] / (s[0] + s[1])),
        ("Q_lambda", lambda s: (3 * s[0] - s[1] - s[2] - s[3]) / 24),
        ("Q_lambda", lambda s: s[0] - 1),
    ])
    def test_lift_matches_per_coefficient_route(self, tag, scalar):
        # the component lift writes every coefficient in the canonical
        # form the field's own arithmetic gives
        f = FIELDS[tag]
        c = scalar(f.gens())
        F = parse_rf("(1/2 - 3*q + 5/3*q^3)/(1 + 2/5*q - q^4)")
        for k in (-2, 0, 3):
            G = F.scale_monomial(c, k)
            want = RationalFunction(Polynomial(f, F.num.coeffs).scale(c),
                                    Polynomial(f, F.den.coeffs))
            want = want.scale_monomial(1, k)
            assert str(G) == str(want)
            for got_p, want_p in ((G.num, want.num), (G.den, want.den)):
                assert [(x.num, x.den) for x in got_p.coeffs] == [
                    (x.num, x.den) for x in want_p.coeffs]


class TestInversionAndDerivation:
    def test_invert_q_involution_random(self):
        rng = random.Random(8)
        for _ in range(30):
            F = rand_rf(rng)
            assert invert_q(invert_q(F)) == F

    def test_invert_q_matches_sympy(self):
        rng = random.Random(9)
        x = sympy.symbols("q")
        for _ in range(20):
            F = rand_rf(rng)
            if F.is_zero:
                continue
            expect = sympy.simplify(to_sympy(F).subs(x, 1 / x))
            assert sympy.simplify(to_sympy(invert_q(F)) - expect) == 0

    def test_q_ddq_matches_sympy(self):
        rng = random.Random(10)
        x = sympy.symbols("q")
        for _ in range(20):
            F = rand_rf(rng)
            expect = sympy.simplify(x * sympy.diff(to_sympy(F), x))
            assert sympy.simplify(to_sympy(q_ddq(F)) - expect) == 0

    def test_q_ddq_product_rule(self):
        rng = random.Random(11)
        for _ in range(15):
            a, b = rand_rf(rng), rand_rf(rng)
            assert q_ddq(a * b) == q_ddq(a) * b + a * q_ddq(b)


@st.composite
def rule_inputs(draw):
    """(F, c): F over Q, Q_s or Q_lambda with denominator a scalar times
    q^a and up to two factors of degree one or two, each to a power up to
    three, so that q^a, repeated factors and constant denominators all
    occur; c an int or, over a parameter field, sometimes a scalar of
    it.  A coefficient is a rational, plus over a parameter field c*s_i,
    and now and then over s_1 + 1, a parameter denominator."""
    f = FIELDS[draw(st.sampled_from(["Q", "Q_s", "Q_lambda"]))]
    gens = f.gens()

    def scalar():
        c = f.coerce(draw(small_fractions))
        if gens and draw(st.booleans()):
            c = c + draw(small_fractions) * draw(st.sampled_from(gens))
            if draw(st.integers(0, 4)) == 0:
                c = c / (gens[0] + 1)
        return c

    def poly(n, nonzero=True):
        cs = [scalar() for _ in range(n)]
        if nonzero and not any(cs):
            cs[-1] = f.one
        return Polynomial(f, cs)

    q = Polynomial.q(f)
    num = poly(draw(st.integers(1, 4))) * q ** draw(st.integers(0, 3))
    den = poly(1) * q ** draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 2))):
        factor = poly(draw(st.integers(2, 3)))
        if factor.degree > 0:
            den = den * factor ** draw(st.integers(1, 3))
    if draw(st.integers(0, 5)) == 0:
        num = Polynomial.zero(f)
    c = draw(st.integers(-6, 8))
    if gens and draw(st.integers(0, 3)) == 0:
        c = scalar()
    return RationalFunction(num, den), c


class TestReductionRuleOperations:
    """The dilaton rule's q d/dq - c with one gcd, and the divisor rule's
    scaling with none, against the routes they replaced."""

    @settings(max_examples=120, derandomize=True)
    @given(rule_inputs())
    # q d/dq q^2 = 2 q^2 and q d/dq q^-3 = -3 q^-3: results that cancel
    @example((parse_rf("q^2"), 2))
    @example((parse_rf("q^2", "Q_s"), 2))
    @example((parse_rf("1/q^3"), -3))
    # a constant denominator, q^k and repeated factors in it
    @example((parse_rf("3/2 - q + 5*q^4"), 4))
    @example((parse_rf("q/(1+q)^2"), 2))
    @example((parse_rf("(1 - 2*q)/(q^2*(1+q)^3*(2 - q + q^2)^2)"), 6))
    @example((parse_rf("(1+q)^2/(q*(1+q)^3)", "Q_lambda"), 0))
    def test_dilaton_matches_quotient_rule(self, case):
        F, c = case
        got = q_ddq_minus(F, c)
        want = q_ddq_reference(F) - F * c
        assert got == want
        assert str(got) == str(want)
        if got.is_zero:
            assert got.den == Polynomial.one(F.field)

    @settings(max_examples=60, derandomize=True)
    @given(rule_inputs(), st.integers(1, 12))
    def test_divisor_matches_product(self, case, d):
        F = case[0]
        got = F.scale_monomial(d)
        assert got == F * d
        assert str(got) == str(F * d)


class TestFunctionalEquation:
    def test_agrees_with_direct_substitution(self):
        rng = random.Random(12)
        for _ in range(40):
            F = rand_rf(rng)
            for sign in (1, -1):
                for d in (-2, 0, 1, 4):
                    direct = (invert_q(F)
                              == F.scale_monomial(sign, -d))
                    assert fe_check(F, d, sign) == direct

    def test_known_cases(self):
        assert fe_check(parse_rf("q/(1+q)^2"), 0, 1)
        assert fe_check(parse_rf("q + 2*q^2 + q^3"), 4, 1)
        assert not fe_check(parse_rf("q + 2*q^2 + q^3"), 4, -1)
        assert not fe_check(parse_rf("q + 2*q^2 + 3*q^3"), 4, 1)
        assert not fe_check(parse_rf("q + 2*q^2 + 3*q^3"), 4, -1)
        assert fe_check(RationalFunction.zero(Q), 3, -1)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            fe_check(parse_rf("q"), 1, 2)


class TestPoleCheck:
    def test_accepts_allowed_denominators(self):
        assert pole_check(parse_rf("1/(q^2*(1+q)^3)"), 1)
        assert pole_check(parse_rf("1/((1+q)^2*(1-q^2))"), 2)
        # 1+q+q^2 divides 1-q^6 = 1-(-q)^6
        assert pole_check(parse_rf("(3+q)/(1+q+q^2)"), 6)
        assert pole_check(parse_rf("5 + q^7"), 1)

    def test_rejects_disallowed_poles(self):
        assert not pole_check(parse_rf("1/(1-q)"), 1)
        assert not pole_check(parse_rf("1/(1+q+q^2)"), 2)
        assert not pole_check(parse_rf("1/(2+q)"), 5)

    def test_d_validation(self):
        with pytest.raises(ValueError):
            pole_check(parse_rf("q"), 0)

    @pytest.mark.parametrize("tag", ["Q_s", "Q_lambda"])
    def test_parameter_fields(self, tag):
        f = FIELDS[tag]
        g = f.gens()
        one_plus_q = Polynomial(f, [1, 1])
        # c(s) * P(q): one parameter monomial over a Q[q] factor
        for c in (g[1], 3 * g[0] * g[1], g[0] + 2 * g[1]):
            den = one_plus_q * one_plus_q * Polynomial(f, [0, c])
            F = RationalFunction._from_canonical(Polynomial.one(f), den)
            assert pole_check(F, 1)
        P = Polynomial(f, [1, 0, 1])              # 1 + q^2 = Phi_4(-q)
        F = RationalFunction._from_canonical(Polynomial.one(f),
                                             P.scale(g[0] + 1))
        assert not pole_check(F, 3) and pole_check(F, 4)
        # rows that are not proportional: the poles move with s
        for coeffs in ([1, g[0]], [1, 1 + g[0], g[1]], [1, 2, 1 + g[0]]):
            F = RationalFunction(Polynomial.one(f), Polynomial(f, coeffs))
            assert not pole_check(F, 6)
        # coefficients with non-constant parameter denominators, cleared
        # before the integer rows are read: no gcd runs over the field
        r = g[1] / (g[0] + 1)
        F = RationalFunction._from_canonical(Polynomial.one(f),
                                             P.scale(r).shift(1))
        assert not pole_check(F, 3) and pole_check(F, 4)
        a = (3 * g[0] - 2 * g[0] * g[-1] + 1) / (g[0] + 1)
        for coeffs in ([1 / (g[0] + 1), 1 / (g[1] + 2)],
                       [0, a, (g[0] + g[1]) / 2]):
            F = RationalFunction._from_canonical(Polynomial.one(f),
                                                 Polynomial(f, coeffs))
            assert not pole_check(F, 6)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 6), max_size=3),
           st.lists(small_fractions, min_size=1, max_size=3).filter(any),
           st.integers(1, 6))
    def test_matches_sympy_divisibility(self, ms, extra, d):
        # den divides q^a * prod_{m<=d} (1 - (-q)^m)^n, a = n = deg den
        den = Polynomial(Q, [0, 1])
        for m in ms:
            den = den * Polynomial(Q, [1] + [0] * (m - 1) + [-(-1) ** m])
        den = den * Polynomial(Q, extra)
        F = RationalFunction(Polynomial.one(Q), den)
        x = sympy.symbols("q")
        n = F.den.degree
        target = sympy.Poly(x ** n, x, domain="QQ")
        for m in range(1, d + 1):
            target *= sympy.Poly(1 - (-x) ** m, x) ** n
        den_poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(F.den.coeffs)], x)
        assert pole_check(F, d) == target.rem(den_poly).is_zero

    def test_cyclotomic_reach(self):
        # the largest k with phi(k) <= n
        assert [_cyclotomic_reach(n) for n in (1, 2, 4, 6, 9, 28)] == [
            2, 6, 12, 18, 30, 90]

    def test_huge_bound_matches_the_reach(self):
        # a factor Phi_k(-q) of den has phi(k) <= deg den, so no bound
        # past the reach changes the verdict
        cases = [cap_series(3), cap_series(6), local_curve_series(4),
                 parse_rf("1/(1 + 3*q + q^2)"),
                 parse_rf("1/(1 - q + q^2 - q^3 + q^4 - q^5 + q^6)")]
        cases += [r.value for r in builtin_db().records()]
        for F in cases:
            reach = _cyclotomic_reach(max(F.den.degree, 1))
            assert pole_check(F, 10 ** 6) == pole_check(F, reach)
        # Phi_7(-q), degree phi(7) = 6, is allowed from d = 7 on
        assert not pole_check(cases[4], 6) and pole_check(cases[4], 7)


class TestParser:
    def test_round_trip_through_str(self):
        rng = random.Random(13)
        for _ in range(25):
            F = rand_rf(rng)
            assert parse_rf(F.to_str()) == F

    def test_precedence_and_unary(self):
        assert parse_rf("1 + 2*q^2/(1 - q)") == (
            RationalFunction(Polynomial(Q, [1]), Polynomial.one(Q))
            + RationalFunction(Polynomial(Q, [0, 0, 2]),
                               Polynomial(Q, [1, -1])))
        assert parse_rf("-q^2") == parse_rf("0 - q^2")
        assert parse_rf("3/4*q") == parse_rf("(3/4)*q")

    def test_error_position_reported(self):
        with pytest.raises(RFParseError) as info:
            parse_rf("q + (1 -")
        assert info.value.pos == 8
        with pytest.raises(RFParseError):
            parse_rf("q q")
        with pytest.raises(RFParseError, match="division by zero"):
            parse_rf("1/(q - q)")
