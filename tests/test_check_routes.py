"""fe_check, pole_check and laurent_expand on integer rows, against the
per-coefficient bodies they replaced (kept here as references), and the
integer routes of products and exact division against the field routes
on coefficients with non-constant parameter denominators."""

import json
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from pdc.cli import main
from pdc.fields import FIELDS
from pdc.laurent import LaurentSeries, _ps_quo, laurent_expand
from pdc.polynomial import Polynomial
from pdc.ratfun import RationalFunction, fe_check, pole_check
from pdc.series import (SeriesRecord, builtin_db, cap_series,
                        local_curve_series, make_key, record_to_obj)

from helpers import exact_div, invert_q

# ---------------------------------------------------------------------------
# references: the bodies that ran one field element at a time


def reference_fe_check(F, d_beta, sign):
    if F.is_zero:
        return True
    lhs = F.num.reversed_() * F.den
    rhs = F.num * F.den.reversed_()
    if sign == -1:
        rhs = -rhs
    e = F.den.degree - F.num.degree + d_beta
    if e >= 0:
        lhs = lhs.shift(e)
    else:
        rhs = rhs.shift(-e)
    return lhs == rhs


def reference_pole_check(F, d):
    f = F.field
    allowed = Polynomial.q(f)
    for m in range(1, d + 1):
        factor = Polynomial.one(f) - Polynomial(f, [0] * m + [(-1) ** m])
        allowed = allowed * factor
    den = F.den
    while den.degree > 0:
        g = Polynomial.gcd(den, allowed)
        if g.degree < 1:
            return False
        den = exact_div(den, g)
    return True


def sympy_pole_check(F, d):
    """The reference loop run by sympy over Z[parameters, q], for a
    denominator with non-constant parameter denominators, over which
    Euclid's cost has no bound."""
    f = F.field
    syms = sympy.symbols(f.var_names)
    q = sympy.Symbol("q")

    def poly(terms):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(x ** k for x, k in zip(syms, e)))
                   for e, c in terms.items())

    den = sympy.together(sum(poly(c.num) / poly(c.den) * q ** k
                             for k, c in enumerate(F.den.coeffs)))
    den = sympy.Poly(sympy.fraction(den)[0], q, *syms)
    allowed = sympy.Poly(q * sympy.Mul(*(1 - (-q) ** m
                                         for m in range(1, d + 1))),
                         q, *syms)
    while den.degree(q) > 0:
        g = sympy.gcd(den, allowed)
        if g.degree(q) < 1:
            return False
        den = sympy.quo(den, g)
    return True


def reference_laurent_expand(F, max_exp):
    f = F.field
    order = max_exp + 1
    if F.is_zero:
        return LaurentSeries("q", order, [], order, f)
    vn, vd = F.num.valuation, F.den.valuation
    lo = vn - vd
    count = order - lo
    if count <= 0:
        return LaurentSeries("q", order, [], order, f)
    coeffs = _ps_quo(F.num.coeffs[vn:], F.den.coeffs[vd:], count, f.zero)
    return LaurentSeries("q", lo, coeffs, order, f)


def schoolbook_product(a, b):
    """a * b by the schoolbook product over the coefficient field."""
    f = a.field
    out = [f.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Polynomial(f, out)


def assert_same_expansion(F, max_exp):
    got, want = laurent_expand(F, max_exp), reference_laurent_expand(
        F, max_exp)
    f = F.field
    assert str(got) == str(want)
    assert (got.min_exp, got.order) == (want.min_exp, want.order)
    assert json.dumps([f.coeff_to_json(c) for c in got.coeffs]) == (
        json.dumps([f.coeff_to_json(c) for c in want.coeffs]))


# ---------------------------------------------------------------------------
# draws

small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
TAGS = ("Q", "Q_s", "Q_lambda")


@st.composite
def scalar(draw, f):
    """A rational, plus over Q_s/Q_lambda up to three terms c * s_i or
    c * s_1 * s_n, over a constant denominator."""
    c = f.coerce(draw(small))
    gens = f.gens()
    if gens:
        monomials = gens + (gens[0] * gens[-1],)
        for k, a in draw(st.lists(st.tuples(
                st.integers(0, len(gens)), small), max_size=3)):
            c = c + a * monomials[k]
    return c


@st.composite
def coeff_list(draw, f, scalars, min_nonzero=False, max_size=5):
    """Up to two leading zeros, then up to five scalars, so the rows of a
    parameter polynomial end at different powers of q."""
    cs = [f.zero] * draw(st.integers(0, 2)) + draw(
        st.lists(scalars, min_size=1, max_size=max_size))
    if min_nonzero and not any(cs):
        cs[-1] = f.one
    return cs


@st.composite
def functions(draw, tag, shapes=("q", "param", "ratio")):
    """A rational function over Q, Q_s or Q_lambda in one of three shapes.

    - "q": the denominator lies in Q[q], as every evaluator's does;
    - "param": the denominator depends on the parameters, and the
      numerator is a single component s^e * P(q), so the gcd of the
      canonical form stays on the one-component route;
    - "ratio": a coefficient has a non-constant parameter denominator,
      which `to_components` clears into the rows; the canonical form's
      gcd of two multi-component inputs runs in Z[s, q]
      (`fields._mv_gcd`), bounded by MAX_GCD_IMAGE_BITS, and
      `laurent_expand` needs that form.
    """
    f = FIELDS[tag]
    shape = draw(st.sampled_from(shapes if f.gens() else ["q"]))
    if shape == "q":
        num = draw(coeff_list(f, scalar(f)))
        den = draw(coeff_list(f, small.map(f.coerce), min_nonzero=True))
        return RationalFunction(Polynomial(f, num), Polynomial(f, den))
    gens = f.gens()
    if shape == "param":
        mono = draw(st.sampled_from((f.one,) + gens))
        num = [mono * c for c in draw(coeff_list(f, small))]
        # a rational lowest coefficient keeps the canonical denominator's
        # parameter denominators constant
        den = [f.zero] * draw(st.integers(0, 2)) + [
            f.coerce(draw(small.filter(bool)))] + draw(
            st.lists(scalar(f), min_size=1, max_size=4))
        return RationalFunction(Polynomial(f, num), Polynomial(f, den))
    # small, since field arithmetic over these ratios swells fast
    num = draw(coeff_list(f, scalar(f), max_size=2))
    den = draw(coeff_list(f, scalar(f), min_nonzero=True, max_size=2))
    side = draw(st.sampled_from([num, den]))
    k = draw(st.integers(0, len(side) - 1))
    side[k] = side[k] / (gens[0] + 1)
    num_p, den_p = Polynomial(f, num), Polynomial(f, den)
    if den_p.is_zero:
        den_p = Polynomial.one(f)
    if num_p.is_zero:
        return RationalFunction.zero(f)
    return RationalFunction(num_p, den_p)


any_function = st.sampled_from(TAGS).flatmap(functions)
ratio_function = st.sampled_from(TAGS[1:]).flatmap(
    lambda tag: functions(tag, ("ratio",)))


def param_den(f, c) -> bool:
    """Has the coefficient c over f a non-constant parameter denominator?
    The field routes never cancel such a denominator, so results built on
    it are compared by value, not by printed form."""
    return bool(f.var_names) and list(c.den) != [(0,) * len(f.var_names)]


def has_param_dens(*polys):
    """Does a coefficient of one of polys have a non-constant parameter
    denominator?"""
    return any(param_den(p.field, c) for p in polys for c in p.coeffs)


class TestAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(any_function, st.integers(-6, 6), st.sampled_from([1, -1]))
    def test_fe_check(self, F, d_beta, sign):
        assert fe_check(F, d_beta, sign) == reference_fe_check(
            F, d_beta, sign)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(TAGS).flatmap(lambda tag: functions(tag, ("q",))),
           st.integers(-4, 4), st.sampled_from([1, -1]))
    def test_fe_check_on_symmetrised_functions(self, F, d_beta, sign):
        # H = F + sign * q^d_beta * F(1/q) satisfies the equation
        H = F + invert_q(F).scale_monomial(sign, d_beta)
        assert fe_check(H, d_beta, sign)
        assert reference_fe_check(H, d_beta, sign)

    @settings(max_examples=100, deadline=None)
    @given(any_function, st.integers(1, 6))
    def test_pole_check(self, F, d):
        if has_param_dens(F.den):
            assert pole_check(F, d) == sympy_pole_check(F, d)
        else:
            assert pole_check(F, d) == reference_pole_check(F, d)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(TAGS).flatmap(lambda tag: st.tuples(
        st.just(FIELDS[tag]),
        st.lists(st.integers(1, 6), max_size=3),
        coeff_list(FIELDS[tag], scalar(FIELDS[tag]), min_nonzero=True))),
        st.integers(1, 7))
    def test_pole_check_on_cyclotomic_denominators(self, case, d):
        # denominators that are products of 1 - (-q)^m, so that both
        # verdicts occur
        f, ms, num = case
        den = Polynomial.q(f)
        for m in ms:
            den = den * Polynomial(f, [1] + [0] * (m - 1) + [-(-1) ** m])
        F = RationalFunction(Polynomial(f, num), den)
        assert pole_check(F, d) == reference_pole_check(F, d)

    @settings(max_examples=150, deadline=None)
    @given(any_function, st.integers(-3, 8))
    def test_laurent_expand(self, F, max_exp):
        if has_param_dens(F.num, F.den):
            # the reference's ratios swell with the order
            max_exp = min(max_exp, 3)
        want = reference_laurent_expand(F, max_exp)
        if any(param_den(F.field, c) for c in want.coeffs):
            # the rows cancel parameter factors that the reference keeps,
            # as in (2*s3 + 1)/((2*s3 + 1)*q) = q^-1
            assert laurent_expand(F, max_exp) == want
        else:
            assert_same_expansion(F, max_exp)


class TestRatioDraws:
    """Every integer route against its field route, by value, on
    coefficients with non-constant parameter denominators."""

    @settings(max_examples=80, deadline=None)
    @given(ratio_function, st.integers(1, 3), st.integers(-3, 4),
           st.sampled_from([1, -1]))
    def test_integer_routes_equal_field_routes(self, F, m, d_beta, sign):
        num, den, f = F.num, F.den, F.field
        prod = num * den
        assert prod == schoolbook_product(num, den)
        # the quotients of the gcd on the rows against long division
        # over the field
        assert exact_div(prod, den) == num
        cyc = Polynomial(f, [1] + [0] * (m - 1) + [-(-1) ** m])
        h, p, q = Polynomial.gcd_cofactors(num * cyc, cyc)
        assert exact_div(num * cyc, h) == p and exact_div(cyc, h) == q
        assert fe_check(F, d_beta, sign) == reference_fe_check(
            F, d_beta, sign)
        assert pole_check(F, m) == sympy_pole_check(F, m)
        assert laurent_expand(F, 3) == reference_laurent_expand(F, 3)


def weight_ratio_denominator():
    """1/D for D = 1 + ((3s1+5)/(3s1+3))q + ((s2-1)/(s2+2))q^2
    + (s3/(s1+2))q^3 over Q_s: the lowest coefficient of D's rows is the
    product of the three parameter denominators, and over the field the
    expansion's coefficients grew exponentially with the order."""
    f = FIELDS["Q_s"]
    s1, s2, s3 = f.gens()
    den = Polynomial(f, [1, (3 * s1 + 5) / (3 * s1 + 3),
                         (s2 - 1) / (s2 + 2), s3 / (s1 + 2)])
    return RationalFunction(Polynomial.one(f), den)


class TestParameterDenominatorExpansion:
    def test_expands_to_q8_within_budget(self, budget):
        F = weight_ratio_denominator()
        with budget(10):
            got = laurent_expand(F, 8)
        want = reference_laurent_expand(F, 4)
        assert (got.min_exp, got.order) == (0, 9)
        assert LaurentSeries("q", 0, got.coeffs[:5], 5, F.field) == want

    def test_coefficients_are_canonical(self):
        # the q^1 coefficient is read over R^2 for the lowest row
        # coefficient R = 3(s1+1)(s2+2)(s1+2); the canonical ratio cancels
        # all of it but 3(s1+1)
        got = laurent_expand(weight_ratio_denominator(), 2)
        assert str(got.coeff(0)) == "1"
        assert str(got.coeff(1)) == "(-3*s1 - 5)/(3*s1 + 3)"

    def test_cli_expands_db_record_within_budget(self, budget, tmp_path,
                                                 monkeypatch, capsys):
        # the numerator is 1, so the canonical form's gcd stays on the
        # one-row route
        F = weight_ratio_denominator()
        record = SeriesRecord(make_key("P3", 1, "ch6(H)"), F, "evaluator")
        path = tmp_path / "db.json"
        path.write_text(json.dumps([record_to_obj(record)]))
        monkeypatch.setenv("PDC_DB", str(path))
        with budget(10):
            code = main(["--json", "expand", "--series", "ch6(H)",
                         "--degree", "1", "--order", "8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["min_exp"], payload["order"]) == (0, 9)
        got = {n: F.field.coeff_from_json(c) for n, c in payload["coeffs"]
               if n <= 4}
        assert got == reference_laurent_expand(F, 4).as_dict()


def stored_and_evaluated():
    cases = [(r.value, r.key.degree) for r in builtin_db().records()]
    cases += [(cap_series(d), d) for d in range(1, 13)]
    cases += [(local_curve_series(d), d) for d in range(1, 13)]
    return cases


class TestStoredAndEvaluatedSeries:
    def test_checks_match_references(self):
        # every built-in record, and both evaluators for d <= 12; the
        # stored Cap:1:ch4(p):(1) has numerator rows of different lengths
        for F, d in stored_and_evaluated():
            for d_beta in (-1, 0, d, 2 * d):
                for sign in (1, -1):
                    assert fe_check(F, d_beta, sign) == reference_fe_check(
                        F, d_beta, sign)
            for k in (1, d, d + 1):
                assert pole_check(F, k) == reference_pole_check(F, k)
            for max_exp in (-1, d + 3, 2 * d + 4):
                assert_same_expansion(F, max_exp)
