"""Dense univariate polynomials over the exact coefficient fields."""

import random
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pdc import polynomial
from pdc.fields import (FIELDS, Q, ParamRational, ParamScale,
                        from_components, to_components)
from pdc.polynomial import Polynomial
from pdc.ratfun import RationalFunction

from helpers import degree_six_pair, exact_div


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


def cofactors_multiply_back(a: Polynomial, b: Polynomial) -> bool:
    """Are the quotients of `Polynomial.gcd_cofactors` exact: h * (a/h)
    == a and h * (b/h) == b?"""
    h, p, q = Polynomial.gcd_cofactors(a, b)
    return h * p == a and h * q == b


def divides(a: Polynomial, b: Polynomial) -> bool:
    """True when a divides b exactly, by long division over the field."""
    if a.is_zero:
        return b.is_zero
    return b.divmod_(a)[1].is_zero


def mul_by_coeffs(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b by the schoolbook product over the coefficient field, the
    reference for the integer-row product."""
    out = [a.field.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Polynomial(a.field, out)


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

    def test_pow_runs_one_product_per_bit(self, monkeypatch):
        # a square for each bit below the top one and a product for each
        # set bit below it; nothing is squared past the top bit
        p = Polynomial(Q, [1, 1])
        calls = []

        def counted(a, b):
            calls.append(1)
            return product(a, b)

        product = polynomial._product
        monkeypatch.setattr(polynomial, "_product", counted)
        for n in range(1, 10):
            calls.clear()
            assert (p ** n).coeffs == tuple(comb(n, k) for k in range(n + 1))
            assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1

    def test_gaussian_field_is_refused(self):
        # Qi is only the field of u-side Laurent series
        for f in ("Qi", FIELDS["Qi"]):
            with pytest.raises(TypeError, match="Qi is only a u-side field"):
                Polynomial(f, [1])
        with pytest.raises(TypeError, match="Qi is only a u-side field"):
            RationalFunction.one("Qi")


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
            exact_div(b, a)

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
            assert divides(g, a) and divides(g, b)


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
            assert divides(g, a) and divides(g, b)
        assert cofactors_multiply_back(a, b)

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
        # coprime pairs whose images at 35 and at 33, points above that
        # bound, share a factor that reads back as f up to sign, which
        # does not divide g
        ([-3, -1], [1, 2, 3, -2]),
        ([3, -2], [0, 0, 2, 1]),
    ])
    def test_misleading_candidates(self, f, g):
        a, b = Polynomial(Q, f), Polynomial(Q, g)
        assert Polynomial.gcd(a, b) == sympy_gcd(a, b)

    def test_refused_evaluation_point(self, monkeypatch):
        # a seeded draw on which the first evaluation point, 2^6, is
        # refused
        tried = []
        step = polynomial._next_width
        monkeypatch.setattr(polynomial, "_next_width",
                            lambda s: tried.append(s) or step(s))
        c = Polynomial(Q, [-2, 3])
        a = Polynomial(Q, [1, 1, -1]) * c
        b = Polynomial(Q, [3, -3, -2]) * c
        assert Polynomial.gcd(a, b) == sympy_gcd(a, b)
        assert tried

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


class TestIntegerProduct:
    @given(small_polys, small_polys)
    def test_q_product_matches_fraction_schoolbook(self, a, b):
        assert a * b == mul_by_coeffs(a, b)


def schoolbook(f: list[int], g: list[int]) -> list[int]:
    """f * g by the plain double loop, the reference for the kernel."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


# signed coefficients up to 2^260, with zeros
signed_int = st.one_of(st.just(0), st.integers(-9, 9),
                       st.integers(-2 ** 260, 2 ** 260))
# short and empty lists
signed_ints = st.lists(signed_int, max_size=12)
CUT = polynomial._KRONECKER_CUT


class TestKroneckerProduct:
    # `_zz_kronecker` is called directly: at these lengths the kernel
    # `_zz_mul` runs the schoolbook loop
    @settings(max_examples=300)
    @given(st.lists(signed_int, min_size=1, max_size=12),
           st.lists(signed_int, min_size=1, max_size=12))
    def test_matches_schoolbook(self, f, g):
        assert polynomial._zz_kronecker(f, g) == schoolbook(f, g)

    @pytest.mark.parametrize("f, g", [
        ([], []), ([], [1, 2]), ([3], []), ([0], [5]), ([0, 0], [0]),
        ([-1], [1]), ([-(2 ** 200)], [2 ** 200 + 1]),
        # every product coefficient negative, the top limb too
        ([-1, -1, -1], [1, 1]),
        # a negative digit below a positive one: the limb above must
        # give back what the negative digit borrowed
        ([1, -(2 ** 203)], [2 ** 205, 3]),
        ([2 ** 200, -1, 0, -(2 ** 201)], [-(2 ** 207), 0, 1]),
        # coefficients that fill their limb exactly
        ([255] * 5, [255] * 5), ([-128] * 4, [127] * 3),
    ])
    def test_edge_cases(self, f, g):
        assert polynomial._zz_mul(f, g) == schoolbook(f, g)
        if f and g:
            assert polynomial._zz_kronecker(f, g) == schoolbook(f, g)


class TestProductKernel:
    @settings(max_examples=60)
    @given(st.data())
    def test_matches_schoolbook_across_the_cut(self, data):
        # the shorter factor lies within three entries of the cut, on
        # either side; the accumulating form adds into a nonzero list
        short = data.draw(st.integers(CUT - 3, CUT + 3))
        f = data.draw(st.lists(signed_int, min_size=short, max_size=short))
        g = data.draw(st.lists(signed_int, min_size=short,
                               max_size=2 * CUT))
        if data.draw(st.booleans()):
            f, g = g, f
        want = schoolbook(f, g)
        assert polynomial._zz_mul(f, g) == want
        out = data.draw(st.lists(signed_int, min_size=len(want) + 2,
                                 max_size=len(want) + 2))
        got = polynomial._zz_mul(f, g, list(out))
        assert got == [a + b for a, b in zip(out, want + [0, 0])]

    @given(signed_ints, signed_ints)
    def test_short_lists_match_schoolbook(self, f, g):
        assert polynomial._zz_mul(f, g) == schoolbook(f, g)

    def test_method_is_chosen_by_the_shorter_length(self, monkeypatch):
        calls = []
        kronecker = polynomial._zz_kronecker
        monkeypatch.setattr(polynomial, "_zz_kronecker", lambda f, g: (
            calls.append((len(f), len(g))) or kronecker(f, g)))
        for m, n in [(CUT - 1, 3 * CUT), (3 * CUT, CUT - 1), (CUT, CUT),
                     (2 * CUT, CUT)]:
            f, g = list(range(1, m + 1)), list(range(-n, 0))
            assert polynomial._zz_mul(f, g) == schoolbook(f, g)
        assert calls == [(CUT, CUT), (CUT, 2 * CUT)]

    def test_long_polynomial_product(self):
        # squarings of 1 +- q reach the Kronecker branch of the row product
        plus = Polynomial(Q, [1, 1]) ** 40
        assert plus.coeffs == tuple(comb(40, k) for k in range(41))
        # (1 + q)^40 (1 - q)^40 = (1 - q^2)^40
        want = [0] * 81
        for k in range(41):
            want[2 * k] = (-1) ** k * comb(40, k)
        assert plus * Polynomial(Q, [1, -1]) ** 40 == Polynomial(Q, want)


# ---------------------------------------------------------------------------
# the integer core over the parameter fields, against the per-coefficient
# route (the reference `mul_by_coeffs`) and against sympy over QQ(s)

PARAM_TAGS = ("Q_s", "Q_lambda")
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def param_const(tag):
    """A parameter constant with a constant denominator: a combination
    of up to three monomials of degree at most two in each variable."""
    nvars = len(FIELDS[tag].var_names)
    unit = (0,) * nvars
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(mono, small_fractions, max_size=3).map(
        lambda num: ParamRational.make(
            tag, {e: c for e, c in num.items() if c}, {unit: Fraction(1)}))


@st.composite
def param_poly(draw, tag, max_size=3, ratios=True):
    """A polynomial over a parameter field; when ratios is set, one draw
    in four divides one coefficient by 1 + (first variable), a
    non-constant denominator that `to_components` clears into the rows."""
    cs = draw(st.lists(param_const(tag), max_size=max_size))
    if ratios and cs and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(cs) - 1))
        cs[k] = cs[k] / (FIELDS[tag].gens()[0] + 1)
    return Polynomial(FIELDS[tag], cs)


def lift(p: Polynomial, tag: str) -> Polynomial:
    """A Q[q] polynomial with its coefficients read in a parameter field."""
    return Polynomial(FIELDS[tag], p.coeffs)


def sympy_poly(p: Polynomial):
    """p as a sympy Poly in q over QQ(parameters)."""
    names = sympy.symbols(p.field.var_names)

    def mv(terms):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(x ** k for x, k in zip(names, e)))
                    for e, c in terms.items()), sympy.Integer(0))

    q = sympy.symbols("q")
    expr = sum((mv(c.num) / mv(c.den) * q ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))
    return sympy.Poly(expr, q, domain=sympy.QQ.frac_field(*names))


def sympy_gcd_lowest_one(a: Polynomial, b: Polynomial):
    """gcd(a, b) over QQ(parameters) by sympy, scaled so that its
    lowest-order nonzero coefficient is one, as `Polynomial.gcd` scales
    it."""
    h = sympy_poly(a).gcd(sympy_poly(b))
    return h.quo_ground(h.coeffs()[-1])


def sympy_gcd_of_rows(a: Polynomial, b: Polynomial):
    """gcd(a, b) over QQ(parameters), monic in q, read from sympy's gcd
    over ZZ[parameters, q] of the integer rows (by Gauss's lemma they
    differ by a unit of QQ(parameters)); sympy's subresultants over the
    fraction field swell on inputs of this size."""
    names = sympy.symbols(a.field.var_names)
    gens = (*names, sympy.symbols("q"))
    g = sympy.gcd(*(sympy.Poly.from_dict(
        {e + (k,): c for e, r in p.rows.items() for k, c in enumerate(r)
         if c}, gens, domain=sympy.ZZ) for p in (a, b)))
    return sympy.Poly(g.as_expr(), gens[-1],
                      domain=sympy.QQ.frac_field(*names)).monic()


@st.composite
def param_case(draw):
    """(tag, a, b, c): c a planted Q[q] factor, times at most one
    1 - (-q)^m; a and b polynomials whose coefficients may span several
    parameter monomials."""
    tag = draw(st.sampled_from(PARAM_TAGS))
    c = draw(small_polys.filter(lambda p: p.degree <= 1))
    for m in draw(st.lists(st.integers(1, 3), max_size=1)):
        c = c * cyclotomic(m)
    a = draw(param_poly(tag))
    b = draw(param_poly(tag))
    return tag, a, b, lift(c, tag)


class TestParameterKernel:
    @settings(max_examples=60)
    @given(param_case())
    def test_mul_matches_per_coefficient_route_and_sympy(self, case):
        _, a, b, c = case
        for x, y in ((a, b), (a * c, b), (c, b)):
            assert x * y == mul_by_coeffs(x, y)
            assert sympy_poly(x * y) == sympy_poly(x) * sympy_poly(y)

    @settings(max_examples=60)
    @given(param_case(), small_polys.filter(lambda p: p.degree <= 2),
           st.lists(st.integers(0, 2), min_size=4, max_size=4))
    def test_gcd_with_one_component_input(self, case, p, e):
        # a = s^e * p(q) * c(q) has one component, so the integer core
        # takes the gcd whenever b has constant denominators
        tag, _, b, c = case
        nvars = len(FIELDS[tag].var_names)
        mono = ParamRational.make(tag, {tuple(e[:nvars]): Fraction(1)},
                                  {(0,) * nvars: Fraction(1)})
        a = (lift(p, tag) * c).scale(mono)
        b = b * c
        g = Polynomial.gcd(a, b)
        assert Polynomial.gcd(b, a) == g
        if a or b:
            assert sympy_poly(g) == sympy_gcd_lowest_one(a, b)
        assert cofactors_multiply_back(a, b)

    def test_gcd_of_a_pair_whose_euclid_remainders_swell(self, budget):
        # Euclid over Q_lambda meets the parameter gcd's size bound on
        # this pair
        f = FIELDS["Q_lambda"]
        lam0, lam1, lam2, lam3 = f.gens()
        a = Polynomial(f, [1, 1, 7])
        b = Polynomial(f, [0, 3 * lam2 * lam2,
                           lam0 * lam0 * lam3 * lam3 + lam1 * lam1])
        with budget(10):
            g = Polynomial.gcd(a, b)
            assert Polynomial.gcd(b, a) == g == Polynomial.one(f)
            assert sympy_poly(g) == sympy_gcd_lowest_one(a, b)
            assert cofactors_multiply_back(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PARAM_TAGS).flatmap(
        lambda tag: st.tuples(param_poly(tag, 4), param_poly(tag, 4),
                              param_poly(tag, 3))),
           st.integers(0, 3), st.booleans())
    def test_gcd_of_two_multi_component_inputs(self, abc, m, shifted):
        # neither input need be a single component, so the gcd runs on
        # the rows in Z[s, q]; the planted factor c may have parameter
        # coefficients, and times q + (first variable) it always does
        a, b, c = abc
        f = a.field
        if m:
            c = c * lift(cyclotomic(m), f.tag)
        if shifted:
            c = c * Polynomial(f, [f.gens()[0], 1])
        a, b = a * c, b * c
        g = Polynomial.gcd(a, b)
        assert Polynomial.gcd(b, a) == g
        if a or b:
            assert sympy_poly(g).monic() == sympy_gcd_of_rows(a, b)
            assert g.coeffs[g.valuation] == f.one
        assert cofactors_multiply_back(a, b)

    def test_degree_six_pair_within_budget(self, budget, monkeypatch):
        # Euclid's remainders over the parameter ratios swell without end
        # on this pair
        a, b, c = degree_six_pair()
        with budget(1):
            g = Polynomial.gcd(a, b)
        assert g == c.scale(1 / c.coeffs[0])
        assert exact_div(a, g) * g == a
        assert cofactors_multiply_back(a, b)
        # the quotients come with the gcd, so no long division over the
        # parameter ratios follows it
        monkeypatch.setattr(Polynomial, "divmod_", None)
        with budget(1):
            F = RationalFunction(a, b)
        assert F.num.degree == a.degree - 6 and F.num * b == F.den * a

    @settings(max_examples=60)
    @given(param_case())
    def test_exact_div(self, case):
        _, a, b, c = case
        for x, y in ((a, c), (a, b)):
            if not y:
                continue
            prod = x * y
            assert exact_div(prod, y) == x
            assert cofactors_multiply_back(prod, y)
            if y.degree > 0:
                with pytest.raises(ValueError):
                    exact_div(prod + Polynomial.one(y.field), y)

    def test_gcd_takes_every_component(self):
        # a = 1 - q^2 against x (1 - q^2) + y (1 + q): the x component
        # alone shares 1 - q^2 with a, all of the other input only 1 + q
        fs = FIELDS["Q_s"]
        s1, s2, _ = fs.gens()
        a = Polynomial(fs, [1, 0, -1])
        for x, y in ((s1, s2), (s2, s1)):
            b = a.scale(x) + Polynomial(fs, [1, 1]).scale(y)
            assert Polynomial.gcd(a, b) == Polynomial(fs, [1, 1])
            assert Polynomial.gcd(b, a) == Polynomial(fs, [1, 1])

    def test_cap_shaped_gcd(self):
        # (s1 + s2) * q * (1 - q) * (1 + q)^2 against (1 + q)^3 (1 - q^2)
        fs = FIELDS["Q_s"]
        s1, s2, _ = fs.gens()
        onepq = Polynomial(fs, [1, 1])
        num = (Polynomial(fs, [0, 1, -1]) * onepq ** 2).scale(
            (s1 + s2) / 12)
        den = onepq ** 3 * Polynomial(fs, [1, 0, -1])
        g = Polynomial.gcd(num, den)
        assert g == Polynomial(fs, [1, 1]) ** 2 * Polynomial(fs, [1, -1])
        assert exact_div(num, g) == Polynomial(fs, [0, 1]).scale(
            (s1 + s2) / 12)


class TestComponents:
    def test_round_trip(self):
        fs = FIELDS["Q_s"]
        s1, s2, s3 = fs.gens()
        coeffs = (Fraction(3, 4) * s1 * s2 - s3 / 6, fs.zero,
                  fs.one * 5, s1 * s1 / 10)
        rows, scale = to_components(fs, coeffs)
        assert scale == 60
        assert rows == {(1, 1, 0): [45], (0, 0, 1): [-10],
                        (0, 0, 0): [0, 0, 300], (2, 0, 0): [0, 0, 0, 6]}
        assert tuple(from_components(fs, rows, scale)) == coeffs
        # a negative scale and cancelling rows normalise on the way back
        back = from_components(fs, {(0, 0, 0): [2, 0, -4]}, -4)
        assert tuple(back) == (Fraction(-1, 2) * fs.one, fs.zero, fs.one)
        assert back[0].den == {(0, 0, 0): Fraction(2)}

    def test_q_is_the_one_component_case(self):
        coeffs = (Fraction(1, 2), Fraction(0), Fraction(-2, 3))
        assert to_components(Q, coeffs) == ({(): [3, 0, -4]}, 6)
        assert from_components(Q, {(): [3, 0, -4]}, 6) == list(coeffs)
        assert to_components(Q, ()) == ({}, 1)

    def test_round_trip_over_parameter_denominators(self):
        # non-constant parameter denominators are cleared into the rows
        # over their lcm, and from_components reads canonical ratios back
        fs = FIELDS["Q_s"]
        s1, s2, s3 = fs.gens()
        for coeffs in ((1 / (s1 + 1),), (1 / (s1 * s2 * s3),),
                       ((s1 + 1) / (s2 + 1),),
                       (fs.one, 1 / (s1 + 1), fs.zero, (s1 + 1) / (s2 + 1),
                        1 / (s1 * s2 * s3), 3 / (2 * s1), s2 / 5)):
            rows, scale = to_components(fs, coeffs)
            assert isinstance(scale, ParamScale)
            assert all(isinstance(c, int) for r in rows.values() for c in r)
            back = from_components(fs, rows, scale)
            assert back == list(coeffs)
            assert [str(c) for c in back] == [str(c) for c in coeffs]
        # the first list clears to the single row [1] over s1 + 1
        rows, scale = to_components(fs, (1 / (s1 + 1),))
        assert rows == {(0, 0, 0): [1]}
        assert scale.poly == (s1 + 1).num

    def test_scales_multiply(self):
        fs = FIELDS["Q_s"]
        s1, s2, _ = fs.gens()
        _, a = to_components(fs, (1 / (s1 + 1),))
        _, b = to_components(fs, (1 / (3 * s2 + 3),))
        assert (2 * a).poly == (a * 2).poly == (2 * s1 + 2).num
        assert (a * b).poly == ((s1 + 1) * (3 * s2 + 3)).num
        # a product of rows over the product of scales cancels on the
        # way back: (s1 + 1) * 1/(s1 + 1) is one
        one = from_components(fs, {(1, 0, 0): [1], (0, 0, 0): [1]}, a)
        assert one == [fs.one] and str(one[0]) == "1"


# ---------------------------------------------------------------------------
# the stored form: integer rows over one denominator, coefficients as a view


@st.composite
def coeff_list(draw):
    """(field, coefficients as given, with up to two trailing zeros): small
    fractions over Q, and over Q_s and Q_lambda the coefficients of
    param_poly(ratios=True), so one draw in four has a non-constant
    parameter denominator."""
    tag = draw(st.sampled_from(("Q",) + PARAM_TAGS))
    f = FIELDS[tag]
    if tag == "Q":
        cs = draw(st.lists(small_fractions, max_size=6))
    else:
        cs = list(draw(param_poly(tag, max_size=4)).coeffs)
    return f, cs + [f.zero] * draw(st.integers(0, 2))


def stripped(cs: list) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def rebuilt_on_rows(p: Polynomial) -> list[Polynomial]:
    f = p.field
    return [p * Polynomial.one(f), p + Polynomial.zero(f), p.shift(0)]


def constant_denominators(p: Polynomial) -> bool:
    unit = (0,) * len(p.field.var_names)
    return p.field.tag == "Q" or all(list(c.den) == [unit]
                                     for c in p.coeffs)


def assert_canonical(p: Polynomial) -> None:
    """The canonical form: no trailing zeros, no zero rows, and either a
    positive int denominator coprime to the entries, or a `ParamScale`
    that is not constant, has a positive lex-leading coefficient and no
    common factor with the rows in Z[s] (by sympy's gcd over ZZ); zero
    is ({}, 1)."""
    assert all(r and r[-1] for r in p.rows.values())
    if isinstance(p.denom, int):
        assert p.denom > 0
        assert gcd(p.denom, *(c for r in p.rows.values() for c in r)) == 1
    else:
        scale = p.denom.poly
        assert scale[max(scale)] > 0
        assert any(map(any, scale))
        gens = sympy.symbols((*p.field.var_names, "q"))
        g = sympy.gcd(*(sympy.Poly.from_dict(d, gens, domain=sympy.ZZ)
                        for d in ({e + (0,): c for e, c in scale.items()},
                                  polynomial._zsq(p.rows))))
        assert g.is_one
    if not p:
        assert (p.rows, p.denom) == ({}, 1)


class TestRepresentation:
    @settings(max_examples=80)
    @given(coeff_list())
    def test_coeffs_are_the_given_elements(self, case):
        f, cs = case
        p = Polynomial(f, cs)
        assert isinstance(p.coeffs, tuple)
        assert p.coeffs == stripped(cs)
        # kept as given, so they print as spelled
        assert [str(c) for c in p.coeffs] == [str(c) for c in stripped(cs)]

    @settings(max_examples=80)
    @given(coeff_list())
    def test_rebuilt_on_rows_is_equal(self, case):
        p = Polynomial(*case)
        for r in rebuilt_on_rows(p):
            assert r == p and p == r
            assert r.coeffs == p.coeffs
            if constant_denominators(p):
                assert isinstance(p.denom, int)
                assert str(r) == str(p)
                f = p.field
                assert ([f.coeff_to_json(c) for c in r.coeffs]
                        == [f.coeff_to_json(c) for c in p.coeffs])

    @settings(max_examples=80)
    @given(coeff_list(), coeff_list(), st.integers(-6, 6).filter(bool))
    def test_int_denominator_form_is_canonical(self, case, other, k):
        p = Polynomial(*case)
        q = Polynomial(p.field, other[1]) if other[0] == p.field else p
        for r in [p, q, p * q, p + q, p - p, -p, p.scale(k), p.deriv(),
                  p.reversed_(), *rebuilt_on_rows(p)]:
            assert_canonical(r)
        if isinstance(p.denom, int):
            # a common factor of rows and denominator is cleared
            same = Polynomial.from_rows(
                p.field, {e: [k * c for c in r] + [0]
                          for e, r in p.rows.items()}, k * p.denom)
            assert (same.rows, same.denom) == (p.rows, p.denom)

    @settings(max_examples=80)
    @given(coeff_list(), coeff_list(), st.integers(0, 3))
    def test_eq_agrees_with_coefficientwise_equality(self, case, other, how):
        p = Polynomial(*case)
        f = p.field
        q = [Polynomial(f, other[1]) if other[0] == f else p,
             p * Polynomial.one(f),
             p + Polynomial(f, [0, 0, 1]),
             exact_div(p * Polynomial(f, [1, -1]), Polynomial(f, [2, -2]))
             ][how]
        assert (p == q) == (q == p) == (len(p.coeffs) == len(q.coeffs) and all(
            a == b for a, b in zip(p.coeffs, q.coeffs)))

    @settings(max_examples=60)
    @given(st.sampled_from(PARAM_TAGS).flatmap(param_poly))
    def test_equal_polynomials_have_one_form(self, p):
        # every denominator is reduced, so equality compares the stored
        # form; the last polynomial is built over the scale 1 + s1 and
        # reduced back
        f = p.field
        x = f.gens()[0] + 1
        for r in (Polynomial(f, p.coeffs), p * 1, p + Polynomial.zero(f),
                  p * Polynomial(f, [x]) * Polynomial(f, [1 / x])):
            assert_canonical(r)
            assert r == p
            assert (r.rows, r.denom) == (p.rows, p.denom)

    def test_fields_do_not_mix(self):
        # rows of different fields are keyed by exponents of different
        # lengths, so a product or sum across fields is refused
        p, r = Polynomial(Q, [1, 2]), Polynomial(FIELDS["Q_s"], [1, 2])
        for op in (lambda: p * r, lambda: r * p, lambda: p + r,
                   lambda: r - p):
            with pytest.raises(TypeError, match="polynomials over"):
                op()


# ---------------------------------------------------------------------------
# sums, equality and rational functions on the rows over a `ParamScale`,
# and the coefficients read back from rows

def refuse_field_arithmetic(monkeypatch) -> None:
    """Patch `Polynomial.coeffs`, every `ParamRational` operator and the
    bridge between field elements and rows to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("field-element arithmetic")

    monkeypatch.setattr(Polynomial, "coeffs", property(refuse))
    for name in ("make", "const", "__add__", "__radd__", "__neg__",
                 "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__eq__"):
        monkeypatch.setattr(ParamRational, name, refuse)
    for name in ("from_components", "to_components"):
        monkeypatch.setattr(polynomial, name, refuse)


class TestSumsOnRows:
    def test_param_scale_sums_do_no_field_arithmetic(self, monkeypatch):
        f = FIELDS["Q_s"]
        s1, s2, s3 = f.gens()
        p = Polynomial(f, [1 / (s1 + 1), s2, s3 / (s2 + 2)])
        q = Polynomial(f, [s1 / (s1 + 1), 0, 1 / (s1 * s3 + 1)])
        r = p * Polynomial(f, [1, 1])   # over the product of the scales
        assert all(isinstance(x.denom, ParamScale) for x in (p, q, r))

        def by_coeffs(x, y, sign=1):
            return Polynomial(f, [a + sign * b for a, b in zip(
                x.coeffs, y.coeffs + (f.zero,) * (x.degree - y.degree))])

        want = [by_coeffs(p, q), by_coeffs(p, q, -1), by_coeffs(r, p),
                Polynomial.zero(f), False, True, True]

        refuse_field_arithmetic(monkeypatch)
        got = [p + q, p - q, r + p, p - p, p == q, r == r, p + q == q + p]
        monkeypatch.undo()
        assert got == want
        assert [str(x) for x in got[:4]] == [str(x) for x in want[:4]]

    def test_cross_multiplied_rows_cancel_a_whole_row(self):
        # (s1^2 - 1)(1 + 2q^2)/(s1 - 1) against (s1 + 1)(1 + 2q^2): the
        # scale s1 - 1 cancels against the rows, so both store one form
        f = FIELDS["Q_s"]
        s1 = f.gens()[0]
        p = Polynomial.from_rows(
            f, {(2, 0, 0): [1, 0, 2], (0, 0, 0): [-1, 0, -2]},
            ParamScale({(1, 0, 0): 1, (0, 0, 0): -1}))
        q = Polynomial(f, [s1 + 1, 0, 2 * s1 + 2])
        assert p == q and q == p
        assert p - q == Polynomial.zero(f) and not p - q
        assert (p.rows, p.denom) == (q.rows, q.denom)
        assert p != q + Polynomial(f, [0, 0, 1])
        assert p.coeffs == q.coeffs


    def test_rational_functions_do_no_field_arithmetic(self, monkeypatch):
        # the gcd's cofactors, the lowest denominator coefficient divided
        # out and the equality of the results all run on the rows
        f = FIELDS["Q_s"]
        s1, s2, s3 = f.gens()
        one_q = Polynomial(f, [1, 1])
        pairs = [(Polynomial(f, [1 / (s1 + 1), s2, s3 / (s2 + 2)]) * one_q,
                  Polynomial(f, [(s1 + 1) / (s2 + 1), s3]) * one_q),
                 (Polynomial(f, [s1 / (s2 + 1), 1]),
                  Polynomial(f, [2 * s1 + s2, 2 * s1 + s2])),
                 (Polynomial(f, [s3, 1 / (s1 * s3 + 1)]),
                  Polynomial(f, [1 / (s1 + 1), 0, s2]))]

        refuse_field_arithmetic(monkeypatch)
        got = [RationalFunction(a, b) for a, b in pairs]
        same = [F == RationalFunction(F.num, F.den) for F in got]
        monkeypatch.undo()
        assert all(same)
        # as the field route printed them
        assert [str(F) for F in got] == [
            "(((s2 + 1)/(s1^2 + 2*s1 + 1)) + ((s2^2 + s2)/(s1 + 1))*q + "
            "((s2*s3 + s3)/(s1*s2 + 2*s1 + s2 + 2))*q^2)"
            "/(1 + ((s2*s3 + s3)/(s1 + 1))*q)",
            "((s1/(2*s1*s2 + 2*s1 + s2^2 + s2)) + (1/(2*s1 + s2))*q)"
            "/(1 + q)",
            "((s1*s3 + s3) + ((s1 + 1)/(s1*s3 + 1))*q)"
            "/(1 + (s1*s2 + s2)*q^2)"]
        for F, (a, b) in zip(got, pairs):
            assert F.num * b == F.den * a
            assert F.den.coeffs[F.den.valuation] == f.one
            for p in (F.num, F.den):
                assert_canonical(p)
                assert p == Polynomial(f, p.coeffs)


def is_canonical_ratio(c) -> bool:
    """A parameter ratio as `ParamRational.make` leaves it, with every
    stored value a Fraction."""
    return (all(type(v) is Fraction for part in (c.num, c.den)
                for v in part.values())
            and ParamRational.make(c.tag, c.num, c.den) == c)


class TestRatioCoefficients:
    @settings(max_examples=60)
    @given(st.sampled_from(PARAM_TAGS).flatmap(
        lambda tag: st.tuples(param_poly(tag), param_poly(tag))))
    def test_every_route_stores_fractions(self, pair):
        p, q = pair
        polys = [p, q, p * q, p + q, p - q, p.scale(2), q.shift(1)]
        if q:
            F = RationalFunction(p, q)
            polys += [F.num, F.den]
        for x in polys:
            assert all(map(is_canonical_ratio, x.coeffs))

    def test_construction_under_the_benchmark_tracer(self):
        # the tracer reads the size of every coefficient of a rational
        # function built, and expects Fractions in parameter ratios
        root = str(Path(__file__).resolve().parents[1])
        if root not in sys.path:
            sys.path.insert(0, root)
        import pdc.cli  # noqa: F401  (the tracer wraps pdc.cli.main)
        from perfbench.tracing import Tracer
        f = FIELDS["Q_s"]
        s1, s2, s3 = f.gens()
        tracer = Tracer()
        tracer.install()
        try:
            F = RationalFunction(
                Polynomial(f, [1 / (s1 + 1), s2]) * Polynomial(f, [1, 1]),
                Polynomial(f, [1, s3]))
        finally:
            tracer.uninstall()
        assert tracer.counts["ratfun.coeff_bits_max"] > 0
        assert all(map(is_canonical_ratio, F.num.coeffs + F.den.coeffs))
