"""Coefficient fields: rationals, Gaussian rationals, parameter ratios."""

import functools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from pdc import fields
from pdc.descendents import DescElement
from pdc.fields import (FIELDS, QS, GaussianRational, I, ParamRational,
                        _digits, _mono_from_key, _mv_gcd, _mv_mul, _mv_quo,
                        field, rat)
from pdc.laurent import LaurentSeries
from pdc.polynomial import Polynomial
from pdc.ratfun import RationalFunction
from pdc.virasoro import build_quadratic

from helpers import digits_by_loop


def test_rat_accepts_int_str_fraction():
    assert rat(3) == Fraction(3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat(Fraction(-2, 6)) == Fraction(-1, 3)


def test_floats_are_refused_everywhere():
    # a float's binary value (0.1 is 3602879701896397/2^55) must never be
    # stored as an exact coefficient
    calls = [lambda: GaussianRational(0.1),
             lambda: DescElement({(): 0.1}),
             lambda: build_quadratic(0).scale(0.5),
             lambda: QS.coerce(0.5),
             lambda: Polynomial(QS, [0.1])]
    for call in calls:
        with pytest.raises(TypeError, match="exact rational"):
            call()


class TestGaussianRational:
    def test_field_axioms_random(self):
        rng = random.Random(1)

        def rand():
            return GaussianRational(Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 9)),
                                    Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 9)))

        for _ in range(50):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a - a == GaussianRational.of(0)
            if a != GaussianRational.of(0):
                assert a * a.inverse() == GaussianRational.of(1)

    def test_i_squares_to_minus_one(self):
        assert I * I == GaussianRational.of(-1)

    def test_conjugate_multiplicative(self):
        a = GaussianRational(Fraction(3, 4), Fraction(1, 2))
        b = GaussianRational(Fraction(-1, 3), Fraction(5))
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a * a.conjugate() == GaussianRational.of(
            Fraction(3, 4) ** 2 + Fraction(1, 2) ** 2)

    def test_division(self):
        a = GaussianRational(1, 1)
        assert a / a == GaussianRational.of(1)
        assert 1 / I == -I


class TestParamRational:
    def test_cross_multiplication_equality(self):
        f = FIELDS["Q_s"]
        s1, s2, _ = f.gens()
        left = (s1 * s1 - s2 * s2) / (s1 - s2)
        right = s1 + s2
        # the ratio is reduced to coprime form, so equality compares the
        # stored forms, and it agrees with cross multiplication
        assert left == right and str(left) == "s1 + s2"
        assert _mv_mul(left.num, right.den) == _mv_mul(right.num, left.den)
        assert left + right == 2 * right

    def test_partial_common_factor_cancels(self):
        f = FIELDS["Q_s"]
        s1, s2, s3 = f.gens()
        c = (s1 + 1) * (s2 + 1) / ((s1 + 1) * (s2 + 2))
        assert str(c) == "(s2 + 1)/(s2 + 2)"
        # a common monomial factor is part of the gcd
        assert str(s1 * s2 / (s1 * s1 * s2 + s1 * s2 * s3)) == "1/(s1 + s3)"

    def test_content_normalization_gives_canonical_str(self):
        f = FIELDS["Q_s"]
        s1, s2, _ = f.gens()
        a = (2 * s1 + 2 * s2) / 4
        b = (s1 + s2) / 2
        assert str(a) == str(b)

    def test_field_axioms_random(self):
        f = FIELDS["Q_lambda"]
        gens = f.gens()
        rng = random.Random(2)

        def rand():
            out = f.coerce(rng.randint(-3, 3))
            for g in gens:
                if rng.random() < 0.5:
                    out = out + rng.randint(-2, 2) * g
            return out

        for _ in range(25):
            a, b, c = rand(), rand(), rand()
            assert (a + b) * c == a * c + b * c
            assert a - a == f.zero
            if a != f.zero:
                assert a / a == f.one

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ParamRational.make("Q_s", {(0, 0, 0): Fraction(1)}, {})
        with pytest.raises(ZeroDivisionError):
            ParamRational.make("Q_s", {(0, 0, 0): Fraction(1)},
                               {(1, 0, 0): Fraction(0)})

    def test_zero_entries_are_dropped(self):
        # imported JSON may spell out zero coefficients, as in
        # {"num": {"s1": "0"}}; the canonical form has none
        unit = (0, 0, 0)
        zero = ParamRational.make("Q_s", {(1, 0, 0): Fraction(0)},
                                  {unit: Fraction(1)})
        assert not zero and zero.num == {}
        c = ParamRational.make("Q_s", {unit: Fraction(2), (0, 1, 0): 0},
                               {unit: Fraction(4), (1, 0, 0): 0})
        assert c.num == {unit: Fraction(1)} and c.den == {unit: Fraction(2)}

    def test_unhashable(self):
        # a class that defines __eq__ and no __hash__ is unhashable, the
        # frozen dataclass ParamRational and the row types alike
        f = FIELDS["Q_s"]
        p = Polynomial(f, [1, f.gens()[0]])
        for value in (f.one, p, RationalFunction(p, Polynomial.one(f)),
                      LaurentSeries("q", 0, [1], 1, f)):
            with pytest.raises(TypeError):
                hash(value)

    @pytest.mark.parametrize("make, text", [
        (lambda s1, s2, s3: 1 / (s1 * s2 * s3), "1/(s1*s2*s3)"),
        (lambda s1, s2, s3: 3 / (2 * s1), "3/(2*s1)"),
        (lambda s1, s2, s3: -s2 / (s1 * s1 * s3), "-s2/(s1^2*s3)"),
        (lambda s1, s2, s3: 1 / s1, "1/s1"),
        (lambda s1, s2, s3: 1 / (s1 * s1), "1/s1^2"),
        (lambda s1, s2, s3: (s1 + 1) / (3 * s2 + s3), "(s1 + 1)/(3*s2 + s3)"),
        (lambda s1, s2, s3: s1 * s2 / (s1 + s2), "s1*s2/(s1 + s2)"),
        (lambda s1, s2, s3: (s1 + s3) / 6, "(s1 + s3)/6"),
    ])
    def test_str_reads_back_through_sympy(self, make, text):
        # a product denominator is parenthesised, so the printed form
        # means the value it prints
        f = FIELDS["Q_s"]
        c = make(*f.gens())
        assert str(c) == text
        syms = sympy.symbols(f.var_names)
        names = dict(zip(f.var_names, syms))

        def mv(terms):
            return sum(sympy.Rational(v.numerator, v.denominator)
                       * sympy.Mul(*(x ** k for x, k in zip(syms, e)))
                       for e, v in terms.items())

        read = sympy.sympify(str(c).replace("^", "**"), locals=names)
        assert sympy.simplify(read - mv(c.num) / mv(c.den)) == 0


class TestExactQuotient:
    def test_exact_and_inexact(self):
        f = FIELDS["Q_s"]
        s1, s2, s3 = f.gens()
        a, b = (s1 + s2 * s3 + 1).num, (2 * s1 - s2 + Fraction(1, 3)).num
        assert _mv_quo(_mv_mul(a, b), b) == a
        assert _mv_quo(_mv_mul(a, b), a) == b
        assert _mv_quo({}, b) == {}
        # not a multiple: a remainder term, or a quotient monomial outside
        # the degree box, ends the division
        assert _mv_quo(_mv_add_one(_mv_mul(a, b)), b) is None
        assert _mv_quo(a, _mv_mul(a, a)) is None
        assert _mv_quo((s1 * s1 + 1).num, (s1 + 1).num) is None
        assert _mv_quo((s2 + 1).num, (s1 + 1).num) is None

    @given(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                              st.integers(-3, 3)), min_size=1, max_size=4),
           st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                              st.integers(-3, 3)), min_size=1, max_size=4))
    def test_quotient_of_a_product(self, a, b):
        a = {e: Fraction(c) for e, c in a if c}
        b = {e: Fraction(c) for e, c in b if c}
        if a and b:
            assert _mv_quo(_mv_mul(a, b), b) == a

    @settings(max_examples=100)
    @given(st.sampled_from([2, 4]).flatmap(
        lambda n: st.tuples(st.just(n), int_poly(n), int_poly(n),
                            st.one_of(st.just({}), int_poly(n)))))
    def test_matches_sympy_exact_division(self, case):
        # a multiple b * h, or one plus a remainder r
        n, b, h, r = case
        a = fields.accumulate(_mv_mul(b, h), r.items())
        try:
            want = to_sympy_zz(a, n).exquo(to_sympy_zz(b, n), auto=False)
        except sympy.polys.polyerrors.ExactQuotientFailed:
            want = None
        got = _mv_quo(a, b)
        assert (got if got is None else to_sympy_zz(got, n)) == want

    def test_refuses_a_non_divisor_at_a_point(self, budget):
        # at s1 = 2, -13 does not divide 2^50000 + 3; long division would
        # take 50000 steps on numbers of up to 200000 bits to say so
        with budget(1):
            assert _mv_quo({(50000, 0, 0): 1, (0, 0, 0): 3},
                           {(1, 0, 0): 1, (0, 0, 0): -15}) is None


    def test_long_quotients_within_budget(self, budget):
        # the canonical form of p^4 / (p^2 + 1) divides rows of thousands
        # of terms in Z[lam, q]; the leading remainder term comes from a
        # heap, not a scan of the whole remainder per step
        f = FIELDS["Q_lambda"]
        l0, l1, l2, l3 = f.gens()
        p = Polynomial(f, [1, (l0 * l1 + l2 * l3) / (l0 + l1 + l2 + l3 + 1),
                           l2 / (l3 + 2), 1])
        a, b = p ** 4, p ** 2 + Polynomial.one(f)
        with budget(1.5):
            F = RationalFunction(a, b)
        assert F.num * b == F.den * a


def to_sympy_zz(p: dict, n: int):
    return sympy.Poly.from_dict(p, sympy.symbols(f"x0:{n}"),
                                domain=sympy.ZZ)


def int_poly(n: int):
    """A polynomial over Z in n variables, up to four terms, degree at
    most 2 in the first n - 1 variables and at most 3 in the last, which
    stands for q."""
    exps = st.tuples(*[st.integers(0, 2)] * (n - 1), st.integers(0, 3))
    return st.dictionaries(exps, st.integers(-4, 4).filter(bool),
                           min_size=1, max_size=4)


class TestIntegerGcd:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([4, 5]).flatmap(
        lambda n: st.tuples(st.just(n), int_poly(n), int_poly(n),
                            int_poly(n))))
    def test_matches_sympy_with_planted_factor(self, case):
        # 3 + 1 and 4 + 1 variables: the parameters of Q_s and Q_lambda,
        # then q
        n, a, b, c = case
        f, g = _mv_mul(a, c), _mv_mul(b, c)
        h, cf, cg = _mv_gcd(f, g)
        got = to_sympy_zz(h, n)
        want = sympy.gcd(to_sympy_zz(f, n), to_sympy_zz(g, n))
        assert got in (want, -want)
        # the quotients of the acceptance test are the cofactors
        assert _mv_mul(h, cf) == f and _mv_mul(h, cg) == g
        assert to_sympy_zz(_mv_gcd(f, {})[0], n) in (to_sympy_zz(f, n),
                                                      -to_sympy_zz(f, n))

    def test_refused_evaluation_points(self, monkeypatch):
        # a seeded draw on which evaluation points are refused (three, in
        # the recursion) before the gcd is found
        tried = []
        step = fields._next_width
        monkeypatch.setattr(fields, "_next_width",
                            lambda s: tried.append(s) or step(s))
        a = {(1, 2, 1): 3, (0, 2, 1): 3}
        b = {(0, 0, 2): -1, (1, 1, 1): 1}
        c = {(0, 0, 2): -1, (1, 0, 1): 1, (0, 0, 0): -1}
        f, g = _mv_mul(a, c), _mv_mul(b, c)
        got, cf, cg = _mv_gcd(f, g)
        assert tried
        assert _mv_mul(got, cf) == f and _mv_mul(got, cg) == g
        want = sympy.gcd(to_sympy_zz(f, 3), to_sympy_zz(g, 3))
        assert to_sympy_zz(got, 3) in (want, -want)

    @pytest.mark.parametrize("num, den", [
        # the points grow as the product of the degrees: 31 at s3, about
        # 2^991 at s2 and about 2^198000 at s1
        ({"s1^200*s2^200*s3^200": "1", "1": "1"},
         {"s1^200": "1", "s2^200": "1", "s3^200": "1", "1": "1"}),
        # 31^(10^8) at s1
        ({"s1^100000000": "1"}, {"s1": "1", "1": "1"}),
    ])
    def test_oversized_gcd_raises_within_budget(self, budget, num, den):
        with budget(1), pytest.raises(ValueError,
                                      match="parameter gcd too large"):
            QS.coeff_from_json({"num": num, "den": den})

    def test_gcd_of_a_high_degree_pair_within_budget(self, budget):
        # (s1^d + 1)/(s1^d + 1) needs one point of (d + 1) * 5 bits: below
        # MAX_GCD_IMAGE_BITS at d = 50000, above it at d = 53000
        def ratio(d):
            p = {(d, 0, 0): Fraction(1), (0, 0, 0): Fraction(1)}
            return ParamRational.make("Q_s", p, dict(p))

        with budget(1.5):
            assert ratio(50000) == 1
        with budget(1.5), pytest.raises(ValueError,
                                        match="parameter gcd too large"):
            ratio(53000)

    def test_constants_and_contents(self):
        assert _mv_gcd({(0, 0): 6}, {(0, 0): Fraction(-4)}) == (
            {(0, 0): 2}, {(0, 0): 3}, {(0, 0): -2})
        assert _mv_gcd({(1, 0): 6}, {(0, 1): 4}) == (
            {(0, 0): 2}, {(1, 0): 3}, {(0, 1): 2})
        assert _mv_gcd({(1, 0): 6}, {}) == ({(1, 0): 6}, {(0, 0): 1}, {})
        assert _mv_gcd({}, {}) == ({}, {}, {})

    @settings(max_examples=200)
    @given(st.integers(-2 ** 5000, 2 ** 5000), st.integers(2, 70))
    @example(-127, 2)
    def test_digits_match_the_digit_loop(self, n, s):
        # the digits are s-bit slices of one binary string; -127 at s = 2
        # has the top digit -1, all zero bits once biased, which the
        # string must keep
        assert _digits(n, s) == digits_by_loop(n, 2 ** s)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 31, 32, 33, 64, 70])
    def test_digits_at_the_ends_of_the_balanced_range(self, s):
        # n = +-x^k/2 and its neighbours for x = 2^s, where a digit sits
        # at the edge of (-x/2, x/2]
        x = 2 ** s
        for k in range(0, 200, 7):
            for c in (x ** k // 2, -(x ** k // 2)):
                for n in (c - 1, c, c + 1):
                    assert _digits(n, s) == digits_by_loop(n, x)


def _mv_add_one(a):
    out = dict(a)
    out[(0, 0, 0)] = out.get((0, 0, 0), 0) + 1
    return {e: c for e, c in out.items() if c}


class TestFieldWrapper:
    def test_known_tags_only(self):
        with pytest.raises(ValueError):
            field("R")
        assert field("Q").tag == "Q"

    @pytest.mark.parametrize("tag", ["Q", "Q_s", "Q_lambda"])
    def test_coeff_json_round_trip(self, tag):
        f = FIELDS[tag]
        samples = [f.zero, f.one, f.coerce(Fraction(-7, 3))]
        samples.extend(g + f.one for g in f.gens())
        for c in samples:
            assert f.coeff_from_json(f.coeff_to_json(c)) == c

    @pytest.mark.parametrize("tag", ["Q", "Qi", "Q_s", "Q_lambda"])
    def test_coeff_json_takes_strings_and_ints_only(self, tag):
        f = FIELDS[tag]

        def wrap(v):
            if tag in ("Q", "Qi"):
                return v
            return {"num": {"1": v}, "den": {"1": "1"}}

        assert f.coeff_from_json(wrap(-3)) == f.coerce(-3)
        assert f.coeff_from_json(wrap("5/2")) == f.coerce(Fraction(5, 2))
        for bad in (0.1, 1.0, True, False, None, [1]):
            with pytest.raises(ValueError, match="not a string or an integer"):
                f.coeff_from_json(wrap(bad))

    @pytest.mark.parametrize("text", ["0.1", "1e3", "1_0", "-0.5e-2",
                                      "ii", "2**i", "1+2*ii", "2i", "",
                                      "1.5", "3/0", "1+", "i*2", "3/",
                                      "--1", "1/-2", "\u00b2"])
    def test_coeff_from_json_rejects_malformed(self, text):
        # one grammar for every rational read from JSON: an optional sign
        # and a or a/b in ASCII digits, as coeff_to_json writes them
        for tag in ("Q", "Q_s", "Q_lambda"):
            f = FIELDS[tag]
            v = text if tag == "Q" else {"num": {"1": text}, "den": {"1": "1"}}
            with pytest.raises(ValueError, match="is not a rational"):
                f.coeff_from_json(v)

    def test_coeff_from_json_reads_signed_rationals(self):
        q = FIELDS["Q"]
        for text, value in [("-3", -3), ("+3", 3), (" 5/2 ", Fraction(5, 2)),
                            ("-5/10", Fraction(-1, 2)), ("0", 0),
                            ("007", 7)]:
            assert q.coeff_from_json(text) == value

    @pytest.mark.parametrize("key", ["s1*s1", "s1^1", "s1^-1", "s2*s1",
                                     "s1^0", "1*s1", "", "s4", "s1^02",
                                     "s1^", "s1*", "s1^2^2"])
    def test_monomial_keys_must_be_spelled_as_written(self, key):
        names = FIELDS["Q_s"].var_names
        with pytest.raises(ValueError, match="malformed monomial key"):
            _mono_from_key(key, names)
        with pytest.raises(ValueError, match="malformed monomial key"):
            FIELDS["Q_s"].coeff_from_json({"num": {key: "1"},
                                           "den": {"1": "1"}})

    def test_monomial_keys_written_forms(self):
        names = FIELDS["Q_s"].var_names
        for key, e in [("1", (0, 0, 0)), ("s1", (1, 0, 0)),
                       ("s1*s3^12", (1, 0, 12)), ("s1^2*s2*s3", (2, 1, 1))]:
            assert _mono_from_key(key, names) == e

    def test_coerce_rejects_cross_field(self):
        with pytest.raises((TypeError, ValueError)):
            FIELDS["Q"].coerce(I)


# ---------------------------------------------------------------------------
# ring axioms of the q-side scalar fields


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def scalar(tag):
    """An element of Q, or of Q_s / Q_lambda: a sum of up to three terms
    c * (monomial of degree <= 2 in the parameters), over 1 or over
    1 + c * (one parameter)."""
    f = FIELDS[tag]
    if tag == "Q":
        return small_fractions
    gens = f.gens()
    monomial = st.lists(st.sampled_from(gens), max_size=2).map(
        lambda gs: functools.reduce(operator.mul, gs, f.one))
    numerator = st.lists(st.tuples(small_fractions, monomial),
                         max_size=3).map(
        lambda terms: sum((c * m for c, m in terms), f.zero))
    denominator = st.one_of(
        st.just(f.one),
        st.tuples(small_fractions.filter(bool), st.sampled_from(gens)).map(
            lambda cg: f.one + cg[0] * cg[1]))
    return st.tuples(numerator, denominator).map(lambda nd: nd[0] / nd[1])


def scalar_triple(tag):
    return st.tuples(st.just(FIELDS[tag]), scalar(tag), scalar(tag),
                     scalar(tag))


class TestRingAxioms:
    """Q, Q_s and Q_lambda are fields.  A Fraction and a parameter ratio
    are canonical (a ratio is reduced by the gcd of its numerator and
    denominator), so equal values print alike."""

    @given(st.sampled_from(["Q", "Q_s", "Q_lambda"]).flatmap(scalar_triple))
    def test_axioms(self, case):
        f, a, b, c = case
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + f.zero == a and a * f.one == a
        assert a - a == f.zero and (a - b) + b == a
        assert a - b == -(b - a)
        if a:
            assert a * (f.one / a) == f.one
            assert (b / a) * a == b
            assert (b * a) / a == b
            # signs and contents are normalised
            assert str((-b) / (-a)) == str(b / a)
            assert str((3 * b) / (3 * a)) == str(b / a)
            assert str((b * a) / a) == str(b)
        # the canonical form does not depend on the order of the operands
        assert str(a + b) == str(b + a)
        assert str(a * b) == str(b * a)
        assert str(a - b) == str(-(b - a))


class TestEquality:
    """A canonical ratio is unique, so == reads the stored dicts; it must
    agree with cross-multiplication."""

    @given(st.sampled_from(["Q_s", "Q_lambda"]).flatmap(scalar_triple))
    def test_matches_cross_multiplication(self, case):
        _, a, b, c = case
        pairs = [(a, b), (a, a + b - b), (a * c, c * a), (-a, a * -1)]
        if c:
            pairs.append(((a * c) / c, a))
        for x, y in pairs:
            crossed = _mv_mul(x.num, y.den) == _mv_mul(y.num, x.den)
            assert (x == y) == crossed
            assert (x == y) == (y == x)
