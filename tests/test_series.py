"""Series table, reduction rules, evaluators, and serialization."""

import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from pdc.checks import _local_curve_brute_coeffs
from pdc.cli import _current_db, main
from pdc.descendents import DescElement, gen, parse_element
from pdc.fields import FIELDS, ParamRational, _mono_key, components_from_json
from pdc.laurent import laurent_expand
from pdc.partitions import partitions_of, zaut
from pdc.polynomial import Polynomial
from pdc.ratfun import (RationalFunction, fe_check, parse_rf, pole_check,
                        q_ddq)
from pdc.series import (GEOMETRIES, PROVENANCES, CobordismSeries, SeriesDB,
                        SeriesKey,
                        SeriesRecord, UnknownSeriesError, builtin_db,
                        canonical_insertions, cap_series, cobordism_example,
                        cobordism_fe_check, dump_db, key_from_str, key_str,
                        load_db, local_curve_series, make_key,
                        partition_from_label, partition_label, record_from_obj,
                        record_to_obj, records_from_json, records_to_json,
                        reduce, rf_from_obj, rf_to_obj,
                        virasoro_constraint_check)

from helpers import (cap_by_products, local_curve_by_products,
                     q_ddq_reference, reference_poly_from_json,
                     reference_rational_from_json)


class TestKeys:
    def test_canonical_insertions_forms(self):
        assert canonical_insertions("") == "1"
        assert canonical_insertions("1") == "1"
        assert canonical_insertions("tau2(p)") == "ch4(p)"
        assert canonical_insertions("ch3(p) * ch3(H)") == "ch3(H)*ch3(p)"
        assert canonical_insertions((gen(3, "p"), gen(3, "H"))) == (
            "ch3(H)*ch3(p)")
        assert canonical_insertions(DescElement.of(gen(4, "p"))) == "ch4(p)"

    def test_rejects_non_monomials(self):
        with pytest.raises(ValueError):
            canonical_insertions("ch3(p) + ch4(p)")
        with pytest.raises(ValueError):
            canonical_insertions("2*ch3(p)")

    def test_make_key_validation(self):
        with pytest.raises(ValueError):
            make_key("P4", 1, "ch4(p)")
        with pytest.raises(ValueError):
            make_key("P3", 0, "ch4(p)")

    @pytest.mark.parametrize("degree", [True, False, 1.0, 1.5, "1", None])
    def test_make_key_takes_int_degrees_only(self, degree):
        with pytest.raises(ValueError, match="degree must be a positive"):
            make_key("Cap", degree, "ch3(p)", "(1)")

    @pytest.mark.parametrize("degree", ["0_1", " 1 ", "+1", "-1", "0",
                                        "x", "", "\u0661", "1.0"])
    def test_key_from_str_reads_ascii_digits_only(self, degree):
        with pytest.raises(ValueError) as info:
            key_from_str(f"P3:{degree}:ch4(p)")
        assert str(info.value) == (
            f"key degree {degree!r} is not a positive integer")

    @pytest.mark.parametrize("degree", [True, 1.0, 1.5, "1"])
    def test_imported_degrees_must_be_ints(self, degree):
        rows = json.loads(records_to_json(builtin_db()))
        rows[0]["degree"] = degree
        with pytest.raises(ValueError, match="record 0: degree must be a "
                                             "positive integer"):
            records_from_json(json.dumps(rows))

    def test_key_str_round_trip(self):
        k = make_key("Cap", 2, "ch4(p)", "(2)")
        assert key_str(k) == "Cap:2:ch4(p):(2)"
        assert key_from_str(key_str(k)) == k
        plain = make_key("P3", 1, "tau2(p)")
        assert key_str(plain) == "P3:1:ch4(p)"
        assert key_from_str("P3:1:ch4(p)") == plain
        with pytest.raises(ValueError):
            key_from_str("P3:1")


class TestSeriesDB:
    def test_builtin_contents(self):
        db = builtin_db()
        assert len(db) == 8
        by_prov = {}
        for r in db.records():
            by_prov.setdefault(r.provenance, []).append(key_str(r.key))
        assert by_prov["conjectural"] == ["P3:2:ch11(1)"]
        assert len(by_prov["exact"]) == 7

    def test_get_and_find(self):
        db = builtin_db()
        key = make_key("P3", 1, "ch4(p)")
        assert db.get(key).value == parse_rf(
            "(q/12 - 5*q^2/6 + q^3/12)")
        assert db.find(make_key("P3", 9, "ch4(p)")) is None
        with pytest.raises(UnknownSeriesError) as info:
            db.get(make_key("P3", 9, "ch4(p)"))
        assert info.value.key == make_key("P3", 9, "ch4(p)")
        assert "P3:9:ch4(p)" in str(info.value)

    def test_immutable_and_conflict_detection(self):
        db = builtin_db()
        with pytest.raises(AttributeError):
            db._records = {}
        rec = db.get(make_key("P3", 1, "ch4(p)"))
        clash = SeriesRecord(rec.key, rec.value + RationalFunction.one("Q"),
                             "exact")
        with pytest.raises(ValueError):
            SeriesDB([rec, clash])
        # identical duplicate is fine
        assert len(SeriesDB([rec, rec])) == 1

    def test_provenance_validation(self):
        rec = builtin_db().records()[0]
        with pytest.raises(ValueError):
            SeriesDB([SeriesRecord(rec.key, rec.value, "guess")])

    def test_merged_other_wins(self):
        db = builtin_db()
        rec = db.get(make_key("P3", 1, "ch4(p)"))
        override = SeriesRecord(rec.key, rec.value, "evaluator")
        extra = SeriesRecord(make_key("P3", 3, "ch15(1)"),
                             RationalFunction.one("Q"), "exact")
        merged = db.merged(SeriesDB([override, extra]))
        assert len(merged) == 9
        assert merged.get(rec.key).provenance == "evaluator"
        assert db.get(rec.key).provenance == "exact"


def local_curve_term_by_term(d: int) -> RationalFunction:
    """The local-curve sum as first written: one rational function per
    part, multiplied out and added partition by partition."""
    f = FIELDS["Q"]
    total = RationalFunction.zero(f)
    for mu in partitions_of(d):
        term = RationalFunction.const(f, Fraction((-1) ** len(mu)) / zaut(mu))
        for m in mu:
            neg_q_m = Polynomial(f, [0] * m + [(-1) ** m])
            term = term * RationalFunction(
                neg_q_m, (Polynomial.one(f) - neg_q_m) ** 2)
        total = total + term
    return total


def local_curve_partition_sum(d: int) -> RationalFunction:
    """The local-curve evaluator as a sum over partitions: one numerator
    polynomial per partition over the one denominator
    prod_m (1-(-q)^m)^(2*floor(d/m)), cancelled once."""
    f = FIELDS["Q"]
    one = Polynomial.one(f)
    squares = [None] + [(one - Polynomial(f, [0] * m + [(-1) ** m])) ** 2
                        for m in range(1, d + 1)]
    num = Polynomial.zero(f)
    for mu in partitions_of(d):
        term = Polynomial.const(f, Fraction((-1) ** len(mu)) / zaut(mu))
        for m in range(1, d + 1):
            term = term * squares[m] ** (d // m - mu.count(m))
        num = num + term
    den = one
    for m in range(1, d + 1):
        den = den * squares[m] ** (d // m)
    return RationalFunction(num.shift(d).scale((-1) ** d), den)


def cap_series_quadratic(d: int) -> RationalFunction:
    """The cap evaluator with each numerator term multiplied out factor
    by factor over Q, O(d^2) products; the quotient is cancelled over
    Q_s and scaled there coefficient by coefficient."""
    f = FIELDS["Q"]
    one = Polynomial.one(f)
    factors = [one - Polynomial(f, [0] * i + [(-1) ** i])
               for i in range(1, d + 1)]
    num = Polynomial.zero(f)
    den = one
    for i in range(1, d + 1):
        term = one + Polynomial(f, [0] * i + [(-1) ** i])
        for j in range(d):
            if j != i - 1:
                term = term * factors[j]
        num = num + term
        den = den * factors[i - 1]
    fs = FIELDS["Q_s"]
    s1, s2, _ = fs.gens()
    value = RationalFunction(Polynomial(fs, num.coeffs),
                             Polynomial(fs, den.coeffs))
    return value.scale_monomial((s1 + s2) / (2 * factorial(d)), d)


def assert_same_series(got: RationalFunction, want: RationalFunction):
    assert got == want
    assert str(got) == str(want)
    assert rf_to_obj(got) == rf_to_obj(want)


class TestEvaluators:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_local_curve_matches_term_by_term_sum(self, d):
        assert local_curve_series(d) == local_curve_term_by_term(d)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_local_curve_matches_partition_sum(self, d):
        assert_same_series(local_curve_series(d), local_curve_partition_sum(d))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_cap_matches_quadratic_reference(self, d):
        assert_same_series(cap_series(d), cap_series_quadratic(d))

    @pytest.mark.parametrize("d", range(1, 15))
    def test_local_curve_prints_as_the_product_oracle(self, d):
        # the running sums against full products by y_m: the same str
        # and the same JSON
        got, want = local_curve_series(d), local_curve_by_products(d)
        assert str(got) == str(want)
        assert json.dumps(rf_to_obj(got)) == json.dumps(rf_to_obj(want))

    @pytest.mark.parametrize("d", range(1, 31))
    def test_cap_prints_as_the_product_oracle(self, d):
        # one binomial division per term against prefix and suffix
        # products, and (s1 + s2) / (2 d!) built at once against field
        # arithmetic
        got, want = cap_series(d), cap_by_products(d)
        assert str(got) == str(want)
        assert json.dumps(rf_to_obj(got)) == json.dumps(rf_to_obj(want))

    @pytest.mark.parametrize("d", [*range(11, 17), 20])
    def test_local_curve_rationality_and_functional_equation(self, d):
        # the paper's rationality and q -> 1/q symmetry at sizes the
        # partition-sum evaluator did not reach
        value = local_curve_series(d)
        assert fe_check(value, 0, 1)
        assert pole_check(value, d)

    @pytest.mark.parametrize("d", range(8, 13))
    def test_local_curve_matches_brute_force_expansion(self, d):
        order = 2 * d + 4
        got = laurent_expand(local_curve_series(d), order).as_dict()
        assert ({n: c for n, c in got.items() if c}
                == _local_curve_brute_coeffs(d, order))

    def test_local_curve_closed_forms(self):
        assert local_curve_series(1) == parse_rf("q/(1+q)^2")
        assert local_curve_series(2) == parse_rf(
            "-2*q^3/((1+q)^4*(1-q)^2)")

    def test_local_curve_validation(self):
        with pytest.raises(ValueError):
            local_curve_series(0)

    def test_cap_closed_forms(self):
        fs = FIELDS["Q_s"]
        s1, s2, _ = fs.gens()
        half = (s1 + s2) / 2
        d1 = RationalFunction(Polynomial(fs, [0, half, -half]),
                              Polynomial(fs, [1, 1]))
        assert cap_series(1) == d1
        d2 = RationalFunction(Polynomial(fs, [0, 0, half, -half, half]),
                              Polynomial(fs, [1, 0, -1]))
        assert cap_series(2) == d2

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            cap_series(0)


def want_after_rules(F, d, dilatons, divisors):
    """F after the dilaton rule, by the quotient rule, and the divisor
    rule, as a product, each applied the given number of times."""
    for _ in range(dilatons):
        F = q_ddq_reference(F) - F * (2 * d)
    for _ in range(divisors):
        F = F * d
    return F


class TestReduction:
    def test_dimension_rule(self):
        assert reduce(parse_element("ch4(p)"), 2).is_zero
        assert reduce(parse_element("ch2(p)*ch2(p)"), 2).is_zero
        # degree-5 monomial at d = 1 vanishes even without a record
        assert reduce(parse_element("ch3(p)*ch3(L)"), 1).is_zero

    def test_scalars_and_empty(self):
        assert reduce(DescElement.zero(), 1).is_zero
        assert reduce(DescElement.constant(7), 1).is_zero

    def test_string_rule(self):
        assert reduce(parse_element("ch2(1)*ch8(1)"), 1).is_zero

    def test_divisor_rule(self):
        db = builtin_db()
        stored = db.lookup("P3", 1, "ch7(1)")
        assert reduce(parse_element("ch2(H)*ch7(1)"), 1) == stored
        assert reduce(parse_element("ch2(H)*ch2(H)*ch7(1)"), 1) == stored
        big = db.lookup("P3", 2, "ch11(1)")
        assert reduce(parse_element("ch2(H)*ch11(1)"), 2) == (
            big.scale_monomial(2))

    def test_dilaton_rule(self):
        db = builtin_db()
        inner = db.lookup("P3", 1, "ch4(p)")
        got = reduce(parse_element("ch3(1)*ch4(p)"), 1)
        assert got == q_ddq(inner) - inner * 2
        # the stored dilaton pair agrees with applying the rule
        assert reduce(parse_element("ch3(1)*ch7(1)"), 1) == (
            db.lookup("P3", 1, "ch3(1)*ch7(1)"))

    @pytest.mark.parametrize("inner, d", [("ch7(1)", 1), ("ch4(p)", 1),
                                          ("ch2(p)*ch2(p)", 1),
                                          ("ch11(1)", 2)])
    def test_rule_chains_match_quotient_rule(self, inner, d):
        # ch3(1)^k * ch2(H)^j * X: k dilatons by the quotient rule, then
        # a product by d^j
        F = builtin_db().lookup("P3", d, inner)
        for k in range(4):
            for j in range(3):
                text = "*".join(["ch3(1)"] * k + ["ch2(H)"] * j + [inner])
                got = reduce(parse_element(text), d)
                assert got == want_after_rules(F, d, k, j), text
                assert str(got) == str(want_after_rules(F, d, k, j))

    def test_rules_over_a_parameter_field_through_pdc_db(
            self, tmp_path, monkeypatch, capsys):
        # a P3 record over Q_s with non-constant parameter denominators,
        # read through PDC_DB as the CLI reads it
        fs = FIELDS["Q_s"]
        s1, s2, s3 = fs.gens()
        a, b = s1 / (s2 + 1), (s1 + s2) / (s3 + 2)
        F = RationalFunction(Polynomial(fs, [0, a, 3, b]),
                             Polynomial(fs, [1, b, 1]) ** 2
                             * Polynomial(fs, [1, -1]))
        record = SeriesRecord(make_key("P3", 2, "ch10(H)"), F, "conjectural")
        path = tmp_path / "qs.json"
        path.write_text(records_to_json([record]))
        monkeypatch.setenv("PDC_DB", str(path))
        db = _current_db()
        for text, k, j in (("ch3(1)*ch10(H)", 1, 0),
                           ("ch2(H)*ch10(H)", 0, 1),
                           ("ch3(1)*ch3(1)*ch2(H)*ch10(H)", 2, 1)):
            want = want_after_rules(F, 2, k, j)
            assert reduce(parse_element(text), 2, db) == want, text
            assert main(["--json", "expand", "--series", text, "--degree",
                         "2", "--order", "6"]) == 0
            payload = json.loads(capsys.readouterr().out)
            S = laurent_expand(want, 6)
            assert payload["coeffs"] == [[S.min_exp + n, fs.coeff_to_json(c)]
                                         for n, c in enumerate(S.coeffs)
                                         if c]

    def test_linearity_and_coefficients(self):
        db = builtin_db()
        stored = db.lookup("P3", 1, "ch4(p)")
        got = reduce(parse_element("2*ch4(p)"), 1)
        assert got == stored.scale_monomial(2)
        combo = parse_element("ch4(p) - ch4(p)")
        assert reduce(combo, 1).is_zero

    def test_unknown_monomial_raises(self):
        with pytest.raises(UnknownSeriesError) as info:
            reduce(parse_element("ch6(H)"), 1)
        assert info.value.key == SeriesKey("P3", 1, "ch6(H)", None)
        with pytest.raises(UnknownSeriesError):
            reduce(parse_element("ch5(L)"), 1)

    def test_equivariant_bypasses_geometry_rules(self):
        db = builtin_db()
        stored = db.lookup("P3", 1, "ch5(p0)")
        assert reduce(parse_element("ch5(p0)"), 1) == stored
        # no dimension shortcut: missing equivariant data must raise
        with pytest.raises(UnknownSeriesError):
            reduce(parse_element("ch5(p0)"), 2)
        with pytest.raises(UnknownSeriesError):
            reduce(parse_element("ch4(p0)"), 1)

    def test_mixed_coefficient_fields(self):
        stored = builtin_db().lookup("P3", 1, "ch5(p0)")
        with pytest.raises(ValueError, match="Q and Q_lambda"):
            reduce(parse_element("ch5(p0) + ch4(p)"), 1)
        # a monomial the dimension rule kills is zero in every field
        assert reduce(parse_element("ch5(p0) + ch3(p)"), 1) == stored

    def test_other_geometries_go_straight_to_lookup(self):
        db = builtin_db()
        got = reduce(parse_element("ch4(p)"), 1, geometry="Cap",
                     boundary="(1)")
        assert got == db.lookup("Cap", 1, "ch4(p)", "(1)")
        with pytest.raises(UnknownSeriesError):
            reduce(parse_element("ch4(p)"), 1, geometry="LocalCurve")

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            reduce(parse_element("ch4(p)"), 0)

    def test_constraint_check_entry_points(self):
        assert virasoro_constraint_check(1, "ch3(p)", 1)
        assert virasoro_constraint_check(1, (gen(3, "p"),), 1)
        assert virasoro_constraint_check(
            1, DescElement.of(gen(3, "p")), 1)


class TestCobordism:
    def test_labels_and_components(self):
        series = cobordism_example()
        assert sorted(series.components, reverse=True) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert series.component((4,)) == parse_rf("-4*q - 40*q^2 - 4*q^3")
        assert series.component((2, 2)) == parse_rf("6*q + 60*q^2 + 6*q^3")

    def test_joint_functional_equation(self):
        assert cobordism_fe_check(cobordism_example(), 4)
        assert not cobordism_fe_check(cobordism_example(), 2)

    def test_component_symmetry(self):
        series = cobordism_example()
        for mu in series.components:
            assert fe_check(series.component(mu), 4, 1), mu

    def test_validation(self):
        good = RationalFunction.one("Q")
        with pytest.raises(ValueError):
            CobordismSeries({(1, 2): good})
        with pytest.raises(ValueError):
            CobordismSeries({(2,): good, (1, 1, 1): good})
        with pytest.raises(TypeError):
            CobordismSeries({(2,): "q"})

    def test_partition_labels(self):
        assert partition_label((3, 1)) == "[3,1]"
        assert partition_from_label("[3,1]") == (3, 1)
        assert partition_from_label("[]") == ()
        with pytest.raises(ValueError):
            partition_from_label("3,1")
        with pytest.raises(ValueError):
            partition_from_label("[1,3]")
        with pytest.raises(ValueError):
            partition_from_label("[0]")
        assert partition_from_label("[ 3, 1 ]") == (3, 1)
        for label in ("[3,,1]", "[3,1,]", "[,3]", "[ , ]"):
            with pytest.raises(ValueError, match="empty parts"):
                partition_from_label(label)


INSERTIONS = ["1", "ch3(p)", "ch4(H)*ch5(p)", "ch2(L)*ch2(L)", "ch7(1)"]
fractions = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@st.composite
def param_scalar(draw, tag, ratios):
    """A parameter-field element: up to three monomials of degree at most
    two per variable, over a constant or, when ratios is set and one time
    in two, over c*(1 + first variable)."""
    nvars = len(FIELDS[tag].var_names)
    unit = (0,) * nvars
    num = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars),
                               fractions, max_size=3))
    den = {unit: draw(fractions.filter(bool))}
    if ratios and draw(st.booleans()):
        den[tuple(int(t == 0) for t in range(nvars))] = den[unit]
    return ParamRational.make(tag, num, den)


@st.composite
def ratfun_over(draw, tag):
    """A rational function over Q or a parameter field, with its
    denominator in Q[q].  A numerator coefficient with a non-constant
    parameter denominator comes with a constant denominator in q: the
    canonical form's gcd is then Euclid's over the field, which costs
    one division by a constant, not an unbounded remainder sequence."""
    f = FIELDS[tag]
    ratios = tag != "Q" and draw(st.booleans())
    scalar = fractions if tag == "Q" else param_scalar(tag, ratios)
    num = Polynomial(f, draw(st.lists(scalar, max_size=4)))
    den = Polynomial(f, draw(st.lists(fractions, min_size=1,
                                      max_size=1 if ratios else 4)
                             .filter(any)))
    return RationalFunction(num, den)


# JSON rationals as a file may spell them: leading zeros, signs, spaces
# (Unicode ones too), unreduced and zero values
json_rationals = st.one_of(
    st.sampled_from(["007", "+3", " 5/2 ", "-0", "2/4", "-6/4", "0", "1"]),
    st.from_regex(r"\s*[+-]?\s*[0-9]{1,3}(\s*/\s*0*[1-9][0-9]?)?\s*",
                  fullmatch=True),
    st.integers(-30, 30))


def json_coefficients(tag, min_size=0):
    """A JSON coefficient list over the field tag of at least min_size
    entries: rationals over Q, and
    {num, den} objects over a parameter field, whose den is the constant
    key "1", that key beside a zero entry, or one to three monomials,
    with nonzero values."""
    if tag == "Q":
        return st.lists(json_rationals, min_size=min_size, max_size=4)
    names = FIELDS[tag].var_names
    keys = st.tuples(*[st.integers(0, 2)] * len(names)).map(
        lambda e: _mono_key(e, names))
    terms = st.dictionaries(keys, json_rationals, max_size=3)
    nonzero = json_rationals.filter(reference_rational_from_json)
    den = st.one_of(
        st.builds(lambda c: {"1": c}, nonzero),
        st.builds(lambda k, c: {k: "0", "1": c}, keys, nonzero),
        st.dictionaries(keys, nonzero, min_size=1, max_size=3))
    return st.lists(st.fixed_dictionaries({"num": terms, "den": den}),
                    min_size=min_size, max_size=3)


def outcome(read):
    """read(), or the type and message of the ValueError or
    ZeroDivisionError it raises."""
    try:
        return read()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestJsonReader:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["Q", "Q_s", "Q_lambda"]).flatmap(
        lambda tag: st.tuples(st.just(tag), json_coefficients(tag),
                              json_coefficients(tag, min_size=1))))
    @example(("Q", ["007", "+3", " 5/2 ", "-0", "2/4"], ["-6/4", "1/0"]))
    @example(("Q_s", [{"num": {"s1": "007", "1": "-0"}, "den": {"1": "-6/4"}},
                      {"num": {"1": "2/4"}, "den": {"s1": "0", "1": "2"}}],
              [{"num": {"1": "+3"}, "den": {"s1": " 5/2 ", "1": "1"}}]))
    @example(("Q_lambda", [{"num": {"lam0": "1"}, "den": {"lam1": "2/4"}}],
              [{"num": {"1": "-0"}, "den": {"1": "-6/4"}},
               {"num": {"lam2": "3"}, "den": {"1": "7", "lam0": "0"}}]))
    @example(("Q_s", [{"num": {"1": "1"}, "den": {"1": "0"}}], ["1"]))
    @example(("Q_s", [{"num": {"1": "1"}, "den": {}}], ["1"]))
    def test_rows_match_the_per_coefficient_route(self, case):
        # the reader goes straight to integer rows; the reference builds
        # a field element per coefficient, and both must give the same
        # polynomial, record bytes and errors
        tag, num, den = case
        f = FIELDS[tag]
        got = outcome(lambda: Polynomial.from_rows(
            f, *components_from_json(f, num)))
        want = outcome(lambda: reference_poly_from_json(f, num))
        assert got == want
        if isinstance(want, Polynomial):
            assert str(got) == str(want)

        def exported(value):
            return records_to_json([SeriesRecord(
                make_key("P3", 1, "ch4(p)"), value, "exact")])

        want = outcome(lambda: exported(RationalFunction(
            *(reference_poly_from_json(f, part) for part in (num, den)))))
        if want[0] is ZeroDivisionError:
            want = ValueError, "zero denominator"
        assert outcome(lambda: exported(rf_from_obj(
            {"field": tag, "num": num, "den": den}))) == want


class TestSerialization:
    def test_rf_round_trip_all_fields(self):
        samples = [builtin_db().lookup("P3", 1, "ch4(p)"),
                   builtin_db().lookup("P3", 1, "ch5(p0)"),
                   builtin_db().lookup("Cap", 1, "ch4(p)", "(1)")]
        for value in samples:
            again = rf_from_obj(rf_to_obj(value))
            assert again == value and again.field.tag == value.field.tag

    def test_record_round_trip(self):
        for rec in builtin_db().records():
            assert record_from_obj(record_to_obj(rec)) == rec

    def test_json_byte_identical(self):
        text = records_to_json(builtin_db())
        again = records_to_json(records_from_json(text))
        assert again == text

    @pytest.mark.parametrize("d", range(1, 7))
    def test_cap_record_round_trip(self, d):
        # an imported cap record is canonicalised over Q_s; its gcd takes
        # the integer core, so the cost stays bounded in d
        record = SeriesRecord(make_key("Cap", d, f"ch{d + 2}(p)", f"({d})"),
                              cap_series(d), "evaluator")
        text = records_to_json([record])
        back = records_from_json(text)
        assert back == [record]
        assert records_to_json(back) == text

    def test_spelled_out_zero_parameter_entries(self):
        # zero entries in an imported parameter coefficient are dropped,
        # so the record reads back as the canonical one
        record = builtin_db().get(key_from_str("Cap:1:ch4(p):(1)"))
        rows = json.loads(records_to_json([record]))
        rows[0]["value"]["num"].append({"num": {"s1": "0"},
                                        "den": {"1": "1"}})
        rows[0]["value"]["den"][1]["num"]["s2"] = "0"
        assert records_from_json(json.dumps(rows)) == [record]

    def test_records_from_json_requires_list(self):
        with pytest.raises(ValueError):
            records_from_json('{"geometry": "P3"}')

    def test_bad_records_name_their_index(self):
        rows = [record_to_obj(r) for r in builtin_db().records()]
        del rows[1]["degree"]
        with pytest.raises(ValueError, match="record 1: missing field"):
            records_from_json(json.dumps(rows))
        rows = [record_to_obj(r) for r in builtin_db().records()]
        rows[2]["value"]["den"] = ["0"]
        with pytest.raises(ValueError, match="record 2: zero denominator"):
            records_from_json(json.dumps(rows))
        with pytest.raises(ValueError, match="missing field 'num'"):
            rf_from_obj({"field": "Q", "den": ["1"]})

    @pytest.mark.parametrize("change", [
        {"num": "12"}, {"num": {"3": 1}}, {"num": ("1",)}, {"den": "1"},
        {"den": None}, {"field": 5}, {"field": None}, {"field": ["Q"]}])
    def test_value_parts_must_have_their_json_types(self, change):
        # "12" read as 1 + 2*q and {"3": 1} as 3 before
        obj = {"field": "Q", "num": ["1"], "den": ["1"], **change}
        with pytest.raises(ValueError, match="must be a (list|string), not"):
            rf_from_obj(obj)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from(GEOMETRIES),
                              st.integers(1, 4),
                              st.sampled_from(INSERTIONS),
                              st.sampled_from([None, "(1)", "(2,1)"]),
                              st.sampled_from(PROVENANCES),
                              st.sampled_from(["Q", "Q_s", "Q_lambda"])
                              .flatmap(ratfun_over)),
                    max_size=4, unique_by=lambda r: r[:4]))
    def test_random_records_round_trip(self, rows):
        # the readers accept every record the writer emits, byte for byte
        records = [SeriesRecord(make_key(g, d, ins, b), value, prov)
                   for g, d, ins, b, prov, value in rows]
        text = records_to_json(records)
        back = records_from_json(text)
        assert records_to_json(back) == text
        assert sorted(map(str, back)) == sorted(map(str, records))

    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "db.json"
        dump_db(builtin_db(), str(path))
        loaded = load_db(str(path))
        assert loaded.records() == builtin_db().records()
