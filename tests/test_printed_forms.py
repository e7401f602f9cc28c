"""Golden printed forms: str() of every kind of printed object.

Each expected string pins the text the CLI and the library show, so a
change in how terms, signs, coefficients or powers are formatted shows up
here byte for byte.
"""

import json
from fractions import Fraction

import pytest

from pdc.correspondence import format_expansion
from pdc.descendents import gen, parse_element
from pdc.fields import QI, QLAMBDA, GaussianRational, Q
from pdc.laurent import LaurentSeries, laurent_expand, u_expand
from pdc.polynomial import Polynomial
from pdc.ratfun import parse_rf
from pdc.series import (SeriesRecord, builtin_db, cap_series, key_from_str,
                        local_curve_series, make_key, records_to_json)
from pdc.virasoro import build_constraint, commutator, multiplication_op

from helpers import shift_op


def _lam():
    l0, l1, l2, _ = QLAMBDA.gens()
    return (l0 - 2 * l1 + Fraction(3, 2)) / (l0 * l1 + l2 * l2 - 3)


def _objects():
    l3 = QLAMBDA.gen("lam3")
    return {
        "cap2": cap_series(2),
        "cap5": cap_series(5),
        "lc2": local_curve_series(2),
        "lam": _lam(),
        "lam_poly": Polynomial(QLAMBDA, [_lam(), -1, l3, 0, Fraction(2, 5)]),
        "qi_series": LaurentSeries("u", 0, [GaussianRational(1, -2), -1,
                                            GaussianRational(0, 1),
                                            Fraction(-3, 2),
                                            GaussianRational(0, -1), 1],
                                   6, QI),
        "laurent": laurent_expand(parse_rf("(1-2*q)/(q^3*(1+q)^2)"), 3),
        "u": u_expand(builtin_db().get(key_from_str("P3:1:ch7(1)")).value,
                      4, 6),
        "constraint": build_constraint(1),
        "commutator": commutator(
            shift_op(1),
            multiplication_op((gen(2, 3), gen(3, 1)), Fraction(-2, 3))),
        "element": parse_element("3/4 - 2/3*ch3(p)*ch2(H) + ch5(1) "
                                 "- ch4(L)*ch4(L) + 5*tau1(p) - 7/2*ch2(p0)"),
    }


GOLDEN = {
    "cap2": "(((s1 + s2)/2)*q^2 + ((-s1 - s2)/2)*q^3 + ((s1 + s2)/2)*q^4)"
            "/(1 - q^2)",
    "cap5": "(((s1 + s2)/48)*q^5 + ((-s1 - s2)/20)*q^6 "
            "+ ((23*s1 + 23*s2)/240)*q^7 + ((-11*s1 - 11*s2)/80)*q^8 "
            "+ ((7*s1 + 7*s2)/40)*q^9 + ((-11*s1 - 11*s2)/60)*q^10 "
            "+ ((7*s1 + 7*s2)/40)*q^11 + ((-11*s1 - 11*s2)/80)*q^12 "
            "+ ((23*s1 + 23*s2)/240)*q^13 + ((-s1 - s2)/20)*q^14 "
            "+ ((s1 + s2)/48)*q^15)"
            "/(1 - 2*q + 3*q^2 - 3*q^3 + 2*q^4 - 2*q^6 + 3*q^7 - 3*q^8 "
            "+ 2*q^9 - q^10)",
    "lc2": "(-2*q^3)/(1 + 2*q - q^2 - 4*q^3 - q^4 + 2*q^5 + q^6)",
    "lam": "(2*lam0 - 4*lam1 + 3)/(2*lam0*lam1 + 2*lam2^2 - 6)",
    "lam_poly": "((2*lam0 - 4*lam1 + 3)/(2*lam0*lam1 + 2*lam2^2 - 6)) - q "
                "+ (lam3)*q^2 + 2/5*q^4",
    "qi_series": "(1-2*i) - u + (1*i)*u^2 - 3/2*u^3 + (-1*i)*u^4 + u^5 "
                 "+ O(u^6)",
    "laurent": "q^-3 - 4*q^-2 + 7*q^-1 - 10 + 13*q - 16*q^2 + 19*q^3 "
               "+ O(q^4)",
    "u": "(10/3*i)*u^-3 + (5/9*i)*u^-1 + (-61/216*i)*u + (319/9072*i)*u^3 "
         "+ (-2099/1088640*i)*u^5 + O(u^7)",
    "constraint": "2*ch0(p)*ch1(p) + 4*ch0(p)*ch3(H) - 4*ch1(L)*ch2(L) "
                  "+ 4*ch1(p)*ch2(H) + 2*R_-1 ch2(p) + R_1",
    "commutator": "-4/3*ch2(p)*ch4(H) - 4*ch3(H)*ch3(p)",
    "element": "3/4 - 2/3*ch2(H)*ch3(p) - 7/2*ch2(p0) + 5*ch3(p) "
               "- ch4(L)*ch4(L) + ch5(1)",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_printed_form(name):
    assert str(_objects()[name]) == GOLDEN[name]


# str(laurent_expand(cap_series(d), d + 3)): expansions over Q_s, at the
# orders the series_eval benchmark workload uses
CAP_EXPANSIONS = {
    1: ('((s1 + s2)/2)*q + (-s1 - s2)*q^2 + (s1 + s2)*q^3 '
        '+ (-s1 - s2)*q^4 + O(q^5)'),
    2: ('((s1 + s2)/2)*q^2 + ((-s1 - s2)/2)*q^3 + (s1 + s2)*q^4 '
        '+ ((-s1 - s2)/2)*q^5 + O(q^6)'),
    3: ('((s1 + s2)/4)*q^3 + ((-s1 - s2)/6)*q^4 + ((s1 + s2)/3)*q^5 '
        '+ ((-s1 - s2)/3)*q^6 + O(q^7)'),
    4: ('((s1 + s2)/12)*q^4 + ((-s1 - s2)/24)*q^5 '
        '+ ((s1 + s2)/12)*q^6 + ((-s1 - s2)/12)*q^7 + O(q^8)'),
    5: ('((s1 + s2)/48)*q^5 + ((-s1 - s2)/120)*q^6 '
        '+ ((s1 + s2)/60)*q^7 + ((-s1 - s2)/60)*q^8 + O(q^9)'),
    6: ('((s1 + s2)/240)*q^6 + ((-s1 - s2)/720)*q^7 '
        '+ ((s1 + s2)/360)*q^8 + ((-s1 - s2)/360)*q^9 + O(q^10)'),
    7: ('((s1 + s2)/1440)*q^7 + ((-s1 - s2)/5040)*q^8 '
        '+ ((s1 + s2)/2520)*q^9 + ((-s1 - s2)/2520)*q^10 + O(q^11)'),
    8: ('((s1 + s2)/10080)*q^8 + ((-s1 - s2)/40320)*q^9 '
        '+ ((s1 + s2)/20160)*q^10 + ((-s1 - s2)/20160)*q^11 + O(q^12)'),
    9: ('((s1 + s2)/80640)*q^9 + ((-s1 - s2)/362880)*q^10 '
        '+ ((s1 + s2)/181440)*q^11 + ((-s1 - s2)/181440)*q^12 '
        '+ O(q^13)'),
}


@pytest.mark.parametrize("d", sorted(CAP_EXPANSIONS))
def test_cap_expansion(d):
    assert str(laurent_expand(cap_series(d), d + 3)) == CAP_EXPANSIONS[d]


def test_zero_objects_print_zero():
    assert str(Polynomial.zero(Q)) == "0"
    assert str(LaurentSeries("u", 3, [], 3, QI)) == "0 + O(u^3)"
    assert str(parse_element("ch3(p) - ch3(p)")) == "0"
    assert str(laurent_expand(parse_rf("q^9"), 2)) == "0 + O(q^3)"


def test_parameter_export_row():
    # the db export text of a Q_s record: json.dumps(rows, indent=2,
    # sort_keys=True), so the row below pins it byte for byte
    one = {"den": {"1": "1"}, "num": {"1": "1"}}
    zero = {"den": {"1": "1"}, "num": {}}

    def half(sign):
        return {"den": {"1": "2"}, "num": {"s1": sign, "s2": sign}}

    row = {
        "boundary": "(2)", "degree": 2, "geometry": "Cap",
        "insertions": "ch4(p)", "provenance": "evaluator",
        "value": {
            "den": [one, zero, {"den": {"1": "1"}, "num": {"1": "-1"}}],
            "field": "Q_s",
            "num": [zero, zero, half("1"), half("-1"), half("1")],
        },
    }
    record = SeriesRecord(make_key("Cap", 2, "ch4(p)", "(2)"), cap_series(2),
                          "evaluator")
    assert records_to_json([record]) == (
        json.dumps([row], indent=2, sort_keys=True) + "\n")


# format_expansion(alpha), one entry per printed line: the expansions of
# the operator_algebra benchmark workload with the most repeated blocks
EXPANSIONS = {
    (3, 1, 1, 1, 1, 1): [
        '+ K{(3)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3)->(1,1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3)->(3)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(3,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
        '+ K{(3,1)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}',
    ],
    (2, 2, 1, 1, 1): [
        '+ K{(2)->(1)}*K{(2)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(1)}*K{(2)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(2)}*K{(2)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(2)}*K{(2)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(2)}*K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(2)}*K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(2)}*K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,2)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,2)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2)->(2)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2)->(2)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2)->(1)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2)->(2)}*K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(2,1)->(1)}*K{(1)->(1)}',
    ],
    (2, 1, 1, 1, 1, 1, 1): [
        '+ K{(2)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2)->(2)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
        '+ K{(2,1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
    ],
    (1, 1, 1, 1, 1, 1, 1): [
        '+ K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*K{(1)->(1)}*'
        'K{(1)->(1)}*K{(1)->(1)}',
    ],
}


@pytest.mark.parametrize("alpha", sorted(EXPANSIONS))
def test_expansion_text(alpha):
    assert format_expansion(alpha) == "\n".join(EXPANSIONS[alpha])
