"""The acceptance-check registry.

Each check is a named, self-contained verification of one advertised
guarantee of the package, built only from exact arithmetic: stored
fixture integrity, the functional-equation and pole suites, the operator
algebra, the reduction rules, the closed forms with independent
brute-force oracles, the cobordism example, the u-variable transform
against classical expansions, and the structural correspondence layer.

The same registry backs the command-line `check-all` command and the
acceptance test module, so a green run means the same thing in both.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple

from .correspondence import expand_bar, leading_term, parity_reality_check
from .descendents import DescElement, gen, parse_element
from .fields import FIELDS, GaussianRational
from .laurent import laurent_expand, u_expand
from .partitions import partitions_of, zaut
from .polynomial import Polynomial
from .ratfun import RationalFunction, fe_check, parse_rf, pole_check
from .series import (SeriesDB, builtin_db, cap_series, cobordism_example,
                     cobordism_fe_check, key_from_str, local_curve_series,
                     records_from_json, records_to_json, reduce,
                     virasoro_constraint_check)
from .virasoro import (apply_op, bracket_check, build_constraint,
                       build_constraint_composed, build_quadratic, commutator,
                       generator_monomials, multiplication_op)


class CheckResult(NamedTuple):
    check_id: str
    title: str
    ok: bool
    detail: str


def _failures(pairs) -> tuple[bool, str]:
    """Collapse (label, ok) pairs into an overall verdict and detail."""
    pairs = list(pairs)
    bad = [label for label, ok in pairs if not ok]
    if bad:
        return False, "failed: " + ", ".join(bad)
    return True, f"{len(pairs)} checks hold"


# -- 1: fixture integrity ----------------------------------------------------

def _expected_records() -> dict[str, tuple[RationalFunction, str]]:
    """The stored series restated literally, as tamper detection."""
    expected: dict[str, tuple[RationalFunction, str]] = {}

    def put(key, text_or_value, provenance="exact"):
        value = (parse_rf(text_or_value)
                 if isinstance(text_or_value, str) else text_or_value)
        expected[key] = (value, provenance)

    put("P3:1:ch2(p)*ch2(p)", "q + 2*q^2 + q^3")
    put("P3:1:ch4(p)", "q/12 - 5*q^2/6 + q^3/12")
    put("P3:1:ch7(1)",
        "(-2*q - q^2 + 31*q^3 - 31*q^4 + q^5 + 2*q^6)/(18*(1+q)^3)")
    put("P3:1:ch3(1)*ch7(1)",
        "(q + 4*q^2 + 17*q^3 - 62*q^4 + 17*q^5 + 4*q^6 + q^7)/(9*(1+q)^4)")
    put("P3:1:ch3(H)*ch3(p)", "3*q/4 - 3*q^2/2 + 3*q^3/4")
    put("P3:2:ch11(1)",
        "-(73*q - 825*q^2 - 124*q^3 + 5945*q^4 + 779*q^5 - 36020*q^6"
        " + 60224*q^7 - 36020*q^8 + 779*q^9 + 5945*q^10 - 124*q^11"
        " - 825*q^12 + 73*q^13)/(60480*(1+q)^3*(q-1)^3)",
        provenance="conjectural")

    fl = FIELDS["Q_lambda"]
    l0, l1, l2, l3 = fl.gens()
    a = (3 * l0 - l1 - l2 - l3) / 24
    b = (9 * l0 - 3 * l1 - 3 * l2 - 3 * l3) / 8
    put("P3:1:ch5(p0)",
        RationalFunction(Polynomial(fl, [0, a, -b, b, -a]),
                         Polynomial(fl, [1, 1])))

    fs = FIELDS["Q_s"]
    s1, s2, s3 = fs.gens()
    c = 2 * s1 * s1 + 3 * s1 * s2 + 2 * s2 * s2
    e = 6 * s3 * (s1 + s2) - 2 * s1 * s1 - 6 * s1 * s2 - 2 * s2 * s2
    put("Cap:1:ch4(p):(1)",
        RationalFunction(Polynomial(fs, [0, c, e, c]),
                         Polynomial(fs, [1, 1]) ** 2))
    return expected


def check_fixture_integrity() -> tuple[bool, str]:
    db = builtin_db()
    expected = _expected_records()
    pairs = []
    pairs.append(("record count", len(db) == len(expected)))
    for key_text, (value, provenance) in expected.items():
        rec = db.get(key_from_str(key_text))
        pairs.append((key_text, rec.value == value
                      and rec.provenance == provenance))
    text = records_to_json(db)
    again = records_to_json(SeriesDB(records_from_json(text)))
    pairs.append(("byte-identical JSON round-trip", again == text))
    return _failures(pairs)


# -- 2: functional-equation suite --------------------------------------------

def check_functional_equations() -> tuple[bool, str]:
    db = builtin_db()
    cases = [
        ("P3:1:ch2(p)*ch2(p)", 1, 4), ("P3:1:ch4(p)", 1, 4),
        ("P3:1:ch7(1)", -1, 4), ("P3:1:ch3(1)*ch7(1)", 1, 4),
        ("P3:1:ch3(H)*ch3(p)", 1, 4), ("P3:2:ch11(1)", -1, 8),
        ("P3:1:ch5(p0)", -1, 4), ("Cap:1:ch4(p):(1)", 1, 2),
    ]
    pairs = [(f"{k} sign={s} d={d}",
              fe_check(db.get(key_from_str(k)).value, d, s))
             for k, s, d in cases]
    pairs += [(f"cap_series({d}) sign=-1 d={2 * d}",
               fe_check(cap_series(d), 2 * d, -1)) for d in range(1, 6)]
    pairs += [(f"local_curve_series({d}) sign=+1 d=0",
               fe_check(local_curve_series(d), 0, 1)) for d in range(1, 7)]
    return _failures(pairs)


# -- 3: pole suite -------------------------------------------------------------

def check_pole_confinement() -> tuple[bool, str]:
    db = builtin_db()
    pairs = [(k, pole_check(db.get(key_from_str(k)).value, d))
             for k, d in [
                 ("P3:1:ch2(p)*ch2(p)", 1), ("P3:1:ch4(p)", 1),
                 ("P3:1:ch7(1)", 1), ("P3:1:ch3(1)*ch7(1)", 1),
                 ("P3:1:ch3(H)*ch3(p)", 1), ("P3:1:ch5(p0)", 1),
                 ("Cap:1:ch4(p):(1)", 1), ("P3:2:ch11(1)", 2)]]
    pairs += [(f"local_curve_series({d})",
               pole_check(local_curve_series(d), d)) for d in range(1, 7)]
    pairs.append(("1/(1-q) rejected at d=1",
                  not pole_check(parse_rf("1/(1-q)"), 1)))
    return _failures(pairs)


# -- 4: operator-algebra suite -------------------------------------------------

def check_lowest_constraint_annihilates() -> tuple[bool, str]:
    op = build_constraint(-1)
    monomials = generator_monomials(6, 3)
    bad = sum(1 for m in monomials
              if not apply_op(op, DescElement({m: 1})).is_zero)
    if bad:
        return False, f"{bad} of {len(monomials)} monomials not annihilated"
    return True, f"annihilates all {len(monomials)} monomials (<=3 factors)"


def check_constraints_on_series() -> tuple[bool, str]:
    pairs = [(f"k=0 on {text}", virasoro_constraint_check(0, text, 1))
             for text in ["ch3(H)*ch3(p)", "ch2(p)*ch2(p)", "ch4(p)"]]
    return _failures(pairs)


def check_degree_one_combination() -> tuple[bool, str]:
    db = builtin_db()
    combo = (db.lookup("P3", 1, "ch3(H)*ch3(p)").scale_monomial(-4)
             + db.lookup("P3", 1, "ch4(p)").scale_monomial(12)
             + db.lookup("P3", 1, "ch2(p)*ch2(p)").scale_monomial(2))
    pairs = [("-4, +12, +2 combination vanishes", combo.is_zero),
             ("k=1 on ch3(p)", virasoro_constraint_check(1, "ch3(p)", 1))]
    return _failures(pairs)


def check_bracket_relations() -> tuple[bool, str]:
    pairs = [(f"[{k},{m}]", bracket_check(k, m, 8))
             for k in range(-1, 4) for m in range(-1, 4)]
    return _failures(pairs)


def check_point_multiplication_bracket() -> tuple[bool, str]:
    pairs = []
    for n in range(-1, 4):
        for k in range(1, 6):
            lhs = commutator(build_quadratic(n),
                             multiplication_op((gen(k, 3),), factorial(k)))
            rhs = multiplication_op((gen(n + k, 3),),
                                    k * factorial(k + n))
            pairs.append((f"n={n} k={k}", lhs == rhs))
    return _failures(pairs)


def check_constraint_construction_routes() -> tuple[bool, str]:
    # equal operators act equally, so comparing the operators suffices
    return _failures((f"k={k}", build_constraint(k)
                      == build_constraint_composed(k)) for k in range(-1, 5))


# -- 5: reduction rules --------------------------------------------------------

def check_reduction_rules() -> tuple[bool, str]:
    db = builtin_db()
    pairs = []
    pairs.append(("dilaton derivation matches stored pair",
                  reduce(parse_element("ch3(1)*ch7(1)"), 1)
                  == db.lookup("P3", 1, "ch3(1)*ch7(1)")))
    for text in ["ch2(1)*ch7(1)", "ch2(1)*ch2(p)*ch2(p)", "ch2(1)*ch11(1)"]:
        pairs.append((f"string kills {text}",
                      reduce(parse_element(text), 1).is_zero
                      and reduce(parse_element(text), 2).is_zero))
    pairs.append(("divisor factor d once",
                  reduce(parse_element("ch2(H)*ch11(1)"), 2)
                  == db.lookup("P3", 2, "ch11(1)").scale_monomial(2)))
    pairs.append(("divisor factor d per occurrence",
                  reduce(parse_element("ch2(H)*ch2(H)*ch11(1)"), 2)
                  == db.lookup("P3", 2, "ch11(1)").scale_monomial(4)))
    pairs.append(("divisor at degree one",
                  reduce(parse_element("ch2(H)*ch2(H)*ch7(1)"), 1)
                  == db.lookup("P3", 1, "ch7(1)")))
    return _failures(pairs)


# -- 6: closed forms against oracles -------------------------------------------

def _local_curve_brute_coeffs(d: int, order: int) -> dict[int, Fraction]:
    """Independent q-expansion of the local-curve sum.

    Works directly with coefficient dictionaries and the geometric-series
    identity (-q)^m / (1 - (-q)^m)^2 = sum_{j>=1} j * (-1)^(m*j) * q^(m*j),
    sidestepping the polynomial and rational-function layers entirely.
    """
    total: dict[int, Fraction] = {}
    for mu in partitions_of(d):
        series: dict[int, Fraction] = {
            0: Fraction((-1) ** len(mu)) / zaut(mu)}
        for m in mu:
            nxt: dict[int, Fraction] = {}
            for j in range(1, order // m + 1):
                cj = Fraction(j * (-1) ** (m * j))
                for n, cn in series.items():
                    if n + m * j <= order:
                        key = n + m * j
                        nxt[key] = nxt.get(key, Fraction(0)) + cn * cj
            series = nxt
        for n, cn in series.items():
            total[n] = total.get(n, Fraction(0)) + cn
    return {n: c for n, c in total.items() if c}


def check_closed_forms() -> tuple[bool, str]:
    pairs = []
    pairs.append(("local curve degree 1",
                  local_curve_series(1) == parse_rf("q/(1+q)^2")))
    pairs.append(("local curve degree 2",
                  local_curve_series(2)
                  == parse_rf("-2*q^3/((1+q)^4*(1-q)^2)")))
    order = 12
    for d in range(1, 5):
        expansion = laurent_expand(local_curve_series(d), order)
        got = {n: c for n, c in expansion.as_dict().items() if c}
        pairs.append((f"brute-force oracle degree {d}",
                      got == _local_curve_brute_coeffs(d, order)))
    fs = FIELDS["Q_s"]
    s1, s2, _ = fs.gens()
    for d in range(1, 6):
        expansion = laurent_expand(cap_series(d), d + 1)
        want = (s1 + s2) / (2 * Fraction(factorial(d - 1)))
        pairs.append((f"cap pairing coefficient degree {d}",
                      expansion.coeff(d) == want
                      and all(expansion.coeff(j) == fs.zero
                              for j in range(d))))
    return _failures(pairs)


# -- 7: cobordism components -----------------------------------------------------

def check_cobordism_components() -> tuple[bool, str]:
    example = cobordism_example()
    expected = {
        (4,): "-4*q - 40*q^2 - 4*q^3",
        (3, 1): "(21*q/2 + 139*q^2 + 823*q^3/2 + 446*q^4 + 823*q^5/2"
                " + 139*q^6 + 21*q^7/2)/(1+q)^4",
        (2, 2): "6*q + 60*q^2 + 6*q^3",
        (2, 1, 1): "(-18*q - 264*q^2 - 774*q^3 - 816*q^4 - 774*q^5"
                   " - 264*q^6 - 18*q^7)/(1+q)^4",
        (1, 1, 1, 1): "(13*q/2 + 115*q^2 + 490*q^3 + 889*q^4 + 1215*q^5"
                      " + 889*q^6 + 490*q^7 + 115*q^8 + 13*q^9/2)/(1+q)^6",
    }
    pairs = [("component labels",
              set(example.components) == set(expected))]
    for mu, text in expected.items():
        pairs.append((f"component {mu}",
                      example.component(mu) == parse_rf(text)))
    pairs.append(("joint functional equation d=4",
                  cobordism_fe_check(example, 4)))
    return _failures(pairs)


# -- 8: u-variable transform ------------------------------------------------------

def _nonzero_u_coeffs(series) -> dict:
    zero = GaussianRational.of(0)
    return {n: c for n, c in series.as_dict().items() if c != zero}


def check_u_transform() -> tuple[bool, str]:
    db = builtin_db()
    pairs = []
    two_pt = db.lookup("P3", 1, "ch2(p)*ch2(p)")
    got = _nonzero_u_coeffs(u_expand(two_pt, 4, 11))
    want = {2: Fraction(1), 4: Fraction(-1, 12), 6: Fraction(1, 360),
            8: Fraction(-1, 20160), 10: Fraction(1, 1814400)}
    pairs.append(("two-point series is 2 - 2cos(u) through order 10",
                  got == {n: GaussianRational.of(c)
                          for n, c in want.items()}))
    got = _nonzero_u_coeffs(u_expand(local_curve_series(1), 0, 9))
    want = {-2: Fraction(1), 0: Fraction(1, 12), 2: Fraction(1, 240),
            4: Fraction(1, 6048), 6: Fraction(1, 172800),
            8: Fraction(1, 5322240)}
    pairs.append(("local curve is 1/(2sin(u/2))^2 through order 8",
                  got == {n: GaussianRational.of(c)
                          for n, c in want.items()}))
    parity_cases = [
        ("P3:1:ch2(p)*ch2(p)", 4, 1), ("P3:1:ch4(p)", 4, 1),
        ("P3:1:ch7(1)", 4, -1), ("P3:1:ch3(1)*ch7(1)", 4, 1),
        ("P3:1:ch3(H)*ch3(p)", 4, 1), ("P3:2:ch11(1)", 8, -1),
    ]
    for key_text, d_beta, sign in parity_cases:
        series = u_expand(db.get(key_from_str(key_text)).value, d_beta, 9)
        pairs.append((f"parity/reality {key_text} sign={sign}",
                      parity_reality_check(series, sign)))
    return _failures(pairs)


# -- 9: correspondence structure ---------------------------------------------------

def check_correspondence_structure() -> tuple[bool, str]:
    pairs = []
    ones = expand_bar((1, 1, 1))
    pairs.append(("all-ones expansion has a single term",
                  len(ones) == 1
                  and ones[0].blocks == ((1,), (2,), (3,))
                  and ones[0].targets == ((1,), (1,), (1,))))
    two = expand_bar((2,))
    targets = sorted(t.targets[0] for t in two)
    pairs.append(("pruning leaves (1) and (2) only",
                  targets == [(1,), (2,)]))
    rng = random.Random(0)
    ok = True
    for _ in range(20):
        n = rng.randint(1, 12)
        options = partitions_of(n)
        alpha = tuple(options[rng.randrange(len(options))])
        term = leading_term(alpha)
        ok = ok and term.iu_exponent == len(alpha) - sum(alpha)
        ok = ok and term.targets == tuple((p,) for p in alpha)
    pairs.append(("leading-term exponent over 20 random partitions", ok))
    return _failures(pairs)


# -- registry -------------------------------------------------------------------

CHECKS: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = [
    ("AC1", "stored fixtures and byte-identical JSON round-trip",
     check_fixture_integrity),
    ("AC2", "functional-equation suite", check_functional_equations),
    ("AC3", "pole-confinement suite", check_pole_confinement),
    ("AC4a", "lowest constraint operator annihilates the descendent ring",
     check_lowest_constraint_annihilates),
    ("AC4b", "index-0 constraint annihilates stored series",
     check_constraints_on_series),
    ("AC4c", "index-1 constraint as an exact linear combination",
     check_degree_one_combination),
    ("AC4d", "operator bracket relations", check_bracket_relations),
    ("AC4e", "bracket with point-insertion multiplication",
     check_point_multiplication_bracket),
    ("AC4f", "constraint construction routes agree",
     check_constraint_construction_routes),
    ("AC5", "string, divisor, and dilaton reductions", check_reduction_rules),
    ("AC6", "closed forms against independent oracles", check_closed_forms),
    ("AC7", "cobordism components and joint functional equation",
     check_cobordism_components),
    ("AC8", "u-variable transform and parity/reality", check_u_transform),
    ("AC9", "correspondence expansion structure",
     check_correspondence_structure),
]


def run_check(check_id: str) -> CheckResult:
    for cid, title, fn in CHECKS:
        if cid == check_id:
            ok, detail = fn()
            return CheckResult(cid, title, ok, detail)
    raise KeyError(f"unknown check id {check_id!r}")


def run_all() -> list[CheckResult]:
    results = []
    for cid, title, fn in sorted(CHECKS, key=lambda c: c[0]):
        ok, detail = fn()
        results.append(CheckResult(cid, title, ok, detail))
    return results
