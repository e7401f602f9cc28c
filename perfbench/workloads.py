"""The three workloads: seeded op lists and their output checks.

Each workload builds, from its seed alone, one fixed list of ops that a
single caller runs in a closed loop; see README.md for why each was
chosen and which layers it stresses.  Ops reach pdc through the module
attributes in ctx.pdc at call time, so a tracer installed later sees the
calls.  Every op carries a check that reads the output with the oracles
module and never with pdc.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction
from math import factorial

from . import oracles as orc
from .harness import Op


def _is_true(value):
    return None if value is True else f"verdict {value!r}, expected True"


# -- series_eval ---------------------------------------------------------------


def _check_lc_value(d, value):
    order = 4 * d + 8
    got = orc.power_series(list(value.num.coeffs), list(value.den.coeffs),
                           order)
    if got != orc.local_curve_coeffs(d, order):
        return f"q-expansion through q^{order} differs from the brute force"
    return None


def _check_lc_expansion(d, order, value):
    if value.order != order + 1:
        return f"truncation order {value.order}, expected {order + 1}"
    if value.as_dict() != orc.local_curve_coeffs(d, order):
        return "coefficients differ from the brute-force expansion"
    return None


class _Ratio:
    """num/den dicts of a quotient of two parameter-field scalars."""

    def __init__(self, a, b):
        self.num = orc.poly_mul(a.num, b.den)
        self.den = orc.poly_mul(a.den, b.num)


def _check_cap_value(d, value):
    num, den = value.num.coeffs, value.den.coeffs
    if len(num) <= d or not den or orc.is_zero_param(den[0]):
        return "unexpected numerator or denominator shape"
    if not all(orc.is_zero_param(c) for c in num[:d]):
        return f"numerator does not vanish below q^{d}"
    if not orc.is_pairing_coefficient(_Ratio(num[d], den[0]), d):
        return f"coefficient of q^{d} is not (s1+s2)/(2({d}-1)!)"
    return None


def _check_cap_expansion(d, order, value):
    coeffs = value.as_dict()
    if value.order != order + 1 or min(coeffs, default=None) != d:
        return f"expansion does not start at q^{d} or has the wrong order"
    if not orc.is_pairing_coefficient(coeffs[d], d):
        return f"coefficient of q^{d} is not (s1+s2)/(2({d}-1)!)"
    return None


def series_eval(seed: int, pdc, work) -> list:
    """local_curve_series d=1..7 and cap_series d=1..9, each followed by
    fe_check, pole_check and laurent_expand (to a seeded order for the
    local curve, to q^(d+3) for the cap), in a seeded order of series."""
    rng = random.Random(seed)
    families = [("lc", d) for d in range(1, 8)] + [("cap", d)
                                                  for d in range(1, 10)]
    rng.shuffle(families)
    ops = []
    for fam, d in families:
        key = f"{fam}{d}"
        if fam == "lc":
            name = f"local_curve_series({d})"
            order = rng.randint(2 * d, 2 * d + 4)
            ops.append(Op(name,
                          lambda c, d=d: c.pdc.series.local_curve_series(d),
                          lambda v, d=d: _check_lc_value(d, v), key))
            sign, d_beta = 1, 0
            check_exp = (lambda v, d=d, n=order:
                         _check_lc_expansion(d, n, v))
        else:
            name = f"cap_series({d})"
            # one order for every seed: cap expansions cost as much as the
            # ops at the median, so a seeded order would move op_p50_ms
            order = d + 3
            ops.append(Op(name, lambda c, d=d: c.pdc.series.cap_series(d),
                          lambda v, d=d: _check_cap_value(d, v), key))
            sign, d_beta = -1, 2 * d
            check_exp = (lambda v, d=d, n=order:
                         _check_cap_expansion(d, n, v))
        ops.append(Op(f"fe_check({name}, {d_beta}, {sign})",
                      lambda c, k=key, b=d_beta, s=sign:
                      c.pdc.ratfun.fe_check(c.results[k], b, s), _is_true))
        ops.append(Op(f"pole_check({name}, {d})",
                      lambda c, k=key, d=d:
                      c.pdc.ratfun.pole_check(c.results[k], d), _is_true))
        ops.append(Op(f"laurent_expand({name}, {order})",
                      lambda c, k=key, n=order:
                      c.pdc.laurent.laurent_expand(c.results[k], n),
                      check_exp))
    return ops


# -- operator_algebra ------------------------------------------------------------


def _bracket_pairs(rng) -> list:
    """The six diagonal pairs and, for each k < m in [-1,4], one of (k, m)
    and (m, k), picked by the seed: [L_k, L_m] and [L_m, L_k] cost about
    the same, so every seed does about the same work."""
    pairs = [(k, k) for k in range(-1, 5)]
    for k in range(-1, 5):
        for m in range(k + 1, 5):
            pairs.append(rng.choice([(k, m), (m, k)]))
    return pairs


def _bar_partitions(rng) -> list:
    """One partition of each length 1..7, of size length + 0..3 (+ 0..2
    for six parts, + 0..1 for seven), so that no expansion costs as much
    as the bracket checks at the tail of the op list."""
    out = []
    for length in range(1, 8):
        size = length + rng.randint(0, min(3, 8 - length))
        options = [p for p in orc.integer_partitions(size)
                   if len(p) == length]
        out.append(rng.choice(options))
    return out


def _check_annihilated(value):
    return None if not value.terms else f"{len(value.terms)} terms survive"


def _check_bar(alpha, value):
    return orc.check_expansion(alpha, [(t.blocks, t.targets, t.sign)
                                       for t in value])


def _routes_agree(c, k, monomials):
    v = c.pdc.virasoro
    direct, composed = v.build_constraint(k), v.build_constraint_composed(k)
    element = c.pdc.descendents.DescElement
    return direct == composed and all(
        v.apply_op(direct, element({m: 1}))
        == v.apply_op(composed, element({m: 1})) for m in monomials)


def _point_bracket(c, n, k):
    v = c.pdc.virasoro
    point = c.pdc.descendents.gen
    lhs = v.commutator(v.build_quadratic(n),
                       v.multiplication_op((point(k, 3),), factorial(k)))
    return lhs == v.multiplication_op((point(n + k, 3),),
                                      k * factorial(k + n))


def operator_algebra(seed: int, pdc, work) -> list:
    """Bracket relations, the lowest constraint on every monomial of
    generator_monomials(6,3), the two constraint constructions, the
    point-multiplication bracket, constraint checks on stored series and
    set-partition expansions."""
    rng = random.Random(seed)
    v = pdc.virasoro
    ops = []
    for k, m in _bracket_pairs(rng):
        ops.append(Op(f"bracket_check({k},{m},8)",
                      lambda c, k=k, m=m: c.pdc.virasoro.bracket_check(k, m, 8),
                      _is_true))
    monomials = v.generator_monomials(6, 3)
    rng.shuffle(monomials)
    for mono in monomials:
        ops.append(Op(f"apply_op(build_constraint(-1), "
                      f"{'*'.join(map(str, mono)) or '1'})",
                      lambda c, m=mono: c.pdc.virasoro.apply_op(
                          c.results["L-1"], c.pdc.descendents.DescElement(
                              {m: Fraction(1)})),
                      _check_annihilated))
    small = v.generator_monomials(4, 2)
    for k in range(-1, 5):
        ops.append(Op(f"build_constraint({k}) vs composed",
                      lambda c, k=k: _routes_agree(c, k, small), _is_true))
    for n in range(-1, 4):
        for k in range(1, 6):
            ops.append(Op(f"[L_{n}, {k}! ch{k}(p)] = {k}*({k}+{n})! "
                          f"ch{n + k}(p)",
                          lambda c, n=n, k=k: _point_bracket(c, n, k),
                          _is_true))
    for k, text in [(0, "ch3(H)*ch3(p)"), (0, "ch2(p)*ch2(p)"),
                    (0, "ch4(p)"), (1, "ch3(p)")]:
        ops.append(Op(f"virasoro_constraint_check({k}, {text}, 1)",
                      lambda c, k=k, t=text:
                      c.pdc.series.virasoro_constraint_check(k, t, 1),
                      _is_true))
    for alpha in _bar_partitions(rng):
        ops.append(Op(f"expand_bar({alpha})",
                      lambda c, a=alpha: c.pdc.correspondence.expand_bar(a),
                      lambda val, a=alpha: _check_bar(a, val)))
    rng.shuffle(ops)
    build = Op("build_constraint(-1)",
               lambda c: c.pdc.virasoro.build_constraint(-1),
               lambda val: None if val.terms else "empty operator", "L-1")
    return [build] + ops


# -- cli_session --------------------------------------------------------------------

# (insertion, degree, FE sign, reduction terms); a reduction term is
# (coefficient, stored record or None when the dimension rule kills the
# monomial, number of ch2(H) divisor factors, number of ch3(1) dilatons)
Q_SERIES = [
    ("ch2(p)*ch2(p)", 1, 1, (("1", "P3:1:ch2(p)*ch2(p)", 0, 0),)),
    ("tau2(p)", 1, 1, (("1", "P3:1:ch4(p)", 0, 0),)),
    ("ch7(1)", 1, -1, (("1", "P3:1:ch7(1)", 0, 0),)),
    ("ch3(1)*ch7(1)", 1, 1, (("1", "P3:1:ch7(1)", 0, 1),)),
    ("ch3(H)*ch3(p)", 1, 1, (("1", "P3:1:ch3(H)*ch3(p)", 0, 0),)),
    ("ch2(H)*ch7(1)", 1, -1, (("1", "P3:1:ch7(1)", 1, 0),)),
    ("ch2(H)*ch2(H)*ch4(p)", 1, 1, (("1", "P3:1:ch4(p)", 2, 0),)),
    ("ch3(1)*ch2(p)*ch2(p)", 1, -1, (("1", "P3:1:ch2(p)*ch2(p)", 0, 1),)),
    ("ch4(p) + 2*ch2(p)*ch2(p)", 1, 1,
     (("1", "P3:1:ch4(p)", 0, 0), ("2", "P3:1:ch2(p)*ch2(p)", 0, 0))),
    ("3/4*ch3(H)*ch3(p) - ch4(p)", 1, 1,
     (("3/4", "P3:1:ch3(H)*ch3(p)", 0, 0), ("-1", "P3:1:ch4(p)", 0, 0))),
    ("ch3(p)", 1, -1, (("1", None, 0, 0),)),
    ("ch11(1)", 2, -1, (("1", "P3:2:ch11(1)", 0, 0),)),
    ("ch2(H)*ch11(1)", 2, -1, (("1", "P3:2:ch11(1)", 1, 0),)),
    ("ch3(1)*ch11(1)", 2, 1, (("1", "P3:2:ch11(1)", 0, 1),)),
]
EQUIVARIANT = ("ch5(p0)", 1, -1, (("1", "P3:1:ch5(p0)", 0, 0),))
# insertions of point classes only, with the partition labeling them
POINT_SERIES = [("ch2(p)*ch2(p)", (1, 1)), ("tau2(p)", (3,)),
                ("ch3(p)", (2,))]
CONSTRAINTS = [(0, "ch3(H)*ch3(p)"), (0, "ch2(p)*ch2(p)"), (0, "ch4(p)"),
               (1, "ch3(p)")]
EVALUATOR_KEYS = ([f"LocalCurve:{d}:1" for d in range(1, 7)]
                  + ["Cap:1:ch3(p):(1)", "Cap:2:ch4(p):(2)"])
EVALUATOR_FILE = "evaluators.json"
# argv tails that must end in exit code 2 (usage or data errors)
USAGE_ERRORS = [
    ["expand", "--series", "ch3(", "--degree", "1", "--order", "5"],
    ["expand", "--series", "ch3(q)", "--degree", "1", "--order", "5"],
    ["expand", "--degree", "1"],
    ["pole-check", "--series", "ch4(p)", "--degree", "x"],
    ["db", "show", "P3:1:ch9(p)"],
    ["db", "show", "Foo:1:1"],
    ["expand", "--series", "ch6(H)", "--degree", "1", "--order", "5"],
    ["fe-check", "--series", "ch7(1) + ch4(p)", "--degree", "1"],
    ["gw-expand", "--series", "ch3(H)*ch3(p)", "--degree", "1", "--order",
     "4", "--show-bar"],
    ["expand", "--series", "ch5(p0)", "--degree", "1", "--order", "4",
     "--var", "u"],
]
# error-contract defects at this commit: each should exit with code 2,
# but raises out of pdc.cli.main instead
KNOWN_DEFECTS = [
    ["expand", "--series", "ch5(p0)+ch4(p)", "--degree", "1", "--order", "5"],
    ["db", "import", "@nodegree.json"],
    ["db", "import", "@den0.json"],
]


def _key_of(obj: dict) -> str:
    parts = [obj["geometry"], str(obj["degree"]), obj["insertions"]]
    if obj.get("boundary") is not None:
        parts.append(obj["boundary"])
    return ":".join(parts)


def _check_key_value(key: str, expr) -> str | None:
    geometry, degree = key.split(":")[:2]
    d = int(degree)
    if geometry == "LocalCurve":
        return orc.local_curve_matches(expr, d, 4 * d + 8)
    if geometry == "Cap" and key not in orc.BUILTIN_KEYS:
        return orc.cap_matches(expr, d)
    if not orc.same(expr, orc.record_value(key)):
        return f"value of {key} differs from the stored record"
    return None


def _cli_call(argv: list, db: str | None = None):
    """An op body that runs pdc's CLI in-process and returns
    (exit code, stdout, stderr, argv as run).  Arguments "@name" name
    files in the work directory; "{pass_no}" in them is filled in."""
    def call(ctx):
        if db is None:
            os.environ.pop("PDC_DB", None)
        else:
            os.environ["PDC_DB"] = str(ctx.work / db)
        args = [str(ctx.work / a[1:].format(pass_no=ctx.pass_no))
                if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ctx.pdc.cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue(), args
    return call


def _verdict(expected: bool, as_json: bool, value) -> str | None:
    code, out, _, _ = value
    if code != (0 if expected else 1):
        return f"exit code {code}, expected {0 if expected else 1}"
    if as_json:
        passed = orc.json_or_none(out).get("pass")
    else:
        passed = out.startswith("PASS")
    return None if passed == expected else "verdict differs from the oracle"


def _exit_zero(value) -> str | None:
    code, out, err, _ = value
    if code != 0:
        return f"exit code {code}: {err.strip()[:120]}"
    return None


def _check_series_output(as_json, var, order, want, value):
    bad = _exit_zero(value)
    if bad:
        return bad
    out = value[1]
    if as_json:
        obj = orc.json_or_none(out)
        if obj is None or obj["var"] != var or obj["order"] != order + 1:
            return "JSON series with the wrong variable or order"
        got = orc.series_from_json(obj)
    else:
        got = orc.series_from_text(out.splitlines()[0], var)
    return orc.series_matches(got, want)


class _Builder:
    """Accumulates cli_session ops; the oracle closures are built here."""

    def __init__(self, rng):
        self.rng, self.ops = rng, []
        self._json: dict = {}

    def add(self, argv, check, db=None, note=""):
        # each command alternates --json from a seeded start, so every op
        # list has the same number of JSON calls of each command
        command = argv[0]
        if command in self._json:
            self._json[command] = not self._json[command]
        else:
            self._json[command] = self.rng.random() < 0.5
        as_json = self._json[command]
        full = (["--json"] if as_json else []) + argv
        tag = " [PDC_DB]" if db else ""
        self.ops.append(Op(f"pdc {' '.join(full)}{tag}{note}",
                           _cli_call(full, db),
                           lambda v, j=as_json: check(j, v)))

    def expand(self, var, entry, db=None):
        text, degree, _, terms = entry
        order = self.rng.randint(4, 12) if var == "q" else self.rng.randint(
            2, 8)
        argv = ["expand", "--series", text, "--degree", str(degree),
                "--order", str(order)] + (["--var", "u"] if var == "u"
                                          else [])
        self.add(argv, lambda j, v: _check_series_output(
            j, var, order, self._series(var, terms, degree, order), v), db)

    @staticmethod
    def _series(var, terms, degree, order):
        expr = orc.reduction_value(terms, degree)
        if var == "q":
            return orc.q_series(expr, order)
        return orc.u_series(expr, 4 * degree, order)

    def gw_expand(self, entry, alpha=None):
        text, degree, _, terms = entry
        order = self.rng.randint(2, 8)
        argv = ["gw-expand", "--series", text, "--degree", str(degree),
                "--order", str(order)] + (["--show-bar"] if alpha else [])

        def check(as_json, value):
            bad = _check_series_output(
                as_json, "u", order,
                self._series("u", terms, degree, order), value)
            if bad or alpha is None:
                return bad
            if as_json:
                terms_out = orc.json_or_none(value[1])["expansion"]["terms"]
                return orc.check_expansion(alpha, [
                    (t["blocks"], t["targets"], t["sign"]) for t in terms_out])
            lines = value[1].splitlines()
            header = lines.index("symbolic expansion of the insertion product:")
            count = len(lines) - header - 1
            if count != orc.expansion_size(alpha):
                return f"{count} expansion lines for {alpha}"
            return None

        self.add(argv, check)

    def fe_check(self, entry):
        text, degree, sign, terms = entry

        def check(as_json, value):
            expected = orc.fe_holds(orc.reduction_value(terms, degree),
                                    4 * degree, sign)
            bad = _verdict(expected, as_json, value)
            if bad or not as_json:
                return bad
            obj = orc.json_or_none(value[1])
            if (obj["sign"], obj["d_beta"]) != (sign, 4 * degree):
                return f"sign/d_beta {obj['sign']}/{obj['d_beta']}"
            return None

        self.add(["fe-check", "--series", text, "--degree",
                        str(degree)], check)

    def pole_check(self, entry):
        text, degree, _, terms = entry
        div = self.rng.choice([None, degree, degree + 1])
        argv = ["pole-check", "--series", text, "--degree", str(degree)]
        if div is not None:
            argv += ["--div", str(div)]
        self.add(argv, lambda j, v: _verdict(
            orc.poles_confined(orc.reduction_value(terms, degree),
                               div or degree), j, v))

    def passes(self, argv):
        self.add(argv, lambda j, v: _verdict(True, j, v))

    def show(self, key, db=None):
        def check(as_json, value):
            bad = _exit_zero(value)
            if bad:
                return bad
            out = value[1]
            if as_json:
                obj = orc.json_or_none(out)
                if _key_of(obj) != key:
                    return f"record {_key_of(obj)} shown for {key}"
                expr = orc.value_from_json(obj["value"])
                prov = obj["provenance"]
            else:
                head, _, body = out.partition("\n")
                if not head.startswith(key + " "):
                    return f"header {head!r} for {key}"
                expr = orc.parse(body.strip())
                prov = head.rsplit("[", 1)[-1].rstrip("]")
            want = (orc.provenance(key) if key in orc.BUILTIN_KEYS
                    else "evaluator")
            if prov != want:
                return f"provenance {prov}, expected {want}"
            return _check_key_value(key, expr)

        self.add(["db", "show", key], check, db)

    def listing(self, db=None):
        want = set(orc.BUILTIN_KEYS) | (set(EVALUATOR_KEYS) if db else set())

        def check(as_json, value):
            bad = _exit_zero(value)
            if bad:
                return bad
            if as_json:
                got = {_key_of(r) for r in
                       orc.json_or_none(value[1])["records"]}
            else:
                got = {line.split()[0] for line in value[1].splitlines()}
            return None if got == want else f"listed {sorted(got ^ want)}"

        self.add(["db", "list"], check, db)

    def evaluate(self, family, d):
        geometry = "LocalCurve" if family == "local-curve" else "Cap"
        key = (f"LocalCurve:{d}:1" if geometry == "LocalCurve"
               else f"Cap:{d}:ch{d + 2}(p):({d})")

        def check(as_json, value):
            bad = _exit_zero(value)
            if bad:
                return bad
            if as_json:
                obj = orc.json_or_none(value[1])
                got_key, expr = _key_of(obj), orc.value_from_json(obj["value"])
            else:
                got_key, _, body = value[1].strip().partition(" = ")
                expr = orc.parse(body)
            if got_key != key:
                return f"key {got_key}, expected {key}"
            return _check_key_value(key, expr)

        self.add(["eval", family, "--d", str(d)], check)

    def export(self, db=None):
        count = len(orc.BUILTIN_KEYS) + (len(EVALUATOR_KEYS) if db else 0)

        def check(as_json, value):
            bad = _exit_zero(value)
            if bad:
                return bad
            with open(value[3][-1], encoding="utf-8") as handle:
                rows = json.load(handle)
            if len(rows) != count:
                return f"exported {len(rows)} records, expected {count}"
            return None

        name = f"@export-{len(self.ops)}-{{pass_no}}.json"
        self.add(["db", "export", name], check, db)

    def import_(self, name, new):
        total = len(orc.BUILTIN_KEYS) + new

        def check(as_json, value):
            bad = _exit_zero(value)
            if bad:
                return bad
            if as_json:
                got = len(orc.json_or_none(value[1])["records"])
                return None if got == total else f"{got} records after import"
            match = re.match(r"(\d+) new record\(s\); merged database holds "
                             r"(\d+)", value[1])
            if not match or (int(match[1]), int(match[2])) != (new, total):
                return f"import reported {value[1].strip()!r}"
            return None

        self.add(["db", "import", "@" + name], check)

    def error(self, argv, note=""):
        def check(as_json, value):
            return None if value[0] == 2 else f"exit code {value[0]}, expected 2"
        self.add(argv, check, note=note)


def write_cli_files(pdc, work) -> None:
    """The record files the cli_session ops read and import."""
    series = pdc.series
    gen = pdc.descendents.gen

    def cap_record(d):
        return series.SeriesRecord(
            series.make_key("Cap", d, (gen(d + 2, 3),), f"({d})"),
            series.cap_series(d), "evaluator")

    evaluators = [series.SeriesRecord(series.make_key("LocalCurve", d, "1"),
                                      series.local_curve_series(d),
                                      "evaluator") for d in range(1, 7)]
    files = {
        EVALUATOR_FILE: series.records_to_json(
            evaluators + [cap_record(1), cap_record(2)]),
        "cap3.json": series.records_to_json([cap_record(3)]),
        "cap4.json": series.records_to_json([cap_record(4)]),
        "builtin.json": series.records_to_json(series.builtin_db()),
    }
    rows = json.loads(files["builtin.json"])
    del rows[0]["degree"]
    files["nodegree.json"] = json.dumps(rows)
    rows = json.loads(files["builtin.json"])
    for row in rows:
        if _key_of(row) == "P3:1:ch4(p)":
            row["value"]["den"] = ["0"]
    files["den0.json"] = json.dumps(rows)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")


def cli_session(seed: int, pdc, work) -> list:
    """A seeded stream of in-process `pdc` commands: q-side and u-side
    reads, small evaluations, reads through PDC_DB, exports and imports,
    and calls that must fail with exit code 2."""
    write_cli_files(pdc, work)
    rng = random.Random(seed)
    b = _Builder(rng)
    # every kind of call runs over its whole pool, so the seed changes
    # orders, flags and arguments but not the mix of work
    for entry in Q_SERIES:
        b.expand("q", entry)
        b.expand("u", entry)
    for entry in Q_SERIES + [EQUIVARIANT]:
        b.fe_check(entry)
        b.pole_check(entry)
    for k, text in CONSTRAINTS * 2:
        b.passes(["virasoro-check", "--k", str(k), "--D", text, "--degree",
                  "1"])
    for _ in range(2):
        b.passes(["bracket-check", "--k", str(rng.randint(-1, 2)), "--m",
                  str(rng.randint(-1, 2)), "--bound", "3"])
    for key in orc.BUILTIN_KEYS:
        b.show(key)
    for _ in range(4):
        b.listing()
    for entry in rng.sample(Q_SERIES, 6):
        b.gw_expand(entry)
    for text, alpha in POINT_SERIES:
        b.gw_expand(next(e for e in Q_SERIES if e[0] == text), alpha)
    for family in ("local-curve", "cap"):
        for d in range(1, 6):
            b.evaluate(family, d)
    for key in EVALUATOR_KEYS:
        b.show(key, db=EVALUATOR_FILE)
    b.listing(db=EVALUATOR_FILE)
    for entry in rng.sample(Q_SERIES, 3):
        b.expand("q", entry, db=EVALUATOR_FILE)
    b.export()
    b.export()
    b.export(db=EVALUATOR_FILE)
    b.import_("builtin.json", 0)
    b.import_("builtin.json", 0)
    b.import_(EVALUATOR_FILE, len(EVALUATOR_KEYS))
    b.import_("cap3.json", 1)
    b.import_("cap4.json", 1)
    for argv in rng.sample(USAGE_ERRORS, 7):
        b.error(argv)
    for argv in KNOWN_DEFECTS:
        b.error(argv, note=" (known error-contract defect)")
    rng.shuffle(b.ops)
    return b.ops


WORKLOADS = {
    # name: (op-list builder, per-op budget in seconds)
    "series_eval": (series_eval, 60.0),
    "operator_algebra": (operator_algebra, 20.0),
    "cli_session": (cli_session, 2.0),
}
