"""Output checks that do not depend on pdc.

Series values come from the benchmark's own sources: a brute-force
q-expansion of the local-curve sum, the closed-form cap pairing
coefficient, the stored records restated literally with the paper's
divisor and dilaton rules, and an independent count of the set-partition
expansion.  sympy is the only outside helper: its ring series give the
q- and u-expansions, its expressions parse pdc's printed output and
decide identities.  sympy is imported lazily, so it never runs inside a
timed region or set-up.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from math import factorial

# -- the local curve, by brute force -------------------------------------------


def integer_partitions(n: int, cap: int | None = None):
    """Partitions of n with parts at most cap, parts descending."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap), 0, -1):
        for rest in integer_partitions(n - part, part):
            yield (part,) + rest


@functools.lru_cache(maxsize=None)
def local_curve_coeffs(d: int, order: int) -> dict:
    """Coefficients through q**order of the degree-d local-curve sum
    sum_mu (-1)^len(mu)/z(mu) prod_m (-q)^m/(1-(-q)^m)^2, expanded with
    (-q)^m/(1-(-q)^m)^2 = sum_j j (-q)^(m j)."""
    total: dict = {}
    for mu in integer_partitions(d):
        z = 1
        for m in set(mu):
            k = mu.count(m)
            z *= m ** k * factorial(k)
        series = {0: Fraction((-1) ** len(mu), z)}
        for m in mu:
            grown: dict = {}
            for n, c in series.items():
                j = 1
                while n + m * j <= order:
                    e = n + m * j
                    grown[e] = grown.get(e, 0) + c * j * (-1) ** (m * j)
                    j += 1
            series = grown
        for n, c in series.items():
            total[n] = total.get(n, 0) + c
    return {n: c for n, c in total.items() if c}


def power_series(num: list, den: list, order: int) -> dict:
    """Nonzero coefficients through x**order of num/den, for coefficient
    lists over any exact field (index = exponent)."""
    vn = next((k for k, c in enumerate(num) if c), None)
    if vn is None:
        return {}
    vd = next(k for k, c in enumerate(den) if c)
    num, den = num[vn:], den[vd:]
    lo = vn - vd
    out: list = []
    for j in range(order - lo + 1):
        acc = num[j] if j < len(num) else 0
        for k in range(1, min(j, len(den) - 1) + 1):
            acc = acc - den[k] * out[j - k]
        out.append(acc / den[0])
    return {lo + j: c for j, c in enumerate(out) if c}


# -- the cap pairing coefficient -------------------------------------------------

def poly_mul(a: dict, b: dict) -> dict:
    """Product of two polynomials stored as {exponent tuple: coefficient}."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def is_pairing_coefficient(c, d: int) -> bool:
    """Is the tangent-weight ratio c (any object with num/den dicts of
    exponent tuples) equal to (s1+s2)/(2(d-1)!)?"""
    want_num = {(1, 0, 0): 1, (0, 1, 0): 1}
    want_den = {(0, 0, 0): 2 * factorial(d - 1)}
    return poly_mul(c.num, want_den) == poly_mul(want_num, c.den)


def is_zero_param(c) -> bool:
    return not c.num


# -- the set-partition expansion -------------------------------------------------

@functools.lru_cache(maxsize=None)
def _exact_parts(s: int, length: int) -> int:
    """Number of partitions of s into exactly `length` parts."""
    if s == 0 and length == 0:
        return 1
    if s <= 0 or length <= 0:
        return 0
    # either some part is 1 (remove it) or every part is >= 2 (lower all)
    return _exact_parts(s - 1, length - 1) + _exact_parts(s - length, length)


def _admissible_targets(parts: tuple) -> int:
    """Targets hat with 1 <= |hat| <= |a| and |a| + len(a) - |hat|
    - len(hat) - 3 (len(a) - 1) >= 0, for the block's parts a."""
    size, length = sum(parts), len(parts)
    room = size + length - 3 * (length - 1)
    return sum(_exact_parts(s, k) for s in range(1, size + 1)
               for k in range(1, s + 1) if s + k <= room)


def _set_partitions(n: int):
    """Set partitions of 0..n-1 as restricted growth strings."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield prefix
            return
        for b in range(top + 2):
            yield from grow(prefix + (b,), max(top, b))
    yield from grow((), -1)


@functools.lru_cache(maxsize=None)
def expansion_size(alpha: tuple) -> int:
    """Number of structurally nonzero terms in the expansion of alpha."""
    total = 0
    for rgs in _set_partitions(len(alpha)):
        prod = 1
        for b in range(max(rgs) + 1):
            prod *= _admissible_targets(
                tuple(a for a, g in zip(alpha, rgs) if g == b))
            if not prod:
                break
        total += prod
    return total


def check_expansion(alpha: tuple, terms) -> str | None:
    """Check a list of (blocks, targets, sign) terms for alpha."""
    if len(terms) != expansion_size(alpha):
        return f"{len(terms)} terms, expected {expansion_size(alpha)}"
    seen = set()
    slots = list(range(1, len(alpha) + 1))
    for blocks, targets, sign in terms:
        blocks = tuple(tuple(b) for b in blocks)
        targets = tuple(tuple(t) for t in targets)
        if sorted(i for b in blocks for i in b) != slots or sign != 1:
            return f"bad term {blocks} sign {sign}"
        for block, hat in zip(blocks, targets):
            a = [alpha[i - 1] for i in block]
            ok = (hat and list(hat) == sorted(hat, reverse=True)
                  and min(hat) >= 1 and sum(hat) <= sum(a)
                  and sum(a) + len(a) - sum(hat) - len(hat)
                  - 3 * (len(a) - 1) >= 0)
            if not ok:
                return f"inadmissible target {hat} for block {block}"
        if (blocks, targets) in seen:
            return f"duplicate term {blocks} {targets}"
        seen.add((blocks, targets))
    return None


# -- sympy-backed oracles ------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sympy():
    import sympy
    return sympy


@functools.lru_cache(maxsize=None)
def symbols():
    sp = _sympy()
    return {name: sp.Symbol(name) for name in (
        "q", "u", "s1", "s2", "s3", "lam0", "lam1", "lam2", "lam3")}


def parse(text: str):
    """A sympy expression from pdc's printed form (^ for powers, *i for
    the imaginary unit)."""
    sp = _sympy()
    text = text.replace("^", "**").replace("*i", "*I")
    return sp.sympify(text, locals=dict(symbols(), I=sp.I))


# stored records, restated from the source tables
_RECORDS = {
    "P3:1:ch2(p)*ch2(p)": ("q + 2*q^2 + q^3", "exact"),
    "P3:1:ch4(p)": ("q/12 - 5*q^2/6 + q^3/12", "exact"),
    "P3:1:ch7(1)": ("(-2*q - q^2 + 31*q^3 - 31*q^4 + q^5 + 2*q^6)"
                    "/(18*(1+q)^3)", "exact"),
    "P3:1:ch3(1)*ch7(1)": ("(q + 4*q^2 + 17*q^3 - 62*q^4 + 17*q^5 + 4*q^6"
                           " + q^7)/(9*(1+q)^4)", "exact"),
    "P3:1:ch3(H)*ch3(p)": ("3*q/4 - 3*q^2/2 + 3*q^3/4", "exact"),
    "P3:2:ch11(1)": ("-(73*q - 825*q^2 - 124*q^3 + 5945*q^4 + 779*q^5"
                     " - 36020*q^6 + 60224*q^7 - 36020*q^8 + 779*q^9"
                     " + 5945*q^10 - 124*q^11 - 825*q^12 + 73*q^13)"
                     "/(60480*(1+q)^3*(q-1)^3)", "conjectural"),
    "P3:1:ch5(p0)": ("(A*q - B*q^2 + B*q^3 - A*q^4)/(1+q)", "exact"),
    "Cap:1:ch4(p):(1)": ("(C*q + E*q^2 + C*q^3)/(1+q)^2", "exact"),
}
_ABBREV = {
    "A": "(3*lam0 - lam1 - lam2 - lam3)/24",
    "B": "(9*lam0 - 3*lam1 - 3*lam2 - 3*lam3)/8",
    "C": "2*s1^2 + 3*s1*s2 + 2*s2^2",
    "E": "6*s3*(s1 + s2) - 2*s1^2 - 6*s1*s2 - 2*s2^2",
}

BUILTIN_KEYS = tuple(sorted(_RECORDS))


def provenance(key: str) -> str:
    return _RECORDS[key][1]


@functools.lru_cache(maxsize=None)
def record_value(key: str):
    text = _RECORDS[key][0]
    for short, long in _ABBREV.items():
        text = text.replace(short, f"({long})")
    return parse(text)


@functools.lru_cache(maxsize=None)
def reduction_value(terms: tuple, degree: int):
    """Sum of coeff * d^divisors * dilaton^dilatons(record) over the terms
    (coeff, record key or None for a dimension-zero monomial, divisors,
    dilatons); dilaton is F -> q F' - 2 d F."""
    sp = _sympy()
    q = symbols()["q"]
    total = sp.Integer(0)
    for coeff, key, divisors, dilatons in terms:
        if key is None:
            continue
        value = record_value(key)
        for _ in range(dilatons):
            value = q * sp.diff(value, q) - 2 * degree * value
        total += sp.Rational(coeff) * degree ** divisors * value
    return sp.cancel(total)


def same(a, b) -> bool:
    sp = _sympy()
    return sp.cancel(sp.together(a - b)) == 0


def _coeff_lists(expr, var):
    sp = _sympy()
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    return ([c for c in reversed(sp.Poly(num, var).all_coeffs())],
            [c for c in reversed(sp.Poly(den, var).all_coeffs())])


@functools.lru_cache(maxsize=None)
def q_series(expr, order: int) -> dict:
    """Nonzero q-expansion coefficients of expr through q**order."""
    sp = _sympy()
    from sympy.polys.ring_series import rs_mul, rs_series_inversion
    from sympy.polys.rings import ring
    q = symbols()["q"]
    if expr == 0:
        return {}
    num, den = _coeff_lists(expr, q)
    vn = next(k for k, c in enumerate(num) if c)
    vd = next(k for k, c in enumerate(den) if c)
    lo = vn - vd
    count = order - lo + 1
    if count <= 0:
        return {}
    R, x = ring("x", sp.QQ)
    N = R({(k,): sp.QQ.from_sympy(c) for k, c in enumerate(num[vn:]) if c})
    D = R({(k,): sp.QQ.from_sympy(c) for k, c in enumerate(den[vd:]) if c})
    Q = rs_mul(N, rs_series_inversion(D, x, count), x, count)
    return {lo + m[0]: sp.QQ.to_sympy(c) for m, c in Q.items() if c}


@functools.lru_cache(maxsize=None)
def u_series(expr, d_beta: int, order: int) -> dict:
    """Nonzero coefficients through u**order of
    exp(-i d_beta u/2) * F(-exp(i u)) for F = expr."""
    sp = _sympy()
    from sympy.polys.domains import QQ_I
    from sympy.polys.ring_series import rs_exp, rs_mul, rs_series_inversion
    from sympy.polys.rings import ring
    q = symbols()["q"]
    if expr == 0:
        return {}
    num, den = _coeff_lists(expr, q)
    R, x = ring("x", QQ_I)
    # enough terms to see past the vanishing order at u = 0 of num and den
    prec = order + 2 * len(den) + len(num) + 2

    def substitute(coeffs):
        out = R(0)
        for k, c in enumerate(coeffs):
            if c:
                out += (QQ_I.from_sympy(c) * (-1) ** k
                        * rs_exp(QQ_I(0, k) * x, x, prec))
        return out

    def shifted(p):
        v = min(m[0] for m in p.monoms())
        return v, R({(m[0] - v,): c for m, c in p.items()})

    vn, N = shifted(substitute(num))
    vd, D = shifted(substitute(den))
    lo = vn - vd
    count = order - lo + 1
    if count <= 0:
        return {}
    Q = rs_mul(N, rs_series_inversion(D, x, count), x, count)
    Q = rs_mul(Q, rs_exp(QQ_I(0, sp.Rational(-d_beta, 2)) * x, x, count),
               x, count)
    return {lo + m[0]: QQ_I.to_sympy(c) for m, c in Q.items() if c}


def fe_holds(expr, d_beta: int, sign: int) -> bool:
    q = symbols()["q"]
    return same(expr.subs(q, 1 / q), sign * q ** (-d_beta) * expr)


def poles_confined(expr, div: int) -> bool:
    """Does the denominator divide a power of q prod_{m<=div} (1-(-q)^m)?"""
    sp = _sympy()
    q = symbols()["q"]
    _, den = sp.fraction(sp.cancel(sp.together(expr)))
    den = sp.Poly(den, q)
    allowed = q
    for m in range(1, div + 1):
        allowed *= 1 - (-q) ** m
    allowed = sp.Poly(sp.expand(allowed), q) ** max(1, den.degree())
    return allowed.rem(den).is_zero


# -- pdc's printed and JSON output, read back as sympy values -----------------------

def series_from_text(text: str, var: str) -> dict:
    """Coefficients of a printed Laurent series "... + O(var^n)"."""
    sp = _sympy()
    head, _, _ = text.rpartition(" + O(")
    expr = sp.expand(parse(head))
    x = symbols()[var]
    out: dict = {}
    for term in sp.Add.make_args(expr):
        if term == 0:
            continue
        coeff, power = term.as_coeff_exponent(x)
        out[int(power)] = out.get(int(power), 0) + coeff
    return {n: c for n, c in out.items() if c != 0}


def series_from_json(obj: dict) -> dict:
    return {n: parse(c) for n, c in obj["coeffs"] if parse(c) != 0}


def _param_from_json(obj: dict):
    sp = _sympy()

    def poly(part):
        return sum((sp.Rational(c) * (parse(m) if m != "1" else 1)
                    for m, c in part.items()), sp.Integer(0))

    return poly(obj["num"]) / poly(obj["den"])


def value_from_json(obj: dict):
    """The rational function of a serialized value {field, num, den}."""
    q = symbols()["q"]

    def coeff(c):
        return parse(c) if isinstance(c, str) else _param_from_json(c)

    num = sum(coeff(c) * q ** k for k, c in enumerate(obj["num"]))
    den = sum(coeff(c) * q ** k for k, c in enumerate(obj["den"]))
    return num / den


def series_matches(got: dict, want: dict) -> str | None:
    sp = _sympy()
    keys = set(got) | set(want)
    bad = [n for n in sorted(keys)
           if sp.expand(got.get(n, 0) - want.get(n, 0)) != 0]
    if bad:
        n = bad[0]
        return f"coefficient {n}: got {got.get(n, 0)}, want {want.get(n, 0)}"
    return None


def local_curve_matches(expr, d: int, order: int) -> str | None:
    """Compare a parsed local-curve value with the brute-force sum."""
    got = q_series(expr, order)
    want = local_curve_coeffs(d, order)
    return series_matches(got, {n: _sympy().Rational(c.numerator,
                                                      c.denominator)
                                for n, c in want.items()})


def cap_matches(expr, d: int) -> str | None:
    """Compare a parsed cap value: zero below q^d, pairing at q^d."""
    sp = _sympy()
    q = symbols()["q"]
    s1, s2 = symbols()["s1"], symbols()["s2"]
    num, den = _coeff_lists(expr, q)
    got = power_series(num, den, d)
    want = (s1 + s2) / (2 * factorial(d - 1))
    if any(n < d for n in got) or sp.cancel(got.get(d, 0) - want) != 0:
        return f"expansion {got} does not start with {want} q^{d}"
    return None


def json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None
