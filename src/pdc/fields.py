"""Exact coefficient fields for the series calculus.

Four fields are supported, as a closed enumeration:

    Q         rational numbers (fractions.Fraction)
    Qi        Gaussian rationals a + b*i
    Q_s       rational functions in the tangent weights s1, s2, s3
    Q_lambda  rational functions in the torus weights lam0 .. lam3

Q, Q_s and Q_lambda are the q-side fields of polynomials and records.
Qi holds only u-side series coefficients (-q = exp(i*u)); it is printed
and written to JSON, and no record is read over it.

Elements of the two parameter fields are stored as ratios of multivariate
polynomials over the integers, with integer-valued Fraction coefficients
on every route, in canonical form (`_lowest_terms`): numerator and
denominator coprime in Z[s] (the gcd is `_mv_gcd`, a heuristic gcd over
Z checked by exact division), with no joint integer content, and the
denominator's lexicographically leading term positive.  That form is
unique, so equality compares it, and a common factor such as
(s1+1)(s2+1)/((s1+1)(s2+2)) cancels.  The gcd's integers grow as the
product of the degrees in all the variables, so a ratio whose gcd would
need images above MAX_GCD_IMAGE_BITS raises ValueError; an imported
record holding one is a data error.

`pdc.polynomial.Polynomial` stores a polynomial in q over Q, Q_s or
Q_lambda as integer rows, and three functions are its only bridge to
field elements and their JSON.  `to_components` writes a coefficient
list as rows when a polynomial is built from field elements: a list
whose parameter denominators are all constant is sum_e s^e P_e(q) / L,
with integer lists P_e and one integer L.  In any other list, each
numerator is multiplied by the lcm in Z[s] of the denominators over its
own, and the scale is that lcm (`ParamScale`), which has no common
factor with the rows.  A `Polynomial` keeps every scale in that reduced
form, with a positive leading term, so a `ParamScale` compares by value
and equal polynomials store equal rows.  `from_components` reads rows
back into field elements, for a polynomial's `coeffs` and for the q-expansion
of `pdc.laurent.laurent_expand`; over a `ParamScale` each coefficient is
one canonical ratio, so a product or quotient built on the rows prints
without a spurious common factor.  `components_from_json` reads a JSON
coefficient list straight into the rows of `to_components`, with one
compiled match per rational, and builds a `ParamRational` only for a
parameter coefficient whose den is anything but the single key "1";
`Field.coeff_from_json` is that reader on a list of one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from operator import add

from .text import ParseError, Scanner, power, signed_sum


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an int, a string like "3/4", or a Fraction to a Fraction.

    Anything else, a float above all, raises TypeError: a float's binary
    value is not the exact number it was written as.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational of {x!r}")


class GaussianRational:
    """Exact complex scalar re + im*i with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", rat(re))
        object.__setattr__(self, "im", rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.of(other) * self.inverse()

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            o = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        tail = f"{abs(self.im)}*i"
        if not self.re:
            return tail if self.im > 0 else "-" + tail
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{tail}"

    __repr__ = __str__


I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# sparse sums (dict mapping key -> nonzero coefficient), here and in
# pdc.descendents and pdc.virasoro


def accumulate(acc: dict, items) -> dict:
    """Add each (key, coefficient) pair of items into acc, in place.

    A key whose coefficients cancel is dropped, so acc never holds a zero.
    Returns acc.
    """
    for key, c in items:
        s = acc.get(key, 0) + c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


# multivariate polynomials over Z: exponent tuple -> int, or an
# integer-valued Fraction as a canonical `ParamRational` stores it

def _mv_mul(a: dict, b: dict) -> dict:
    """a * b; the product has int coefficients."""
    a, b = ([(e, c.numerator) for e, c in p.items()] for p in (a, b))
    return accumulate({}, ((tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                           for ea, ca in a for eb, cb in b))


def _mv_value(p: dict, m: int | None = None) -> int:
    """p at the integer point (2, 3, 4, ...), or that value mod m."""
    v = sum(int(c) * prod(pow(x, k, m) for x, k in enumerate(e, 2))
            for e, c in p.items())
    return v if m is None else v % m


def _mv_quo(a: dict, b: dict) -> dict | None:
    """a / b when the nonzero polynomial b divides a exactly over Z, else
    None; coefficients are ints or integer-valued Fractions.

    Long division by b's lexicographically leading term.  If a = b * h,
    the degree of h in each variable is that of a minus that of b, so a
    quotient monomial outside that box proves that b does not divide a;
    the quotient monomials fall strictly in lex order, so the loop ends
    after at most as many steps as the box has monomials.  The leading
    remainder term comes from a heap of negated exponents, not a scan of
    the whole remainder: each exponent is pushed when it enters the
    remainder, and one popped after its term has cancelled is skipped.

    An exact division takes one step per term of h, and h has more terms
    than a only when the terms of b * h cancel.  So once the division
    has taken as many steps as a has terms, a necessary condition is
    tested: b(t) divides a(t) at the integer point t = (2, 3, 4, ...),
    with a(t) read mod b(t), one modular power per term.  So s1 - 15 is
    refused as a divisor of s1^50000 + 3 after two steps, not 50000.
    """
    if not a:
        return {}
    b, lead = {e: c.numerator for e, c in b.items()}, max(b)
    top = [max(e[t] for e in a) - max(e[t] for e in b)
           for t in range(len(lead))]
    # the remainder keyed by negated exponents, each pushed on the heap
    # once, when it enters; a term keeps its key once it cancels
    shifts = [(tuple(x - y for x, y in zip(lead, e)), c)
              for e, c in b.items()]
    rem, quo = {tuple(-k for k in e): c for e, c in a.items()}, {}
    heap = list(rem)
    heapify(heap)
    while heap:
        e = heappop(heap)
        if not rem[e]:
            continue
        if len(quo) == len(a):
            v = abs(_mv_value(b))
            if v > 1 and _mv_value(a, v):
                return None
        m = tuple(-x - y for x, y in zip(e, lead))
        c, r = divmod(rem[e], b[lead])
        if r or any(k < 0 or k > t for k, t in zip(m, top)):
            return None
        quo[m] = c
        for d, cb in shifts:
            t = tuple(map(add, e, d))
            if t not in rem:
                heappush(heap, t)
            rem[t] = rem.get(t, 0) - c * cb
    return quo


def _digits(n: int, s: int) -> list[int]:
    """The polynomial h with h(2^s) = n and balanced digits in
    (-2^(s-1), 2^(s-1)], for s >= 2.

    Adding t = 2^(s-1) - 1 to each of k digits turns them into standard
    base-2^s digits, so n + t * (2^(sk) - 1) / (2^s - 1), a number in
    [0, 2^(sk)) for k = bit length // s + 2, is written in binary, filled
    to s*k bits (its top digits may be zeros), and cut into s-bit
    pieces from the right, each less t.  One linear pass over a binary
    string, not a division per digit.
    """
    k, t = n.bit_length() // s + 2, (1 << s - 1) - 1
    bits = format(n + int(("0" + "1" * (s - 1)) * k, 2), f"0{s * k}b")
    out = [int(bits[i - s:i], 2) - t for i in range(s * k, 0, -s)]
    while out and not out[-1]:
        out.pop()
    return out


def _next_width(s: int) -> int:
    """The exponent of the evaluation point 2^s that a heuristic gcd tries
    after refusing 2^s: the bit length grows by a factor of about 5/4."""
    return s + s // 4 + 1


# the largest evaluation image `_mv_gcd` builds, in bits, measured as
# (degree + 1) * s at the point 2^s.  Reading one back as digits takes
# at most about 0.015 s at this bound (Python 3.11, shared two-core VM),
# but the trial division of a refused candidate that `_mv_quo` does not
# refuse at its point is quadratic in its size and can take seconds; the
# gcds of the tests and of q-expansions to q^16 stay below 2^17.
MAX_GCD_IMAGE_BITS = 2 ** 18


def _mv_gcd(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, f/h, g/h) for h the gcd over Z of two polynomials (exponent
    tuple -> int or integer-valued Fraction), up to sign; gcd(f, 0) is f.

    The heuristic gcd of Char, Geddes and Gonnet, one variable at a time.
    With the integer contents taken out, the last variable v that either
    input has is set to a power of two x = 2^s > 2 min(|f|, |g|) + 2 (max
    norms), the gcd h of the two images is taken by recursion, and h is
    read back as balanced s-bit digits in v (`_digits`).  Its primitive
    part is accepted once it divides both inputs exactly; at such x a
    candidate that divides both is the gcd.  The quotients of that test
    are the cofactors, as in Liao and Fateman (ISSAC 1995).  Otherwise s
    grows (`_next_width`), with no cap: h is the gcd times
    gcd(F(x), G(x)) for the cofactors F and G, which is non-constant only
    at the finitely many roots of their resultants and is otherwise an
    integer bounded by them.  So every point past a bound set by those
    resultants is accepted, and since s grows geometrically, the number
    of points tried is logarithmic in the bit length of that bound.

    The images have about (degree + 1) * s bits in the variable set, so
    they grow as the product of the degrees in all the variables;
    ValueError is raised before one would pass MAX_GCD_IMAGE_BITS, as
    for s1^200*s2^200*s3^200 + 1 and s1^200 + s2^200 + s3^200 + 1.
    """
    if not (f and g):
        unit = (0,) * len(next(iter(f or g), ()))
        return f or g, {unit: 1} if f else {}, {unit: 1} if g else {}
    cf, cg = (gcd(*map(int, p.values())) for p in (f, g))
    f = {e: c // cf for e, c in f.items()}
    g = {e: c // cg for e, c in g.items()}
    content = gcd(cf, cg)
    v = max((t for e in (*f, *g) for t, k in enumerate(e) if k), default=-1)
    cand, qf, qg = {next(iter(f)): 1}, f, g
    s = (2 * min(max(map(abs, f.values())), max(map(abs, g.values())))
         + 29).bit_length()
    deg = max(e[v] for e in (*f, *g))
    while v >= 0:
        if (deg + 1) * s > MAX_GCD_IMAGE_BITS:
            raise ValueError(f"parameter gcd too large: degree {deg} in "
                             f"one variable at the point 2^{s}")
        images = [accumulate({}, ((e[:v] + (0,) + e[v + 1:], c << s * e[v])
                                  for e, c in p.items())) for p in (f, g)]
        cand = {e[:v] + (k,) + e[v + 1:]: d
                for e, c in _mv_gcd(*images)[0].items()
                for k, d in enumerate(_digits(c, s)) if d}
        m = gcd(*cand.values())
        cand = {e: c // m for e, c in cand.items()}
        qf = _mv_quo(f, cand)
        qg = None if qf is None else _mv_quo(g, cand)
        if qg is not None:
            break
        s = _next_width(s)
    return tuple({e: c * k for e, c in p.items()} for p, k in (
        (cand, content), (qf, cf // content), (qg, cg // content)))


def _lowest_terms(num: dict, den: dict) -> tuple[dict, dict]:
    """num/den in lowest terms over Z, for nonzero integer polynomials:
    the cofactors of their gcd, common monomial factors and the joint
    integer content included, with the sign that makes the denominator's
    lexicographically leading term positive.  A constant denominator
    needs no `_mv_gcd`: the joint integer content is the whole gcd."""
    if len(den) > 1 or any(next(iter(den))):  # den is not a constant
        _, num, den = _mv_gcd(num, den)
        g = 1
    else:
        g = gcd(*num.values(), *den.values())
    if den[max(den)] < 0:
        g = -g
    if g == 1:
        return num, den
    return tuple({e: c // g for e, c in p.items()} for p in (num, den))


def _mv_canonical(num: dict, den: dict, nvars: int) -> tuple[dict, dict]:
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("division by zero in parameter field")
    if not num:
        return {}, {(0,) * nvars: Fraction(1)}
    # clear to integer coefficients
    scale = lcm(*(c.denominator for p in (num, den) for c in p.values()))
    num, den = _lowest_terms(*({e: c.numerator * (scale // c.denominator)
                                for e, c in p.items()} for p in (num, den)))
    return tuple({e: Fraction(c) for e, c in p.items()} for p in (num, den))


@dataclass(frozen=True, eq=False)
class ParamRational:
    """Ratio of multivariate polynomials in a parameter field."""

    tag: str
    num: dict
    den: dict

    @classmethod
    def make(cls, tag: str, num: dict, den: dict) -> "ParamRational":
        return cls(tag, *_mv_canonical(num, den, len(FIELD_VARS[tag])))

    @classmethod
    def const(cls, tag: str, c) -> "ParamRational":
        unit = (0,) * len(FIELD_VARS[tag])
        return cls.make(tag, {unit: rat(c)}, {unit: Fraction(1)})

    @classmethod
    def gen(cls, tag: str, name: str) -> "ParamRational":
        names = FIELD_VARS[tag]
        idx = names.index(name)
        e = tuple(1 if t == idx else 0 for t in range(len(names)))
        unit = (0,) * len(names)
        return cls(tag, {e: Fraction(1)}, {unit: Fraction(1)})

    def _of(self, x) -> "ParamRational":
        if isinstance(x, ParamRational):
            if x.tag != self.tag:
                raise TypeError(f"mixed parameter fields {self.tag}/{x.tag}")
            return x
        if isinstance(x, (int, Fraction)):
            return ParamRational.const(self.tag, x)
        raise TypeError(f"cannot coerce {x!r} into {self.tag}")

    def __add__(self, other):
        o = self._of(other)
        num = accumulate(_mv_mul(self.num, o.den),
                         _mv_mul(o.num, self.den).items())
        return ParamRational.make(self.tag, num, _mv_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return ParamRational(self.tag, {e: -c for e, c in self.num.items()},
                             self.den)

    def __sub__(self, other):
        return self + (-self._of(other))

    def __rsub__(self, other):
        return self._of(other) + (-self)

    def __mul__(self, other):
        o = self._of(other)
        return ParamRational.make(self.tag, _mv_mul(self.num, o.num),
                                  _mv_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._of(other)
        if not o.num:
            raise ZeroDivisionError("division by zero in parameter field")
        return ParamRational.make(self.tag, _mv_mul(self.num, o.den),
                                  _mv_mul(self.den, o.num))

    def __rtruediv__(self, other):
        return self._of(other) / self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        try:
            o = self._of(other)
        except TypeError:
            return NotImplemented
        # the canonical form is unique
        return self.num == o.num and self.den == o.den

    def _poly_str(self, poly: dict) -> str:
        names = FIELD_VARS[self.tag]
        return signed_sum((poly[e], _mono_key(e, names, ""))
                          for e in sorted(poly, reverse=True))

    def __str__(self):
        unit = (0,) * len(FIELD_VARS[self.tag])
        ns = self._poly_str(self.num)
        if self.den == {unit: Fraction(1)}:
            return ns
        ds = self._poly_str(self.den)
        if len(self.num) > 1:
            ns = f"({ns})"
        # a product denominator needs them too: 1/s1*s2 reads as s2/s1
        if len(self.den) > 1 or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__


@dataclass(frozen=True)
class ParamScale:
    """The scale of a coefficient list that has a non-constant parameter
    denominator: one polynomial in Z[s], the lcm of the denominators
    (`to_components`).  Scales multiply with each other and with ints, as
    the scales of products and quotients do.  A `Polynomial` keeps its
    scale reduced, so two scales compare by value."""

    poly: dict

    def __mul__(self, other):
        if isinstance(other, ParamScale):
            return ParamScale(_mv_mul(self.poly, other.poly))
        return ParamScale({e: c * other for e, c in self.poly.items()})

    __rmul__ = __mul__


def to_components(f: "Field", coeffs) -> tuple[dict, int | ParamScale]:
    """The coefficient list coeffs (ascending in q) as (rows, scale).

    rows maps a parameter exponent e to a list of ints P_e, with the
    coefficient of q^k equal to sum_e s^e P_e[k] / scale.  Over Q the
    only exponent is ().  Rows of a nonzero list end in a nonzero entry;
    the zero list has no rows.  When every parameter denominator is
    constant, the scale is their lcm L > 0 (stored coefficients are
    integers, `_mv_canonical`).  Otherwise it is the `ParamScale` of the
    lcm in Z[s] of all the denominators, a nonzero constant in q, so the
    rows have the roots in q of the list.
    """
    if f.tag == "Q":
        scale = lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (scale // c.denominator) for c in coeffs]
        return ({(): ints} if ints else {}), scale
    return _param_rows((0,) * len(FIELD_VARS[f.tag]),
                       [(c.num, c.den) for c in coeffs])


def _param_rows(unit: tuple, pairs: list) -> tuple[dict, int | ParamScale]:
    """`to_components` over a parameter field, for (num, den) pairs of
    polynomials over Z (nonzero int or integer-valued Fraction
    coefficients) whose ratios are the coefficients; a constant den is
    {unit: d}, for any nonzero int d."""
    nums, consts, common = [num for num, _ in pairs], [], None
    for _, den in pairs:
        d = den.get(unit) if len(den) == 1 else None
        if d is None:
            break
        consts.append(d.numerator)
    if len(consts) < len(pairs):
        # a non-constant denominator: every numerator over the lcm in Z[s]
        common = {unit: 1}
        for _, den in pairs:
            common = _mv_mul(common, _mv_gcd(common, den)[2])
        nums = [_mv_mul(num, _mv_quo(common, den)) for num, den in pairs]
        consts = [1] * len(pairs)
    scale = lcm(*consts)
    rows: dict = {}
    for k, (num, d) in enumerate(zip(nums, consts)):
        m = scale // d
        for e, v in num.items():
            row = rows.get(e)
            if row is None:
                row = rows[e] = [0] * len(pairs)
            row[k] = v.numerator * m
    for row in rows.values():
        while not row[-1]:
            row.pop()
    return rows, (scale if common is None else ParamScale(common))


def from_components(f: "Field", rows: dict, scale) -> list:
    """The coefficient list of sum_e s^e P_e(q) / scale; the inverse of
    to_components.  scale is a nonzero int or a `ParamScale`; rows may
    hold zeros.  Over a ParamScale each coefficient is one canonical
    ratio (`ParamRational.make`)."""
    if not FIELD_VARS[f.tag]:
        return [Fraction(c, scale) for c in rows.get((), ())]
    n = max(map(len, rows.values()), default=0)
    if isinstance(scale, ParamScale):
        return [ParamRational.make(f.tag, {e: row[k] for e, row in rows.items()
                                           if k < len(row)}, scale.poly)
                for k in range(n)]
    unit = (0,) * len(FIELD_VARS[f.tag])
    if scale < 0:
        rows = {e: [-c for c in row] for e, row in rows.items()}
        scale = -scale
    out = []
    for k in range(n):
        num = {e: row[k] for e, row in rows.items()
               if k < len(row) and row[k]}
        g = gcd(scale, *num.values())
        out.append(ParamRational(
            f.tag, {e: Fraction(c // g) for e, c in num.items()},
            {unit: Fraction(scale // g)}))
    return out


FIELD_VARS = {
    "Q": (),
    "Qi": (),
    "Q_s": ("s1", "s2", "s3"),
    "Q_lambda": ("lam0", "lam1", "lam2", "lam3"),
}


def _mono_key(e: tuple, names: tuple, unit: str = "1") -> str:
    return "*".join(power(n, k) for n, k in zip(names, e) if k) or unit


@lru_cache(maxsize=1024)  # a file repeats a few keys many times
def _mono_from_key(key: str, names: tuple) -> tuple:
    """The exponent tuple of a monomial key spelled as _mono_key writes
    it; any other spelling ("s1*s1", "s1^1", "s1^-1") raises ValueError,
    so no two keys name one monomial."""
    e = [0] * len(names)
    for part in key.split("*") if key != "1" else ():
        name, _, k = part.partition("^")
        if name in names and (not k or k.isascii() and k.isdigit()):
            e[names.index(name)] = int(k or 1)
    if _mono_key(tuple(e), names) != key:
        raise ValueError(f"malformed monomial key {key!r}")
    return tuple(e)


# a JSON rational: an optional sign and a or a/b in ASCII digits, with
# whitespace around each part, the language `text.Scanner` reads in
# `_ratio_from_json` (re's \s is the set str.isspace accepts)
_RATIONAL = re.compile(r"\s*([+-]?)\s*([0-9]+)(?:\s*/\s*([0-9]+))?\s*")


def _ratio_from_json(v) -> tuple[int, int]:
    """(n, d), d > 0, not reduced: the value n/d of a JSON integer, or of a
    string holding an optional sign and a or a/b in ASCII digits, as
    coeff_to_json writes them.  A float, a boolean or a string such as
    "0.1", "1e3" or "1_0" raises ValueError.  One compiled match reads a
    string; one it refuses, and one with a zero denominator, is read
    by `text.Scanner`, which words the rejection with its position."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    if not isinstance(v, str):
        raise ValueError(f"coefficient {v!r} is not a string or an integer")
    m = _RATIONAL.fullmatch(v)
    # the denominator is read first, as the scanner reads it
    if m and (d := int(m[3] or 1)):
        n = int(m[2])
        return (-n if m[1] == "-" else n), d
    scanner = Scanner(v)
    try:
        sign = -1 if scanner.accept("+-") == "-" else 1
        r = Fraction(scanner.finish(sign * scanner.rational()))
    except ParseError as exc:
        raise ValueError(
            f"coefficient {v!r} is not a rational: {exc}") from None
    return r.numerator, r.denominator


def components_from_json(f: "Field", values: list
                         ) -> tuple[dict, int | ParamScale]:
    """The (rows, scale) of `to_components` for a list of coefficients as
    coeff_to_json writes them, read straight into integer rows, which may
    hold zeros.

    Rationals are JSON integers or strings "a", "-a", "a/b", "-a/b"
    (`_ratio_from_json`); anything else raises ValueError, and so does a
    parameter monomial key in any spelling but the one coeff_to_json
    writes.  Values are read in list order, a coefficient's num before
    its den.  A Q list is one integer row over the lcm of its
    denominators.  A parameter coefficient whose den is the single key
    "1" is a signed integer ratio of rows; any other den goes through
    `ParamRational.make`, which cancels its gcd as it does for every
    ratio (ZeroDivisionError for a zero den, as for the key "1").
    """
    if not f.var_names:
        pairs = [_ratio_from_json(v) for v in values]
        scale = lcm(*(d for _, d in pairs))
        return {(): [n * (scale // d) for n, d in pairs]}, scale
    names, unit, pairs = f.var_names, (0,) * len(f.var_names), []
    for v in values:
        if not (isinstance(v, dict) and isinstance(v.get("num"), dict)
                and isinstance(v.get("den"), dict)):
            raise ValueError(
                f"a {f.tag} coefficient must be a {{num, den}} object")
        num = {_mono_from_key(k, names): _ratio_from_json(c)
               for k, c in v["num"].items()}
        den = {_mono_from_key(k, names): _ratio_from_json(c)
               for k, c in v["den"].items()}
        d = den.get(unit) if len(den) == 1 else None
        if d and d[0]:
            m = lcm(*(b for _, b in num.values()))
            pairs.append(({e: a * (m // b) * d[1] for e, (a, b)
                           in num.items() if a}, {unit: m * d[0]}))
        else:
            c = ParamRational.make(f.tag, *({e: Fraction(*r) for e, r in
                                             p.items()} for p in (num, den)))
            pairs.append((c.num, c.den))
    return _param_rows(unit, pairs)


@dataclass(frozen=True)
class Field:
    """One of the four coefficient fields, with coercion and serialization."""

    tag: str

    @property
    def var_names(self) -> tuple:
        return FIELD_VARS[self.tag]

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        if self.tag == "Q":
            if isinstance(x, (int, Fraction)):
                return rat(x)
            raise TypeError(f"cannot coerce {x!r} into Q")
        if self.tag == "Qi":
            return GaussianRational.of(x)
        if isinstance(x, ParamRational):
            if x.tag != self.tag:
                raise TypeError(f"mixed parameter fields {self.tag}/{x.tag}")
            return x
        return ParamRational.const(self.tag, x)

    def gen(self, name: str):
        return ParamRational.gen(self.tag, name)

    def gens(self) -> tuple:
        return tuple(self.gen(n) for n in self.var_names)

    def coeff_to_json(self, c):
        if self.tag in ("Q", "Qi"):
            return str(c)
        names = self.var_names
        return {
            "num": {_mono_key(e, names): str(v) for e, v in sorted(c.num.items())},
            "den": {_mono_key(e, names): str(v) for e, v in sorted(c.den.items())},
        }

    def coeff_from_json(self, v):
        """Read a coefficient written by coeff_to_json, as
        `components_from_json` reads a list of them."""
        cs = from_components(self, *components_from_json(self, [v]))
        return self.coerce(cs[0] if cs else 0)


FIELDS = {tag: Field(tag) for tag in FIELD_VARS}


def field(tag: str) -> Field:
    """Look up a coefficient field by its tag."""
    try:
        return FIELDS[tag]
    except KeyError:
        raise ValueError(f"unknown coefficient field {tag!r}") from None


Q = FIELDS["Q"]
QI = FIELDS["Qi"]
QS = FIELDS["Q_s"]
QLAMBDA = FIELDS["Q_lambda"]
