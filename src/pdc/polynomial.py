"""Dense univariate polynomials in q over Q, Q_s or Q_lambda.

Qi, a field of u-side Laurent series only, raises TypeError.

A polynomial is stored as integer rows: p = sum_e s^e P_e(q) / denom,
with `rows` mapping a parameter exponent e to the integer list P_e
(ascending in q) and `denom` a nonzero constant in q (Q is the case of
the single exponent ()).  This is the (rows, scale) of
`fields.to_components`: denom is an int when the parameter denominators
are constant, and otherwise a `ParamScale`, one polynomial in Z[s].
Rows end in a nonzero entry and the zero polynomial has none.  Either
denom is reduced on every route (`_set`): it has no common factor with
the rows in Z[s] (for an int, with the entries) and a positive leading
term, and a scale that comes out constant is an int.  So there is one
form for each polynomial, and equality compares it.

`coeffs` is a read-only tuple of field elements.  A polynomial built
from field elements keeps them as given, so it prints as spelled; one
built on rows (`from_rows`, and every operation below) reads them from
the rows once, by `fields.from_components`, when they are first asked
for.

Every operation runs on the rows.  A product multiplies every pair of
rows over Z.  When one gcd input is a single row s^e P(q) / L, the gcd is
the integer gcd of P and every row of the other input: Q is
algebraically closed in the purely transcendental Q(s), so the factors
of P over Q(s) are defined over Q, and the monomials s^e are independent
over Q(q).  Any other gcd is the gcd of the rows in Z[s, q]
(`fields._mv_gcd`).  Either gcd comes with the quotients of both inputs
by it (`Polynomial.gcd_cofactors`), so cancelling a common factor
divides nothing again.  A sum a/A + b/B is (a*B + b*A) / (A*B) on the
rows, for int and `ParamScale` denominators alike (`_times_const`).  As
after a product, the denominator is then reduced: an int by its gcd with
the entries, and a `ParamScale` against the rows, read in Z[s, q], by
`fields._lowest_terms`, the rule every ratio over Z[s] is reduced by.

Every integer product runs through one kernel, `_zz_mul`: the schoolbook
loop when the shorter factor has fewer than 16 entries, and otherwise
Kronecker substitution (`_zz_kronecker`; Harvey, arXiv 0712.4046), which
packs both lists into one int with byte limbs, multiplies once, and
reads the product back as balanced digits.  `Polynomial.__mul__` and
`pdc.ratfun.fe_check` add their products into rows in place
(`_zz_mul_rows`).

Two integer lists get their gcd from the heuristic gcd of Char, Geddes
and Gonnet: evaluate at a power of two 2^s, so that an image is Horner's
rule with shifts, take the integer gcd, and read the polynomial back as
balanced s-bit digits, slices of one binary string (`fields._digits`).
The one candidate per point, the primitive part of what is read back,
is accepted only once it divides both primitive inputs exactly over Z,
and the quotients of that test are the cofactors (Liao and Fateman,
ISSAC 1995); a refused point is followed by a larger one
(`fields._next_width`), and every point past a bound set by the inputs
is accepted.  `fields._mv_gcd` is the same method over Z[s, q], with
the same points.  Neither has the coefficient swell of Euclid over
Fractions or over parameter ratios.

The closed-form evaluators of `pdc.series` multiply and divide by
binomials 1 + c x^m in place (`_times_binomial`, `_over_binomial`).
Long division over the field, on `coeffs` (`divmod_`), has no caller in
the library; the tests use it as an oracle.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd

from .fields import (Field, ParamScale, _digits, _lowest_terms, _mv_gcd,
                     _next_width, field, from_components, to_components)
from .text import power, signed_sum


def q_field(f: Field | str) -> Field:
    """The coefficient field f (a Field or its tag), provided it is one
    of the q-side fields Q, Q_s and Q_lambda; Qi raises TypeError."""
    f = f if isinstance(f, Field) else field(f)
    if f.tag == "Qi":
        raise TypeError("series in q have coefficients in Q, Q_s or "
                        "Q_lambda; Qi is only a u-side field")
    return f


class Polynomial:
    __slots__ = ("field", "rows", "denom", "_coeffs")

    def __init__(self, f: Field | str, coeffs=()):
        f = q_field(f)
        cs = [f.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._set(f, *to_components(f, cs), tuple(cs))

    @classmethod
    def from_rows(cls, f: Field | str, rows: dict, denom=1) -> "Polynomial":
        """sum_e s^e rows[e](q) / denom, for integer lists rows[e] (which
        may hold zeros) and a nonzero int or `ParamScale` denom.  The
        polynomial takes the lists over: it drops their trailing zeros in
        place, and they must not change afterwards."""
        obj = object.__new__(cls)
        obj._set(q_field(f), rows, denom, None)
        return obj

    def _set(self, f: Field, rows: dict, denom, coeffs) -> None:
        # the canonical form: no trailing zeros, no zero rows, and a denom
        # coprime to the rows in Z[s] with a positive leading term, an int
        # when it is constant
        out = _trimmed(rows)
        if out and isinstance(denom, ParamScale):
            # the gcd of the scale, read in Z[s, q], and the rows is that
            # of the scale and the rows' content in Z[s]
            rest, scale = _lowest_terms(
                _zsq(out), {e + (0,): c for e, c in denom.poly.items()})
            out = _trimmed(_rows_of(rest))
            denom = _scale({e[:-1]: c for e, c in scale.items()})
        if not out:
            denom = 1
        elif isinstance(denom, int):
            g = gcd(denom, *(c for r in out.values() for c in r))
            if denom < 0:
                g = -g
            if g != 1:
                out = {e: [c // g for c in r] for e, r in out.items()}
                denom //= g
        object.__setattr__(self, "field", f)
        object.__setattr__(self, "rows", out)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients in ascending powers, as field elements, with a
        nonzero trailing entry."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(
                from_components(self.field, self.rows, self.denom)))
        return self._coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, f) -> "Polynomial":
        return cls.from_rows(f, {})

    @classmethod
    def one(cls, f) -> "Polynomial":
        f = q_field(f)
        return cls.from_rows(f, {(0,) * len(f.var_names): [1]})

    @classmethod
    def const(cls, f, c) -> "Polynomial":
        return cls(f, (c,))

    @classmethod
    def q(cls, f) -> "Polynomial":
        return cls(f, (0, 1))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(map(len, self.rows.values()), default=0) - 1

    @property
    def valuation(self) -> int:
        """Order of vanishing at q = 0; 0 for the zero polynomial."""
        return min((next(k for k, c in enumerate(r) if c)
                    for r in self.rows.values()), default=0)

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        # the canonical form is unique
        return ((self.field.tag, self.rows, self.denom)
                == (other.field.tag, other.rows, other.denom))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        # a/A + b/B = (a*B + b*A) / (A*B)
        f = _common_field(self, other)
        n = max(self.degree, other.degree) + 1
        rows = _times_const(self.rows, other.denom, n)
        _times_const(other.rows, self.denom, n, rows)
        return Polynomial.from_rows(f, rows, self.denom * other.denom)

    def _map_rows(self, fn) -> "Polynomial":
        """The polynomial over the same denominator with rows fn(row)."""
        return Polynomial.from_rows(
            self.field, {e: fn(r) for e, r in self.rows.items()}, self.denom)

    def __neg__(self) -> "Polynomial":
        return self._map_rows(lambda r: [-c for c in r])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        return _product(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        return _product(self, Polynomial.const(self.field, c))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # from the top bit down: a square per bit, a product per set bit
        out = self if n else Polynomial.one(self.field)
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def shift(self, n: int) -> "Polynomial":
        """Multiply by q**n; n < 0 divides by q**-n, which must divide
        self (the -n lowest coefficients are dropped)."""
        return self._map_rows(lambda r: [0] * n + r if n >= 0 else r[-n:])

    def reversed_(self) -> "Polynomial":
        """q**degree * p(1/q); the coefficient list reversed."""
        n = self.degree + 1
        return self._map_rows(lambda r: [0] * (n - len(r)) + r[::-1])

    def deriv(self) -> "Polynomial":
        return self._map_rows(lambda r: [k * c for k, c in enumerate(r)][1:])

    def divmod_(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dd = other.degree
        inv_lead = 1 / other.coeffs[-1]
        quo = [f.zero] * max(0, len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = rem[k + dd] * inv_lead
            if not c:
                continue
            quo[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
        return Polynomial(f, quo), Polynomial(f, rem)

    @staticmethod
    def gcd(a: "Polynomial", b: "Polynomial") -> "Polynomial":
        """Monic-by-lowest-coefficient gcd over the coefficient field.

        The result's lowest-order nonzero coefficient is one; gcd(0, 0) is
        zero.  It is the first of `gcd_cofactors`, divided by its lowest
        coefficient in q, an element of Z[s].
        """
        h = Polynomial.gcd_cofactors(a, b)[0]
        return h and Polynomial.from_rows(h.field, h.rows, _lowest_coeff(h))

    @staticmethod
    def gcd_cofactors(a: "Polynomial", b: "Polynomial") -> tuple[
            "Polynomial", "Polynomial", "Polynomial"]:
        """(h, a/h, b/h) for h a gcd of a and b over the coefficient field
        whose rows lie in Z[s, q] (denominator one); h is zero only when
        a and b are, and then so are the other two.

        The denominators are constants in q and play no part: a/h has the
        denominator of a.  When one input is s^e P(q) / L, a single row,
        h is the integer gcd (`_zz_gcd_rows`) of P and every row of the
        other: Q is algebraically closed in Q(s), so every factor of P
        over Q(s) is defined over Q, and it divides sum_e s^e B_e(q)
        exactly when it divides each B_e.  Every other case takes the gcd
        of the rows in Z[s, q] (`fields._mv_gcd`, q the last variable).
        Either way the quotients are those that accepted h.
        """
        f, ra, rb = a.field, a.rows, b.rows
        if ra and rb and min(len(ra), len(rb)) == 1:
            g, quos = _zz_gcd_rows([*ra.values(), *rb.values()])
            if len(g) == 1:
                return Polynomial.one(f), a, b
            rows = ({(0,) * len(f.var_names): g}, dict(zip(ra, quos)),
                    dict(zip(rb, quos[len(ra):])))
        else:
            rows = [_rows_of(p) for p in _mv_gcd(_zsq(ra), _zsq(rb))]
        return tuple(Polynomial.from_rows(f, r, d)
                     for r, d in zip(rows, (1, a.denom, b.denom)))

    # -- display -------------------------------------------------------------

    def to_str(self, var: str = "q") -> str:
        return signed_sum((c, power(var, k))
                          for k, c in enumerate(self.coeffs))

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Polynomial[{self.field.tag}]({self.to_str()})"


def _common_field(a: Polynomial, b: Polynomial) -> Field:
    if a.field.tag != b.field.tag:
        raise TypeError(f"polynomials over {a.field.tag} and {b.field.tag}")
    return a.field


def _product(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b on the rows."""
    f = _common_field(a, b)
    if not (a and b):
        return Polynomial.zero(f)
    return Polynomial.from_rows(
        f, _zz_mul_rows(a.rows, b.rows, a.degree + b.degree + 1),
        a.denom * b.denom)


# ---------------------------------------------------------------------------
# the integer core; coefficient lists in ascending powers

_KRONECKER_CUT = 16   # see `_zz_mul`


def _lowest_coeff(p: Polynomial) -> int | ParamScale:
    """The lowest nonzero coefficient in q of p's rows, an element of
    Z[s], as `_scale` writes it."""
    v = p.valuation
    return _scale({e: r[v] for e, r in p.rows.items() if v < len(r) and r[v]})


def _scale(poly: dict) -> int | ParamScale:
    """A nonzero element of Z[s] as a denominator: an int when it is
    constant, and otherwise its `ParamScale`."""
    e = next(iter(poly))
    return poly[e] if len(poly) == 1 and not any(e) else ParamScale(poly)


def _trimmed(rows: dict) -> dict:
    """rows without trailing zeros or zero rows; each list is trimmed in
    place."""
    for r in rows.values():
        while r and not r[-1]:
            r.pop()
    return {e: r for e, r in rows.items() if r}


def _rows_of(poly: dict) -> dict:
    """The rows, as `Polynomial.rows` holds them, of a polynomial in
    Z[s, q] stored as exponent tuple -> int, q the last variable."""
    n, rows = max((e[-1] for e in poly), default=0) + 1, {}
    for e, c in poly.items():
        rows.setdefault(e[:-1], [0] * n)[e[-1]] = c
    return rows


def _zsq(rows: dict) -> dict:
    """rows as a polynomial in Z[s, q], exponent tuple -> int, q the last
    variable; the inverse of `_rows_of`."""
    return {e + (k,): c for e, r in rows.items() for k, c in enumerate(r) if c}


def _times_binomial(p: list[int], m: int, c: int) -> None:
    """p *= 1 + c*q^m in place, for an integer list p."""
    p.extend([0] * m)
    p[m:] = [a + c * b for a, b in zip(p[m:], p)]


def _over_binomial(p: list[int], m: int) -> list[int]:
    """p /= 1 - x^m in place, for an integer list p in powers of x, as a
    power series cut after len(p) terms: a running sum along each residue
    class mod m.  Exact when 1 - x^m divides p.  Returns p."""
    for r in range(m):
        p[r::m] = accumulate(p[r::m])
    return p


def _zz_mul(f: list[int], g: list[int], out: list[int] | None = None
            ) -> list[int]:
    """f * g for integer lists, all len(f) + len(g) - 1 entries, or, when
    out is given, out + f * g, added into out (long enough) in place.
    The schoolbook loop when the shorter factor has fewer than
    `_KRONECKER_CUT` entries, where it is faster; `_zz_kronecker` else.
    """
    if len(f) > len(g):
        f, g = g, f
    if len(f) >= _KRONECKER_CUT:
        p = _zz_kronecker(f, g)
        if out is None:
            return p
        out[:len(p)] = [c + x for c, x in zip(out, p)]
        return out
    if out is None:
        out = [0] * (len(f) + len(g) - 1) if f else []
    n = len(g)
    for i, a in enumerate(f):
        if a:
            out[i:i + n] = [c + a * b for c, b in zip(out[i:i + n], g)]
    return out


def _zz_mul_rows(a: dict, b: dict, n: int, out=None) -> dict:
    """The product of two row dicts, as `Polynomial.rows` holds them:
    every pair of rows is added into the row of its summed exponent, n
    entries long, by `_zz_mul`, into out (in place) when it is given and
    into a new dict otherwise.  The rows returned may hold zeros."""
    rows = {} if out is None else out
    for ea, ra in a.items():
        for eb, rb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            _zz_mul(ra, rb, rows.setdefault(e, [0] * n))
    return rows


def _times_const(rows: dict, c, n: int, out=None) -> dict:
    """rows times c, a nonzero constant in q (an int or a `ParamScale`),
    as `_zz_mul_rows` forms a product."""
    poly = c.poly if isinstance(c, ParamScale) else {
        (0,) * len(next(iter(rows), ())): c}
    return _zz_mul_rows(rows, {e: [v] for e, v in poly.items()}, n, out)


def _zz_kronecker(f: list[int], g: list[int]) -> list[int]:
    """f * g for nonempty lists, all len(f) + len(g) - 1 entries, by
    Kronecker substitution.

    Each list is packed into one int with fixed-width byte limbs, the two
    ints are multiplied once, and the limbs of the product are read back.
    A limb holds w bits with 2^(w-1) above every product coefficient, so
    the coefficients are balanced digits.  Adding 2^(w-1) to every limb
    makes each digit nonnegative with nothing borrowed from the limb
    above, so packing and unpacking run through int.to_bytes and
    int.from_bytes, linear in the total size.
    """
    # the product's coefficients are at most bound; an all-zero list
    # counts as norm one, so its own entries fit the limbs too
    bound = (min(len(f), len(g)) * (max(map(abs, f)) or 1)
             * (max(map(abs, g)) or 1))
    nb = bound.bit_length() // 8 + 1
    half = 1 << (8 * nb - 1)
    limb = half.to_bytes(nb, "little")

    def pack(p: list[int]) -> int:
        biased = b"".join((c + half).to_bytes(nb, "little") for c in p)
        return (int.from_bytes(biased, "little")
                - int.from_bytes(limb * len(p), "little"))

    n = len(f) + len(g) - 1
    buf = (pack(f) * pack(g)
           + int.from_bytes(limb * n, "little")).to_bytes(n * nb, "little")
    return [int.from_bytes(buf[i:i + nb], "little") - half
            for i in range(0, n * nb, nb)]


def _zz_quo(f: list[int], g: list[int]) -> list[int] | None:
    """f / g when g divides f exactly over Z, else None."""
    dg = len(g) - 1
    if len(f) <= dg:
        return None
    rem, lead = list(f), g[-1]
    quo = [0] * (len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + dg], lead)
        if r:
            return None
        quo[k] = c
        if c:
            for j, b in enumerate(g):
                rem[k + j] -= c * b
    return None if any(rem[:dg]) else quo


def _value(f: list[int], s: int) -> int:
    """f(2^s) by Horner's rule, with shifts."""
    v = 0
    for c in reversed(f):
        v = (v << s) + c
    return v


def _zz_gcd(f: list[int], g: list[int]
            ) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) for h the gcd of two nonzero primitive integer lists,
    up to sign: h = [1] when either is a constant, and otherwise GCDHEU.

    As in `fields._mv_gcd`, the point is a power of two 2^s above
    2*min(|f|, |g|) + 2 (max norms), so a candidate that divides both
    inputs is their gcd up to sign.  The one candidate per point is the
    primitive part of the integer gcd of the images, read back as s-bit
    balanced digits (`_digits`); the quotients that accept it are
    returned with it (Liao and Fateman, ISSAC 1995).  A refused point is
    followed by a larger one (`_next_width`) with no cap; every point
    past a bound set by the cofactors' resultant is accepted.
    """
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    fn, gn = max(map(abs, f)), max(map(abs, g))
    s = max(2 * min(fn, gn) + 29,
            2 * min(fn // abs(f[-1]), gn // abs(g[-1])) + 4).bit_length()
    while True:
        cand = _digits(gcd(_value(f, s), _value(g, s)), s)
        m = gcd(*cand)
        cand = [c // m for c in cand]
        qf = _zz_quo(f, cand)
        qg = None if qf is None else _zz_quo(g, cand)
        if qg is not None:
            return cand, qf, qg
        s = _next_width(s)


def _zz_gcd_rows(rows) -> tuple[list[int], list[list[int]]]:
    """(h, [r/h for r in rows]) for h the gcd over Z of the primitive parts
    of a list of nonzero integer lists, up to sign.  Each `_zz_gcd`
    returns the quotients of its two inputs; the quotients of the rows
    before it are multiplied by the first.  Once the gcd is a constant,
    h is [1] and the quotients are the rows themselves."""
    h, quos = None, []
    for r in rows:
        c = gcd(*r)
        p = [x // c for x in r]
        h, a, b = _zz_gcd(h, p) if h else (p, [1], [1])
        if len(h) == 1:
            return [1], rows
        quos = [_zz_mul(a, q) for q in quos] + [[c * x for x in b]]
    return h, quos
