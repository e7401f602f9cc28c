"""Dense univariate polynomials in q over Q, Q_s or Q_lambda.

Qi, a field of u-side Laurent series only, raises TypeError.
Coefficients are stored in ascending powers with a nonzero trailing entry,
so the representation is canonical.

Multiplication, gcd and exact division run on an integer core.
`fields.to_components` writes every coefficient list as
sum_e s^e P_e(q) / L, with integer lists P_e (Q is the case of the single
exponent ()); L is an int when the parameter denominators are constant,
and otherwise also carries the cleared parameter denominators, which are
constants in q.  A product multiplies every pair of components over Z.
When one gcd input is a single component s^e P(q) / L, the gcd is the
integer gcd of P and every component of the other input: Q is
algebraically closed in the purely transcendental Q(s), so the factors
of P over Q(s) are defined over Q, and the monomials s^e are independent
over Q(q).  Exact division by a polynomial in Q[q] divides each
component over Z by its primitive part.

Every integer product runs through one kernel, `_zz_mul`: the schoolbook
loop when the shorter factor has fewer than 16 entries, and otherwise
Kronecker substitution (`_zz_kronecker`; Harvey, arXiv 0712.4046), which
packs both lists into one int with byte limbs, multiplies once, and
reads the product back as balanced digits.  `Polynomial.__mul__` and
`pdc.ratfun.fe_check` add their products into rows in place
(`_zz_mul_rows`).

Two integer lists get their gcd from the heuristic gcd of Char, Geddes
and Gonnet (evaluate at a large integer, take the integer gcd, read the
polynomial back from balanced base-x digits).  A candidate is accepted
only once it divides both primitive inputs exactly over Z; after a fixed
number of evaluation points the primitive PRS takes over.  This avoids
the coefficient swell of Euclid over Fractions and over parameter ratios.

Three routes stay over the field: the schoolbook product
`mul_truncated`, which Laurent series use; long division (`divmod_`), for
an exact division by a divisor that is not one integer row in Q[q]; and
Euclid's algorithm, for a gcd of two inputs that both span several
parameter monomials.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, isqrt

from .fields import Field, field, from_components, to_components
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
    __slots__ = ("field", "coeffs")

    def __init__(self, f: Field | str, coeffs=()):
        f = q_field(f)
        cs = [f.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", f)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _from_field_coeffs(cls, f: Field, cs: list) -> "Polynomial":
        # Internal: cs must already hold elements of f, as
        # from_components builds them; only trailing zeros are stripped.
        while cs and not cs[-1]:
            cs.pop()
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", f)
        object.__setattr__(obj, "coeffs", tuple(cs))
        return obj

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, f) -> "Polynomial":
        return cls(f, ())

    @classmethod
    def one(cls, f) -> "Polynomial":
        return cls(f, (1,))

    @classmethod
    def const(cls, f, c) -> "Polynomial":
        return cls(f, (c,))

    @classmethod
    def q(cls, f) -> "Polynomial":
        return cls(f, (0, 1))

    @classmethod
    def monomial(cls, f, c, k: int) -> "Polynomial":
        return cls(f, (0,) * k + (c,))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def valuation(self) -> int:
        """Order of vanishing at q = 0; 0 for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return 0

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field.tag == other.field.tag and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(self.field, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return Polynomial.zero(f)
        a, b = to_components(f, self.coeffs), to_components(f, other.coeffs)
        n = len(self.coeffs) + len(other.coeffs) - 1
        return Polynomial._from_field_coeffs(f, from_components(
            f, _zz_mul_rows(a[0], b[0], n), a[1] * b[1]))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        return Polynomial(self.field, [a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, n: int) -> "Polynomial":
        """Multiply by q**n (n >= 0)."""
        if self.is_zero:
            return self
        return Polynomial(self.field, (0,) * n + self.coeffs)

    def reversed_(self) -> "Polynomial":
        """q**degree * p(1/q); the coefficient list reversed."""
        return Polynomial(self.field, tuple(reversed(self.coeffs)))

    def deriv(self) -> "Polynomial":
        return Polynomial(self.field,
                          [k * c for k, c in enumerate(self.coeffs)][1:])

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

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """self / other, which must be exact.

        When other is one integer row in Q[q] (an int scale), each
        component of self is divided over Z by the primitive part of
        other (Gauss's lemma: a quotient by a primitive divisor is
        integral); otherwise by long division over the field.
        """
        f = self.field
        a, b = to_components(f, self.coeffs), to_components(f, other.coeffs)
        row = _q_row(*b)
        if self and row is not None:
            g = _primitive_ints(row)
            content = row[-1] // g[-1]
            rows = {}
            for e, r in a[0].items():
                quo = _zz_quo(r, g)
                if quo is None:
                    raise ValueError("polynomial division is not exact")
                rows[e] = [c * b[1] for c in quo]
            return Polynomial._from_field_coeffs(
                f, from_components(f, rows, a[1] * content))
        quo, rem = self.divmod_(other)
        if not rem.is_zero:
            raise ValueError("polynomial division is not exact")
        return quo

    def divides(self, other: "Polynomial") -> bool:
        """True when self divides other exactly."""
        if self.is_zero:
            return other.is_zero
        return other.divmod_(self)[1].is_zero

    @staticmethod
    def gcd(a: "Polynomial", b: "Polynomial") -> "Polynomial":
        """Monic-by-lowest-coefficient gcd over the coefficient field.

        The result's lowest-order nonzero coefficient is one; gcd(0, 0) is
        zero.  When one input is s^e P(q) / L, a single component, the
        gcd is the integer gcd (`_zz_gcd`) of P and every component of
        the other: Q is algebraically closed in Q(s), so every factor of
        P over Q(s) is defined over Q, and it divides sum_e s^e B_e(q)
        exactly when it divides each B_e.  The scales are constants in q
        and play no part.  Every other case runs Euclid's algorithm.
        """
        f = a.field
        pa, pb = to_components(f, a.coeffs), to_components(f, b.coeffs)
        if a and b:
            ra, rb = pa[0], pb[0]
            if len(ra) > 1:
                ra, rb = rb, ra
            if len(ra) == 1:
                g = _zz_gcd_rows([*ra.values(), *rb.values()])
                low = next(c for c in g if c)
                unit = (0,) * len(f.var_names)
                return Polynomial._from_field_coeffs(
                    f, from_components(f, {unit: g}, low))
        return _euclid_gcd(a, b)

    # -- display -------------------------------------------------------------

    def to_str(self, var: str = "q") -> str:
        return signed_sum((c, power(var, k))
                          for k, c in enumerate(self.coeffs))

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Polynomial[{self.field.tag}]({self.to_str()})"


# ---------------------------------------------------------------------------
# the routes over the field


def mul_truncated(a, b, n: int, zero) -> list:
    """The first n coefficients of a * b for coefficient lists a and b
    (index = exponent), by the schoolbook product over their field."""
    out = [zero] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                if y:
                    out[j] = out[j] + x * y
    return out


def _euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd by Euclid's algorithm over the field, lowest coefficient one."""
    while not b.is_zero:
        a, b = b, a.divmod_(b)[1]
    if a.is_zero:
        return a
    low = a.coeffs[a.valuation]
    if low == a.field.one:
        return a
    return a.scale(1 / low)


# ---------------------------------------------------------------------------
# the integer core; coefficient lists in ascending powers

_HEU_TRIES = 6
_KRONECKER_CUT = 16   # see `_zz_mul`


def _q_row(rows: dict, scale) -> list[int] | None:
    """The row P when the components (rows, scale) are P(q) / scale with
    an int scale, a polynomial in Q[q]; else None."""
    if len(rows) == 1 and isinstance(scale, int):
        ((e, row),) = rows.items()
        if not any(e):
            return row
    return None


def _primitive_ints(ints: list[int]) -> list[int]:
    """A nonzero integer list divided by its content."""
    content = gcd(*ints)
    return [c // content for c in ints]


def _times_binomial(p: list[int], m: int, c: int) -> None:
    """p *= 1 + c*q^m in place, for an integer list p."""
    p.extend([0] * m)
    for k in range(len(p) - 1, m - 1, -1):
        p[k] += c * p[k - m]


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


def _zz_mul_rows(a: dict, b: dict, n: int) -> dict:
    """The product of two component dicts, as `fields.to_components`
    writes them: every pair of rows is added into the row of its summed
    exponent, n entries long, by `_zz_mul`.  Rows may hold zeros."""
    rows: dict = {}
    for ea, ra in a.items():
        for eb, rb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            _zz_mul(ra, rb, rows.setdefault(e, [0] * n))
    return rows


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


def _digits(n: int, x: int) -> list[int]:
    """The polynomial h with h(x) = n and balanced digits in (-x/2, x/2]."""
    out = []
    while n:
        d = n % x
        if d > x // 2:
            d -= x
        out.append(d)
        n = (n - d) // x
    return out


def _value(f: list[int], x: int) -> int:
    """f(x) by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def _heu_gcd(f: list[int], g: list[int]) -> list[int] | None:
    """GCDHEU on primitive lists of positive degree; None if it gives up.

    Every evaluation point exceeds 2*min(|f|, |g|) + 2 (max norms), so a
    candidate that divides both inputs is their gcd up to sign.  The
    candidates are the primitive part of the interpolated integer gcd and
    the quotients of f and g by their interpolated cofactors.
    """
    fn, gn = max(map(abs, f)), max(map(abs, g))
    x = max(2 * min(fn, gn) + 29,
            2 * min(fn // abs(f[-1]), gn // abs(g[-1])) + 4)
    for _ in range(_HEU_TRIES):
        ff, gg = _value(f, x), _value(g, x)
        if ff and gg:
            h = gcd(ff, gg)
            cand = _primitive_ints(_digits(h, x))
            if _zz_quo(f, cand) is not None and _zz_quo(g, cand) is not None:
                return cand
            for p, other, v in ((f, g, ff), (g, f, gg)):
                cand = _zz_quo(p, _digits(v // h, x))
                if cand is not None and _zz_quo(other, cand) is not None:
                    return cand
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _prs_gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd by the primitive polynomial remainder sequence."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        rem = list(f)
        while len(rem) >= len(g):
            c, k = rem[-1], len(rem) - len(g)
            rem = [g[-1] * r for r in rem]
            for j, b in enumerate(g):
                rem[k + j] -= c * b
            while rem and not rem[-1]:
                rem.pop()
        f, g = g, (_primitive_ints(rem) if rem else rem)
    return f


def _zz_gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd of two nonzero primitive integer lists, up to sign."""
    if len(f) == 1 or len(g) == 1:
        return [1]
    return _heu_gcd(f, g) or _prs_gcd(f, g)


def _zz_gcd_rows(rows) -> list[int]:
    """gcd over Z of the primitive parts of nonzero integer lists, up to
    sign."""
    return reduce(_zz_gcd, map(_primitive_ints, rows))
