"""Dense univariate polynomials in q over an exact coefficient field.

Coefficients are stored in ascending powers with a nonzero trailing entry,
so the representation is canonical.  Division, gcd and exact division all
work over any of the supported fields.
"""

from __future__ import annotations

from .fields import Field, field
from .text import power, signed_sum


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, f: Field | str, coeffs=()):
        f = field(f) if isinstance(f, str) else f
        cs = [f.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", f)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

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
        """Monic-by-lowest-coefficient gcd over the coefficient field."""
        while not b.is_zero:
            a, b = b, a.divmod_(b)[1]
        if a.is_zero:
            return a
        low = a.coeffs[a.valuation]
        if low == a.field.one:
            return a
        return a.scale(1 / low)

    # -- display -------------------------------------------------------------

    def to_str(self, var: str = "q") -> str:
        return signed_sum((c, power(var, k))
                          for k, c in enumerate(self.coeffs))

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Polynomial[{self.field.tag}]({self.to_str()})"
