"""Laurent series with explicit truncation tracking.

A series knows its variable (q or u), the exponent of its first possibly
nonzero term, a coefficient window, and the first exponent that is no
longer known exactly.  Arithmetic is exact on the known window and the
truncation bound is propagated conservatively.

Two expansion engines share one power-series quotient (`_ps_quo`):
laurent_expand turns a rational function into its q-expansion (over Q,
on the numerator's integer rows, when the denominator lies in Q[q]; over
the field when it depends on the parameters), and
u_expand performs the exact variable change q = -exp(i*u) on one over Q,
together with the prefactor exp(-i*d_beta*u/2), producing a series over
the Gaussian rationals whose pole order at u = 0 equals the pole order of
the input at q = -1.

u_expand works in v = i*u: exp(-d_beta*v/2) * F(-exp(v)) has rational
coefficients, so the whole expansion runs over Q (its power sums over Z,
on the integer rows of F), and only the last step
moves to the Gaussian rationals (the output field alone), where the
coefficient of u**n is i**n times that of v**n.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .fields import QI, I, field, from_components
from .polynomial import _q_row, mul_truncated
from .ratfun import RationalFunction
from .text import power, signed_sum


class LaurentSeries:
    __slots__ = ("var", "min_exp", "coeffs", "order", "field")

    def __init__(self, var: str, min_exp: int, coeffs, order: int, f="Q"):
        if var not in ("q", "u"):
            raise ValueError("series variable must be 'q' or 'u'")
        f = field(f) if isinstance(f, str) else f
        cs = [f.coerce(c) for c in coeffs]
        if min_exp + len(cs) != order:
            raise ValueError("coefficient window does not match order")
        lead = next((k for k, c in enumerate(cs) if c), len(cs))
        cs = cs[lead:]
        min_exp += lead
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "field", f)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # -- access ---------------------------------------------------------------

    def coeff(self, n: int):
        """Exact coefficient of var**n; n must lie below the truncation order."""
        if n >= self.order:
            raise ValueError(f"coefficient of exponent {n} is beyond order {self.order}")
        if n < self.min_exp:
            return self.field.zero
        return self.coeffs[n - self.min_exp]

    def as_dict(self) -> dict:
        return {self.min_exp + k: c for k, c in enumerate(self.coeffs) if c}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other: "LaurentSeries"):
        if self.var != other.var or self.field.tag != other.field.tag:
            raise ValueError("series in different variables or fields")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_compatible(other)
        order = min(self.order, other.order)
        lo = min(self.min_exp if self.coeffs else order,
                 other.min_exp if other.coeffs else order)
        coeffs = [self.coeff(n) + other.coeff(n) for n in range(lo, order)]
        return LaurentSeries(self.var, lo, coeffs, order, self.field)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.var, self.min_exp, [-c for c in self.coeffs],
                             self.order, self.field)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        # a series with empty window has min_exp == order, so the bounds
        # below cover vanishing factors as well
        self._check_compatible(other)
        lo = self.min_exp + other.min_exp
        order = min(self.order + other.min_exp, other.order + self.min_exp)
        coeffs = mul_truncated(self.coeffs, other.coeffs, order - lo,
                               self.field.zero)
        return LaurentSeries(self.var, lo, coeffs, order, self.field)

    def scale(self, c) -> "LaurentSeries":
        c = self.field.coerce(c)
        if not c:
            return LaurentSeries(self.var, self.order, [], self.order, self.field)
        return LaurentSeries(self.var, self.min_exp,
                             [a * c for a in self.coeffs], self.order, self.field)

    def substitute_negated(self) -> "LaurentSeries":
        """The series S(-x) for series variable x."""
        coeffs = [c if (self.min_exp + k) % 2 == 0 else -c
                  for k, c in enumerate(self.coeffs)]
        return LaurentSeries(self.var, self.min_exp, coeffs, self.order, self.field)

    def conjugate(self) -> "LaurentSeries":
        if self.field.tag != "Qi":
            return self
        return LaurentSeries(self.var, self.min_exp,
                             [c.conjugate() for c in self.coeffs],
                             self.order, self.field)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.var == other.var and self.field.tag == other.field.tag
                and self.min_exp == other.min_exp and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        raise TypeError("LaurentSeries is not hashable")

    # -- display ----------------------------------------------------------------

    def __str__(self):
        head = signed_sum((c, power(self.var, self.min_exp + k))
                          for k, c in enumerate(self.coeffs))
        return f"{head} + O({self.var}^{self.order})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the power-series quotient on plain coefficient lists (index = exponent)


def _ps_quo(num: list, den: list, n: int, zero) -> list:
    """The first n coefficients of the power series num/den, where
    den[0] != 0: out[k] = (num[k] - sum_(j>=1) den[j]*out[k-j]) / den[0]."""
    d0, tail = den[0], [(j, c) for j, c in enumerate(den) if j and c]
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else zero
        for j, c in tail:
            if j > k:
                break
            acc = acc - c * out[k - j]
        out.append(acc / d0)
    return out


def laurent_expand(F: RationalFunction, max_exp: int) -> LaurentSeries:
    """Expand a rational function around q = 0 through the given exponent.

    When the denominator lies in Q[q] (`_q_row`), the quotient runs over
    Q on each integer row of the numerator (whose denominator, with any
    parameter denominators cleared, scales the result), and each
    coefficient is built once by `from_components`; when it depends on
    the parameters the quotient runs over the field.
    """
    f = F.field
    order = max_exp + 1
    if F.is_zero:
        return LaurentSeries("q", order, [], order, f)
    vn, vd = F.num.valuation, F.den.valuation
    lo = vn - vd
    count = order - lo
    if count <= 0:
        return LaurentSeries("q", order, [], order, f)
    # the quotient reads count coefficients of each side
    row = _q_row(F.den)
    if row is None:
        return LaurentSeries("q", lo, _ps_quo(
            F.num.coeffs[vn:vn + count], F.den.coeffs[vd:vd + count],
            count, f.zero), order, f)
    # Fraction entries: with ints throughout, acc / d0 would be a float
    den = [Fraction(c, F.den.denom) for c in row[vd:vd + count]]
    quos = {e: _ps_quo(r[vn:vn + count], den, count, 0)
            for e, r in F.num.rows.items()}
    scale = lcm(*(c.denominator for quo in quos.values() for c in quo))
    rows = {e: [c.numerator * (scale // c.denominator) for c in quo]
            for e, quo in quos.items()}
    return LaurentSeries("q", lo, from_components(
        f, rows, scale * F.num.denom), order, f)


def _power_sums(ints: list[int], m: int, n: int) -> list[Fraction]:
    """[sum_k (-1)**k k**j m*c_k / j! for j < n] for the integer list
    c = ints: each power sum runs over Z, then one Fraction per j."""
    terms = [(-1) ** k * m * c for k, c in enumerate(ints)]
    out, fact = [], 1
    for j in range(n):
        if j:
            fact *= j
            terms = [k * t for k, t in enumerate(terms)]
        out.append(Fraction(sum(terms), fact))
    return out


def u_expand(F: RationalFunction, d_beta: int, max_exp: int) -> LaurentSeries:
    """Laurent expansion at u = 0 of exp(-i*d_beta*u/2) * F(-exp(i*u)).

    F lies over Q; the result lives over the Gaussian rationals.
    Coefficients through u**max_exp are exact; the prefactor implements
    (-q)**(-d_beta/2) for either parity of d_beta without any branch
    choice.  The expansion runs in v = i*u, and the coefficient of u**n
    is i**n times that of v**n.

    The coefficients of F(-exp(v)) are power sums of the coefficients of
    F.  F = N/D is P(q) * L_D / (R(q) * L_N) for the integer rows P, R
    and the denominators L_N, L_D of N and D, so the power sums run on
    the integer lists L_D * P and L_N * R; only their division by j!
    makes a Fraction.
    """
    if F.field.tag != "Q":
        raise TypeError("u_expand needs rational coefficients (Q)")
    order = max_exp + 1
    if F.is_zero:
        return LaurentSeries("u", order, [], order, QI)
    # enough working terms that the denominator window stays exact past the
    # deepest possible vanishing at u = 0 (order at most deg den)
    work = max(0, max_exp) + 2 * F.den.degree + F.num.degree + 2
    # the coefficient of v**j in p(-exp(v)) is sum_k (-1)**k k**j c_k / j!
    num_s = _power_sums(F.num.rows[()], F.den.denom, work)
    den_s = _power_sums(F.den.rows[()], F.num.denom, work)
    val_d = next(k for k, c in enumerate(den_s) if c)
    val_n = next((k for k, c in enumerate(num_s) if c), None)
    if val_n is None or val_n - val_d > max_exp:
        return LaurentSeries("u", order, [], order, QI)
    lo = val_n - val_d
    count = order - lo
    zero = Fraction(0)
    quotient = _ps_quo(num_s[val_n:], den_s[val_d:], count, zero)
    rate = Fraction(-d_beta, 2)
    prefactor = [rate ** j / factorial(j) for j in range(count)]
    coeffs = mul_truncated(quotient, prefactor, count, zero)
    twist = (1, I, -1, -I)
    return LaurentSeries("u", lo, [QI.coerce(c) * twist[(lo + k) % 4]
                                   for k, c in enumerate(coeffs)], order, QI)
