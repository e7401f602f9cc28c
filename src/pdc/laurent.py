"""Laurent series with explicit truncation tracking.

A series knows its variable (q or u), the exponent of its first possibly
nonzero term, a coefficient window, and the first exponent that is no
longer known exactly.  Series are built by the two expansions below and
read, negated, conjugated or substituted; they are not added or
multiplied.

laurent_expand turns a rational function into its q-expansion on the
integer rows of its numerator and denominator: one fraction-free
recurrence in Z[s] (Q is the case of no parameters).  Its results are
read back once by `from_components` over an integer denominator, and
otherwise made canonical one coefficient at a time.  No field arithmetic
runs in the recurrence, so over the parameter fields the coefficients
grow polynomially in the order.

u_expand performs the exact variable change q = -exp(i*u) on a function
over Q, together with the prefactor exp(-i*d_beta*u/2), producing a
series over the Gaussian rationals whose pole order at u = 0 equals the
pole order of the input at q = -1.  It works in v = i*u:
exp(-d_beta*v/2) * F(-exp(v)) has rational coefficients, which are
power sums over Z of the integer rows of F with the prefactor folded in,
then one power-series quotient over Q (`_ps_quo`).  Only the last step
moves to the Gaussian rationals (the output field alone), where the
coefficient of u**n is i**n times that of v**n.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import (QI, I, ParamRational, _mv_mul, accumulate, field,
                     from_components)
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

    # -- transformations --------------------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.var, self.min_exp, [-c for c in self.coeffs],
                             self.order, self.field)

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

    # -- display ----------------------------------------------------------------

    def __str__(self):
        head = signed_sum((c, power(self.var, self.min_exp + k))
                          for k, c in enumerate(self.coeffs))
        return f"{head} + O({self.var}^{self.order})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the q-expansion, on Z[s]: a q-coefficient is a dict mapping a parameter
# exponent to a nonzero int


def _q_coeffs(p, n: int) -> list[dict]:
    """The n q-coefficients of the polynomial p from its valuation on, in
    Z[s]: those of its rows, which lie over p.denom."""
    v = p.valuation
    return [{e: r[k] for e, r in p.rows.items() if k < len(r) and r[k]}
            for k in range(v, v + n)]


def laurent_expand(F: RationalFunction, max_exp: int) -> LaurentSeries:
    """Expand a rational function around q = 0 through the given exponent.

    F must be in the canonical form `RationalFunction` keeps: its
    denominator's lowest nonzero coefficient is one.  F = (N / S_N) /
    (D / S_D) for the rows N, D and the denominators S_N, S_D of its
    numerator and denominator.  With N_k and D_j the q-coefficients of N
    and D in Z[s] counted from their valuations, R = D_0 equals S_D, and
    the recurrence

        O_k = N_k R^k - sum_(j>=1) D_j R^(j-1) O_(k-j)

    runs in Z[s] with no division, and the coefficient of q^(lo+k) is
    O_k / (S_N R^k).  When R and S_N are integers these are the rows
    O_k R^(count-1-k) over the one int S_N R^(count-1), which
    `from_components` reads back; otherwise each coefficient is that
    ratio in canonical form (`ParamRational.make`), so every common
    factor cancels.  Every product by R or S_N is skipped when it is
    one, as it is for every evaluator's output.
    """
    f = F.field
    order = max_exp + 1
    if F.is_zero:
        return LaurentSeries("q", order, [], order, f)
    lo = F.num.valuation - F.den.valuation
    count = order - lo
    if count <= 0:
        return LaurentSeries("q", order, [], order, f)
    num, den = _q_coeffs(F.num, count), _q_coeffs(F.den, count)
    unit = (0,) * len(f.var_names)
    one = {unit: 1}

    def times(a: dict, b: dict) -> dict:
        return a if b == one else _mv_mul(a, b)

    R = den[0]
    pows = [one] * count   # R^0 .. R^(count-1)
    if R != one:
        for k in range(1, count):
            pows[k] = _mv_mul(pows[k - 1], R)
    tail = [(j, times(d, pows[j - 1])) for j, d in enumerate(den) if j and d]
    out = []
    for k in range(count):
        acc = times(num[k], pows[k])
        for j, e in tail:
            if j > k:
                break
            accumulate(acc, ((tuple(x + y for x, y in zip(ea, eb)), -a * b)
                             for ea, a in e.items()
                             for eb, b in out[k - j].items()))
        out.append(acc)
    # S_N, an int or a `ParamScale`, in Z[s]
    sn = F.num.denom
    sn = {unit: sn} if isinstance(sn, int) else sn.poly
    if list(R) == [unit] and list(sn) == [unit]:
        # constant denominators: the rows O_k R^(count-1-k) over one int,
        # S_N R^(count-1)
        rows: dict = {}
        for k, o in enumerate(out):
            for e, c in times(o, pows[count - 1 - k]).items():
                rows.setdefault(e, [0] * count)[k] = c
        coeffs = from_components(f, rows, sn[unit] * R[unit] ** (count - 1))
    else:
        coeffs = [ParamRational.make(f.tag, o, times(p, sn))
                  for o, p in zip(out, pows)]
    return LaurentSeries("q", lo, coeffs, order, f)


# ---------------------------------------------------------------------------
# the u-side expansion, over Q


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


def _power_sums(ints: list[int], m: int, shift: int, n: int
                ) -> list[Fraction]:
    """[sum_k (-1)**k (2k - shift)**j m*c_k / (2**j j!) for j < n] for
    the integer list c = ints, the v**j-coefficients of
    m * exp(-shift*v/2) * p(-exp(v)): each power sum runs over Z, then one
    Fraction per j."""
    terms = [(-1) ** k * m * c for k, c in enumerate(ints)]
    bases = [2 * k - shift for k in range(len(ints))]
    out, fact = [], 1
    for j in range(n):
        if j:
            fact *= 2 * j
            terms = [b * t for b, t in zip(bases, terms)]
        out.append(Fraction(sum(terms), fact))
    return out


def u_expand(F: RationalFunction, d_beta: int, max_exp: int) -> LaurentSeries:
    """Laurent expansion at u = 0 of exp(-i*d_beta*u/2) * F(-exp(i*u)).

    F lies over Q; the result lives over the Gaussian rationals.
    Coefficients through u**max_exp are exact; the prefactor implements
    (-q)**(-d_beta/2) for either parity of d_beta without any branch
    choice.  The expansion runs in v = i*u, and the coefficient of u**n
    is i**n times that of v**n.

    F = N/D is P(q) * L_D / (R(q) * L_N) for the integer rows P, R and
    the denominators L_N, L_D of N and D.  The prefactor is a unit, so
    it goes into the numerator's power sums: exp(-d_beta*v/2) * P(-exp(v))
    has v**j-coefficient sum_k (-1)**k P_k (2k - d_beta)**j / (2**j j!),
    and R(-exp(v)) the same with d_beta = 0.  The power sums run on the
    integer lists L_D * P and L_N * R; only their division by 2**j j!
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
    num_s = _power_sums(F.num.rows[()], F.den.denom, d_beta, work)
    den_s = _power_sums(F.den.rows[()], F.num.denom, 0, work)
    val_d = next(k for k, c in enumerate(den_s) if c)
    val_n = next((k for k, c in enumerate(num_s) if c), None)
    if val_n is None or val_n - val_d > max_exp:
        return LaurentSeries("u", order, [], order, QI)
    lo = val_n - val_d
    coeffs = _ps_quo(num_s[val_n:], den_s[val_d:], order - lo, Fraction(0))
    twist = (1, I, -1, -I)
    return LaurentSeries("u", lo, [QI.coerce(c) * twist[(lo + k) % 4]
                                   for k, c in enumerate(coeffs)], order, QI)
