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
pole order of the input at q = -1.  It works in v = i*u, on ints:
2**j j! times the v**j-coefficient of exp(-d_beta*v/2) * F(-exp(v))'s
numerator and denominator are power sums over Z of F's integer rows,
each row scaled by the other side's denominator and the prefactor folded
into the numerator.  One integer, 2**T T! for T the highest index read,
scales both windows to integers, and the quotient runs as the
fraction-free recurrence of laurent_expand on ints.  There is one
Fraction per output coefficient; the coefficient of u**n is i**n times
that of v**n, so it is placed as the real or the imaginary part of a
Gaussian rational, and no Gaussian arithmetic runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .fields import (QI, GaussianRational, ParamRational, _mv_mul, accumulate,
                     field, from_components)
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
# the u-side expansion, over Q, on ints


def _power_sums(ints: list[int], m: int, shift: int):
    """Yields sum_k (-1)**k (2k - shift)**j m*c_k for j = 0, 1, ... for
    the integer list c = ints: 2**j j! times the v**j-coefficient of
    m * exp(-shift*v/2) * p(-exp(v))."""
    terms = [(-1) ** k * m * c for k, c in enumerate(ints)]
    bases = [2 * k - shift for k in range(len(ints))]
    while True:
        yield sum(terms)
        terms = [b * t for b, t in zip(bases, terms)]


def _quotient_ints(num: list[int], den: list[int], n: int) -> list[Fraction]:
    """The first n coefficients of the power series num/den for integer
    lists with den[0] != 0, on ints: with R = den[0], the fraction-free
    recurrence of `laurent_expand`,

        O_k = num_k R^k - sum_(j>=1) den_j R^(j-1) O_(k-j),

    gives the coefficient O_k / R^(k+1), one Fraction each."""
    R, pows = den[0], [1]
    for _ in range(n):
        pows.append(pows[-1] * R)
    tail = [(j, d * pows[j - 1]) for j, d in enumerate(den[:n]) if j and d]
    out = []
    for k in range(n):
        out.append(num[k] * pows[k]
                   - sum(e * out[k - j] for j, e in tail if j <= k))
    return [Fraction(o, p) for o, p in zip(out, pows[1:])]


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
    has v**j-coefficient A_j / (2**j j!) for the integer power sum
    A_j = sum_k (-1)**k L_D P_k (2k - d_beta)**j, and R(-exp(v)) has
    B_j / (2**j j!) for B_j the same sum over L_N R with d_beta = 0
    (`_power_sums`).  Their valuations are the orders of vanishing of P
    and R at q = -1, at most deg P and deg R.  Both windows, from the
    valuations on, are scaled by the one integer 2**T T!, T the highest
    index read: A_j and B_j times 2**(T-j) T!/j!, which leaves their
    quotient unchanged.  The quotient then runs on ints
    (`_quotient_ints`), and each output coefficient is one Fraction;
    the twist by i**n only places it as the real or the imaginary part
    of its Gaussian rational.
    """
    if F.field.tag != "Q":
        raise TypeError("u_expand needs rational coefficients (Q)")
    order = max_exp + 1
    if F.is_zero:
        return LaurentSeries("u", order, [], order, QI)
    nums = _power_sums(F.num.rows[()], F.den.denom, d_beta)
    dens = _power_sums(F.den.rows[()], F.num.denom, 0)
    num = list(islice(nums, F.num.degree + 1))
    den = list(islice(dens, F.den.degree + 1))
    val_n = next(k for k, c in enumerate(num) if c)
    val_d = next(k for k, c in enumerate(den) if c)
    lo = val_n - val_d
    if lo > max_exp:
        return LaurentSeries("u", order, [], order, QI)
    count = order - lo
    num += islice(nums, max(0, val_n + count - len(num)))
    den += islice(dens, max(0, val_d + count - len(den)))
    # weight[j] = 2**(T-j) T!/j! for j <= T, the highest index read
    top = max(val_n, val_d) + count - 1
    weight = [1] * (top + 1)
    for j in range(top, 0, -1):
        weight[j - 1] = weight[j] * 2 * j
    coeffs = _quotient_ints(
        [a * w for a, w in zip(num[val_n:], weight[val_n:])],
        [b * w for b, w in zip(den[val_d:], weight[val_d:])], count)
    return LaurentSeries("u", lo, [_times_i_power(c, n)
                                   for n, c in enumerate(coeffs, lo)],
                         order, QI)


def _times_i_power(c: Fraction, n: int) -> GaussianRational:
    """i**n * c for rational c: c or -c as the real or the imaginary
    part, with no Gaussian product."""
    c = -c if n % 4 >= 2 else c
    return GaussianRational(0, c) if n % 2 else GaussianRational(c)
