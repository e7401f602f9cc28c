"""Functions only the tests use: oracles for the functional-equation
check, the polynomial quotients, the balanced digits and the
two closed-form evaluators, and small builders that no command, check or
workload needs."""

from math import factorial

from pdc.descendents import DescElement, gen, kunneth_pairs
from pdc.fields import FIELDS
from pdc.polynomial import Polynomial, _times_binomial, _zz_mul
from pdc.ratfun import RationalFunction, _lowest_den_coeff_one
from pdc.virasoro import Term, VirasoroOperator


def invert_q(F: RationalFunction) -> RationalFunction:
    """Exact substitution q -> 1/q, cleared back to polynomial form: the
    left-hand side of the identity `fe_check` decides.

    The reversal of a polynomial has nonzero constant term, so the
    reversals of a coprime pair are again coprime and the result is
    assembled in canonical form directly.
    """
    if F.is_zero:
        return F
    e = F.den.degree - F.num.degree
    num = F.num.reversed_().shift(max(e, 0))
    den = F.den.reversed_().shift(max(-e, 0))
    return RationalFunction._from_canonical(*_lowest_den_coeff_one(num, den))


def identity_op() -> VirasoroOperator:
    return VirasoroOperator([Term(1, (), None)])


def shift_op(k: int) -> VirasoroOperator:
    """The bare shift derivation R_k, as an operator."""
    return VirasoroOperator([Term(1, (), k)])


def kunneth_expand(a: int, b: int, j: int) -> DescElement:
    """ch_a ch_b of H^j pushed through the diagonal of the 3-fold squared."""
    out = DescElement.zero()
    for dl, dr in kunneth_pairs(j):
        out = out + DescElement.of(gen(a, dl), gen(b, dr))
    return out


def degree_six_pair() -> tuple[Polynomial, Polynomial, Polynomial]:
    """(a, b, c): two polynomials over Q_s whose coefficients span several
    parameter monomials, with the planted common factor c of degree 6 in
    q.  Euclid's remainders over the parameter ratios swell without end
    on this pair."""
    f = FIELDS["Q_s"]
    s1, s2, s3 = f.gens()
    c = Polynomial(f, [s1 + 2 * s2 - 1, 3 * s3 - s1 * s2, s2 + s3 + 2,
                       s1 - s3, 2 * s1 * s3 + 1, s2 - 3, s1 + s2 + s3])
    a = Polynomial(f, [s1 - 2, s2 * s3 + 1, 3 * s1 + s3])
    b = Polynomial(f, [2 * s2 + 1, s1 * s3 - s2, s3 - 1, s1 + s2])
    return a * c, b * c, c


def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b by long division over the coefficient field; ValueError when
    b does not divide a.  The oracle for the quotients of
    `Polynomial.gcd_cofactors`."""
    quo, rem = a.divmod_(b)
    if rem:
        raise ValueError("polynomial division is not exact")
    return quo


def digits_by_loop(n: int, x: int) -> list[int]:
    """The balanced base-x digits of n, in (-x/2, x/2], one `%` of the
    whole number per digit: the oracle for `fields._digits`."""
    out = []
    while n:
        d = n % x
        if d > x // 2:
            d -= x
        out.append(d)
        n = (n - d) // x
    return out


def local_curve_by_products(d: int) -> RationalFunction:
    """`series.local_curve_series` by its recurrence with every y_m a
    stored series and every y_m * b_(k-m) a full product: the oracle for
    the running-sum version."""
    den = [1]
    for m in range(1, d + 1):
        for _ in range(2 * (d // m)):
            _times_binomial(den, m, -(-1) ** m)
    terms = len(den) - d
    # y[m] and b[k] hold the series in q divided by q^m and q^k
    y = [None] + [[0] * (terms - m) for m in range(1, d + 1)]
    for m in range(1, d + 1):
        for k in range(1, (terms - 1) // m + 1):
            y[m][m * (k - 1)] = k * (-1) ** (m * k)
    b = [[1] + [0] * (terms - 1)]
    for k in range(1, d + 1):
        size = terms - k
        acc = [0] * size
        for m in range(1, k + 1):
            c = factorial(k - 1) // factorial(k - m)
            prod = _zz_mul(y[m][:size], b[k - m][:size])
            acc = [a - c * x for a, x in zip(acc, prod)]
        b.append(acc)
    num = [0] * d + _zz_mul(b[d], den[:terms - d])[:terms - d]
    f = FIELDS["Q"]
    return RationalFunction(Polynomial.from_rows(f, {(): num}, factorial(d)),
                            Polynomial.from_rows(f, {(): den}))


def cap_by_products(d: int) -> RationalFunction:
    """`series.cap_series` with the numerator built from prefix and suffix
    products of the factors 1 - (-q)^j, and (s1 + s2) / (2 d!) by field
    arithmetic: the oracle for the version with one binomial division per
    term."""
    def running_products(ms):
        out = [[1]]
        for m in ms:
            p = list(out[-1])
            _times_binomial(p, m, -(-1) ** m)
            out.append(p)
        return out

    prefix = running_products(range(1, d + 1))
    suffix = running_products(range(d, 1, -1))
    num = [0] * len(prefix[d])
    for i in range(1, d + 1):
        term = _zz_mul(prefix[i - 1], suffix[d - i])
        _times_binomial(term, i, (-1) ** i)
        num = [a + t for a, t in zip(num, term)]
    f = FIELDS["Q"]
    value = RationalFunction(Polynomial.from_rows(f, {(): num}),
                             Polynomial.from_rows(f, {(): prefix[d]}))
    s1, s2, _ = FIELDS["Q_s"].gens()
    return value.scale_monomial((s1 + s2) / (2 * factorial(d)), d)
