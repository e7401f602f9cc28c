"""Functions only the tests use: oracles for the functional-equation
check, the polynomial quotients, the balanced digits, the two
closed-form evaluators, the JSON coefficient reader, the operator
kernel, the power-series quotient and u-expansion over Fractions and
q d/dq by its quotient rule, and small builders that no command, check
or workload needs."""

from fractions import Fraction
from math import factorial

from pdc.descendents import (DescElement, gen, kunneth_pairs, monomial,
                             normalize)
from pdc.fields import FIELDS, QI, I, ParamRational, _mono_from_key
from pdc.laurent import LaurentSeries
from pdc.polynomial import Polynomial, _times_binomial, _zz_mul
from pdc.ratfun import RationalFunction, _lowest_den_coeff_one
from pdc.text import ParseError, Scanner
from pdc.virasoro import (Term, VirasoroOperator, _shift_terms,
                          apply_shift)


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


def ps_quo_reference(num: list, den: list, n: int, zero) -> list:
    """The first n coefficients of the power series num/den over the
    field, where den[0] != 0: out[k] = (num[k] - sum_(j>=1)
    den[j]*out[k-j]) / den[0].  The oracle for the integer recurrences
    of `laurent_expand` and `u_expand`."""
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


def u_expand_reference(F: RationalFunction, d_beta: int,
                       max_exp: int) -> LaurentSeries:
    """`laurent.u_expand` on Fractions: the power sums of the integer rows
    divided by 2**j j! one Fraction per j, a quotient over Q
    (`ps_quo_reference`), and the twist by i**n as a product of Gaussian
    rationals."""
    order = max_exp + 1
    if F.is_zero:
        return LaurentSeries("u", order, [], order, QI)
    work = max(0, max_exp) + 2 * F.den.degree + F.num.degree + 2

    def power_sums(ints, m, shift):
        terms = [(-1) ** k * m * c for k, c in enumerate(ints)]
        bases = [2 * k - shift for k in range(len(ints))]
        out, fact = [], 1
        for j in range(work):
            if j:
                fact *= 2 * j
                terms = [b * t for b, t in zip(bases, terms)]
            out.append(Fraction(sum(terms), fact))
        return out

    num_s = power_sums(F.num.rows[()], F.den.denom, d_beta)
    den_s = power_sums(F.den.rows[()], F.num.denom, 0)
    val_d = next(k for k, c in enumerate(den_s) if c)
    val_n = next((k for k, c in enumerate(num_s) if c), None)
    if val_n is None or val_n - val_d > max_exp:
        return LaurentSeries("u", order, [], order, QI)
    lo = val_n - val_d
    coeffs = ps_quo_reference(num_s[val_n:], den_s[val_d:], order - lo,
                              Fraction(0))
    twist = (1, I, -1, -I)
    return LaurentSeries("u", lo, [QI.coerce(c) * twist[(lo + k) % 4]
                                   for k, c in enumerate(coeffs)], order, QI)


def q_ddq_reference(F: RationalFunction) -> RationalFunction:
    """q d/dq by the quotient rule, q(N'D - ND') / D^2, made canonical
    by the constructor: the oracle for `ratfun.q_ddq_minus`."""
    num = F.num.deriv() * F.den - F.num * F.den.deriv()
    return RationalFunction(num.shift(1), F.den * F.den)


def identity_op() -> VirasoroOperator:
    return VirasoroOperator([Term(1, (), None)])


def shift_op(k: int) -> VirasoroOperator:
    """The bare shift derivation R_k, as an operator."""
    return VirasoroOperator([Term(1, (), k)])


def apply_op_reference(op: VirasoroOperator, e: DescElement) -> DescElement:
    """`virasoro.apply_op` term by term through the public element
    operations."""
    total = DescElement.zero()
    for coeff, mult, deriv in op.terms:
        x = e * DescElement({mult: 1})
        if deriv is not None:
            x = apply_shift(deriv, x)
        total = total + normalize(x).scale(coeff)
    return total


def commutator_reference(A: VirasoroOperator,
                         B: VirasoroOperator) -> VirasoroOperator:
    """`virasoro.commutator` as a list of terms handed to the public
    constructor."""
    out = []
    for c1, x, d1 in A.terms:
        for c2, y, d2 in B.terms:
            c = c1 * c2
            if d1 is not None and d2 is not None and d1 != d2:
                if d1 + d2 < -1:
                    raise ValueError("commutator left the operator class")
                out.append(Term((d2 - d1) * c, monomial(x + y), d1 + d2))
            if d1 is not None and y:
                for factors, w in _shift_terms(d1, [(y, c)]):
                    out.append(Term(w, monomial(x + factors), d2))
            if d2 is not None and x:
                for factors, w in _shift_terms(d2, [(x, -c)]):
                    out.append(Term(w, monomial(y + factors), d1))
    return VirasoroOperator(out)


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


def reference_rational_from_json(v) -> Fraction:
    """A JSON rational read one character at a time by `text.Scanner`
    into a Fraction: the oracle for `fields._ratio_from_json`."""
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if not isinstance(v, str):
        raise ValueError(f"coefficient {v!r} is not a string or an integer")
    scanner = Scanner(v)
    try:
        sign = -1 if scanner.accept("+-") == "-" else 1
        return Fraction(scanner.finish(sign * scanner.rational()))
    except ParseError as exc:
        raise ValueError(
            f"coefficient {v!r} is not a rational: {exc}") from None


def reference_poly_from_json(f, values) -> Polynomial:
    """A JSON coefficient list read one field element at a time (a
    Fraction, or a `ParamRational.make` of Fractions) and built into a
    `Polynomial` from those elements: the oracle for
    `fields.components_from_json`."""
    if not f.var_names:
        return Polynomial(f, [reference_rational_from_json(v)
                              for v in values])
    coeffs = []
    for v in values:
        if not (isinstance(v, dict) and isinstance(v.get("num"), dict)
                and isinstance(v.get("den"), dict)):
            raise ValueError(
                f"a {f.tag} coefficient must be a {{num, den}} object")
        num, den = ({_mono_from_key(k, f.var_names):
                     reference_rational_from_json(c)
                     for k, c in v[part].items()} for part in ("num", "den"))
        coeffs.append(ParamRational.make(f.tag, num, den))
    return Polynomial(f, coeffs)
