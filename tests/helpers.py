"""Functions only the tests use: oracles for the functional-equation
check and the polynomial gcd, and small builders that no command, check
or workload needs."""

from pdc.descendents import DescElement, gen, kunneth_pairs
from pdc.fields import FIELDS
from pdc.polynomial import Polynomial
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


def euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd by Euclid's algorithm over the coefficient field, lowest
    coefficient one: the oracle for `Polynomial.gcd`."""
    while b:
        a, b = b, a.divmod_(b)[1]
    return a.scale(1 / a.coeffs[a.valuation]) if a else a


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
