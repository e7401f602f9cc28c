"""Rational functions of q over Q, Q_s or Q_lambda, with exact coefficients.

The canonical representative has coprime numerator and denominator and a
denominator whose lowest-order nonzero coefficient equals one, so series
like q/(1+q)^2 print with the denominator expanded exactly as written.
Equality is plain structural comparison of canonical forms, down to the
reduced denominators of `Polynomial`.  The canonical form is built on
the integer rows alone: the cofactors of one gcd, then the rows scaled
by the denominator's lowest coefficient, with no arithmetic over the
field.

Besides field arithmetic the module provides the operations that the
series checks are built from: the operator q d/dq, the
functional-equation test F(1/q) == sign * q^(-d) * F(q), and the
divisibility test confining poles to q = 0 and roots of 1 - (-q)^m.
Both tests run on the integer rows that `Polynomial` stores (with any
parameter denominator cleared into them); neither runs arithmetic over
the field.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import Field, ParamRational, field
from .polynomial import (Polynomial, _lowest_coeff, _times_binomial,
                         _times_const, _zz_gcd_rows, _zz_mul_rows)
from .text import ParseError, Scanner


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        """num / den in canonical form.

        `Polynomial.gcd_cofactors` gives a gcd h together with num / h
        and den / h, the quotients its acceptance test computed.  Those
        are the coprime pair, so no division follows; then den's lowest
        nonzero coefficient is divided out (`_lowest_den_coeff_one`).
        """
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        f = num.field
        if f.tag != den.field.tag:
            raise TypeError("numerator and denominator over different fields")
        if num.is_zero:
            num, den = Polynomial.zero(f), Polynomial.one(f)
        else:
            _, num, den = Polynomial.gcd_cofactors(num, den)
            num, den = _lowest_den_coeff_one(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _from_canonical(cls, num: Polynomial,
                        den: Polynomial) -> "RationalFunction":
        # Internal: num/den must already be coprime with the denominator's
        # lowest-order nonzero coefficient equal to one.  Used where that
        # is known structurally, to skip a gcd.
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, f) -> "RationalFunction":
        return cls(Polynomial.zero(f), Polynomial.one(f))

    @classmethod
    def one(cls, f) -> "RationalFunction":
        return cls(Polynomial.one(f), Polynomial.one(f))

    @classmethod
    def const(cls, f, c) -> "RationalFunction":
        return cls(Polynomial.const(f, c), Polynomial.one(f))

    @classmethod
    def q(cls, f) -> "RationalFunction":
        return cls(Polynomial.q(f), Polynomial.one(f))

    # -- structure -----------------------------------------------------------

    @property
    def field(self) -> Field:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.den + o.num * self.den,
                                self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return (RationalFunction.one(self.field) / self) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def scale_monomial(self, c, k: int = 0) -> "RationalFunction":
        """Multiply by c * q**k without a gcd.

        A nonzero scalar preserves coprimality, and a power of q cancels
        directly against whichever side carries the factor q, so the
        canonical form can be assembled outright.

        Over Q, c may lie in a parameter field, and the product lies
        there: Q is algebraically closed in Q(s), so a pair coprime over
        Q stays coprime over Q(s).  Both sides are read over Q(s) on
        their integer rows, not coefficient by coefficient.
        """
        f, num, den = self.field, self.num, self.den
        if f.tag == "Q" and isinstance(c, ParamRational):
            f = field(c.tag)
            unit = (0,) * len(f.var_names)
            num, den = (Polynomial.from_rows(f, {unit: r for r in
                                                 p.rows.values()}, p.denom)
                        for p in (num, den))
        c = f.coerce(c)
        if self.is_zero or not c:
            return RationalFunction.zero(f)
        num = num.scale(c)
        if k:
            # q^t cancels, from den when k > 0 and from num when k < 0
            t = min(k, den.valuation) if k > 0 else min(-k, num.valuation)
            num, den = num.shift(max(k, 0) - t), den.shift(max(-k, 0) - t)
        return RationalFunction._from_canonical(num, den)

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other, Polynomial.one(other.field))
        return RationalFunction.const(self.field, other)

    # -- display -------------------------------------------------------------

    def to_str(self, var: str = "q") -> str:
        ns = self.num.to_str(var)
        if self.den.degree == 0:
            return ns
        return f"({ns})/({self.den.to_str(var)})"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"RationalFunction[{self.field.tag}]({self.to_str()})"


def _lowest_den_coeff_one(num: Polynomial,
                          den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num and den scaled so that den's lowest nonzero coefficient is one.

    That coefficient is c / L, for c in Z[s] and L den's denominator, so
    both are divided by it on the rows: num's rows times L over num's
    denominator times c, and den's rows over c.  Each denominator is then
    reduced to the canonical form (`Polynomial`), the lcm of its
    coefficients' denominators.
    """
    f, c, L = den.field, _lowest_coeff(den), den.denom
    if c == L:
        return num, den
    rows = _times_const(num.rows, L, num.degree + 1)
    return (Polynomial.from_rows(f, rows, num.denom * c),
            Polynomial.from_rows(f, den.rows, c))


def q_ddq(F: RationalFunction) -> RationalFunction:
    """The operator q d/dq applied exactly."""
    num = F.num.deriv() * F.den - F.num * F.den.deriv()
    return RationalFunction(num.shift(1), F.den * F.den)


def fe_check(F: RationalFunction, d_beta: int, sign: int) -> bool:
    """Does F satisfy F(1/q) == sign * q**(-d_beta) * F(q) exactly?

    Decided by cross multiplication: writing F = N/D with degrees n, m
    and revP = q**deg(P) * P(1/q), the identity is equivalent to the
    polynomial identity q**(m-n+d_beta) * revN * D == sign * N * revD
    (the power of q moves to the right-hand side when the exponent is
    negative).  Both sides are formed on the integer rows of N and D;
    reversing and shifting keep a polynomial's denominator, so both have
    that of N times that of D, and their rows are compared directly.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if F.is_zero:
        return True
    num, den = F.num, F.den
    e = den.degree - num.degree + d_beta
    # both sides have rows of n entries, at the same exponents
    n = num.degree + den.degree + abs(e) + 1
    lhs = _zz_mul_rows(num.reversed_().shift(max(e, 0)).rows, den.rows, n)
    rhs = _zz_mul_rows(num.rows, den.reversed_().shift(max(-e, 0)).rows, n)
    return lhs == {k: [sign * c for c in r] for k, r in rhs.items()}


def pole_check(F: RationalFunction, d: int) -> bool:
    """True when the denominator divides q**a * prod_{m<=d} (1-(-q)**m)**b_m.

    Equivalently: every pole of F lies at q = 0 or at a root of some
    1 - (-q)**m with m <= d.  Decided by repeatedly dividing out
    gcd(den, q * prod(1 - (-q)**m)); no factorization is needed.  The
    loop runs on the integer rows of den, whose common factor with that
    product is the gcd (`_zz_gcd_rows`, which returns the rows divided
    by it), as in `Polynomial.gcd`; the rows carry any parameter
    denominators cleared, and those are constants in q, so no gcd runs
    over the field.  A factor Phi_k(-q) of den has phi(k) <= deg den, so
    d is first cut to the largest such k (`_cyclotomic_reach`).
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    den = F.den
    if den.degree < 1:
        return True
    if d > den.degree + 1:
        d = min(d, _cyclotomic_reach(den.degree))
    allowed = [0, 1]
    for m in range(1, d + 1):
        _times_binomial(allowed, m, -(-1) ** m)
    rows = list(den.rows.values())
    while max(map(len, rows)) > 1:
        g, (_, *rows) = _zz_gcd_rows([allowed, *rows])
        if len(g) == 1:
            return False
    return True


def _cyclotomic_reach(n: int) -> int:
    """The largest k with phi(k) <= n, for n >= 1.  Since phi(k) >=
    sqrt(k) for k > 6, a sieve of phi up to max(6, n*n) finds it."""
    top = max(6, n * n)
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    return max(k for k in range(1, top + 1) if phi[k] <= n)


# ---------------------------------------------------------------------------
# small expression parser for the fixtures `check-all` restates as text
# (see pdc.checks) and for the tests


class RFParseError(ParseError):
    """Rational-function syntax error, with the offending position."""


class _RFParser(Scanner):
    """Recursive descent over: rationals, q, + - * / ^ and parentheses."""

    error = RFParseError

    def __init__(self, text: str, f: Field | str):
        super().__init__(text)
        self.f = f

    def parse(self) -> RationalFunction:
        return self.finish(self._expr())

    def _expr(self) -> RationalFunction:
        return self.sum_of(self._term)

    def _term(self) -> RationalFunction:
        value = self._factor()
        while op := self.accept("*/"):
            rhs = self._factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    self.fail("division by zero")
                value = value / rhs
        return value

    def _factor(self) -> RationalFunction:
        value = self._atom()
        while self.accept("^"):
            value = value ** self._int()
        return value

    def _atom(self) -> RationalFunction:
        if self.accept("("):
            value = self._expr()
            self.expect(")")
            return value
        if self.accept("-"):
            return -self._atom()
        if self.accept("q"):
            return RationalFunction.q(self.f)
        if digits := self.digits():
            return RationalFunction.const(self.f, Fraction(int(digits)))
        self.unexpected()

    def _int(self) -> int:
        sign = -1 if self.accept("-") else 1
        digits = self.digits()
        if not digits:
            self.fail("expected an integer")
        return sign * int(digits)


def parse_rf(text: str, f: Field | str = "Q") -> RationalFunction:
    """Parse expressions like "q*(1+q^2)/(1+q)^2" into canonical form."""
    return _RFParser(text, f).parse()
