"""The descendent algebra of projective 3-space.

Generators are ch_i(c) with subscript i >= 0 and a cohomology class c from
{1, H, L, p}, where H is the hyperplane, L = H^2 the line class and p the
point class; an extra class token p0 names the torus-fixed point insertion
used by the equivariant series table.  Elements are finite sums of
monomials in the generators with exact coefficients: ints, and Fractions
only where fractional input (a parsed "3/4", say) brings them in, so the
operator algebra, whose coefficients are factorials, runs on ints.  No
relations are imposed until normalize is applied.

normalize implements the boundary conventions: each factor ch_0(p) turns
into the scalar -1, while ch_0 of any lower class and every ch_1 kill the
monomial; boundary_split sorts the factors of one monomial into these
three cases, for normalize and for the operator kernel.  The tau labels used for series are related by
tau_k(c) = ch_{k+2}(c).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .fields import accumulate, rat
from .text import ParseError, Scanner, signed_sum

CLASS_NAMES = ("1", "H", "L", "p", "p0")
_CLASS_INDEX = {name: k for k, name in enumerate(CLASS_NAMES)}


class Generator(NamedTuple):
    i: int
    cls: int

    def __str__(self):
        return f"ch{self.i}({CLASS_NAMES[self.cls]})"


def gen(i: int, cls: int | str) -> Generator:
    """Build the generator ch_i of the given class."""
    if isinstance(cls, str):
        cls = _CLASS_INDEX[cls]
    if i < 0:
        raise ValueError("generator subscript must be nonnegative")
    if not 0 <= cls < len(CLASS_NAMES):
        raise ValueError(f"no cohomology class with index {cls}")
    return Generator(i, cls)


def from_tau(k: int, cls: int | str) -> Generator:
    """The generator for the descendent tau_k(c); shifts the subscript by 2."""
    if k < 0:
        raise ValueError("tau subscript must be nonnegative")
    return gen(k + 2, cls)


def class_degree(cls: int) -> int:
    """Complex degree of the class: 0,1,2,3 for 1,H,L,p and 3 for p0."""
    return 3 if cls >= 3 else cls


def generator_degree(g: Generator) -> int:
    return g.i + class_degree(g.cls) - 3


Monomial = tuple  # sorted tuple of Generators
Coeff = int | Fraction


def monomial(factors: Iterable[Generator]) -> Monomial:
    return tuple(sorted(factors))


def monomial_degree(factors: Monomial) -> int:
    return sum(generator_degree(g) for g in factors)


def int_or_fraction(c) -> Coeff:
    """c (int, Fraction or a string like "3/4"): an int if integral."""
    if type(c) is int:
        return c
    c = c if isinstance(c, Fraction) else rat(c)
    return c.numerator if c.denominator == 1 else c


class DescElement:
    """Finite rational combination of generator monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = accumulate({}, ((monomial(factors), int_or_fraction(c))
                                for factors, c in (terms or {}).items()))
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_terms(cls, terms: dict) -> "DescElement":
        # Internal: terms must already map sorted monomials to nonzero
        # ints or Fractions, as accumulate leaves them.
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("DescElement is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "DescElement":
        return cls({})

    @classmethod
    def constant(cls, c) -> "DescElement":
        return cls({(): c})

    @classmethod
    def of(cls, *gens: Generator, coeff=1) -> "DescElement":
        return cls({monomial(gens): coeff})

    # -- structure --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, DescElement):
            return NotImplemented
        return self.terms == other.terms

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "DescElement") -> "DescElement":
        return DescElement._from_terms(
            accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "DescElement":
        return DescElement._from_terms(
            {factors: -c for factors, c in self.terms.items()})

    def __sub__(self, other: "DescElement") -> "DescElement":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, DescElement):
            return self.scale(other)
        return DescElement._from_terms(accumulate(
            {}, ((monomial(fa + fb), ca * cb)
                 for fa, ca in self.terms.items()
                 for fb, cb in other.terms.items())))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "DescElement":
        c = int_or_fraction(c)
        if not c:
            return DescElement.zero()
        return DescElement._from_terms(
            {f: int_or_fraction(c * v) for f, v in self.terms.items()})

    # -- display -----------------------------------------------------------------

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"DescElement({format_element(self)})"


def boundary_split(factors: Monomial, coeff: Coeff) -> tuple:
    """The boundary conventions on one monomial, factor by factor.

    Returns (kept, coeff, killed): the factors that survive, coeff with
    one sign flip per ch_0(p) factor (the scalar -1), and the factors
    that annihilate the monomial (ch_0 of the classes 1, H, L and every
    ch_1).  Dropping factors keeps a sorted monomial sorted.
    """
    kept, killed = [], []
    for g in factors:
        i, cls = g
        if i > 1 or i == 0 and cls == 4:  # ch_0(p0): no convention applies
            kept.append(g)
        elif i == 0 and cls == 3:
            coeff = -coeff
        else:
            killed.append(g)
    return tuple(kept), coeff, killed


def normal_terms(items):
    """The boundary conventions on (monomial, coefficient) pairs: one pair
    per monomial that survives (see boundary_split)."""
    for factors, coeff in items:
        kept, coeff, killed = boundary_split(factors, coeff)
        if not killed:
            yield kept, coeff


def normalize(e: DescElement) -> DescElement:
    """Apply the boundary conventions to every monomial.

    ch_0(p) factors become the scalar -1; ch_0 of the classes 1, H, L and
    every ch_1 annihilate the monomial.  Idempotent.
    """
    return DescElement._from_terms(
        accumulate({}, normal_terms(e.terms.items())))


def kunneth_pairs(j: int) -> list[tuple[int, int]]:
    """Class-degree pairs (dL, dR) in the diagonal decomposition of H^j."""
    if not 0 <= j <= 3:
        raise ValueError("class power out of range")
    return [(r + j, 3 - r) for r in range(4 - j)]


# ---------------------------------------------------------------------------
# text syntax: "ch3(p)", "tau1(L)", products with '*', sums with '+'/'-',
# rational coefficients like 3/4


class DescParseError(ParseError):
    """Descendent syntax error, with the offending position."""


class _DescParser(Scanner):
    error = DescParseError

    def parse(self) -> DescElement:
        return self.finish(self.sum_of(self._product))

    def _product(self) -> DescElement:
        value = self._factor()
        while self.accept("*"):
            value = value * self._factor()
        return value

    def _factor(self) -> DescElement:
        if self.peek().isalpha():
            return DescElement.of(self._generator())
        return DescElement.constant(self.rational())

    def _generator(self) -> Generator:
        start = self.skip_space()
        name = self.take(str.isalpha)
        if name not in ("ch", "tau"):
            self.fail(f"unknown symbol {name!r}", start)
        sub = self.digits()
        if not sub:
            self.fail(f"{name} needs a subscript")
        self.expect("(")
        cls_start = self.skip_space()
        cls_name = self.take(str.isalnum)
        if cls_name not in _CLASS_INDEX:
            self.fail(f"unknown class {cls_name!r}", cls_start)
        self.expect(")")
        return (from_tau if name == "tau" else gen)(int(sub), cls_name)


def parse_element(text: str) -> DescElement:
    """Parse descendent syntax; accepts both ch and tau labels."""
    return _DescParser(text).parse()


def format_monomial(factors: Monomial) -> str:
    if not factors:
        return "1"
    return "*".join(str(g) for g in factors)


def format_element(e: DescElement) -> str:
    """Canonical printing; parse_element(format_element(e)) == e."""
    return signed_sum((e.terms[f], format_monomial(f) if f else "")
                      for f in sorted(e.terms))
