"""Virasoro-type operators on the descendent algebra.

An operator is a sum of terms (coefficient, multiplier monomial,
derivation), where the derivation slot holds either the identity or one of
the weighted shift derivations (written R_k here, k >= -1).  A term acts
on an element E as derivation(multiplier * E): the multiplication happens
first, on formal symbols, the derivation is applied by the product rule
treating every generator (including ch_0 and ch_1) as free, and only then
is the result normalized.  That ordering matters: R_{-1}(ch_1(p) * D)
contributes ch_0(p) * D, which normalizes to -D, and the degree-0
constraint operator depends on exactly this contribution.

apply_op does not redo that work term by term.  Each operator compiles,
once and on first use, into its normalized action: a base element
normal(sum of c m over the bare multiplications + sum of c R_d(m) over
the terms with derivation R_d), and for each derivation R_d the element
B_d = normal(sum of c m over its terms), kept only when nonzero.  Then
op(f) = base normal(f) + sum_d B_d normal(R_d f), exactly, for two
reasons.  The boundary conventions are a ring homomorphism on formal
monomials (ch_1 and ch_0 of 1, H, L go to 0, ch_0(p) to -1), so
normal(m f) = normal(m) normal(f).  R_d is a derivation on formal
symbols, so R_d(m f) = R_d(m) f + m R_d(f).  The multiplication still
happens on formal symbols first: R_{-1}(ch_1(p) * D) contributes through
the base, which holds normal(R_{-1} ch_1(p)) = -1.  A product of two
normalized monomials is normalized, so nothing is normalized twice.

R_k multiplies a generator of degree x by the rising factorial
x (x+1) ... (x+k) while shifting the subscript by k; R_{-1} is the plain
downward shift, with subscripts below zero giving zero.

The quadratic operators combine the diagonal expansion of the hyperplane
class square with factorial weights, a point-class square term and R_k;
the full constraint operators add a shifted point-class multiplication
followed by the downward shift.  The commutator is computed symbolically:
the derivation-derivation bracket is [R_k, R_m] = (m-k) R_{k+m}, a
derivation moves past a multiplication by acting on the multiplier, and
multiplications commute.  (Composing two shift derivations directly would
NOT reproduce the bracket on the boundary of the algebra: subscripts below
zero are truncated away, so the double application loses the terms that
pass through negative subscripts.  The symbolic bracket uses the algebraic
relation instead, which is the relation the constraint theory asserts.)
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .descendents import (Coeff, DescElement, Generator, Monomial,
                          class_degree, format_monomial, gen,
                          int_or_fraction, kunneth_pairs, monomial,
                          normal_terms)
from .fields import accumulate
from .text import signed_sum


class Term(NamedTuple):
    coeff: Coeff  # int, or Fraction from fractional input
    mult: Monomial
    deriv: int | None  # None for identity, k for the shift derivation R_k


def _deriv_key(deriv: int | None) -> tuple:
    return (0, 0) if deriv is None else (1, deriv)


def _keyed_terms(terms):
    """((multiplier, derivation), coefficient) pairs of operator terms."""
    for coeff, mult, deriv in terms:
        if deriv is not None and deriv < -1:
            raise ValueError("derivation index below -1: malformed operator")
        yield (monomial(mult), deriv), int_or_fraction(coeff)


class VirasoroOperator:
    __slots__ = ("terms", "_action")

    def __init__(self, terms):
        merged = accumulate({}, _keyed_terms(terms))
        ordered = sorted(merged, key=lambda k: (_deriv_key(k[1]), k[0]))
        object.__setattr__(self, "terms",
                           tuple(Term(merged[k], k[0], k[1]) for k in ordered))

    def __setattr__(self, name, value):
        raise AttributeError("VirasoroOperator is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def action(self) -> tuple:
        """(base, ((d, B_d), ...)) as (monomial, coefficient) pairs, built
        on first use and kept (see the module docstring)."""
        try:
            return self._action
        except AttributeError:
            pass
        base: dict = {}
        parts: dict = {}
        for coeff, mult, deriv in self.terms:
            term = [(mult, coeff)]
            if deriv is None:
                accumulate(base, normal_terms(term))
            else:
                accumulate(base, normal_terms(_shift_terms(deriv, term)))
                accumulate(parts.setdefault(deriv, {}), normal_terms(term))
        action = (tuple(base.items()),
                  tuple((d, tuple(b.items())) for d, b in parts.items() if b))
        object.__setattr__(self, "_action", action)
        return action

    def __add__(self, other: "VirasoroOperator") -> "VirasoroOperator":
        return VirasoroOperator(self.terms + other.terms)

    def __sub__(self, other: "VirasoroOperator") -> "VirasoroOperator":
        return self + other.scale(-1)

    def scale(self, c) -> "VirasoroOperator":
        c = int_or_fraction(c)
        return VirasoroOperator([Term(c * t.coeff, t.mult, t.deriv)
                                 for t in self.terms])

    def compose_mult(self, extra: Monomial) -> "VirasoroOperator":
        """The operator following multiplication by a monomial."""
        extra = tuple(extra)
        return VirasoroOperator([Term(t.coeff, monomial(t.mult + extra),
                                      t.deriv) for t in self.terms])

    def __eq__(self, other):
        if not isinstance(other, VirasoroOperator):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        def factor(mult, deriv):
            shift = [] if deriv is None else [f"R_{deriv}"]
            return " ".join(shift + ([format_monomial(mult)] if mult else []))
        return signed_sum((c, factor(m, d)) for c, m, d in self.terms)

    __repr__ = __str__


def multiplication_op(factors: Monomial, coeff=1) -> VirasoroOperator:
    """Multiplication by a fixed monomial, as an operator."""
    return VirasoroOperator([Term(coeff, monomial(factors), None)])


def shift_weight(k: int, g: Generator) -> int:
    """Rising-factorial weight x(x+1)...(x+k) at x = the generator degree."""
    x = g.i + class_degree(g.cls) - 3
    w = 1
    for n in range(k + 1):
        w *= x + n
    return w


def _shift_terms(k: int, items):
    """R_k on (monomial, coefficient) pairs: one pair per factor that
    survives the shift, by the product rule."""
    for factors, c in items:
        for idx, g in enumerate(factors):
            w = shift_weight(k, g)
            if not w:
                continue
            ni = g.i + k
            if ni < 0:
                continue  # subscripts below zero vanish
            yield monomial(factors[:idx] + (Generator(ni, g.cls),)
                           + factors[idx + 1:]), c * w


def apply_shift(k: int, e: DescElement) -> DescElement:
    """The shift derivation R_k: product rule over factors; scalars die."""
    if k < -1:
        raise ValueError("the shift derivation needs k >= -1")
    return DescElement._from_terms(
        accumulate({}, _shift_terms(k, e.terms.items())))


def apply_op(op: VirasoroOperator, e: DescElement) -> DescElement:
    """Apply the operator: multiply, derive on formal symbols, normalize;
    computed as base normal(e) + sum_d B_d normal(R_d e) from its action."""
    base, parts = op.action
    acc: dict = {}
    if base:
        accumulate(acc, _products(normal_terms(e.terms.items()), base))
    for d, part in parts:
        accumulate(acc, _products(
            normal_terms(_shift_terms(d, e.terms.items())), part))
    return DescElement._from_terms(acc)


def _products(items, fixed):
    """Every product of a pair from items with a pair from fixed."""
    for f, c in items:
        for m, cm in fixed:
            yield monomial(f + m), c * cm


def build_quadratic(k: int) -> VirasoroOperator:
    """The weighted quadratic operator of index k >= -1 (written L_k).

    Sum of: -2 times the diagonal expansion of ch_a ch_b of the hyperplane
    class over a+b = k+2, each Kunneth piece weighted by factorials of the
    shifted subscripts (negative-argument factorials vanish); the
    point-class square terms a! b! ch_a(p) ch_b(p) over a+b = k; and the
    shift derivation R_k.
    """
    if k < -1:
        raise ValueError("operator index must be at least -1")
    terms = []
    for a in range(k + 3):
        b = k + 2 - a
        for dl, dr in kunneth_pairs(1):
            if a + dl < 3 or b + dr < 3:
                continue  # a factorial of a negative argument vanishes
            w = factorial(a + dl - 3) * factorial(b + dr - 3)
            sign = (-1) ** (dl * dr)
            terms.append(Term(-2 * sign * w,
                              monomial((gen(a, dl), gen(b, dr))), None))
    for a in range(k + 1):
        b = k - a
        terms.append(Term(factorial(a) * factorial(b),
                          monomial((gen(a, 3), gen(b, 3))), None))
    terms.append(Term(1, (), k))
    return VirasoroOperator(terms)


def build_constraint(k: int) -> VirasoroOperator:
    """The full constraint operator: the quadratic operator plus
    (k+1)! R_{-1} following multiplication by ch_{k+1}(p)."""
    extra = Term(factorial(k + 1), (gen(k + 1, 3),), -1)
    return VirasoroOperator(build_quadratic(k).terms + (extra,))


def build_constraint_composed(k: int) -> VirasoroOperator:
    """The same constraint operator assembled through the identity
    "quadratic(k) + (k+1)! quadratic(-1) after multiplication by
    ch_{k+1}(p)"; must act identically to build_constraint(k)."""
    tail = build_quadratic(-1).compose_mult((gen(k + 1, 3),))
    return build_quadratic(k) + tail.scale(factorial(k + 1))


def commutator(A: VirasoroOperator, B: VirasoroOperator) -> VirasoroOperator:
    """Symbolic commutator [A, B], canonically merged.

    Uses [R_k, R_m] = (m-k) R_{k+m}, moves derivations past
    multiplications by acting on the multiplier, and drops
    multiplication-multiplication pairs.  Raises if a term would leave
    the closed term class (which signals a construction bug).
    """
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


def generator_monomials(gen_bound: int, max_factors: int,
                        classes=(0, 1, 2, 3), min_sub: int = 0) -> list[Monomial]:
    """Every monomial with at most max_factors factors over the given
    classes, with subscripts between min_sub and gen_bound."""
    gens = [gen(i, cls) for i in range(min_sub, gen_bound + 1)
            for cls in classes]
    out: list[Monomial] = [()]
    level: list[tuple[Monomial, int]] = [((), 0)]
    for _ in range(max_factors):
        grown = []
        for factors, start in level:
            for idx in range(start, len(gens)):
                grown.append((factors + (gens[idx],), idx))
        level = grown
        out.extend(monomial(m) for m, _ in level)
    return out


def acts_as_zero(op: VirasoroOperator) -> bool:
    """Is the operator's action empty?

    Then it sends every element to zero: its base is empty and every B_d
    is zero.  A bare multiplication by a monomial the boundary conventions
    kill (one holding a ch_1, or a ch_0 of 1, H or L) qualifies, and so
    does R_{-1} after multiplication by 1 + ch_0(p), since
    normal(1 + ch_0(p)) = 0.  The zero operator qualifies.
    """
    base, parts = op.action
    return not base and not parts


def bracket_check(k: int, m: int, gen_bound: int) -> bool:
    """Check the symbolic bracket [L_k, L_m] against (m-k) L_{k+m}.

    One operator, lhs - rhs, must kill every monomial with at most two
    factors and subscripts up to gen_bound.  That is exact: apply_op is
    linear in the operator, so lhs - rhs kills a monomial just when both
    sides send it to the same normalized element.

    Mostly lhs - rhs has no terms at all.  On [-1,8]^2 the pairs where
    it has some are those with L_{-1}, and there every term is a bare
    multiplication by a monomial the boundary conventions kill:
    [L_{-1}, L_4] - 5 L_3 = -96 ch0(L) ch5(L) + 96 ch1(H) ch4(p), say.
    Such an operator has an empty action (acts_as_zero), so the check
    passes without applying it to any monomial, whatever gen_bound is.
    A difference whose action is not empty is applied to every monomial,
    through that one action.
    """
    if k < -1 or m < -1:
        raise ValueError("bracket indices must be at least -1")
    diff = commutator(build_quadratic(k), build_quadratic(m))
    if k != m:  # the bracket of an operator with itself is zero
        diff = diff - build_quadratic(k + m).scale(m - k)
    return acts_as_zero(diff) or all(
        apply_op(diff, DescElement({factors: 1})).is_zero
        for factors in generator_monomials(gen_bound, 2))
