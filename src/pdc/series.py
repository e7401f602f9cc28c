"""Stored partition functions, closed-form evaluators, and reductions.

The module holds four things:

* a small immutable database of exactly-known descendent partition
  functions (rational functions in the box-counting variable q), keyed by
  geometry, curve degree, the canonical insertion monomial, and an opaque
  relative-boundary label;

* closed-form evaluators for two families: the degree-d local-curve
  series (the degree-d coefficient of an exponential, by its recurrence)
  and the equivariant cap series with a point-class descendent (a finite
  sum with prefactor over the two-parameter tangent field); both run on
  integer coefficient lists and build one rational function at the end;

* `reduce`, which evaluates a descendent element against the database by
  applying the dimension, string, divisor, and dilaton rules, plus the
  Virasoro constraint checker built on it;

* the algebraic-cobordism example: the degree-matched series components
  in the products-of-projective-spaces basis, with their shared
  functional-equation check.

Serialization is exact and canonical: a list of records round-trips
through JSON byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .descendents import (DescElement, Monomial, format_monomial,
                          monomial, monomial_degree, normalize, parse_element)
from .fields import FIELDS, ParamRational, components_from_json
from .polynomial import (Polynomial, _over_binomial, _times_binomial, _zz_mul,
                         q_field)
from .ratfun import RationalFunction, fe_check, q_ddq_minus
from .virasoro import apply_op, build_constraint

GEOMETRIES = ("P3", "Cap", "LocalCurve", "CobordismP3")
PROVENANCES = ("exact", "evaluator", "conjectural")  # falling certainty


class SeriesKey(NamedTuple):
    geometry: str
    degree: int
    insertions: str            # canonical monomial string; "1" for none
    boundary: str | None = None  # opaque relative-boundary label


class SeriesRecord(NamedTuple):
    key: SeriesKey
    value: RationalFunction
    provenance: str


class UnknownSeriesError(LookupError):
    """A reduction reached a monomial with no stored series.

    This is an explicit signal of missing data; it is never silently
    treated as zero (the dimension rule is the only automatic vanishing).
    """

    def __init__(self, key: SeriesKey):
        self.key = key
        super().__init__(f"no stored series for {key_str(key)}")


def canonical_insertions(label) -> str:
    """Canonical string form of an insertion monomial.

    Accepts a monomial tuple, a DescElement that is a single monomial with
    coefficient one, or text in the descendent syntax; "" and "1" both
    name the empty insertion.
    """
    if isinstance(label, str):
        text = label.strip()
        if not text:
            return "1"
        label = parse_element(text)
    if isinstance(label, DescElement):
        if len(label.terms) != 1:
            raise ValueError("insertion key must be a single monomial")
        ((factors, coeff),) = label.terms.items()
        if coeff != 1:
            raise ValueError("insertion key must have coefficient one")
        return format_monomial(factors)
    return format_monomial(monomial(label))


def make_key(geometry: str, degree: int, insertions,
             boundary: str | None = None) -> SeriesKey:
    if geometry not in GEOMETRIES:
        raise ValueError(f"unknown geometry {geometry!r}")
    if type(degree) is not int or degree < 1:
        raise ValueError("degree must be a positive integer")
    return SeriesKey(geometry, degree, canonical_insertions(insertions),
                     boundary)


def key_str(key: SeriesKey) -> str:
    parts = [key.geometry, str(key.degree), key.insertions]
    if key.boundary is not None:
        parts.append(key.boundary)
    return ":".join(parts)


def key_from_str(text: str) -> SeriesKey:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            "key format is geometry:degree:insertions[:boundary]")
    degree = parts[1]
    if not (degree.isascii() and degree.isdigit()) or int(degree) < 1:
        raise ValueError(f"key degree {degree!r} is not a positive integer")
    boundary = parts[3] if len(parts) == 4 else None
    return make_key(parts[0], int(degree), parts[2], boundary)


def _record_sort_key(record: SeriesRecord):
    k = record.key
    return (k.geometry, k.degree, k.insertions, k.boundary or "")


class SeriesDB:
    """Immutable mapping from series keys to records."""

    __slots__ = ("_records",)

    def __init__(self, records=()):
        store: dict[SeriesKey, SeriesRecord] = {}
        for rec in records:
            if rec.provenance not in PROVENANCES:
                raise ValueError(f"unknown provenance {rec.provenance!r}")
            if rec.key in store and store[rec.key].value != rec.value:
                raise ValueError(f"conflicting records for {key_str(rec.key)}")
            store[rec.key] = rec
        object.__setattr__(self, "_records", store)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesDB is immutable")

    def __len__(self):
        return len(self._records)

    def __contains__(self, key: SeriesKey):
        return key in self._records

    def records(self) -> list[SeriesRecord]:
        return sorted(self._records.values(), key=_record_sort_key)

    def get(self, key: SeriesKey) -> SeriesRecord:
        try:
            return self._records[key]
        except KeyError:
            raise UnknownSeriesError(key) from None

    def find(self, key: SeriesKey) -> SeriesRecord | None:
        return self._records.get(key)

    def lookup(self, geometry: str, degree: int, insertions,
               boundary: str | None = None) -> RationalFunction:
        return self.get(make_key(geometry, degree, insertions,
                                 boundary)).value

    def merged(self, other: "SeriesDB") -> "SeriesDB":
        """A database containing both record sets; other wins on clashes."""
        combined = dict(self._records)
        combined.update(other._records)
        return SeriesDB(combined.values())


def _qpoly(coeffs) -> Polynomial:
    return Polynomial(FIELDS["Q"], coeffs)


def _builtin_records() -> list[SeriesRecord]:
    f = FIELDS["Q"]
    one = Polynomial.one(f)
    onepq = _qpoly([1, 1])
    records = []

    def rec(geometry, degree, insertions, value, provenance="exact",
            boundary=None):
        records.append(SeriesRecord(
            make_key(geometry, degree, insertions, boundary), value,
            provenance))

    # two point-class insertions, degree 1
    rec("P3", 1, "ch2(p)*ch2(p)",
        RationalFunction(_qpoly([0, 1, 2, 1]), one))
    # one twice-shifted point insertion, degree 1
    rec("P3", 1, "ch4(p)", RationalFunction(
        _qpoly([0, Fraction(1, 12), Fraction(-5, 6), Fraction(1, 12)]), one))
    # identity-class insertion of subscript 7, degree 1
    rec("P3", 1, "ch7(1)",
        RationalFunction(_qpoly([0, -2, -1, 31, -31, 1, 2]),
                         (onepq ** 3).scale(18)))
    # the dilaton pair: subscripts 3 and 7 on the identity class, degree 1
    rec("P3", 1, "ch3(1)*ch7(1)",
        RationalFunction(_qpoly([0, 1, 4, 17, -62, 17, 4, 1]),
                         (onepq ** 4).scale(9)))
    # hyperplane times point, degree 1
    rec("P3", 1, "ch3(H)*ch3(p)", RationalFunction(
        _qpoly([0, Fraction(3, 4), Fraction(-3, 2), Fraction(3, 4)]), one))
    # identity-class insertion of subscript 11, degree 2 (conjectural value)
    big = _qpoly([73, -825, -124, 5945, 779, -36020, 60224,
                  -36020, 779, 5945, -124, -825, 73])
    rec("P3", 2, "ch11(1)",
        RationalFunction(-big.shift(1),
                         ((onepq ** 3) * (_qpoly([-1, 1]) ** 3)).scale(60480)),
        provenance="conjectural")

    # equivariant fixed-point-class insertion, degree 1
    fl = FIELDS["Q_lambda"]
    l0, l1, l2, l3 = fl.gens()
    a = (3 * l0 - l1 - l2 - l3) / 24
    b = (9 * l0 - 3 * (l1 + l2 + l3)) / 8
    rec("P3", 1, "ch5(p0)",
        RationalFunction(Polynomial(fl, [0, a, -b, b, -a]),
                         Polynomial(fl, [1, 1])))

    # cap with a twice-shifted point insertion and one-part boundary
    fs = FIELDS["Q_s"]
    s1, s2, s3 = fs.gens()
    c = 2 * s1 * s1 + 3 * s1 * s2 + 2 * s2 * s2
    e = 6 * s3 * (s1 + s2) - 2 * s1 * s1 - 6 * s1 * s2 - 2 * s2 * s2
    rec("Cap", 1, "ch4(p)",
        RationalFunction(Polynomial(fs, [0, c, e, c]),
                         Polynomial(fs, [1, 1]) ** 2),
        boundary="(1)")

    return records


_BUILTIN: SeriesDB | None = None


def builtin_db() -> SeriesDB:
    """The eight stored partition functions."""
    global _BUILTIN
    if _BUILTIN is None:
        _BUILTIN = SeriesDB(_builtin_records())
    return _BUILTIN


# ---------------------------------------------------------------------------
# closed-form evaluators


def _alternate(p: list[int]) -> list[int]:
    """The coefficients in q of p(-q), for an integer list p in powers of
    x: the odd-degree entries negated, in place."""
    p[1::2] = [-c for c in p[1::2]]
    return p


def local_curve_series(d: int) -> RationalFunction:
    """Degree-d series of the local Calabi-Yau curve geometry.

    The sum over partitions mu of d of (-1)^len(mu)/zaut(mu) times the
    product over parts m of y_m = x^m / (1-x^m)^2, x = -q, computed
    exactly.  That sum is [t^d] exp(-sum_m y_m t^m / m) (Macdonald, I.2),
    so it is b_d / d! for the integer series b_0 = 1 and
    b_n = -sum_{m=1..n} (n-1)!/(n-m)! * y_m * b_(n-m).

    Over D_d = prod_m (1-x^m)^(2*floor(d/m)) the sum has a numerator of
    degree at most deg D_d - d, so b_d * D_d truncated after that degree,
    over d! * D_d, is the series.  The series run on integer lists in x,
    truncated there.  Multiplying by y_m is a shift by m and two
    divisions by 1 - x^m, each a running sum in place
    (`_over_binomial`); one product by D_d and one gcd then give the
    quotient, read back at x = -q.
    """
    if d < 1:
        raise ValueError("degree must be a positive integer")
    den = [1]
    for m in range(1, d + 1):
        for _ in range(2 * (d // m)):
            _times_binomial(den, m, -1)
    terms = len(den) - d   # x^0 .. x^(deg D_d - d)
    # b[k] holds b_k divided by x^k, with the terms from x^terms on
    # dropped; y_m b_(k-m) / x^k is b[k-m] over (1 - x^m)^2
    b = [[1] + [0] * (terms - 1)]
    for k in range(1, d + 1):
        acc = [0] * (terms - k)
        for m in range(1, k + 1):
            p = _over_binomial(_over_binomial(b[k - m][:terms - k], m), m)
            c = factorial(k - 1) // factorial(k - m)
            acc = [a - c * x for a, x in zip(acc, p)]
        b.append(acc)
    num = [0] * d + _zz_mul(b[d], den[:terms - d])[:terms - d]
    return RationalFunction(
        Polynomial.from_rows("Q", {(): _alternate(num)}, factorial(d)),
        Polynomial.from_rows("Q", {(): _alternate(den)}))


def cap_series(d: int) -> RationalFunction:
    """Equivariant cap series with the d-shifted point insertion and
    one-block boundary of size d.

    (q^d / d!) * ((s1+s2)/2) * sum_{i=1..d} (1+x^i)/(1-x^i), x = -q,
    exact over the tangent-weight field.

    Over P_d = prod_i (1-x^i) the numerator is
    sum_i (1+x^i) * P_d/(1-x^i) = sum_i (2 P_d/(1-x^i) - P_d), built on
    integer lists in x with one exact division of P_d by 1 - x^i per i
    (`_over_binomial`).  The quotient is cancelled once over Q, read back
    at x = -q, and lifted into Q_s by `RationalFunction.scale_monomial`.
    """
    if d < 1:
        raise ValueError("degree must be a positive integer")
    den = [1]
    for i in range(1, d + 1):
        _times_binomial(den, i, -1)
    num = [-d * c for c in den]
    for i in range(1, d + 1):
        num = [a + 2 * c for a, c in zip(num, _over_binomial(list(den), i))]
    value = RationalFunction(Polynomial.from_rows("Q", {(): _alternate(num)}),
                             Polynomial.from_rows("Q", {(): _alternate(den)}))
    # (s1 + s2) / (2 * d!), canonical as it stands
    half_sum = ParamRational("Q_s", {(1, 0, 0): Fraction(1),
                                     (0, 1, 0): Fraction(1)},
                             {(0, 0, 0): Fraction(2 * factorial(d))})
    return value.scale_monomial(half_sum, d)


# ---------------------------------------------------------------------------
# reduction of descendent insertions against the database


def _is_equivariant(factors: Monomial) -> bool:
    return any(g.cls == 4 for g in factors)


def _reduce_monomial(factors: Monomial, d: int, db: SeriesDB,
                     geometry: str, boundary: str | None,
                     read: dict) -> RationalFunction:
    fq = FIELDS["Q"]
    if geometry == "P3" and not _is_equivariant(factors):
        # dimension rule, applied to the (original) monomial's total
        # degree: the consumable factors below all have degree zero, so
        # the check is stable under the recursion.
        if monomial_degree(factors) != 4 * d:
            return RationalFunction.zero(fq)
        # string rule: a subscript-2 identity-class factor kills the series
        if any(g.i == 2 and g.cls == 0 for g in factors):
            return RationalFunction.zero(fq)
        # divisor rule: each subscript-2 hyperplane factor contributes d
        for idx, g in enumerate(factors):
            if g.i == 2 and g.cls == 1:
                rest = factors[:idx] + factors[idx + 1:]
                return _reduce_monomial(rest, d, db, geometry, boundary,
                                        read).scale_monomial(d)
        # dilaton rule: a subscript-3 identity factor applies q d/dq - 2d
        for idx, g in enumerate(factors):
            if g.i == 3 and g.cls == 0:
                rest = factors[:idx] + factors[idx + 1:]
                return q_ddq_minus(_reduce_monomial(rest, d, db, geometry,
                                                    boundary, read), 2 * d)
    key = SeriesKey(geometry, d, format_monomial(factors), boundary)
    record = db.find(key)
    if record is None:
        raise UnknownSeriesError(key)
    read[key] = record
    return record.value


def reduce_with_records(e: DescElement, d: int, db: SeriesDB | None = None,
                        geometry: str = "P3", boundary: str | None = None
                        ) -> tuple[RationalFunction, list[SeriesRecord]]:
    """`reduce`, together with the database records the reduction read.

    The records come in the order they were first read; a monomial that
    the dimension or string rule kills reads none.
    """
    if d < 1:
        raise ValueError("degree must be a positive integer")
    if db is None:
        db = builtin_db()
    terms = normalize(e).terms
    read: dict[SeriesKey, SeriesRecord] = {}
    total: RationalFunction | None = None
    for factors in sorted(terms):
        part = _reduce_monomial(factors, d, db, geometry, boundary, read)
        if part.is_zero:
            continue  # zero lies in every coefficient field
        part = part.scale_monomial(terms[factors])
        if total is None:
            total = part
        elif total.field != part.field:
            raise ValueError(
                f"insertion reduces into both {total.field.tag} and "
                f"{part.field.tag} coefficients")
        else:
            total = total + part
    if total is None:
        total = RationalFunction.zero(FIELDS["Q"])
    return total, list(read.values())


def reduce(e: DescElement, d: int, db: SeriesDB | None = None,
           geometry: str = "P3",
           boundary: str | None = None) -> RationalFunction:
    """Evaluate the degree-d partition function with insertion e.

    Linear over monomials; each monomial passes through the dimension,
    string, divisor, and dilaton rules before the database lookup.  A
    monomial that survives the rules but has no record raises
    UnknownSeriesError; nonzero parts over different coefficient fields
    raise ValueError.
    """
    return reduce_with_records(e, d, db, geometry, boundary)[0]


def weakest_provenance(records) -> str:
    """The least certain provenance among records; "exact" for none."""
    return max((r.provenance for r in records), key=PROVENANCES.index,
               default="exact")


def virasoro_constraint_check(k: int, insertion, d: int,
                              db: SeriesDB | None = None) -> bool:
    """Does the index-k constraint operator annihilate the degree-d
    series with the given insertion?

    Applies the constraint operator to the insertion and reduces the
    result; true iff the reduction is identically zero.  Missing series
    data propagates as UnknownSeriesError.
    """
    if isinstance(insertion, str):
        insertion = parse_element(insertion)
    elif isinstance(insertion, tuple):
        insertion = DescElement({insertion: 1})
    return reduce(apply_op(build_constraint(k), insertion), d, db).is_zero


# ---------------------------------------------------------------------------
# the algebraic-cobordism series example


def partition_label(mu: tuple) -> str:
    return "[" + ",".join(str(m) for m in mu) + "]"


def partition_from_label(text: str) -> tuple:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError("partition labels look like [3,1]")
    pieces = body[1:-1].split(",") if body[1:-1].strip() else []
    if not all(p.strip() for p in pieces):
        raise ValueError("partition labels have no empty parts")
    parts = tuple(int(p) for p in pieces)
    if any(p < 1 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError("partition parts must be positive and descending")
    return parts


@dataclass(frozen=True)
class CobordismSeries:
    """Series components of a cobordism class in the basis of products
    of projective spaces, labeled by partitions of the virtual dimension.
    """

    components: dict

    def __post_init__(self):
        sizes = set()
        for mu, value in self.components.items():
            partition_from_label(partition_label(mu))  # validates shape
            sizes.add(sum(mu))
            if not isinstance(value, RationalFunction):
                raise TypeError("components must be rational functions")
        if len(sizes) > 1:
            raise ValueError("component labels must partition one integer")

    def component(self, mu: tuple) -> RationalFunction:
        return self.components[tuple(mu)]


def cobordism_example() -> CobordismSeries:
    """The degree-1, virtual-dimension-4 cobordism series: all five
    components in the products-of-projective-spaces basis."""
    f = FIELDS["Q"]
    one = Polynomial.one(f)
    onepq = _qpoly([1, 1])
    h = Fraction(1, 2)
    comps = {
        (4,): RationalFunction(_qpoly([0, -4, -40, -4]), one),
        (3, 1): RationalFunction(
            _qpoly([21 * h, 139, 823 * h, 446, 823 * h, 139, 21 * h]).shift(1),
            onepq ** 4),
        (2, 2): RationalFunction(_qpoly([0, 6, 60, 6]), one),
        (2, 1, 1): RationalFunction(
            _qpoly([-18, -264, -774, -816, -774, -264, -18]).shift(1),
            onepq ** 4),
        (1, 1, 1, 1): RationalFunction(
            _qpoly([13 * h, 115, 490, 889, 1215, 889, 490, 115,
                    13 * h]).shift(1),
            onepq ** 6),
    }
    return CobordismSeries(comps)


def cobordism_fe_check(series: CobordismSeries, d_beta: int) -> bool:
    """All components satisfy the plus-sign functional equation with the
    given exponent (their descendent subscript sums are all even)."""
    return all(fe_check(value, d_beta, 1)
               for value in series.components.values())


# ---------------------------------------------------------------------------
# JSON serialization (canonical; byte-identical round-trips)


def rf_to_obj(value: RationalFunction) -> dict:
    f = value.field
    return {
        "field": f.tag,
        "num": [f.coeff_to_json(c) for c in value.num.coeffs],
        "den": [f.coeff_to_json(c) for c in value.den.coeffs],
    }


def _json_typed(obj: dict, name: str, kind, what: str):
    """obj[name], which must be an instance of kind (a type or a tuple of
    types), described by what; else ValueError."""
    value = obj[name]
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, not {type(value).__name__}")
    return value


def rf_from_obj(obj: dict) -> RationalFunction:
    """The rational function of a {field, num, den} object: field a
    string, num and den lists of coefficients as coeff_to_json writes
    them.  Anything else raises ValueError."""
    try:
        f = q_field(_json_typed(obj, "field", str, "a string"))
        num, den = (Polynomial.from_rows(f, *components_from_json(
            f, _json_typed(obj, name, list, "a list")))
            for name in ("num", "den"))
        return RationalFunction(num, den)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def record_to_obj(record: SeriesRecord) -> dict:
    return {
        "geometry": record.key.geometry,
        "degree": record.key.degree,
        "insertions": record.key.insertions,
        "boundary": record.key.boundary,
        "value": rf_to_obj(record.value),
        "provenance": record.provenance,
    }


def record_from_obj(obj: dict) -> SeriesRecord:
    if not isinstance(obj, dict):
        raise ValueError("a record must be a JSON object, "
                         f"not {type(obj).__name__}")
    try:
        key = make_key(obj["geometry"], obj["degree"],
                       _json_typed(obj, "insertions", str, "a string"),
                       _json_typed(obj, "boundary", (str, type(None)),
                                   "a string or null"))
        return SeriesRecord(key, rf_from_obj(obj["value"]), obj["provenance"])
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed record: {exc}") from None


def records_to_json(records) -> str:
    if isinstance(records, SeriesDB):
        records = records.records()
    rows = [record_to_obj(r) for r in sorted(records, key=_record_sort_key)]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct (json.loads keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("duplicate JSON key in an object")
    return obj


def records_from_json(text: str) -> list[SeriesRecord]:
    try:
        rows = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    if not isinstance(rows, list):
        raise ValueError("expected a JSON list of series records")
    records = []
    for index, row in enumerate(rows):
        try:
            records.append(record_from_obj(row))
        except ValueError as exc:
            raise ValueError(f"record {index}: {exc}") from exc
    return records


def load_db(path: str) -> SeriesDB:
    with open(path, "r", encoding="utf-8") as handle:
        return SeriesDB(records_from_json(handle.read()))


def dump_db(db: SeriesDB, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(records_to_json(db))
