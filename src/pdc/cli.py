"""Command-line interface: every checker and evaluator, batch-style.

Exit codes: 0 when the requested computation or check succeeds, 1 when a
check runs but fails, 2 on usage errors, syntax errors in descendent
input (reported with their position), malformed data, and requests for
series the database does not hold; `main` maps every such error, a
`ValueError` or an `UnknownSeriesError`, to code 2.  Any other exception
is a fault of pdc, not a verdict: `main_entry` reports it as one
"internal error" line and exits 3, never 1.

`--json` switches every command to machine-readable output; series
records use the same schema as `db export`, so they round-trip.  The
environment variable PDC_DB may name a JSON file of extra series records
that is merged over the built-in database for every command that reads
series.

`main` can be called many times in one process.  The argparse tree is
built on the first call and reused; a subcommand records the name of
its handler, which is looked up in this module when the call runs, so
each call pays only for its own command.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .correspondence import expand_bar, format_expansion
from .descendents import DescElement, DescParseError, gen, parse_element
from .laurent import LaurentSeries, laurent_expand, u_expand
from .ratfun import RationalFunction, fe_check, pole_check
from .series import (PROVENANCES, SeriesDB, SeriesRecord, UnknownSeriesError,
                     builtin_db, cap_series, dump_db, key_from_str, key_str,
                     load_db, local_curve_series, make_key, record_to_obj,
                     reduce_with_records, weakest_provenance)
from .virasoro import apply_op, bracket_check, build_constraint
from . import checks

DB_ENV_VAR = "PDC_DB"

# The largest operator index virasoro-check and bracket-check accept.
# Building an operator costs factorials of its index and a bracket
# O(index^2) commutator terms: at this cap each command takes at most
# about 0.04 s, while virasoro-check takes 1.7 s at index 2000 and
# bracket-check 0.4 s at indices 200 and 199 (Python 3.11, shared
# two-core virtual machine).  The library functions take any index.
MAX_OPERATOR_INDEX = 100


class CliError(ValueError):
    """Usage-level failure; message goes to stderr and the exit code is 2."""


def _check_operator_index(name: str, *indices: int) -> None:
    if any(k < -1 for k in indices):
        raise CliError(f"{name} must be at least -1")
    if any(k > MAX_OPERATOR_INDEX for k in indices):
        raise CliError(f"{name} must be at most {MAX_OPERATOR_INDEX}, "
                       f"the operator-index cap of the command line")


def _current_db() -> SeriesDB:
    db = builtin_db()
    extra_path = os.environ.get(DB_ENV_VAR)
    if extra_path:
        try:
            db = db.merged(load_db(extra_path))
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load {DB_ENV_VAR} file: {exc}") from exc
    return db


def _parse_series_arg(text: str):
    try:
        return parse_element(text)
    except DescParseError as exc:
        raise CliError(f"descendent syntax error: {exc}") from exc


def _laurent_json(series: LaurentSeries) -> dict:
    f = series.field
    return {
        "var": series.var,
        "field": f.tag,
        "min_exp": series.min_exp,
        "order": series.order,
        "coeffs": [[n, f.coeff_to_json(c)]
                   for n, c in sorted(series.as_dict().items())],
    }


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _reduce(element: DescElement, args
            ) -> tuple[RationalFunction, list[SeriesRecord]]:
    """The series of the insertion at --degree, reduced against the
    current database, and the records the reduction read.  Every command
    that reads a series reduces it here."""
    return reduce_with_records(element, args.degree, _current_db())


def _judge(args, reduced, check, payload: dict, *details: str) -> int:
    """Run check on the value of a `_reduce` result and report PASS or
    FAIL, tagged with every record read that is not exact.  JSON adds
    "pass", the weakest provenance and every record read to the payload;
    text follows the verdict with details[0] on a pass and details[-1] on
    a failure.  Returns the exit code, 0 on a pass and 1 on a failure."""
    value, records = reduced
    ok = check(value)
    verdict = "PASS" if ok else "FAIL"
    for provenance in PROVENANCES[1:]:  # all but "exact"
        keys = [key_str(r.key) for r in records
                if r.provenance == provenance]
        if keys:
            verdict += f" [{provenance}: {', '.join(keys)}]"
    _emit(args,
          {**payload, "pass": ok, "provenance": weakest_provenance(records),
           "records": [{"key": key_str(r.key), "provenance": r.provenance}
                       for r in records]},
          verdict + details[0 if ok else -1])
    return 0 if ok else 1


def _insertion_sign(element: DescElement) -> int:
    """Functional-equation sign of an insertion monomial: parity of the
    sum of the shifted subscripts (each factor ch_i contributes i)."""
    if not element.terms:
        raise CliError("insertion is zero; it has no functional-equation "
                       "sign")
    signs = {(-1) ** sum(g.i for g in factors)
             for factors in element.terms}
    if len(signs) != 1:
        raise CliError(
            "insertion mixes even and odd subscript sums; no single sign")
    return signs.pop()


def _point_partition(element: DescElement) -> tuple:
    """The partition labeling a product of point insertions: one part
    per factor ch_i(p), each part i - 1, so each i must be at least 2."""
    if len(element.terms) != 1:
        raise CliError("expansion labels need a single insertion monomial")
    (factors,) = element.terms
    if not factors or any(g.cls != 3 for g in factors):
        raise CliError("expansion labels need point-class insertions only")
    for g in factors:
        if g.i < 2:
            raise CliError(f"expansion labels need ch_i(p) with i >= 2; "
                           f"{g} gives no partition part")
    return tuple(sorted((g.i - 1 for g in factors), reverse=True))


# -- commands -------------------------------------------------------------------


def _cmd_eval(args) -> int:
    if args.family == "local-curve":
        value = local_curve_series(args.d)
        key = make_key("LocalCurve", args.d, "1")
    else:
        value = cap_series(args.d)
        key = make_key("Cap", args.d, (gen(args.d + 2, 3),), f"({args.d})")
    record = SeriesRecord(key, value, "evaluator")
    _emit(args, record_to_obj(record), f"{key_str(key)} = {value}")
    return 0


def _u_series(element: DescElement, args) -> LaurentSeries:
    """The u-expansion of the reduced series at --degree to --order."""
    value, _ = _reduce(element, args)
    if value.field.tag != "Q":
        raise CliError("u-expansion needs rational coefficients")
    return u_expand(value, 4 * args.degree, args.order)


def _cmd_expand(args) -> int:
    element = _parse_series_arg(args.series)
    if args.var == "u":
        series = _u_series(element, args)
    else:
        series = laurent_expand(_reduce(element, args)[0], args.order)
    _emit(args, _laurent_json(series), str(series))
    return 0


def _cmd_fe_check(args) -> int:
    element = _parse_series_arg(args.series)
    # the sign is taken after the reduction, so an unknown series is
    # reported before an insertion without a single sign
    reduced = _reduce(element, args)
    sign, d_beta = _insertion_sign(element), 4 * args.degree
    return _judge(args, reduced, lambda value: fe_check(value, d_beta, sign),
                  {"command": "fe-check", "series": args.series,
                   "degree": args.degree, "sign": sign, "d_beta": d_beta},
                  f" sign={sign} d_beta={d_beta}")


def _cmd_pole_check(args) -> int:
    # a bad --div is a usage error, reported before any reduction; without
    # --div the bound is the degree, which the reduction checks
    if args.div is not None and args.div < 1:
        raise CliError("--div must be a positive integer")
    reduced = _reduce(_parse_series_arg(args.series), args)
    div = args.degree if args.div is None else args.div
    return _judge(args, reduced, lambda value: pole_check(value, div),
                  {"command": "pole-check", "series": args.series,
                   "degree": args.degree, "div": div},
                  f" poles confined with divisor bound {div}")


def _cmd_virasoro_check(args) -> int:
    _check_operator_index("--k", args.k)
    # the constraint holds when the operator's image reduces to zero
    image = apply_op(build_constraint(args.k), _parse_series_arg(args.D))
    return _judge(args, _reduce(image, args), lambda value: value.is_zero,
                  {"command": "virasoro-check", "k": args.k, "D": args.D,
                   "degree": args.degree},
                  ": sum = 0", ": sum != 0")


def _cmd_bracket_check(args) -> int:
    _check_operator_index("bracket indices", args.k, args.m)
    if args.bound < 1:
        raise CliError("--bound must be a positive integer")
    ok = bracket_check(args.k, args.m, args.bound)
    _emit(args,
          {"command": "bracket-check", "k": args.k, "m": args.m,
           "bound": args.bound, "pass": ok},
          f"{'PASS' if ok else 'FAIL'} bracket relation "
          f"[{args.k},{args.m}] on monomials with subscripts <= "
          f"{args.bound}")
    return 0 if ok else 1


def _cmd_gw_expand(args) -> int:
    element = _parse_series_arg(args.series)
    alpha = _point_partition(element) if args.show_bar else None
    series = _u_series(element, args)
    lines = [str(series)]
    payload = _laurent_json(series)
    if alpha is not None:
        terms = expand_bar(alpha)
        lines.append("symbolic expansion of the insertion product:")
        lines.append(format_expansion(alpha, terms))
        payload["expansion"] = {
            "alpha": list(alpha),
            "terms": [{"blocks": [list(b) for b in t.blocks],
                       "targets": [list(x) for x in t.targets],
                       "sign": t.sign}
                      for t in terms],
        }
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_db(args) -> int:
    db = _current_db()
    if args.db_action == "list":
        records = db.records()
        _emit(args, {"records": [record_to_obj(r) for r in records]},
              "\n".join(f"{key_str(r.key)}  [{r.provenance}]"
                        for r in records))
        return 0
    if args.db_action == "show":
        record = db.get(key_from_str(args.key))
        _emit(args, record_to_obj(record),
              f"{key_str(record.key)}  [{record.provenance}]\n"
              f"{record.value}")
        return 0
    if args.db_action == "import":
        try:
            merged = db.merged(load_db(args.file))
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot import {args.file}: {exc}") from exc
        added = len(merged) - len(db)
        _emit(args, {"records": [record_to_obj(r) for r in merged.records()]},
              f"{added} new record(s); merged database holds {len(merged)}")
        return 0
    # export
    try:
        dump_db(db, args.file)
    except OSError as exc:
        raise CliError(f"cannot export to {args.file}: {exc}") from exc
    _emit(args, {"exported": len(db), "file": args.file},
          f"wrote {len(db)} record(s) to {args.file}")
    return 0


def _cmd_check_all(args) -> int:
    results = checks.run_all()
    if args.json:
        print(json.dumps([{"id": r.check_id, "title": r.title,
                           "pass": r.ok, "detail": r.detail}
                          for r in results], indent=2, sort_keys=True))
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'} {r.check_id:5s} "
                  f"{r.title}: {r.detail}")
        failed = sum(1 for r in results if not r.ok)
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if all(r.ok for r in results) else 1


# -- parser ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # handlers are stored by name, not as functions, so that a cached tree
    # runs whatever the module holds under that name at call time
    parser = argparse.ArgumentParser(
        prog="pdc",
        description="Exact checks and evaluations for stable-pairs "
                    "descendent series.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a closed-form series family")
    p.add_argument("family", choices=["local-curve", "cap"])
    p.add_argument("--d", type=int, required=True, help="curve degree")
    p.set_defaults(fn="_cmd_eval")

    p = sub.add_parser("expand", help="Laurent-expand a reduced series")
    p.add_argument("--series", required=True,
                   help="descendent insertion, e.g. 'ch3(1)*ch7(1)'")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--order", type=int, required=True,
                   help="highest exponent to report")
    p.add_argument("--var", choices=["q", "u"], default="q")
    p.set_defaults(fn="_cmd_expand")

    p = sub.add_parser("fe-check",
                       help="functional-equation check for an insertion")
    p.add_argument("--series", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn="_cmd_fe_check")

    p = sub.add_parser("pole-check",
                       help="pole-confinement check for an insertion")
    p.add_argument("--series", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--div", type=int, default=None,
                   help="divisor bound (defaults to the degree)")
    p.set_defaults(fn="_cmd_pole_check")

    p = sub.add_parser("virasoro-check",
                       help="constraint-operator check against the database")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--D", required=True, help="descendent insertion")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn="_cmd_virasoro_check")

    p = sub.add_parser("bracket-check",
                       help="operator bracket relation on monomials")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, default=8,
                   help="largest generator subscript tested")
    p.set_defaults(fn="_cmd_bracket_check")

    p = sub.add_parser("gw-expand",
                       help="u-variable expansion an insertion predicts")
    p.add_argument("--series", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--show-bar", action="store_true",
                   help="also print the symbolic set-partition expansion")
    p.set_defaults(fn="_cmd_gw_expand")

    p = sub.add_parser("db", help="inspect or exchange stored series")
    dbsub = p.add_subparsers(dest="db_action", required=True)
    dbsub.add_parser("list").set_defaults(fn="_cmd_db")
    q = dbsub.add_parser("show")
    q.add_argument("key", help="geometry:degree:insertions[:boundary]")
    q.set_defaults(fn="_cmd_db")
    q = dbsub.add_parser("import")
    q.add_argument("file")
    q.set_defaults(fn="_cmd_db")
    q = dbsub.add_parser("export")
    q.add_argument("file")
    q.set_defaults(fn="_cmd_db")

    p = sub.add_parser("check-all",
                       help="run every acceptance check, sorted by id")
    p.set_defaults(fn="_cmd_check_all")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)
    except (ValueError, UnknownSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    try:
        code = main(sys.argv[1:])
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        code = 3
    sys.exit(code)
