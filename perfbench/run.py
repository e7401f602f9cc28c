"""Run one pdc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: pdc is imported from ./src, and
scratch files go under ./.perfbench_work (removed at exit); a traced
run writes its spans under ./.perfbench_out.  With --trace 0 the run
measures the end-to-end metrics with tracing off; with --trace 1 it runs
one pass untraced, then traced passes, and reports the per-layer
metrics.  Every output is checked after the timed region.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  Exit code 0 on a completed run, 2 when pdc's source is
missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pkgutil
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run; setup_s is their median
# (name, unit) of every end-to-end metric an untraced run reports
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]


def _import_pdc():
    """A fresh import of pdc and all its modules from the checkout, with
    the built-in database built."""
    for name in [n for n in sys.modules if n == "pdc" or n.startswith("pdc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pdc = importlib.import_module("pdc")
    if not Path(pdc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"pdc was imported from outside {SRC}")
    modules = {info.name: importlib.import_module(f"pdc.{info.name}")
               for info in pkgutil.iter_modules(pdc.__path__)}
    modules["series"].builtin_db()
    return SimpleNamespace(**modules)


def _set_up(build, seed, work, host_factor):
    """Import pdc, build its database, make the op list, write the files;
    returns the time taken scaled to the reference host speed."""
    before = host_factor()
    t0 = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    pdc = _import_pdc()
    ops = build(seed, pdc, work)
    seconds = time.perf_counter() - t0
    return seconds * (before + host_factor()) / 2, pdc, ops


def _check(ops, passes):
    """(attempted, failures) over every outcome of every pass; a failure
    is (kind, op label, reason) with kind wrong, crash or over_budget."""
    failures, verdicts = [], {}
    attempted = 0
    for p in passes:
        for i, (op, outcome) in enumerate(zip(ops, p.outcomes)):
            attempted += 1
            if outcome.status != "ok":
                failures.append((outcome.status, op.label, outcome.error))
                continue
            value = outcome.value
            memo = (i, repr(value)) if isinstance(value, tuple) else None
            if memo is not None and memo in verdicts:
                reason = verdicts[memo]
            else:
                try:
                    reason = op.check(value)
                except Exception as exc:
                    reason = f"unreadable output ({type(exc).__name__}: {exc})"
                if memo is not None:
                    verdicts[memo] = reason
            if reason is not None:
                failures.append(("wrong", op.label, reason))
    return attempted, failures


def _print_failures(failures):
    for (kind, label, reason), count in sorted(Counter(failures).items()):
        print(f"failed op ({kind}, x{count}): {label}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pdc" / "__init__.py").is_file():
        print(f"error: no pdc source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import harness, tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    build, budget = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    try:
        setups = []
        for _ in range(1 if args.trace else SETUPS):
            seconds, pdc, ops = _set_up(build, args.seed, work,
                                        harness.host_factor)
            setups.append(seconds)
        ctx = harness.Context(pdc, work)
        digest = hashlib.sha256(
            "\n".join(op.label for op in ops).encode()).hexdigest()[:16]
        print(f"workload={args.workload} seed={args.seed} "
              f"ops_per_pass={len(ops)} op_list_sha256={digest} "
              f"budget_s={budget:g}")
        if args.trace:
            plain = harness.run_passes(ops, ctx, budget, 0.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = harness.run_passes(
                    ops, ctx, budget, args.seconds - plain[0].wall,
                    before_op=lambda i: setattr(tracer, "op_id", i),
                    on_sample=lambda seconds: tracer.probes.append(
                        (tracer.current, seconds)))
            finally:
                tracer.uninstall()
            passes = plain + traced
            overhead = (statistics.median(p.scaled for p in traced)
                        / plain[0].scaled)
            metrics = tracer.layer_metrics(len(traced), overhead)
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{args.workload}-seed{args.seed}.bin"
            tracer.dump(spans)
            print(f"passes: 1 untraced, {len(traced)} traced; "
                  f"{len(tracer.start)} spans written to "
                  f"{spans.relative_to(ROOT)}")
        else:
            passes = harness.run_passes(ops, ctx, budget, args.seconds,
                                        min_passes=2)
            stats = harness.pass_stats(passes)
            stats["setup_s"] = statistics.median(setups)
            # by the end of the second pass: later passes only add the
            # outputs the benchmark keeps for checking
            stats["peak_rss_mb"] = passes[1].peak_rss_kb / 1024.0
            metrics = {name: {"value": stats[name], "unit": unit}
                       for name, unit in END_TO_END}
            print(f"passes: {len(passes)}, raw "
                  f"{', '.join(f'{p.wall:.3f}' for p in passes)} s, scaled "
                  f"{', '.join(f'{p.scaled:.3f}' for p in passes)} s; "
                  f"setup_s is the median of "
                  f"{', '.join(f'{s:.3f}' for s in setups)} s; op_tail_ms "
                  f"is p{stats['tail_percentile']:.1f} of {len(ops)} ops "
                  f"per pass")
        attempted, failures = _check(ops, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = sum(1 for kind, _, _ in failures if kind == "wrong")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} ops; {wrong} wrong outputs)")
    _print_failures(failures)
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted,
        "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
