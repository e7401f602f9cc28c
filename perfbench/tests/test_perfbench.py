"""Tests of the benchmark's own machinery: the tail rule, self time on a
synthetic span tree, failure accounting, seed determinism, the oracles,
BENCHMARK.json against what the runner reports, and a traced run that
returns the same pdc results as an untraced one."""

import importlib
import json
import pkgutil
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import harness, oracles, tracing, workloads  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402


@pytest.fixture(autouse=True)
def clean_db_env(monkeypatch):
    monkeypatch.delenv("PDC_DB", raising=False)


@pytest.fixture(scope="module")
def pdc():
    import pdc as package
    return SimpleNamespace(**{
        info.name: importlib.import_module(f"pdc.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)})


class TestTail:
    def test_eleven_samples_take_the_smallest(self):
        pct, value = harness.tail([5.0, 1.0, 4.0, 3.0, 2.0, 6.0, 7.0, 8.0,
                                   9.0, 10.0, 11.0])
        assert value == 1.0
        assert pct == pytest.approx(100 / 11)

    def test_hundred_samples_take_p90(self):
        pct, value = harness.tail([float(x) for x in range(100, 0, -1)])
        assert (pct, value) == (90.0, 90.0)

    def test_ten_beyond_the_reported_value(self):
        times = [float(x) for x in range(1000)]
        pct, value = harness.tail(times)
        assert pct == 99.0
        assert sum(1 for t in times if t > value) == 10

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            harness.tail([1.0] * 10)


class TestSelfTime:
    def test_synthetic_tree(self):
        # root [0,10]; children [1,3] and [2,4] overlap, [5,12] runs past
        # the root's end; [1.5,2.5] is a grandchild under the first child
        starts = [0.0, 1.0, 1.5, 2.0, 5.0]
        ends = [10.0, 3.0, 2.5, 4.0, 12.0]
        parents = [-1, 0, 1, 0, 0]
        got = list(tracing.self_times(starts, ends, parents))
        assert got == pytest.approx([10 - 3 - 5, 2 - 1, 1, 2, 7])

    def test_layer_totals_count_entries_not_inner_calls(self, tmp_path):
        tracer = tracing.Tracer()
        inner = tracer._wrap("a", lambda: time.sleep(0.001))
        outer = tracer._wrap("a", lambda: inner())
        other = tracer._wrap("b", lambda: outer())
        other()
        outer()
        totals = tracer.layer_totals()
        assert totals["a"][0] == 2 and totals["b"][0] == 1
        busy = sum(seconds for _, seconds in totals.values())
        assert busy == pytest.approx(
            (tracer.end[0] - tracer.start[0]) + (tracer.end[3]
                                                 - tracer.start[3]))
        tracer.dump(tmp_path / "spans.bin")
        back = tracing.load_spans(tmp_path / "spans.bin")
        assert back["names"] == ["a", "b"]
        assert list(back["parent"]) == [-1, 0, 1, -1, 3]
        assert list(back["start"]) == list(tracer.start)


class TestFailureAccounting:
    def test_crash_and_over_budget_are_recorded(self, tmp_path):
        def spin(ctx):
            while True:
                pass

        ops = [harness.Op("spin", spin, lambda v: None),
               harness.Op("raise", lambda c: 1 / 0, lambda v: None),
               harness.Op("fine", lambda c: 7, lambda v: None, "x")]
        ctx = harness.Context(None, tmp_path)
        passes = harness.run_passes(ops, ctx, 0.05, 0.0)
        statuses = [o.status for o in passes[0].outcomes]
        assert statuses == ["over_budget", "crash", "ok"]
        assert passes[0].outcomes[0].seconds >= 0.05
        assert ctx.results == {"x": 7}


class TestSeeds:
    @pytest.mark.parametrize("name", ["series_eval", "operator_algebra"])
    def test_same_seed_same_op_list(self, pdc, tmp_path, name):
        build, _ = workloads.WORKLOADS[name]
        labels = [[op.label for op in build(seed, pdc, tmp_path)]
                  for seed in (3, 3, 4)]
        assert labels[0] == labels[1]
        assert labels[0] != labels[2]

    def test_cli_session_is_seeded(self, pdc, tmp_path):
        build, _ = workloads.WORKLOADS["cli_session"]
        first = [op.label for op in build(5, pdc, tmp_path)]
        again = [op.label for op in build(5, pdc, tmp_path)]
        assert first == again
        for argv in workloads.KNOWN_DEFECTS:
            assert sum(" ".join(argv) in label for label in first) == 1
        assert sum("@cap4.json" in label for label in first) == 1


class TestOracles:
    def test_brute_force_local_curve(self):
        # degree 1 is q/(1+q)^2 = sum_n (-1)^(n+1) n q^n
        assert oracles.local_curve_coeffs(1, 6) == {
            n: Fraction((-1) ** (n + 1) * n) for n in range(1, 7)}

    def test_power_series_matches_brute_force(self, pdc):
        value = pdc.series.local_curve_series(3)
        got = oracles.power_series(list(value.num.coeffs),
                                   list(value.den.coeffs), 15)
        assert got == oracles.local_curve_coeffs(3, 15)

    def test_expansion_sizes(self, pdc):
        for alpha in [(1, 1, 1), (2,), (3, 2, 1), (2, 2, 1, 1)]:
            assert oracles.expansion_size(alpha) == len(
                pdc.correspondence.expand_bar(alpha))

    def test_u_series_of_two_point_series(self):
        # the two-point series becomes 2 - 2 cos(u)
        expr = oracles.reduction_value(
            (("1", "P3:1:ch2(p)*ch2(p)", 0, 0),), 1)
        got = oracles.u_series(expr, 4, 6)
        assert got == {2: 1, 4: oracles._sympy().Rational(-1, 12),
                       6: oracles._sympy().Rational(1, 360)}


def test_benchmark_json_lists_what_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == (
        tracing.LAYER_METRICS)


def test_traced_and_untraced_runs_agree(pdc, tmp_path):
    build, budget = workloads.WORKLOADS["series_eval"]
    ops = [op for op in build(1, pdc, tmp_path)
           if any(f"series({d})" in op.label for d in (1, 2, 3))]
    cli = workloads._Builder(random.Random(0))
    cli.expand("q", workloads.Q_SERIES[3])
    cli.expand("u", workloads.Q_SERIES[11])
    cli.gw_expand(workloads.Q_SERIES[0], (1, 1))
    cli.show("P3:1:ch7(1)")
    ops += cli.ops
    ops += [harness.Op("apply_op", lambda c: c.pdc.virasoro.apply_op(
                c.pdc.virasoro.build_constraint(0),
                c.pdc.descendents.parse_element("ch3(H)*ch3(p)")),
                lambda v: None),
            harness.Op("expand_bar", lambda c:
                       c.pdc.correspondence.expand_bar((2, 1, 1)),
                       lambda v: None)]
    originals = (pdc.series.local_curve_series, pdc.cli.main,
                 pdc.polynomial.Polynomial.__dict__["gcd"])

    def run():
        ctx = harness.Context(pdc, tmp_path)
        (single,) = harness.run_passes(ops, ctx, budget, 0.0)
        assert all(o.status == "ok" for o in single.outcomes)
        assert all(op.check(o.value) is None
                   for op, o in zip(ops, single.outcomes))
        return [o.value for o in single.outcomes]

    plain = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert len(tracer.start) > 0
    assert tracer.layer_totals()["cli.main"][0] == len(cli.ops)
    assert (pdc.series.local_curve_series, pdc.cli.main,
            pdc.polynomial.Polynomial.__dict__["gcd"]) == originals
