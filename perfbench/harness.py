"""Closed-loop op runner: per-op budget, timed passes, statistics.

One caller runs a fixed op list, op after op, in this process and this
thread.  Each op runs under a wall-clock budget enforced by SIGALRM, so
no helper thread or process is needed; an op that raises, or that the
alarm interrupts, is recorded as failed and never dropped.  Outputs are
kept and checked only after the timed region ends.

Host speed is not steady: on a shared two-core VM the same pure-Python
work swings between two speeds about 1.6x apart, each lasting seconds to
minutes.  So while ops run, a profiling timer (SIGPROF, every
PROBE_EVERY_S of CPU time) runs a fixed pdc-independent probe, and each
op's time is also reported scaled to the host speed measured along it:
every stretch between two probes counts its seconds times
REFERENCE_PROBE_S over the mean time of the 2 * SMOOTH probes nearest to
it, and the probes' own time is left out.  Over 2.5 s blocks of pdc work
this brought the block-to-block swing from about 20% to about 3%.
"""

from __future__ import annotations

import bisect
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

clock = time.perf_counter
PROBE_EVERY_S = 0.05
SMOOTH = 5  # host speed at an instant: mean of the 2 * SMOOTH nearest probes
REFERENCE_PROBE_S = 0.0025  # the probe's time on a quiet host of the 2-core VM


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind pdc
    does (Fraction arithmetic, tuple keys, dict updates, sorting)."""
    t0 = clock()
    acc: dict = {}
    x = Fraction(0)
    for i in range(1, 300):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        acc[key] = acc.get(key, 0) + Fraction(i, i % 11 + 1)
        x += Fraction(1, i % 17 + 1)
    return clock() - t0


def host_factor(samples: int = 5) -> float:
    """REFERENCE_PROBE_S over the median of a few probes."""
    return REFERENCE_PROBE_S / statistics.median(probe()
                                                 for _ in range(samples))


class SpeedSampler:
    """Runs the probe every PROBE_EVERY_S of CPU time, from a SIGPROF
    handler, while the sampler is entered.  on_sample(seconds), when
    given, is told the length of each probe."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _sample(self, signum=None, frame=None):
        start = clock()
        length = probe()
        self.starts.append(start)
        self.lengths.append(length)
        if self.on_sample is not None:
            self.on_sample(length)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()

    def scaled(self, t0: float, t1: float) -> float:
        """The seconds of [t0, t1], probes left out, at the reference host
        speed; [t0, t1] must lie inside the sampler's lifetime."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        total, a = 0.0, t0
        for k in range(first, last + 1):
            b = self.starts[k] if k < last else t1
            window = self.lengths[max(0, k - SMOOTH):k + SMOOTH]
            speed = sum(window) / len(window)
            total += max(0.0, b - a) * REFERENCE_PROBE_S / speed
            if k < last:
                a = self.starts[k] + self.lengths[k]
        return total


class OverBudget(BaseException):
    """Raised by the alarm inside an op that ran past its budget.

    A BaseException, so that no `except Exception` inside pdc swallows it.
    """


@dataclass(frozen=True)
class Op:
    """One call into pdc.

    call(ctx) returns the raw output; check(output) returns None when the
    output is right and a reason otherwise.  When key is set the
    output is stored in ctx.results for later ops of the same pass.
    """

    label: str
    call: Callable
    check: Callable
    key: str | None = None


@dataclass
class Context:
    """What ops see: pdc's modules, a work directory, and the outputs of
    earlier ops of the current pass."""

    pdc: object
    work: object
    pass_no: int = 0
    results: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str      # "ok", "crash" or "over_budget"
    seconds: float
    value: object = None
    error: str = ""
    start: float = 0.0   # clock() when the op started
    scaled: float = 0.0  # seconds at the reference host speed


def _alarm(signum, frame):
    raise OverBudget


def run_op(op: Op, ctx: Context, budget: float) -> Outcome:
    """Run one op under the budget; never raises for the op's sake."""
    status, value, error = "ok", None, ""
    t0 = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            value = op.call(ctx)
        except Exception as exc:
            status, error = "crash", f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        status, value, error = "over_budget", None, f"over the {budget:g} s budget"
    seconds = clock() - t0
    if status == "ok" and op.key is not None:
        ctx.results[op.key] = value
    return Outcome(status, seconds, value, error, t0)


@dataclass
class Pass:
    wall: float      # raw seconds
    outcomes: list
    peak_rss_kb: int  # the process's peak resident memory when it ended

    @property
    def scaled(self) -> float:
        return sum(o.scaled for o in self.outcomes)


def run_passes(ops: list, ctx: Context, budget: float, seconds: float,
               before_op=None, min_passes: int = 1,
               on_sample=None) -> list[Pass]:
    """Run whole passes of the op list until another pass would end past
    `seconds` (at least `min_passes`).  before_op(i), when given, is called
    with the op's index in the run before each op starts; on_sample goes
    to the SpeedSampler."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    passes: list[Pass] = []
    index = 0
    try:
        with SpeedSampler(on_sample) as sampler:
            begin = clock()
            while True:
                ctx.pass_no = len(passes)
                ctx.results = {}
                outcomes = []
                for op in ops:
                    if before_op is not None:
                        before_op(index)
                    index += 1
                    outcomes.append(run_op(op, ctx, budget))
                passes.append(Pass(
                    sum(o.seconds for o in outcomes), outcomes,
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
                typical = statistics.median(p.wall for p in passes)
                if (len(passes) >= min_passes
                        and clock() - begin + typical > seconds):
                    break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for p in passes:
        for o in p.outcomes:
            # an over-budget op's time is the budget, wall-clock time
            o.scaled = (o.seconds if o.status == "over_budget"
                        else sampler.scaled(o.start, o.start + o.seconds))
    return passes


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the sample that
    still has at least ten values beyond it."""
    n = len(times)
    if n < 11:
        raise ValueError("a tail percentile needs at least 11 samples")
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def pass_stats(passes: list[Pass]) -> dict:
    """wall_s is the median over passes of the scaled pass time; each op's
    time is its median over passes, and op_p50_ms and op_tail_ms are the
    median and the tail of those per-op times.  The tail percentile
    depends only on the length of the op list."""
    per_op = [statistics.median(times) for times in
              zip(*([o.scaled for o in p.outcomes] for p in passes))]
    pct, value = tail(per_op)
    return {
        "wall_s": statistics.median(p.scaled for p in passes),
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "op_tail_ms": 1000.0 * value,
        "tail_percentile": pct,
    }
