"""Shared test configuration.

Exact-arithmetic examples vary widely in run time from one example to the
next, so hypothesis runs without a per-example deadline.  A test that
must finish in bounded time takes the `budget` fixture instead.
"""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


class OverBudget(BaseException):
    """Raised by the alarm inside a block that ran past its budget; a
    BaseException, so that no `except Exception` inside pdc swallows it."""


@pytest.fixture
def budget():
    """budget(seconds) is a context manager that fails the test when its
    block runs past the wall-clock budget, by a SIGALRM timer as
    perfbench/harness.py sets one."""
    @contextmanager
    def run(seconds: float):
        def alarm(signum, frame):
            raise OverBudget

        previous = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        except OverBudget:
            pytest.fail(f"over the {seconds:g} s budget")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return run
