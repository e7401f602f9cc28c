"""Shared test configuration.

Exact-arithmetic examples vary widely in run time from one example to the
next, so hypothesis runs without a per-example deadline.
"""

from hypothesis import settings

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")
