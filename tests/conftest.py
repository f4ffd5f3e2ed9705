"""Shared test settings.

Property tests run under a derandomized Hypothesis profile with no
per-example deadline: the same examples every run, and no flaky failures
when a loaded machine makes one example slow.
"""

from hypothesis import settings

settings.register_profile("ccfmap", derandomize=True, deadline=None)
settings.load_profile("ccfmap")
