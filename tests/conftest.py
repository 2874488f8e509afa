"""Shared test settings.

Property tests run under a derandomised, bounded hypothesis profile: every
run draws the same examples, writes no example database and has no
per-example deadline, so the suite stays deterministic.
"""

from hypothesis import settings

settings.register_profile("ppclab", derandomize=True, database=None, deadline=None,
                          max_examples=60)
settings.load_profile("ppclab")
