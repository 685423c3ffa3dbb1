"""Shared test configuration."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result never depends on an earlier run.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
