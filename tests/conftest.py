"""Shared test settings: property tests draw the same examples on every run
and have no per-example deadline, so timing noise cannot fail them."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
