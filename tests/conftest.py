"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite is reproducible and leaves no .hypothesis/ behind.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
