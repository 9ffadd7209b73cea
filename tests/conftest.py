"""Tier-1 is one suite on every host: Hypothesis draws are derived from
each test's source, not from a random seed, and no example database is
read or written (a ``.hypothesis/`` directory that has met a
counterexample used to turn tier-1 red on that host only). Loaded before
any test module is imported, so every ``@settings(...)`` inherits it."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
