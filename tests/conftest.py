"""Suite-wide settings.

Hypothesis runs a fixed set of examples (derandomized, no example database,
no per-example deadline), so a plain `python -m pytest` gives the same result
on every run and on a slow or busy machine.
"""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, database=None, deadline=None, max_examples=200)
settings.load_profile("suite")
