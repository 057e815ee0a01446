"""Settings shared by every test module.

Tier-1 is deterministic: every property test draws the same examples on
every run, keeps no example database in the checkout and has no deadline.
Each test sets its own max_examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
