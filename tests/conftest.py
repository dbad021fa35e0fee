"""Shared test settings.

Property tests run the same examples on every run (derandomize, no example
database) and without a per-example deadline; each test sets only its own
`max_examples`.
"""

from hypothesis import settings

settings.register_profile("fedsim", deadline=None, derandomize=True, database=None)
settings.load_profile("fedsim")
