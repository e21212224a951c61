"""Test-suite settings.

With the ``CI`` environment variable set (GitHub Actions sets it), every
hypothesis test runs a fixed, derandomized set of examples, so one
commit gives the same examples on every CI run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
