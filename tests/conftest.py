"""Test-suite settings.

With the ``CI`` environment variable set (GitHub Actions sets it), every
hypothesis test runs a fixed, derandomized set of examples, so one
commit gives the same examples on every CI run.

Each test ends by releasing the sequence prefixes it read, as every CLI
run does, so no test starts with another test's prefixes cached.
"""

import os

import pytest
from hypothesis import settings

from seqchaos import seqgen

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _release_prefixes():
    yield
    seqgen.release_prefixes()
