"""Shared test configuration.

Hypothesis runs without a per-example deadline: wall time per example on a
shared 2-vCPU machine drifts by up to 30%, so a deadline fails properties
for the machine's load rather than for the code.

``HYPOTHESIS_PROFILE=deep`` runs each property on about 1,000 examples
instead of the default 100, to search for counterexamples; pin each one
found with ``@example``.

Every test ends with no child process left: ``simulate`` and the band
pass fork their later parts, and must reap each one on every path.
"""

import os

import pytest
from hypothesis import settings

import helpers

settings.register_profile("suascal", deadline=None)
settings.register_profile("deep", settings.get_profile("suascal"),
                          max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suascal"))


@pytest.fixture(autouse=True)
def reaped():
    yield
    helpers.no_child_left()
