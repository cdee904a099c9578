"""Shared test configuration.

Hypothesis runs without a per-example deadline: wall time per example on a
shared 2-vCPU machine drifts by up to 30%, so a deadline fails properties
for the machine's load rather than for the code.
"""

from hypothesis import settings

settings.register_profile("suascal", deadline=None)
settings.load_profile("suascal")
