"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` selects the CI profile:
the same examples on every run, and more of them for every test that
leaves the count to the profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
