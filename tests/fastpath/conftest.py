"""Hypothesis profiles for the fast-path suites (coverage runs shrink them)."""

import os

from hypothesis import settings

settings.register_profile("default", deadline=None)
settings.register_profile("coverage", max_examples=10, deadline=None)
settings.load_profile(
    os.environ.get("MSITE_HYPOTHESIS_PROFILE", "default")
)
