"""Hypothesis profiles: random examples by default, fixed ones under HYPOTHESIS_PROFILE=ci."""

import os

from hypothesis import settings

# "ci" draws the same examples on every run, so a border case that one
# random draw happens to hit cannot make a CI run flake
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
