"""Hypothesis profiles: `--hypothesis-profile=ci` makes every property test
replay the same examples on every run and drops the per-example deadline,
which a shared CI runner cannot keep; local runs keep the default profile."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
