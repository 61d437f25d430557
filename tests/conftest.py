"""Tier-1 runs the same examples every time: each hypothesis test draws from a
seed fixed by the test itself, so a fresh checkout cannot fail on a new draw."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
