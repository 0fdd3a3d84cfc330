"""Shared test settings: one reproducible Hypothesis profile."""

from hypothesis import settings

# Derandomized, so every run draws the same examples; no deadline,
# because a solver example's time depends on the host; no example
# database, so a run leaves nothing behind.
settings.register_profile(
    "cryocam", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("cryocam")
