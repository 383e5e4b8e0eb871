"""Shared test configuration.

Exact-arithmetic property tests take as long as their entries' bit lengths
make them, and a shared host's speed drifts, so hypothesis runs without a
per-example deadline.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("jetforge", deadline=None)
settings.load_profile("jetforge")
