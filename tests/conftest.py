"""Settings shared by the whole suite.

Property tests run derandomized, with no deadline and a fixed number of
examples, so every run draws the same cases and a slow or loaded machine
cannot turn a pass into a timeout.
"""

from hypothesis import settings

settings.register_profile("polarq", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("polarq")
