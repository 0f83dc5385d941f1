"""One Hypothesis profile for every property test: no deadline, since exact
arithmetic on a shared machine has no steady time per example.  Each test
sets its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("fanolg", deadline=None)
settings.load_profile("fanolg")
