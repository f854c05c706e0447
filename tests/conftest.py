"""Hypothesis profiles for the test suite.

``derandomized``, loaded by default, draws the same examples on every run,
so a tier-1 result can be reproduced.  ``random`` draws fresh ones; a run
that passes ``--hypothesis-profile=random --hypothesis-seed=N`` explores
new examples and still names the seed that replays them.  A profile given
on the command line overrides the default here.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("derandomized")
