"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` selects the long derandomized run.

Without the variable the property tests run under Hypothesis' default profile.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
