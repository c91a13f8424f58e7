"""Hypothesis settings profiles for every test under this directory.

`pytest --hypothesis-profile=ci` keeps each test's example count and prints,
for a failing property, the `@reproduce_failure` blob that replays that
example locally; both CI jobs run with it.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
