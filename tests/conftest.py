"""One hypothesis profile for every property test in the suite.

derandomize draws the same examples on every run, deadline=None keeps a slow
or shared machine from failing an example on time alone, and print_blob
prints the reproduction blob of a failing example.  Settings given on a test
itself still override these.
"""

from hypothesis import settings

settings.register_profile("patchtooth", deadline=None, derandomize=True, print_blob=True)
settings.load_profile("patchtooth")
