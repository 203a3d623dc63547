"""Property tests run under a derandomized hypothesis profile: every run
draws the same bounded set of examples and writes no example database."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("derandomized", derandomize=True, database=None,
                              deadline=None, print_blob=True)
    settings.load_profile("derandomized")
