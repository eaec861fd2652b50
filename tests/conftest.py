from hypothesis import settings

# Property tests draw the same examples on every run, and write no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
