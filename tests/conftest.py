from hypothesis import settings

# Property tests run without a per-example deadline, because wall time per
# example varies with machine load, and with a fixed derivation of their
# examples, so that every run of the suite checks the same cases.
settings.register_profile("mtsk", deadline=None, derandomize=True)
settings.load_profile("mtsk")
