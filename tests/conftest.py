from hypothesis import settings

# Every run draws the same examples, so a property failure reproduces and
# the suite's outcome does not depend on the run; no per-example deadline,
# since oracle loops on a loaded host can exceed one.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
