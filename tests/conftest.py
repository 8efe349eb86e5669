"""Shared test configuration: one deterministic hypothesis profile.

Property tests replay the same examples on every run, whatever the host's
speed, and keep no example database. Hypothesis's source-constant cache goes
under pytest's cache directory, or into a temporary directory removed at the
end of the run when pytest has no cache (``-p no:cacheprovider``), never
into a ``.hypothesis/`` folder in the checkout.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
    else:
        scratch = tempfile.TemporaryDirectory(prefix="hypothesis-")
        config.add_cleanup(scratch.cleanup)
        set_hypothesis_home_dir(scratch.name)
