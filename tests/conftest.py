"""Hypothesis draws the same examples on every run and writes nothing to the repository.

database=None keeps no example database; hypothesis also caches the
constants it reads from local source files under its home directory,
so that home is a temporary directory removed when the run ends.
"""

import atexit
import shutil
import tempfile

from hypothesis import configuration, settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

_home = tempfile.mkdtemp(prefix="sfkale-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
configuration.set_hypothesis_home_dir(_home)
