"""Shared test set-up: repeatable hypothesis runs and the term-loop reference for psi.

Hypothesis draws the same examples on every run and writes nothing to
the repository.  database=None keeps no example database; hypothesis
also caches the constants it reads from local source files under its
home directory, so that home is a temporary directory removed when the
run ends.
"""

import atexit
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import configuration, settings

from sfkale import _engine

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

_home = tempfile.mkdtemp(prefix="sfkale-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
configuration.set_hypothesis_home_dir(_home)


def _loop_psi(fn, x, h, order, curvature):
    """psi as a loop over the stencil terms, calling fn(z1, z2) at both ends of each.

    The term of base o_b and step o_s around the point x with step h is
    fn(x + h (o_b + o_s)) - fn(x + h o_b), each site in Python floats.
    Returns (n, B, K), as _engine.lattice_psi lays the terms out.
    """
    stencil = _engine.STENCILS[order]
    bases = stencil.bases if curvature else stencil.bases[:1]

    def at(point, step, offset):
        y0, y1, y2, y3 = (c + step * o for c, o in zip(point, offset))
        return fn(complex(y0, y1), complex(y2, y3))

    psi = [
        at(point, step, [b + s for b, s in zip(o_b, o_s)]) - at(point, step, o_b)
        for point, step in zip(x.tolist(), np.ravel(h).tolist())
        for o_b in bases.tolist()
        for o_s in stencil.steps.tolist()
    ]
    return np.array(psi).reshape(len(x), len(bases), len(stencil.steps))


@pytest.fixture(scope="session")
def loop_psi():
    """The term-loop reference for psi; session-scoped, so hypothesis tests may take it."""
    return _loop_psi
