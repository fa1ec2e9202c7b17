"""Shared fixtures.

The ten reproduction checks take most of the suite's time, and two tests
need all of them (the parametrized check test and the ``reproduce``
command).  Each check runs at most once per session; the later users read
the recorded result.
"""

import functools

import numpy as np
import pytest

from qprep import acceptance


@pytest.fixture(scope="session")
def acceptance_result():
    """``acceptance_result(check)``: the check's result, computed once."""
    return functools.cache(lambda check: check())


@pytest.fixture
def recorded_checks(monkeypatch, acceptance_result):
    """Point ``acceptance.CHECKS`` at the session's recorded results."""
    monkeypatch.setattr(acceptance, "CHECKS", tuple(
        functools.partial(acceptance_result, check)
        for check in acceptance.CHECKS))


class _Solves(list):
    """Solver names in call order; ``dims`` holds each call's matrix
    order."""

    def __init__(self):
        super().__init__()
        self.dims = []

    def clear(self):
        super().clear()
        self.dims.clear()


@pytest.fixture
def eigensolves(monkeypatch):
    """The names of the dense eigensolvers (``np.linalg.eigh`` and
    ``eigvalsh``) called during the test, in call order, and the order of
    each call's matrix in ``.dims``."""
    calls = _Solves()
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name),
                    **kwargs):
            calls.append(_name)
            calls.dims.append(np.shape(a)[-1])
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
