"""Shared fixtures.

The ten reproduction checks take most of the suite's time, and three tests
need all of them (the parametrized check test, ``run_all`` and the
``reproduce`` command).  Each check runs at most once per session; the
later users read the recorded result.
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


@pytest.fixture
def eigensolves(monkeypatch):
    """The names of the dense eigensolvers (``np.linalg.eigh`` and
    ``eigvalsh``) called during the test, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _solve=getattr(np.linalg, name),
                    **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
