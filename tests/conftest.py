"""Fixtures shared by the test modules."""

import pytest

from linfty import dupont

# the Dupont operator caches and the orbit tables that fill them
OPERATOR_TABLES = ("_H_CACHE", "_P_CACHE", "_S_CACHE",
                   "_H_ORBITS", "_P_ORBITS", "_S_ORBITS")


@pytest.fixture
def cold_operator_caches(monkeypatch):
    """Empty the Dupont operator caches and orbit tables for one test, so
    that its operator calls fill them from scratch; the warm tables are
    restored afterwards."""
    for name in OPERATOR_TABLES:
        monkeypatch.setattr(dupont, name, {})
