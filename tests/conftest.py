"""Fixtures shared by the test modules."""

import pytest

from linfty import dupont, forms, kernel
from linfty.algebra import LInftyAlgebra
from linfty.fixtures import get_fixture

# the cached operator tables (d, the pullbacks, h^i, P and s), the orbit
# tables that fill P's and s's, the powers of t_0 the reducer multiplies
# by, and the tables of shared keys and coefficients their terms are
# taken from
OPERATOR_TABLES = ((forms, "_D_CACHE"), (forms, "_PULLBACK_CACHE"),
                   (forms, "_T0_POWER_CACHE"),
                   (dupont, "_H_CACHE"), (dupont, "_P_CACHE"),
                   (dupont, "_S_CACHE"), (dupont, "_P_ORBITS"),
                   (dupont, "_S_ORBITS"), (kernel, "_SHARED"),
                   (kernel, "_SHARED_COEFFS"))


@pytest.fixture
def cold_operator_caches(monkeypatch):
    """Empty the operator tables, the orbit tables, the t_0 powers and
    the shared-term tables for one test, so that its operator calls
    fill them from scratch; the warm tables are restored afterwards.  Returns a
    function that empties them again, for a property test whose every
    example starts cold."""
    for module, name in OPERATOR_TABLES:
        monkeypatch.setattr(module, name, {})

    def empty():
        for module, name in OPERATOR_TABLES:
            getattr(module, name).clear()

    return empty


@pytest.fixture
def scaled_class3():
    """The free class-3 algebra with its bracket on (x1, x2) tripled,
    which breaks the Jacobi rule on several tuples."""
    free = get_fixture("free_nilpotent_class3")
    brackets = {key: dict(value) for key, value in free.brackets.items()}
    brackets["x1", "x2"] = {s: 3 * c for s, c in brackets["x1", "x2"].items()}
    return LInftyAlgebra(
        "scaled", [(s, free.degrees[s]) for s in free.symbols], brackets)
