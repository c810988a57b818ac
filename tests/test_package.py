"""The lazy package namespace, the import graph it allows, and the
plain record classes."""

import importlib
import os
import subprocess
import sys

import pytest

import linfty
from linfty.algebra import FiltrationReport, TensorElement
from linfty.bch_groupoid import CHResult
from linfty.fixtures import Sampler, get_fixture
from linfty.forms import Form
from linfty.mc_gamma import GaugeParameter
from linfty.report import Record, Report


def modules_added_by(statement):
    """The modules a fresh interpreter loads to run statement, beyond
    those it had loaded at start-up."""
    src = os.path.dirname(os.path.dirname(linfty.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys; before = set(sys.modules)\n"
            f"{statement}\n"
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


class TestNamespace:
    def test_every_public_name_is_its_submodules_object(self):
        for name in linfty.__all__:
            module = importlib.import_module(
                f"linfty.{linfty._SUBMODULE[name]}")
            value = getattr(linfty, name)
            assert value is getattr(module, name)
            assert value.__module__ == module.__name__

    def test_star_import(self):
        namespace = {}
        exec("from linfty import *", namespace)
        assert set(linfty.__all__) <= set(namespace)
        assert namespace["compose"] is importlib.import_module(
            "linfty.bch_groupoid").compose

    def test_dir_lists_all(self):
        assert sorted(dir(linfty)) == sorted(linfty.__all__)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            linfty.no_such_name  # noqa: B018

    def test_submodule_import(self):
        from linfty import dupont
        assert dupont is sys.modules["linfty.dupont"]

    def test_names_are_not_cached_in_the_package(self):
        # a function read while a tracer has wrapped it in its module
        # must not stay in the package namespace after the trace
        assert linfty.compose is not None
        assert "compose" not in vars(linfty)


class TestImportGraph:
    def test_dupont_loads_no_solver_module(self):
        added = modules_added_by("import linfty.dupont")
        assert "linfty.dupont" in added
        assert added.isdisjoint({f"linfty.{m}" for m in (
            "algebra", "mc_gamma", "bch_groupoid", "serialize", "fixtures")})

    def test_acceptance_loads_no_dataclasses_or_inspect(self):
        added = modules_added_by("import linfty.acceptance")
        assert "linfty.acceptance" in added
        assert added.isdisjoint({"dataclasses", "inspect"})


class TestRecords:
    def test_report_defaults_and_separate_lines(self):
        first, second = Report("a"), Report("a")
        assert (first.name, first.number, first.cases, first.failures,
                first.lines) == ("a", None, 0, 0, [])
        first.check(False, "broken")
        assert second.lines == [] and second.cases == 0
        assert first.lines == ["FAIL: broken"]

    def test_report_equality_is_field_wise(self):
        first, second = Report("a", 3), Report("a", 3)
        assert first == second
        first.note("text")
        assert first != second
        second.note("text")
        assert first == second
        assert Report("a", 3) != Report("b", 3)
        assert Report("a") != Report("a", 1)
        assert Report("a") != "a"

    def test_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Report("a"))
        with pytest.raises(TypeError):
            hash(FiltrationReport([], 1))

    def test_repr_names_every_field(self):
        assert repr(Report("a", 2)) == (
            "Report(name='a', number=2, cases=0, failures=0, lines=[])")
        assert repr(FiltrationReport([], None)) == (
            "FiltrationReport(subspaces=[], nilpotency_index=None)")

    def test_filtration_report_keeps_its_cap(self):
        from linfty.algebra import NILPOTENCY_CAP
        assert FiltrationReport.cap == NILPOTENCY_CAP
        assert FiltrationReport([], None).diverged

    def test_records_compare_only_with_their_own_class(self):
        class Pair(Record):
            _fields = ("a", "b")

            def __init__(self, a, b):
                self.a, self.b = a, b

        assert Pair(1, 2) == Pair(1, 2) != Pair(2, 1)
        assert CHResult(1, 2) != Pair(1, 2)
        assert CHResult(1, 2) == CHResult(1, 2)

    def test_gauge_parameter_checks(self):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(52)
        mu, witness = sampler.mc_element(algebra), sampler.witness(algebra, 2)
        g = GaugeParameter(mu, witness)
        assert (g.mu, g.witness) == (mu, witness)
        assert g == GaugeParameter(mu=mu, witness=witness)
        with pytest.raises(TypeError):
            hash(g)
        with pytest.raises(ValueError, match="different algebras"):
            GaugeParameter(mu=get_fixture("heisenberg").zero_vector(),
                           witness=witness)
        heis = get_fixture("heisenberg")
        with pytest.raises(ValueError, match="total degree 0"):
            GaugeParameter(
                mu=heis.zero_vector(),
                witness=TensorElement(heis, 1, {"e1": Form.dt(1, 1)}))
