"""File formats, canonical rendering, and round trips."""

import hashlib
import json
from fractions import Fraction
from importlib import resources

import pytest

from linfty.algebra import GVector, TensorElement
from linfty.fixtures import (
    FIXTURE_NAMES,
    Sampler,
    free_nilpotent_class3,
    get_fixture,
)
from linfty.forms import Form
from linfty.mc_gamma import GaugeParameter, solve_gauge_fixed
from linfty.serialize import (
    LoadError,
    load_presentation,
    load_simplex,
    parse_form,
    parse_vector,
    presentation_from_data,
    presentation_to_data,
    render,
    save_presentation,
    save_simplex,
    simplex_from_data,
    simplex_to_data,
)


BUNDLED = [n for n in FIXTURE_NAMES if n != "free_nilpotent_class3"]


def bundled_path(name):
    return resources.files("linfty").joinpath(f"presentations/{name}.json")


def fingerprint(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# the built fixtures, symbol order and table included, held fixed across
# rewrites of their constructors
@pytest.mark.parametrize(
    "name, expected",
    [
        ("free_nilpotent_class3", "917f80a0672fdd08"),
        ("heis_exterior", "cdb7885e016a3998"),
        ("ut4", "83625522d4e13458"),
    ],
)
def test_built_fixture_fingerprint(name, expected):
    assert fingerprint(presentation_to_data(get_fixture(name))) == expected


def test_free_class3_bracket_count_fingerprint():
    assert fingerprint(free_nilpotent_class3()[1]) == "bacfacb61fa58584"


class TestPresentationFiles:
    def test_bundled_files_load(self):
        for name in BUNDLED:
            loaded = load_presentation(bundled_path(name))
            expected = get_fixture(name)
            assert loaded.algebra.brackets == expected.brackets
            assert loaded.algebra.degrees == expected.degrees

    def test_heisenberg_index(self):
        loaded = load_presentation(bundled_path("heisenberg"))
        assert loaded.nilpotency_index == 3

    def test_round_trip(self, tmp_path):
        for name in ("heisenberg", "dg_lie_01", "three_bracket"):
            algebra = get_fixture(name)
            path = tmp_path / f"{name}.json"
            save_presentation(algebra, path)
            loaded = load_presentation(path)
            assert loaded.algebra.brackets == algebra.brackets
            assert presentation_to_data(loaded.algebra) == presentation_to_data(
                algebra
            )

    def test_degree_violation_reported(self, tmp_path):
        data = {
            "name": "bad",
            "generators": [{"symbol": "a", "degree": 0},
                           {"symbol": "b", "degree": 1}],
            "brackets": [
                {"args": ["a", "b"], "value": [{"symbol": "a", "coeff": "1"}]}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LoadError) as excinfo:
            load_presentation(path)
        assert "degree" in str(excinfo.value)

    def test_duplicate_symbols_rejected(self):
        data = {
            "name": "dup",
            "generators": [{"symbol": "a", "degree": 0},
                           {"symbol": "a", "degree": 1}],
            "brackets": [],
        }
        with pytest.raises(LoadError):
            presentation_from_data(data)

    def test_empty_generators_is_the_zero_algebra(self):
        algebra = presentation_from_data(
            {"name": "nothing", "generators": [], "brackets": []}
        )
        assert algebra.dim == 0
        assert algebra.lower_central().nilpotency_index == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_presentation(tmp_path / "absent.json")

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(LoadError) as excinfo:
            load_presentation(path)
        assert "line" in str(excinfo.value)


class TestVectorRendering:
    def test_round_trip(self):
        heis = get_fixture("heisenberg")
        sampler = Sampler(1)
        for _ in range(20):
            v = GVector(
                heis, {s: sampler.rational() for s in heis.symbols}
            )
            assert parse_vector(v.render(), heis) == v

    def test_examples(self):
        heis = get_fixture("heisenberg")
        v = heis.vector({"e1": Fraction(1, 2), "e3": -2})
        assert v.render() == "1/2*e1 - 2*e3"
        assert parse_vector("1/2*e1 - 2*e3", heis) == v
        assert parse_vector("0", heis).is_zero()

    def test_unknown_symbol(self):
        heis = get_fixture("heisenberg")
        with pytest.raises(ValueError):
            parse_vector("qq", heis)

    def test_bad_rationals_are_value_errors(self):
        heis = get_fixture("heisenberg")
        for text in ("1/0*e1", "1/x*e1"):
            with pytest.raises(ValueError):
                parse_vector(text, heis)
        with pytest.raises(ValueError):
            parse_form("1/0*t1", 1)


class TestSimplexFiles:
    def test_round_trip(self, tmp_path):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(2)
        g = GaugeParameter(
            n=2, mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 2),
        )
        simplex = solve_gauge_fixed(algebra, 2, 0, g)
        path = tmp_path / "simplex.json"
        save_simplex(simplex, path)
        loaded = load_simplex(path, algebra)
        assert loaded == simplex

    def test_validation_on_load(self):
        algebra = get_fixture("abelian_chain")
        bad = {
            "algebra": "abelian_chain",
            "n": 1,
            # a non-constant function of the vertex coordinate alone is
            # not flat
            "components": [{"generator": "b", "form": "t1"}],
        }
        data_ok = {
            "algebra": "abelian_chain",
            "n": 1,
            "components": [{"generator": "b", "form": "1"}],
        }
        assert simplex_from_data(data_ok, algebra).vertex(0) == \
            algebra.basis_vector("b")
        with pytest.raises(ValueError):
            simplex_from_data(bad, algebra)

    def test_wrong_algebra_name(self):
        algebra = get_fixture("heisenberg")
        with pytest.raises(ValueError):
            simplex_from_data(
                {"algebra": "other", "n": 0, "components": []}, algebra
            )


class TestRenderDispatch:
    def test_supported_types(self):
        heis = get_fixture("heisenberg")
        assert render(Form.dt(1, 1)) == "dt1"
        assert render(heis.basis_vector("e1")) == "e1"
        assert render(Fraction(3, 4)) == "3/4"
        te = TensorElement(heis, 1, {"e1": Form.t(1, 1)})
        assert "e1" in render(te)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            render(object())

    def test_byte_stability(self):
        algebra = get_fixture("heis_exterior")
        sampler = Sampler(3)
        g = GaugeParameter(
            n=2, mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 2),
        )
        simplex = solve_gauge_fixed(algebra, 2, 0, g)
        assert json.dumps(simplex_to_data(simplex)) == json.dumps(
            simplex_to_data(simplex)
        )
