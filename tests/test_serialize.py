"""File formats, canonical rendering, and round trips."""

import hashlib
import json
import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from linfty.algebra import GVector, TensorElement
from linfty.fixtures import (
    BUNDLED,
    FIXTURE_NAMES,
    Sampler,
    free_nilpotent_class3,
    get_fixture,
)
from linfty.forms import Form
from linfty.mc_gamma import GaugeParameter, solve_gauge_fixed
from linfty.report import quote
from linfty.serialize import (
    MAX_DECIMAL_EXPONENT,
    MAX_FORM_DEGREE,
    LoadError,
    load_presentation,
    load_simplex,
    parse_form,
    parse_vector,
    presentation_from_data,
    presentation_to_data,
    rational_from_str,
    render,
    save_presentation,
    save_simplex,
    simplex_from_data,
    simplex_to_data,
)


def bundled_path(name):
    return resources.files("linfty").joinpath(f"presentations/{name}.json")


def fingerprint(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# every fixture, symbol order and table included, held fixed across
# rewrites of its file or constructor and of the loader
@pytest.mark.parametrize(
    "name, expected",
    [
        ("zero", "e0fccac6057268e1"),
        ("abelian_delta", "ab94bdbd658aff54"),
        ("abelian_chain", "2f3e4c50218abfb7"),
        ("heisenberg", "76a8907924fea9ff"),
        ("ut4", "83625522d4e13458"),
        ("dg_lie_01", "2b9f7e0e6db82e9b"),
        ("heis_exterior", "cdb7885e016a3998"),
        ("three_bracket", "dcdddb9c008c6dfd"),
        ("free_nilpotent_class3", "917f80a0672fdd08"),
    ],
)
def test_built_fixture_fingerprint(name, expected):
    assert fingerprint(presentation_to_data(get_fixture(name))) == expected


def test_free_class3_bracket_count_fingerprint():
    assert fingerprint(free_nilpotent_class3()[1]) == "bacfacb61fa58584"


class TestPresentationFiles:
    def test_presentation_files_are_the_bundled_fixtures(self):
        directory = resources.files("linfty").joinpath("presentations")
        files = {p.name for p in directory.iterdir() if p.name.endswith(".json")}
        assert files == {f"{name}.json" for name in BUNDLED}

    def test_heisenberg_index(self):
        loaded = load_presentation(bundled_path("heisenberg"))
        assert loaded.nilpotency_index() == 3

    def test_round_trip(self, tmp_path):
        for name in ("heisenberg", "dg_lie_01", "three_bracket"):
            algebra = get_fixture(name)
            path = tmp_path / f"{name}.json"
            save_presentation(algebra, path)
            loaded = load_presentation(path)
            assert loaded.brackets == algebra.brackets
            assert presentation_to_data(loaded) == presentation_to_data(algebra)

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


def _presentation(generators, brackets=()):
    return {"name": "bad", "generators": list(generators),
            "brackets": list(brackets)}


MALFORMED = {
    "symbol not a string": _presentation([{"symbol": ["x"], "degree": 0}]),
    "fractional degree": _presentation([{"symbol": "x", "degree": 0.5}]),
    "degree as text": _presentation([{"symbol": "x", "degree": "0"}]),
    "boolean degree": _presentation([{"symbol": "x", "degree": True}]),
    "args as text": _presentation(
        [{"symbol": "x", "degree": 0}, {"symbol": "y", "degree": 0},
         {"symbol": "z", "degree": 0}],
        [{"args": "xy", "value": [{"symbol": "z", "coeff": "1"}]}],
    ),
    "name not a string": dict(_presentation([{"symbol": "x", "degree": 0}]),
                              name=["x"]),
    "decimal exponent beyond the cap": _presentation(
        [{"symbol": "x", "degree": 0}, {"symbol": "y", "degree": 0},
         {"symbol": "z", "degree": 0}],
        [{"args": ["x", "y"], "value": [{"symbol": "z", "coeff": "1e1000000"}]}],
    ),
    "coefficient as a float": _presentation(
        [{"symbol": "x", "degree": 0}, {"symbol": "y", "degree": 0},
         {"symbol": "z", "degree": 0}],
        [{"args": ["x", "y"], "value": [{"symbol": "z", "coeff": 0.5}]}],
    ),
}


class TestMalformedPresentations:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_with_load_error(self, case):
        with pytest.raises(LoadError) as excinfo:
            presentation_from_data(MALFORMED[case])
        assert "malformed presentation" in str(excinfo.value)

    def test_decimal_exponents_are_capped(self):
        cap = MAX_DECIMAL_EXPONENT
        assert rational_from_str(f"1e{cap}") == 10 ** cap
        assert rational_from_str(f"2.5E-{cap}") == Fraction(5, 2 * 10 ** cap)
        for text in ("1e1000000", "1e-1000000", f"1e{cap + 1}", "1e1_001",
                     "1e" + "9" * 5000):
            with pytest.raises(ValueError, match="decimal exponent"):
                rational_from_str(text)

    def test_form_degrees_are_capped(self):
        cap = MAX_FORM_DEGREE
        assert parse_form(f"t1^{cap - 1}*t2*dt1", 2) == Form(
            2, {((cap - 1, 1), (1,)): Fraction(1)})
        for text in (f"t1^{cap + 1}", f"t1^{cap}*t2", f"2*t1 + t1^{cap}*t1"):
            with pytest.raises(ValueError, match="polynomial degree"):
                parse_form(text, 2)

    def test_form_digit_strings_are_bounded_by_length(self):
        # leading zeros do not count; a longer digit string is refused
        # before int() reads it, so Python's digit limit is never reached
        zeros = "0" * 5000
        assert parse_form(f"t{zeros}1^{zeros}2*dt{zeros}2", 2) == parse_form(
            "t1^2*dt2", 2)
        for text in ("t1^" + "9" * 5000, "t1^20001", f"t1^1{zeros}"):
            with pytest.raises(ValueError, match=r"polynomial degree beyond 2000"):
                parse_form(text, 2)
        for text in ("t" + "9" * 5000, "dt" + "9" * 5000, "t10", "dt3", "t0"):
            with pytest.raises(ValueError, match=r"index '.* out of range for n=2"):
                parse_form(text, 2)

    # a t-factor with an empty index or exponent, a bare dt and a
    # repeated exponent are refused with the factor quoted
    @pytest.mark.parametrize("text, factor", [
        ("t*dt1", "t"), ("t1^", "t1^"), ("dt", "dt"), ("t1^2^3", "t1^2^3"),
    ])
    def test_malformed_form_factor_is_quoted(self, text, factor):
        with pytest.raises(ValueError, match=re.escape(
                f"cannot parse factor {quote(factor)}")):
            parse_form(text, 2)

    def test_messages_quote_a_bounded_prefix_of_the_input(self):
        algebra = get_fixture("heisenberg")
        long = 5000
        cases = [
            (rational_from_str, "1e" + "9" * long),
            (rational_from_str, "x" * long),
            (rational_from_str, "1/" + "0" * long),
            (lambda text: parse_vector(text, algebra), "2*" + "q" * long),
            (lambda text: parse_form(text, 2), "t1*" + "z" * long),
        ]
        for parse, text in cases:
            with pytest.raises(ValueError) as excinfo:
                parse(text)
            message = str(excinfo.value)
            assert len(message) < 200, message
            assert "chars)" in message
        with pytest.raises(ValueError, match=r"\(5002 chars\)"):
            rational_from_str("1e" + "9" * 5000)
        data = _presentation([{"symbol": "x" * long, "degree": 0.5}], [])
        with pytest.raises(LoadError) as excinfo:
            presentation_from_data(data)
        assert len(str(excinfo.value)) < 250

    def test_integer_coefficients_stay_exact(self):
        data = _presentation(
            [{"symbol": "x", "degree": 0}, {"symbol": "y", "degree": 0},
             {"symbol": "z", "degree": 0}],
            [{"args": ["x", "y"], "value": [{"symbol": "z", "coeff": -2}]}],
        )
        algebra = presentation_from_data(data)
        assert algebra.brackets == {("x", "y"): {"z": Fraction(-2)}}


# -- the parsers on arbitrary input -----------------------------------------

FUZZ = settings(max_examples=100, deadline=None)

json_leaves = (
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False) | st.text(max_size=4)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
symbols = st.sampled_from(["x", "y", "z"])


def _maybe(good):
    """Mostly well-formed values, sometimes any JSON value."""
    return good | json_values


presentations = st.fixed_dictionaries({
    "name": _maybe(st.just("fuzz")),
    "generators": _maybe(st.lists(st.fixed_dictionaries({
        "symbol": _maybe(symbols),
        "degree": _maybe(st.integers(-1, 2)),
    }), max_size=3)),
    "brackets": _maybe(st.lists(st.fixed_dictionaries({
        "args": _maybe(st.lists(symbols, max_size=3)),
        "value": _maybe(st.lists(st.fixed_dictionaries({
            "symbol": _maybe(symbols),
            "coeff": _maybe(st.sampled_from(["1", "-1/2", "0"])),
        }), max_size=2)),
    }), max_size=2)),
}) | json_values


@FUZZ
@given(presentations)
def test_loader_accepts_only_well_typed_data(data):
    """presentation_from_data raises nothing but LoadError, and what it
    accepts has a string name, string symbols, integer degrees and lists of symbols as
    bracket args."""
    try:
        presentation_from_data(data)
    except LoadError:
        return
    assert isinstance(data["name"], str)
    for entry in data.get("generators", []):
        assert isinstance(entry["symbol"], str)
        assert type(entry["degree"]) is int
    for entry in data.get("brackets", []):
        assert isinstance(entry["args"], list)
        assert all(isinstance(a, str) for a in entry["args"])


@FUZZ
@given(st.text(alphabet="ey123tdt^*/+- 0.x", max_size=12) | st.text(max_size=12),
       st.integers(1, 3))
def test_text_parsers_raise_only_value_errors(text, n):
    heis = get_fixture("heisenberg")
    for parse in (lambda: parse_vector(text, heis), lambda: parse_form(text, n)):
        try:
            parse()
        except ValueError:
            pass


# -- render/parse round trips on random values --------------------------------

ROUND_TRIP = settings(max_examples=100, deadline=None)
wide_rationals = st.builds(
    Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12)
)


@st.composite
def sparse_forms(draw):
    """Random sparse forms on the n-simplex, n = 0..3."""
    n = draw(st.integers(0, 3))
    key = st.tuples(
        st.tuples(*[st.integers(0, 3)] * n),
        st.sets(st.integers(1, n), max_size=n).map(lambda w: tuple(sorted(w)))
        if n else st.just(()),
    )
    return Form(n, draw(st.dictionaries(key, wide_rationals, max_size=5)))


@ROUND_TRIP
@given(sparse_forms())
def test_form_render_parse_round_trip(f):
    assert parse_form(f.render(), f.n) == f


@st.composite
def fixture_vectors(draw):
    """Random vectors over every bundled fixture (none but 0 over zero)."""
    algebra = get_fixture(draw(st.sampled_from(FIXTURE_NAMES)))
    syms = []
    if algebra.symbols:
        syms = draw(st.lists(st.sampled_from(algebra.symbols), max_size=5))
    return GVector(algebra, {s: draw(wide_rationals) for s in syms})


@ROUND_TRIP
@given(fixture_vectors())
def test_vector_render_parse_round_trip(v):
    assert parse_vector(v.render(), v.algebra) == v


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_presentation_data_round_trip(name):
    algebra = get_fixture(name)
    data = presentation_to_data(algebra)
    loaded = presentation_from_data(data)
    assert (loaded.name, loaded.symbols, loaded.degrees, loaded.max_arity) == (
        algebra.name, algebra.symbols, algebra.degrees, algebra.max_arity
    )
    assert loaded.brackets == algebra.brackets
    assert presentation_to_data(loaded) == data


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.integers(1, 3), st.data())
def test_simplex_data_round_trip(name, n, data):
    """Gauge-fixed simplices on the 1- to 3-simplex, solved from random
    vertex values and witnesses at a random base vertex."""
    algebra = get_fixture(name)
    sampler = Sampler(data.draw(st.integers(0, 10**6)))
    g = GaugeParameter(
        mu=sampler.mc_element(algebra),
        witness=sampler.witness(algebra, n),
    )
    simplex = solve_gauge_fixed(g, data.draw(st.integers(0, n)))
    data_out = simplex_to_data(simplex)
    loaded = simplex_from_data(data_out, algebra)
    assert loaded == simplex
    assert simplex_to_data(loaded) == data_out


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
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 2),
        )
        simplex = solve_gauge_fixed(g, 0)
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
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 2),
        )
        simplex = solve_gauge_fixed(g, 0)
        assert json.dumps(simplex_to_data(simplex)) == json.dumps(
            simplex_to_data(simplex)
        )
