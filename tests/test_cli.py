"""Command-line surface: exit codes, determinism, end-to-end flows."""

import json
from importlib import resources
from pathlib import Path

import pytest

from linfty import acceptance, cli, dupont
from linfty.algebra import jacobi_cases
from linfty.cli import main
from linfty.fixtures import FIXTURE_NAMES, Sampler, get_fixture
from linfty.mc_gamma import GaugeParameter, _whitney_basis, solve_gauge_fixed
from linfty.report import quote
from linfty.serialize import save_presentation, save_simplex


def bundled(name):
    return str(resources.files("linfty").joinpath(f"presentations/{name}.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_check_jacobi_pass(self, capsys):
        code, out, _ = run(capsys, "check-jacobi", "--algebra", bundled("heisenberg"))
        assert code == 0
        assert "nilpotent of index 3" in out
        assert "pass" in out

    def test_check_jacobi_on_a_non_nilpotent_algebra(self, capsys, tmp_path):
        # sl(2) plus u of degree -1 with [h, e, f] = u: the Jacobi rules
        # hold, and the filtration runs to the cap without vanishing
        path = tmp_path / "sl2_u3.json"
        path.write_text(json.dumps({
            "name": "sl2_u3",
            "generators": [{"symbol": s, "degree": 0} for s in "hef"]
            + [{"symbol": "u", "degree": -1}],
            "brackets": [
                {"args": list(args), "value": [{"symbol": sym, "coeff": c}]}
                for args, sym, c in (("he", "e", "2"), ("hf", "f", "-2"),
                                     ("ef", "h", "1"), ("hef", "u", "1"))
            ],
        }))
        code, out, _ = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 0
        assert "NOT nilpotent within the iteration cap" in out

    def test_validation_error_is_usage(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "generators": [{"symbol": "a", "degree": 0},
                           {"symbol": "b", "degree": 1}],
            "brackets": [{"args": ["a", "b"],
                          "value": [{"symbol": "a", "coeff": "1"}]}],
        }))
        code, _, err = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 2
        assert "degree" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "run-suite", "not-a-suite")
        assert code == 2

    def test_jacobi_failure_is_exit_one(self, capsys, tmp_path):
        from linfty.algebra import LInftyAlgebra
        broken = LInftyAlgebra(
            "broken",
            [(s, 0) for s in ("E12", "E13", "E14", "E23", "E24", "E34")],
            {
                ("E12", "E23"): {"E13": 1},
                ("E23", "E34"): {"E24": 1},
                ("E12", "E24"): {"E14": 1},
                ("E13", "E34"): {"E14": -1},
            },
        )
        path = tmp_path / "broken.json"
        save_presentation(broken, path)
        code, out, _ = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_jacobi_failure_counts_every_failing_tuple(self, capsys, tmp_path,
                                                       scaled_class3):
        path = tmp_path / "scaled.json"
        save_presentation(scaled_class3, path)
        code, out, _ = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 1
        assert ("FAIL  Jacobi(scaled) up to arity 3: 142974 cases, 5 failures; "
                "first: tuple ('x1', 'x2'): 2*w[x1,y2] - 2*w[x2,y1] != 0") in out

    def test_default_arity_reaches_the_paired_rule(self, capsys, tmp_path):
        # the n-Jacobi rule pairs l_k with l_(n-k+1): two quaternary
        # brackets first meet at arity 7
        from linfty.algebra import LInftyAlgebra
        l4l4 = LInftyAlgebra(
            "l4l4",
            [(s, 0) for s in "abcd"] + [("e", -2)]
            + [(s, 0) for s in "fgh"] + [("z", -4)],
            {("a", "b", "c", "d"): {"e": 1}, ("e", "f", "g", "h"): {"z": 1}},
        )
        path = tmp_path / "l4l4.json"
        save_presentation(l4l4, path)
        code, out, _ = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 1
        assert ("FAIL  Jacobi(l4l4) up to arity 7" in out
                and "tuple ('a', 'b', 'c', 'd', 'f', 'g', 'h'): z != 0" in out)

    def test_default_arity_of_three_bracket(self, capsys):
        code, out, _ = run(capsys, "check-jacobi", "--algebra",
                           bundled("three_bracket"))
        assert code == 0
        assert "up to arity 5: 101 cases" in out

    @pytest.mark.parametrize("name, n_max, cases", [
        ("heisenberg", 3000, 7),
        ("dg_lie_01", 20, 1601),
        ("dg_lie_01", 200, 160001),
    ])
    def test_jacobi_within_the_budget_finishes(self, capsys, name, n_max,
                                               cases):
        # the budget counts canonical tuples: arities with none cost
        # nothing, and a tuple off the bracket table's support is
        # decided without evaluating its 2^n splittings
        code, out, _ = run(capsys, "check-jacobi", "--algebra",
                           bundled(name), "--n-max", str(n_max))
        assert code == 0
        assert f"up to arity {n_max}: {cases} cases" in out

    def test_jacobi_over_the_budget_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "class3.json"
        save_presentation(get_fixture("free_nilpotent_class3"), path)
        code, out, err = run(capsys, "check-jacobi", "--algebra", str(path),
                             "--n-max", "4")
        assert code == 2
        assert out == ""
        assert "3399040 tuples, over the budget" in err and "--n-max" in err

    def test_a_huge_arity_is_refused_at_once(self, capsys):
        # jacobi_cases is a closed form: no loop over the arities
        assert jacobi_cases(get_fixture("dg_lie_01"), 10**9) == 4 * 10**18 + 1
        code, out, err = run(capsys, "check-jacobi", "--algebra",
                             bundled("dg_lie_01"), "--n-max", "1000000000")
        assert code == 2
        assert out == ""
        assert "4000000000000000001 tuples, over the budget" in err
        assert "--n-max" in err

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_jacobi_size_counts_the_canonical_tuples(self, name):
        # the empty algebra "zero" and the all-even ones included
        algebra = get_fixture(name)
        top = 2 if name == "free_nilpotent_class3" else 4
        for n_max in range(top + 1):
            assert jacobi_cases(algebra, n_max) == sum(
                1 for n in range(1, n_max + 1)
                for _ in algebra.canonical_tuples(n)
            )


class TestHostileInput:
    # a generator entry or bracket entry of the wrong type, as text; the
    # loader must reject each with exit 2 and a message, not a traceback
    @pytest.mark.parametrize("generators, args", [
        ([{"symbol": ["x"], "degree": 0}], None),
        ([{"symbol": "x", "degree": 0.5}], None),
        ([{"symbol": "x", "degree": "0"}], None),
        ([{"symbol": "x", "degree": True}], None),
        ([{"symbol": s, "degree": 0} for s in "xyz"], "xy"),
    ], ids=["list-symbol", "float-degree", "text-degree", "bool-degree",
            "text-args"])
    def test_malformed_types_are_usage_errors(self, capsys, tmp_path,
                                              generators, args):
        brackets = []
        if args is not None:
            brackets = [{"args": args, "value": [{"symbol": "z", "coeff": "1"}]}]
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(
            {"name": "typed", "generators": generators, "brackets": brackets}
        ))
        code, out, err = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 2
        assert out == ""
        assert "malformed presentation" in err

    @staticmethod
    def _heisenberg_file(tmp_path, name, **extra):
        data = json.loads(Path(bundled("heisenberg")).read_text())
        data.pop("max_arity", None)
        data.update(extra)
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_declared_max_arity_only_checked(self, capsys, tmp_path):
        plain = self._heisenberg_file(tmp_path, "plain.json")
        huge = self._heisenberg_file(tmp_path, "huge.json", max_arity=1000000)
        expected = run(capsys, "check-jacobi", "--algebra", plain)
        assert expected[0] == 0
        assert run(capsys, "check-jacobi", "--algebra", huge) == expected

    def test_declared_max_arity_below_listed_bracket(self, capsys, tmp_path):
        for declared in (1, "2", True):
            path = self._heisenberg_file(tmp_path, "low.json", max_arity=declared)
            code, _, err = run(capsys, "check-jacobi", "--algebra", path)
            assert code == 2
            assert "max_arity" in err

    def test_zero_denominator_in_presentation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "generators": [{"symbol": "a", "degree": 0},
                           {"symbol": "b", "degree": 0}],
            "brackets": [{"args": ["a", "b"],
                          "value": [{"symbol": "b", "coeff": "1/0"}]}],
        }))
        code, _, err = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 2
        assert "zero denominator" in err

    def test_non_string_name_is_a_usage_error(self, capsys, tmp_path):
        data = json.loads(Path(bundled("heisenberg")).read_text())
        data["name"] = ["x"]
        path = tmp_path / "named.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 2
        assert out == ""
        assert "name must be a string" in err

    def test_huge_decimal_exponent_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "name": "huge",
            "generators": [{"symbol": "a", "degree": 0},
                           {"symbol": "b", "degree": 0}],
            "brackets": [{"args": ["a", "b"],
                          "value": [{"symbol": "b", "coeff": "1e1000000"}]}],
        }))
        code, _, err = run(capsys, "check-jacobi", "--algebra", str(path))
        assert code == 2
        assert "decimal exponent" in err
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("1e-1000000*e1\n")
        code, _, err = run(
            capsys, "bch", "--algebra", bundled("heisenberg"), "--n", "2",
            "--mu", str(mu_path),
        )
        assert code == 2
        assert "decimal exponent" in err

    # Maurer-Cartan faces with s(value) != 0, for which the gauge-fixed
    # filler is not defined; the second power is past the recursion limit
    @pytest.mark.parametrize("form", ["t1^2*dt1", "t1^2000*dt1"])
    def test_faces_not_gauge_fixed_are_usage_errors(self, capsys, tmp_path,
                                                    form):
        path = tmp_path / "face.json"
        path.write_text(json.dumps({
            "algebra": "heisenberg", "n": 1,
            "components": [{"generator": "e1", "form": form}],
        }))
        code, out, err = run(
            capsys, "fill-horn", "--algebra", bundled("heisenberg"),
            "--n", "2", "--missing", "1", "--faces", str(path), str(path),
        )
        assert code == 2
        assert out == ""
        assert "face 0" in err and "not gauge-fixed" in err

    # a face whose gauge check alone would run for minutes: the term's
    # polynomial degree is refused on loading, summed over its factors
    @pytest.mark.parametrize("form", ["t1^100000*dt1", "t1^1000*t1^1001*dt1"])
    def test_form_degree_over_the_bound_is_a_usage_error(self, capsys,
                                                         tmp_path, form):
        path = tmp_path / "face.json"
        path.write_text(json.dumps({
            "algebra": "heisenberg", "n": 1,
            "components": [{"generator": "e1", "form": form}],
        }))
        code, out, err = run(
            capsys, "fill-horn", "--algebra", bundled("heisenberg"),
            "--n", "2", "--missing", "1", "--faces", str(path), str(path),
        )
        assert code == 2
        assert out == ""
        assert f"term {form!r} has polynomial degree" in err

    # a t-exponent, t-index or dt-index of 5,000 digits is refused by its
    # length, before int() reads it, with a message naming the term or index
    @pytest.mark.parametrize("form, message", [
        ("t1^" + "9" * 5000 + "*dt1",
         f"term {quote('t1^' + '9' * 5000 + '*dt1')} has polynomial degree "
         "beyond 2000"),
        ("t" + "9" * 5000 + "*dt1", f"index {quote('9' * 5000)} out of range for n=1"),
        ("dt" + "9" * 5000, f"index {quote('9' * 5000)} out of range for n=1"),
    ], ids=["exponent", "t-index", "dt-index"])
    def test_huge_form_digit_strings_are_usage_errors(self, capsys, tmp_path,
                                                      form, message):
        path = tmp_path / "face.json"
        path.write_text(json.dumps({
            "algebra": "heisenberg", "n": 1,
            "components": [{"generator": "e1", "form": form}],
        }))
        code, out, err = run(
            capsys, "fill-horn", "--algebra", bundled("heisenberg"),
            "--n", "2", "--missing", "1", "--faces", str(path), str(path),
        )
        assert code == 2
        assert out == ""
        assert message in err

    # a simplex field of the wrong type: exit 2, not a traceback (a form
    # that is not text) or a silent cast (a fractional or boolean n)
    @pytest.mark.parametrize("field, value", [
        ("form", 5), ("form", None), ("form", ["dt1"]), ("generator", 5),
        ("n", 1.9), ("n", True), ("n", -1),
    ], ids=["int-form", "null-form", "list-form", "int-generator",
            "float-n", "bool-n", "negative-n"])
    def test_malformed_simplex_fields_are_usage_errors(self, capsys, tmp_path,
                                                       field, value):
        face = {"algebra": "dg_lie_01", "n": 1,
                "components": [{"generator": "f1", "form": "0"}]}
        if field == "n":
            face["n"] = value
        else:
            face["components"][0][field] = value
        path = tmp_path / "face.json"
        path.write_text(json.dumps(face))
        code, out, err = run(
            capsys, "fill-horn", "--algebra", bundled("dg_lie_01"),
            "--n", "2", "--missing", "1", "--faces", str(path), str(path),
        )
        assert code == 2
        assert out == ""
        assert "face.json" in err

    # a face of the wrong dimension is named for its dimension, before the
    # gauge condition (which the first one fails) or the horn's shape check
    @pytest.mark.parametrize("n, components", [
        (10, [{"generator": "e1", "form": "t1*dt1"}]),
        (3, []),
    ], ids=["not-gauge-fixed", "empty"])
    def test_face_of_the_wrong_dimension_is_named(self, capsys, tmp_path,
                                                  monkeypatch, n, components):
        # a short relative path, which the message quotes whole
        monkeypatch.chdir(tmp_path)
        Path("face.json").write_text(json.dumps(
            {"algebra": "heisenberg", "n": n, "components": components}
        ))
        code, out, err = run(
            capsys, "fill-horn", "--algebra", bundled("heisenberg"),
            "--n", "2", "--missing", "1", "--faces", "face.json", "face.json",
        )
        assert code == 2
        assert out == ""
        assert err == (f"face 0 ('face.json') has dimension {n}, "
                       "the horn needs dimension 1\n")

    def test_zero_denominator_in_vector_file(self, capsys, tmp_path):
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("1/0*e1\n")
        code, _, err = run(
            capsys, "bch", "--algebra", bundled("heisenberg"), "--n", "2",
            "--mu", str(mu_path),
        )
        assert code == 2
        assert "zero denominator" in err


class TestBadFiles:
    """Every file the CLI reads goes through one reader: a missing file,
    invalid JSON or a document of the wrong shape exits 2."""

    @staticmethod
    def _file(tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def _bch(self, capsys, *extra):
        return run(
            capsys, "bch", "--algebra", bundled("heisenberg"), "--n", "2", *extra
        )

    def _fill_horn(self, capsys, *faces):
        return run(
            capsys, "fill-horn", "--algebra", bundled("dg_lie_01"),
            "--n", "2", "--missing", "1", "--faces", *faces,
        )

    def test_bch_missing_mu_file(self, capsys, tmp_path):
        code, _, err = self._bch(capsys, "--mu", str(tmp_path / "nosuch.txt"))
        assert code == 2
        assert "nosuch.txt" in err

    def test_bch_missing_inputs_file(self, capsys, tmp_path):
        code, _, err = self._bch(capsys, "--inputs", str(tmp_path / "nosuch.json"))
        assert code == 2
        assert "nosuch.json" in err

    def test_bch_inputs_not_an_object(self, capsys, tmp_path):
        path = self._file(tmp_path, "list.json", [1, 2])
        code, _, err = self._bch(capsys, "--inputs", path)
        assert code == 2
        assert "JSON object" in err

    def test_bch_input_not_a_string(self, capsys, tmp_path):
        path = self._file(tmp_path, "number.json", {"1": 5})
        code, _, err = self._bch(capsys, "--inputs", path)
        assert code == 2
        assert "'1'" in err

    def test_bch_input_key_not_digits(self, capsys, tmp_path):
        path = self._file(tmp_path, "key.json", {"1a": "e1"})
        code, out, err = self._bch(capsys, "--inputs", path)
        assert code == 2
        assert out == ""
        assert "key.json" in err and "'1a'" in err

    # digit keys that are not faces of the 2-simplex away from vertex 0
    @pytest.mark.parametrize("key", ["9", "11", "21", "0"])
    def test_bch_input_key_not_a_face(self, capsys, tmp_path, key):
        path = self._file(tmp_path, "key.json", {key: "e1"})
        code, out, err = self._bch(capsys, "--inputs", path)
        assert code == 2
        assert out == ""
        assert "key.json" in err and f"input key {quote(key)}" in err

    def test_fill_horn_face_with_malformed_factor(self, capsys, tmp_path):
        face = {"algebra": "dg_lie_01", "n": 1,
                "components": [{"generator": "e1", "form": "t*dt1"}]}
        path = self._file(tmp_path, "face.json", face)
        code, out, err = self._fill_horn(capsys, path, path)
        assert code == 2
        assert out == ""
        assert "face.json" in err and "cannot parse factor 't'" in err

    # an underscore may stand only between two digits, as int() reads them
    @pytest.mark.parametrize("form", ["t_1", "dt_1", "t1^_2"])
    def test_fill_horn_face_with_a_leading_underscore(self, capsys, tmp_path, form):
        face = {"algebra": "dg_lie_01", "n": 1,
                "components": [{"generator": "e1", "form": form}]}
        path = self._file(tmp_path, "face.json", face)
        code, out, err = self._fill_horn(capsys, path, path)
        assert code == 2
        assert out == ""
        assert f"cannot parse factor {quote(form)}" in err

    # a leading zero, also one before an underscore, is read as int() reads it
    @pytest.mark.parametrize("spelled, plain", [
        ("t01", "t1"), ("t1^02", "t1^2"), ("t1^0_2", "t1^2"),
    ])
    def test_fill_horn_face_with_a_leading_zero(self, capsys, tmp_path,
                                                spelled, plain):
        results = []
        for form in (plain, spelled):
            face = {"algebra": "dg_lie_01", "n": 1,
                    "components": [{"generator": "f1", "form": form}]}
            path = self._file(tmp_path, "face.json", face)
            results.append(self._fill_horn(capsys, path, path))
        assert results[0] == results[1]
        assert "cannot parse" not in results[0][2]

    def test_fill_horn_missing_face_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nosuch.json")
        code, _, err = self._fill_horn(capsys, missing, missing)
        assert code == 2
        assert "nosuch.json" in err

    def test_fill_horn_face_not_an_object(self, capsys, tmp_path):
        path = self._file(tmp_path, "list.json", [1, 2])
        code, _, err = self._fill_horn(capsys, path, path)
        assert code == 2
        assert "JSON object" in err


class TestNegativeSizes:
    # (arguments, the least size the option accepts); --n-max and
    # --samples reject 0 too, since a check of no case proves nothing
    @pytest.mark.parametrize("argv, least", [
        pytest.param(
            ("dold-kan", "--algebra", bundled("abelian_delta"), "--n", "-1"),
            0, id="argv0",
        ),
        pytest.param(
            ("check-jacobi", "--algebra", bundled("heisenberg"), "--n-max", "-3"),
            1, id="argv1",
        ),
        pytest.param(
            ("--max-degree", "-1", "verify-contraction", "--n", "1"),
            0, id="argv2",
        ),
        pytest.param(
            ("verify-monodromy", "--rep", "heisenberg", "--samples", "-2"),
            1, id="argv3",
        ),
        pytest.param(
            ("check-jacobi", "--algebra", bundled("heisenberg"), "--n-max", "0"),
            1, id="argv4",
        ),
        pytest.param(
            ("verify-monodromy", "--rep", "heisenberg", "--samples", "0"),
            1, id="argv5",
        ),
    ])
    def test_negative_size_is_usage_error(self, capsys, argv, least):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "pass" not in out
        assert f"must be >= {least}" in err


    def test_bch_n_zero_is_usage_error(self, capsys, tmp_path):
        # the chain (1..n) is empty at n = 0, with or without a base point
        mu = tmp_path / "mu.txt"
        mu.write_text("f1\n")
        argv = ("bch", "--algebra", bundled("dg_lie_01"), "--n", "0")
        for extra in ((), ("--mu", str(mu))):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 2
            assert out == ""
            assert "must be >= 1" in err

    def test_bch_n_above_nine_is_usage_error(self, capsys, tmp_path):
        # an input key names each vertex by one digit, so vertex 10 has
        # no name; --n 9 is the largest simplex a key can reach
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({"10": "e1"}))
        argv = ("bch", "--algebra", bundled("heisenberg"))
        for extra in ((), ("--inputs", str(inputs))):
            code, out, err = run(capsys, *argv, "--n", "10", *extra)
            assert code == 2
            assert out == ""
            assert "must be <= 9" in err and "one digit" in err
        code, out, _ = run(capsys, *argv, "--n", "9")
        assert code == 0
        assert out == "0\n"


def test_bad_input_message_is_bounded(capsys, tmp_path):
    mu = tmp_path / "mu.txt"
    mu.write_text("1e" + "9" * 5000 + "*e1\n")
    code, out, err = run(capsys, "bch", "--algebra", bundled("heisenberg"),
                         "--n", "1", "--mu", str(mu))
    assert code == 2
    assert out == ""
    assert "decimal exponent" in err and len(err) < 200


class TestVerifiers:
    def test_contraction_small(self, capsys):
        code, out, _ = run(
            capsys, "--max-degree", "2", "verify-contraction", "--n", "1"
        )
        assert code == 0
        assert out.count("pass") == 5

    def test_gauge_small(self, capsys):
        code, out, _ = run(capsys, "--max-degree", "2", "verify-gauge", "--n", "1")
        assert code == 0
        assert "s s = 0" in out

    def test_gauge_checks_the_fixed_point_on_the_suite_cases(self, capsys):
        # at the default degree every line verify-contraction and
        # verify-gauge print is a sub-report line of criteria 1-3, so
        # both run the suite's checks on the suite's monomials
        def sub_report_lines(*suites):
            lines = []
            for suite in suites:
                _, out, _ = run(capsys, "run-suite", suite, "--verbose")
                lines += [line.strip() for line in out.splitlines()[1:]]
            return sorted(lines)

        for command, suites in (("verify-contraction", ("contraction",)),
                                ("verify-gauge", ("gauge", "gaugeify"))):
            code, out, _ = run(capsys, command)
            assert code == 0
            assert sorted(out.splitlines()) == sub_report_lines(*suites)
        fixed_point = [line for line in out.splitlines()
                       if "gaugeified s = s" in line]
        assert len(fixed_point) == len(acceptance.HARNESS_DIMS)

    @pytest.mark.parametrize("argv", [
        ("--max-degree", "2", "verify-gauge", "--n", "5"),
        ("verify-contraction", "--n", "4"),
        ("--max-degree", "30", "verify-contraction"),
    ])
    def test_work_over_the_budget_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--n" in err and "--max-degree" in err

    def test_budget_admits_the_sizes_in_use(self):
        # the benchmark sweep and run-all's dimensions at the default degree
        for dims, degree in (((4,), 3), ((1, 2, 3), 4)):
            assert cli.harness_size(dims, degree) <= cli.HARNESS_BUDGET
        assert cli.harness_size(acceptance.HARNESS_DIMS, 4) <= cli.HARNESS_BUDGET

    @pytest.mark.parametrize("argv", [
        ("--max-degree", "10", "run-suite", "contraction"),
        ("--max-degree", "9", "run-suite", "naturality"),
        ("--max-degree", "10", "run-all"),
        ("--max-degree", "10", "run-suite", "gauge"),
        ("--max-degree", "10", "run-suite", "gaugeify"),
    ])
    def test_suite_work_over_the_budget_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "over the budget" in err and "--max-degree" in err

    def test_budget_leaves_criteria_without_a_harness_alone(self, capsys):
        code, out, _ = run(capsys, "--max-degree", "30", "run-suite",
                           "groupoid-nerve")
        assert code == 0
        assert out.startswith("pass  criterion 13")

    def test_monodromy(self, capsys):
        code, out, _ = run(
            capsys, "--seed", "1", "verify-monodromy", "--rep", "heisenberg",
            "--samples", "5",
        )
        assert code == 0
        assert "pass  monodromy(heisenberg): 5 cases" in out

    def test_deterministic_output(self, capsys):
        first = run(
            capsys, "--seed", "3", "compose-table",
            "--algebra", bundled("heisenberg"), "--samples", "4",
        )
        second = run(
            capsys, "--seed", "3", "compose-table",
            "--algebra", bundled("heisenberg"), "--samples", "4",
        )
        assert first == second
        assert first[0] == 0


class TestEndToEnd:
    def test_fill_horn_round_trip(self, capsys, tmp_path):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(5)
        g = GaugeParameter(
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 2),
        )
        simplex = solve_gauge_fixed(g, 0)
        paths = []
        for j in (0, 2):
            path = tmp_path / f"face{j}.json"
            save_simplex(simplex.face(j), path)
            paths.append(str(path))
        code, out, err = run(
            capsys, "fill-horn", "--algebra", bundled("dg_lie_01"),
            "--n", "2", "--missing", "1", "--faces", *paths,
        )
        assert code == 0
        assert "thin: True" in err
        data = json.loads(out)
        assert data["n"] == 2

    def test_bch_command(self, capsys, tmp_path):
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("0\n")
        inputs_path = tmp_path / "inputs.json"
        inputs_path.write_text(json.dumps({"1": "e1", "2": "e2"}))
        code, out, _ = run(
            capsys, "bch", "--algebra", bundled("heisenberg"), "--n", "2",
            "--mu", str(mu_path), "--inputs", str(inputs_path),
        )
        assert code == 0
        assert out.strip() == "e1 - e2 - 1/2*e3"

    def test_dold_kan_command(self, capsys):
        code, out, _ = run(
            capsys, "dold-kan", "--algebra", bundled("abelian_delta"), "--n", "2"
        )
        assert code == 0
        assert "pass" in out

    @pytest.mark.parametrize("name", ["zero", "abelian_delta", "abelian_chain"])
    def test_dold_kan_size_counts_the_columns(self, name):
        # the Whitney cells (x) symbols of total degree 1 and 2 and the
        # degree <= 2 monomial columns that dold_kan_compare builds
        algebra = get_fixture(name)
        for n in range(6):
            monomials = sum(
                1 for sym in algebra.symbols
                for mono in dupont.monomial_basis(n, 2)
                if len(next(iter(mono.terms))[1]) == 1 - algebra.degrees[sym]
            )
            assert cli.dold_kan_size(algebra, n) == (
                len(_whitney_basis(algebra, n, 1))
                + len(_whitney_basis(algebra, n, 2)) + monomials
            )

    def test_dold_kan_budget_admits_the_bundled_abelian_algebras(self):
        for name in ("zero", "abelian_delta", "abelian_chain"):
            for n in range(4):
                assert (cli.dold_kan_size(get_fixture(name), n)
                        <= cli.DOLD_KAN_BUDGET)

    def test_dold_kan_over_the_budget_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "dold-kan", "--algebra", bundled("abelian_chain"),
            "--n", "11",
        )
        assert code == 2
        assert out == ""
        assert "7449 columns, over the budget" in err and "--n" in err

    def test_run_suite(self, capsys):
        code, out, _ = run(capsys, "run-suite", "monodromy")
        assert code == 0
        assert "criterion  9" in out
