"""Loading, validation, and canonical rendering.

Presentation files are JSON: {"name", "generators": [{"symbol",
"degree"}], "brackets": [{"args": [...], "value": [{"symbol", "coeff"}]}],
optional "max_arity"}; coefficients are strings "p/q" in lowest terms.
Unlisted brackets are zero; the arity bound is read off the bracket
table, and a declared "max_arity" is only checked against it.
load_presentation returns the algebra itself; it validates degree
homogeneity and reports failures with file context.  The bundled
fixtures are such files, under presentations/.
Rendering is canonical and byte-stable; parse(render(x)) == x on
forms, vectors, presentations, and simplices.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from linfty import kernel
from linfty.algebra import GVector, LInftyAlgebra, TensorElement
from linfty.forms import Form
from linfty.mc_gamma import SimplexElement
from linfty.report import quote

_ONE = Fraction(1)


class LoadError(ValueError):
    """A structured diagnostic for a failed load, with file context."""

    def __init__(self, path, message):
        self.path = str(path)
        self.message = message
        super().__init__(f"{path}: {message}")


def read_input(path, as_json: bool = True):
    """The JSON object in an input file, or its text with as_json=False.

    The one reader of the files the CLI reads: a missing or unreadable
    file, invalid JSON and a JSON document other than an object raise
    LoadError.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise LoadError(path, exc.strerror) from None
    if not as_json:
        return text
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(
            path, f"invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise LoadError(path, f"expected a JSON object, got {type(data).__name__}")
    return data


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the largest decimal exponent rational_from_str accepts: 10^1000 has
# 3322 bits, while an unbounded exponent lets a few bytes of input cost
# any amount of time and memory (1e4000000 is a 13-million-bit integer)
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")
# the largest polynomial degree of a term parse_form accepts; the gauge
# check s(value) takes 0.11 s at degree 2000 and 3.0 s at 10000
MAX_FORM_DEGREE = 2000
# a digit string as int() reads it, underscores only between digits
_DIGITS = re.compile(r"\d+(?:_\d+)*")


def rational_from_str(text: str) -> Fraction:
    """Parse 'p/q', an integer or a decimal exactly; the only rational
    parser.  Malformed text, zero denominators, decimal exponents beyond
    MAX_DECIMAL_EXPONENT in size and values that are neither text nor
    integers (a JSON float is not exact) raise ValueError."""
    if not isinstance(text, str) and not _is_integer(text):
        raise ValueError(f"expected a rational as text or an integer, got {quote(text)}")
    exponent = isinstance(text, str) and _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        # the length test spares int() a huge digit string
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or 0) > MAX_DECIMAL_EXPONENT):
            raise ValueError(
                f"decimal exponent in {quote(text)} is beyond "
                f"+-{MAX_DECIMAL_EXPONENT}"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {quote(text)}") from None
    except ValueError:
        raise ValueError(f"not a rational: {quote(text)}") from None


def presentation_to_data(algebra: LInftyAlgebra) -> dict:
    brackets = []
    for key in sorted(
        algebra.brackets, key=lambda k: (len(k), [algebra.index[s] for s in k])
    ):
        value = algebra.brackets[key]
        brackets.append(
            {
                "args": list(key),
                "value": [
                    {"symbol": sym, "coeff": str(value[sym])}
                    for sym in algebra.symbols
                    if sym in value
                ],
            }
        )
    return {
        "name": algebra.name,
        "generators": [
            {"symbol": sym, "degree": algebra.degrees[sym]}
            for sym in algebra.symbols
        ],
        "brackets": brackets,
        "max_arity": algebra.max_arity,
    }


def presentation_from_data(data: dict, path="<memory>") -> LInftyAlgebra:
    """The algebra of a presentation's JSON data.  The name and symbols
    must be strings, degrees and max_arity integers (not booleans), and
    bracket args lists of symbols; anything malformed raises LoadError."""
    try:
        name = data["name"]
        if not isinstance(name, str):
            raise ValueError(f"presentation name must be a string, got {quote(name)}")
        generators = []
        for entry in data.get("generators", []):
            symbol, degree = entry["symbol"], entry["degree"]
            if not isinstance(symbol, str):
                raise ValueError(f"generator symbol must be a string, got {quote(symbol)}")
            if not _is_integer(degree):
                raise ValueError(
                    f"degree of {quote(symbol)} must be an integer, got {quote(degree)}"
                )
            generators.append((symbol, degree))
        brackets = {}
        declared = data.get("max_arity")
        if declared is not None and not _is_integer(declared):
            raise ValueError(f"max_arity must be an integer, got {quote(declared)}")
        for entry in data.get("brackets", []):
            args = entry["args"]
            if not (isinstance(args, list) and all(isinstance(a, str) for a in args)):
                raise ValueError(f"bracket args must be a list of symbols, got {quote(args)}")
            args = tuple(args)
            value = {
                item["symbol"]: rational_from_str(item["coeff"])
                for item in entry["value"]
            }
            if args in brackets:
                raise ValueError(f"bracket on {args} specified twice")
            brackets[args] = value
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(path, f"malformed presentation: {exc}") from exc
    try:
        algebra = LInftyAlgebra(name, generators, brackets)
    except ValueError as exc:
        raise LoadError(path, str(exc)) from exc
    # the arity is read off the bracket table; a declared one is only checked
    if declared is not None and declared < algebra.max_arity:
        raise LoadError(
            path,
            f"declared max_arity {declared} is below the listed arity "
            f"{algebra.max_arity}",
        )
    return algebra


def load_presentation(path) -> LInftyAlgebra:
    """The algebra of a presentation file, parsed and validated."""
    return presentation_from_data(read_input(path), path)


def save_presentation(algebra: LInftyAlgebra, path):
    Path(path).write_text(
        json.dumps(presentation_to_data(algebra), indent=2) + "\n"
    )


# -- vectors -------------------------------------------------------------


def _signed_chunks(text: str):
    """Split a +/- separated rendering into (sign, monomial text) pairs;
    "0" and "" have none."""
    text = text.strip()
    if text in ("", "0"):
        return
    text = text.replace(" - ", " + -").replace("- ", "-")
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = _ONE
        while chunk.startswith("-"):
            sign = -sign
            chunk = chunk[1:].strip()
        yield sign, chunk


def parse_vector(text: str, algebra: LInftyAlgebra) -> GVector:
    """Inverse of GVector.render: a +/- separated list of
    coefficient*symbol factors."""
    coeffs: dict = {}
    for coeff, chunk in _signed_chunks(text):
        if "*" in chunk:
            coeff_text, sym = chunk.split("*", 1)
            coeff *= rational_from_str(coeff_text.strip())
        else:
            sym = chunk
        sym = sym.strip()
        if sym not in algebra.index:
            raise ValueError(f"unknown symbol {quote(sym)}")
        kernel.add_into(coeffs, ((sym, _ONE),), coeff)
    return GVector(algebra, coeffs)


def _short_int(text: str, bound: int, factor: str):
    """int(text), or None when its digits alone put it beyond bound; the
    length test spares int() a huge digit string, leading zeros too.
    Text that is not a decimal integer (matched before any zero is
    stripped) raises ValueError quoting the factor of a form it was read
    from."""
    text = text.strip()
    if not _DIGITS.fullmatch(text):
        raise ValueError(f"cannot parse factor {quote(factor)}")
    digits = text.replace("_", "").lstrip("0") or "0"
    return None if len(digits) > len(str(bound)) else int(digits)


def _form_index(text: str, n: int, factor: str) -> int:
    """The index 1..n of a t_i or dt_i factor."""
    idx = _short_int(text, n, factor)
    if idx is None or not 1 <= idx <= n:
        raise ValueError(f"index {quote(text)} out of range for n={n}")
    return idx


def parse_form(text: str, n: int) -> Form:
    """Inverse of Form.render on its image; accepts any +/- separated
    list of monomials in t_i, dt_i (i >= 1) of polynomial degree at most
    MAX_FORM_DEGREE."""
    terms: dict = {}
    for coeff, chunk in _signed_chunks(text):
        exps = [0] * n
        word: list[int] = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {quote(chunk)}")
            if factor[0].isdigit():
                coeff *= rational_from_str(factor)
            elif factor.startswith("dt"):
                for letter in factor.split("^"):
                    if not letter.startswith("dt"):
                        raise ValueError(f"bad dt-word {quote(factor)}")
                    word.append(_form_index(letter[2:], n, factor))
            elif factor.startswith("t"):
                var, caret, power = factor.partition("^")
                e = _short_int(power, MAX_FORM_DEGREE, factor) if caret else 1
                if e is None:
                    raise ValueError(f"term {quote(chunk)} has polynomial "
                                     f"degree beyond {MAX_FORM_DEGREE}")
                exps[_form_index(var[1:], n, factor) - 1] += e
            else:
                raise ValueError(f"cannot parse factor {quote(factor)}")
        if sum(exps) > MAX_FORM_DEGREE:
            raise ValueError(f"term {quote(chunk)} has polynomial degree "
                             f"{sum(exps)}, beyond {MAX_FORM_DEGREE}")
        sorted_word, wsign = kernel.sort_word(tuple(word))
        kernel.add_into(terms, (((tuple(exps), sorted_word), _ONE),),
                        coeff * wsign)
    return Form(n, terms)


# -- simplices -------------------------------------------------------------


def simplex_to_data(simplex: SimplexElement) -> dict:
    return {
        "algebra": simplex.algebra.name,
        "n": simplex.n,
        "components": [
            {"generator": sym, "form": simplex.value.comps[sym].render()}
            for sym in simplex.algebra.symbols
            if sym in simplex.value.comps
        ],
    }


def simplex_from_data(data: dict, algebra: LInftyAlgebra) -> SimplexElement:
    if data.get("algebra") != algebra.name:
        raise ValueError(
            f"simplex belongs to algebra {quote(data.get('algebra'))}, "
            f"expected {quote(algebra.name)}"
        )
    n = data["n"]
    if not _is_integer(n) or n < 0:
        raise ValueError(
            f"simplex dimension n must be an integer >= 0, got {quote(n)}"
        )
    comps = {}
    for entry in data.get("components", []):
        generator, form = entry["generator"], entry["form"]
        if not (isinstance(generator, str) and isinstance(form, str)):
            raise ValueError(
                f"component generator and form must be strings, got "
                f"{quote(generator)} and {quote(form)}"
            )
        comps[generator] = parse_form(form, n)
    return SimplexElement(TensorElement(algebra, n, comps))


def load_simplex(path, algebra: LInftyAlgebra) -> SimplexElement:
    data = read_input(path)
    try:
        return simplex_from_data(data, algebra)
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(path, str(exc)) from exc


def save_simplex(simplex: SimplexElement, path):
    Path(path).write_text(json.dumps(simplex_to_data(simplex), indent=2) + "\n")


def render(value) -> str:
    """Canonical text rendering for any supported value."""
    if isinstance(value, (Form, GVector, TensorElement, SimplexElement)):
        return value.render()
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"no canonical rendering for {type(value).__name__}")
