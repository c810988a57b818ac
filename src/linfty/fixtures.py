"""Bundled test algebras, morphisms, representations, and samplers.

Everything the acceptance suite runs on lives here: the registry of the
small named presentations (BUNDLED; each is defined once, by its file
presentations/<name>.json, which get_fixture loads with the command
line's own load_presentation), the word product and graded commutator
of the free associative algebra and the free nilpotent dg Lie algebras
of any class built on them (class 3 is the series fixture), the
faithful matrix representations for the group-law oracles, and the
seeded deterministic samplers (coefficients drawn from a fixed set of
small rationals).  The surjections for relative horn filling are the
quotients by the lower central filtration, algebra.quotient.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

from linfty.algebra import (
    GVector,
    LInftyAlgebra,
    TensorElement,
    bracket,
    is_mc,
)
from linfty.bch_groupoid import (
    MatrixRepresentation,
    NerveTruncation,
    group_nerve,
)
from linfty.forms import Form
from linfty.linalg import Subspace
from linfty.serialize import load_presentation
from linfty import dupont, kernel

_ONE = Fraction(1)

SAMPLE_VALUES = [
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(-2),
]


# -- free nilpotent dg Lie algebras, built on words ----------------------


def word_product(u: dict, v: dict) -> dict:
    """The concatenation product of two {word tuple: Fraction} maps."""
    out: dict = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            kernel.add_term(out, wu + wv, kernel.frac_mul(cu, cv))
    return out


def word_commutator(u: dict, v: dict, degrees) -> dict:
    """The graded commutator uv - (-1)^(|u||v|) vu of two homogeneous
    word maps; degrees gives the degree of each letter."""
    if not u or not v:
        return {}
    odd = all(sum(degrees[g] for g in next(iter(x))) % 2 for x in (u, v))
    return kernel.add_into(word_product(u, v), word_product(v, u).items(),
                           1 if odd else -1)


def free_nilpotent(name: str, generators, delta, top: int):
    """The free dg Lie algebra on (symbol, degree) generators with the
    differential delta (generator -> generator, a derivation on words
    with the Koszul sign of the letters it passes), truncated above
    bracket weight top; returns (algebra, expansion), expansion mapping
    each basis symbol to its word expansion.

    A Lie element is a map {word: coefficient} in the free graded
    associative algebra and the bracket is word_commutator.  The cells
    of weight w > 1 are [p, g] for p of weight w - 1 and g a generator
    (g from p on at w = 2), named w[a,b], w[[a,b],c], ...; the basis
    keeps the cells off the pivots of the relations among the word
    expansions of each letter multiset (in characteristic 0, the Jacobi
    relations).  Every table entry is a word expansion read back in
    this basis.
    """
    degrees = dict(generators)
    gens = list(degrees)
    expansion: dict = {}  # basis symbol -> word expansion
    readers: dict = {}  # sorted letters -> Subspace

    def add_cells(cells):
        """Per multiset, RREF the rows (word expansion | unit) of the
        (symbol, letters, expansion) cells over the words they hold.
        Its rows with no word part are the RREF of the relations; keep
        the cells off their pivots."""
        groups: dict = {}
        for sym, letters, lie in cells:
            groups.setdefault(tuple(sorted(letters)), []).append((sym, lie))
        for multiset, group in groups.items():
            words = sorted(set().union(*(lie for _, lie in group)))
            reader = readers[multiset] = Subspace(
                words + [sym for sym, _ in group],
                [{**lie, sym: _ONE} for sym, lie in group],
            )
            relation_pivots = set(reader.pivots).difference(words)
            expansion.update(
                (sym, lie) for sym, lie in group if sym not in relation_pivots
            )

    add_cells([(g, (g,), {(g,): _ONE}) for g in gens])
    layer = gens
    for weight in range(2, top + 1):
        before = len(expansion)
        add_cells([
            (f"w[{p if weight == 2 else p[1:]},{g}]",
             next(iter(expansion[p])) + (g,),
             word_commutator(expansion[p], expansion[g], degrees))
            for i, p in enumerate(layer)
            for g in (gens[i:] if weight == 2 else gens)
        ])
        layer = list(expansion)[before:]

    table: dict = {}

    def enter(key, lie):
        """(words | 0) reduces to (0 | -coordinates) in the readers."""
        parts: dict = {}
        for word, c in lie.items():
            parts.setdefault(tuple(sorted(word)), {})[word] = c
        value: dict = {}
        for multiset, part in parts.items():
            rest = readers[multiset].reduce(part)
            value.update((sym, kernel.frac_neg(c)) for sym, c in rest.items())
        if value:
            table[key] = value

    letters = {sym: next(iter(lie)) for sym, lie in expansion.items()}
    for a, b in itertools.combinations_with_replacement(expansion, 2):
        if len(letters[a]) + len(letters[b]) <= top:
            enter((a, b), word_commutator(expansion[a], expansion[b], degrees))
    for sym, lie in expansion.items():
        dlie: dict = {}
        for word, c in lie.items():
            for i, g in enumerate(word):
                if g in delta:
                    odd = sum(degrees[x] for x in word[:i]) % 2
                    kernel.add_term(dlie, word[:i] + (delta[g],) + word[i + 1:],
                                    kernel.frac_neg(c) if odd else c)
        enter((sym,), dlie)

    generators = [(sym, sum(degrees[g] for g in word))
                  for sym, word in letters.items()]
    return LInftyAlgebra(name, generators, table), expansion


CLASS3_GENERATORS = (
    ("x1", 0), ("x2", 0), ("x12", -1), ("y1", 1), ("y2", 1), ("y12", 0)
)
CLASS3_DELTA = {"x1": "y1", "x2": "y2", "x12": "y12"}


@functools.cache
def free_nilpotent_class3():
    """free_nilpotent of class 3 on x1, x2 (degree 0), x12 (degree -1)
    and their differentials y1, y2, y12.  Returns (algebra,
    bracket_count), bracket_count mapping a basis symbol to (weight - 1)
    + (number of differentials in its word).  Built once per process,
    so the algebra (with its cached lower central filtration) is the
    one get_fixture("free_nilpotent_class3") returns.
    """
    algebra, expansion = free_nilpotent(
        "free_nilpotent_class3", CLASS3_GENERATORS, CLASS3_DELTA, 3
    )
    ys = set(CLASS3_DELTA.values())
    words = {sym: next(iter(lie)) for sym, lie in expansion.items()}
    return algebra, {
        sym: len(w) - 1 + sum(g in ys for g in w) for sym, w in words.items()
    }


# -- registry ------------------------------------------------------------


# the presentations/<name>.json files, the one definition of each
BUNDLED = (
    "zero",
    "abelian_delta",
    "abelian_chain",
    "heisenberg",
    "ut4",
    "dg_lie_01",
    "heis_exterior",
    "three_bracket",
)

FIXTURE_NAMES = BUNDLED + ("free_nilpotent_class3",)

@functools.cache
def get_fixture(name: str) -> LInftyAlgebra:
    if name not in FIXTURE_NAMES:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    if name == "free_nilpotent_class3":
        return free_nilpotent_class3()[0]
    return load_presentation(
        Path(__file__).with_name("presentations") / f"{name}.json"
    )


# -- matrix representations ----------------------------------------------


def matrix_unit_representation(name: str, size: int,
                               units: dict) -> MatrixRepresentation:
    """The fixture with each symbol sent to the size x size matrix unit
    at the (row, column) that units gives it, counted from 0."""
    images = {}
    for sym, (i, j) in units.items():
        m = [[0] * size for _ in range(size)]
        m[i][j] = 1
        images[sym] = m
    return MatrixRepresentation(get_fixture(name), size, images)


def get_representation(name: str) -> MatrixRepresentation:
    if name == "heisenberg":
        return matrix_unit_representation(
            name, 3, {"e1": (0, 1), "e2": (1, 2), "e3": (0, 2)}
        )
    if name == "ut4":
        return matrix_unit_representation(
            name, 4, {f"E{i + 1}{j + 1}": (i, j)
                      for i, j in itertools.combinations(range(4), 2)}
        )
    raise KeyError(f"no matrix representation for {name!r}")


# -- finite groupoids ------------------------------------------------------


def cyclic_group_nerve(order: int, bound: int) -> NerveTruncation:
    return group_nerve(range(order), lambda g, h: (g + h) % order, bound)


def pair_groupoid_nerve(bound: int) -> NerveTruncation:
    """The nerve of the indiscrete groupoid on two objects: one morphism
    between any ordered pair."""
    objects = ["p", "q"]
    morphisms = [(a, b) for a in objects for b in objects]  # target, source
    return NerveTruncation(
        objects=objects,
        source={g: g[1] for g in morphisms},
        target={g: g[0] for g in morphisms},
        compose={(g, h): (g[0], h[1])
                 for g in morphisms for h in morphisms if g[1] == h[0]},
        bound=bound,
    )


# -- deterministic samplers -------------------------------------------------


class Sampler:
    """Seeded source of vectors, Maurer-Cartan elements, and solver
    data, with coefficients from the fixed small-rational pool."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def rational(self) -> Fraction:
        return self.rng.choice(SAMPLE_VALUES)

    def vector(self, algebra: LInftyAlgebra, degree: int) -> GVector:
        return GVector(
            algebra,
            {s: self.rational() for s in algebra.basis_of_degree(degree)},
        )

    def mc_element(self, algebra: LInftyAlgebra) -> GVector:
        """A Maurer-Cartan element: rejection sampling over the pool (64
        draws), falling back to scaling central directions (64 more
        draws), finally to zero."""
        for _ in range(64):
            candidate = self.vector(algebra, 1)
            if is_mc(algebra, candidate):
                return candidate
        zero = algebra.zero_vector()
        for _ in range(64):
            candidate = self.vector(algebra, 1)
            if bracket(algebra, [candidate]).is_zero():
                # kill the quadratic part by scaling a central line
                for s in list(candidate.coeffs):
                    thinned = GVector(algebra, {s: candidate.coeffs[s]})
                    if is_mc(algebra, thinned):
                        return thinned
        return zero

    def form(self, n: int, exterior_degree: int, max_poly_degree: int) -> Form:
        """A form of one exterior degree: one draw per monomial t^e dt_W
        with |W| = exterior_degree, in the order of
        dupont.monomial_basis."""
        total: dict = {}
        if exterior_degree < 0:
            return Form(n, total, _validated=True)
        for word in itertools.combinations(range(1, n + 1), exterior_degree):
            for exps in dupont._exponent_vectors(n, max_poly_degree):
                coeff = self.rational()
                if coeff:
                    total[exps, word] = coeff
        return Form(n, total, _validated=True)

    def witness(self, algebra: LInftyAlgebra, n: int,
                max_poly_degree: int = 1) -> TensorElement:
        """A total-degree-0 tensor element."""
        comps = {}
        for sym in algebra.symbols:
            k = -algebra.degrees[sym]
            if 0 <= k <= n:
                form = self.form(n, k, max_poly_degree)
                if not form.is_zero():
                    comps[sym] = form
        return TensorElement(algebra, n, comps)
