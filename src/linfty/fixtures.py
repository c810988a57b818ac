"""Bundled test algebras, morphisms, representations, and samplers.

Everything the acceptance suite runs on lives here: the small named
presentations, the free nilpotent dg Lie algebra of class 3 built from
graded commutators of words in the free associative algebra, the
faithful matrix representations for the group-law oracles, surjections
for relative horn filling, and the seeded deterministic samplers
(coefficients drawn from a fixed set of small rationals).
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from linfty.algebra import (
    GVector,
    LInftyAlgebra,
    Morphism,
    TensorElement,
    bracket,
    is_mc,
)
from linfty.bch_groupoid import FiniteGroupoid, MatrixRepresentation
from linfty.forms import Form
from linfty.linalg import Subspace
from linfty import dupont, kernel

_ZERO = Fraction(0)
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


# -- named presentations ------------------------------------------------


def zero_algebra() -> LInftyAlgebra:
    return LInftyAlgebra("zero", [])


def abelian_delta() -> LInftyAlgebra:
    """One differential a -> b, no brackets."""
    return LInftyAlgebra(
        "abelian_delta", [("a", 0), ("b", 1)], {("a",): {"b": 1}}
    )


def abelian_chain() -> LInftyAlgebra:
    """Abelian with generators spread over degrees -1, 0, 1 and two
    differential steps; the cochain-comparison fixture."""
    return LInftyAlgebra(
        "abelian_chain",
        [("c", -1), ("a0", 0), ("a2", 0), ("b", 1)],
        {("c",): {"a0": 1}, ("a2",): {"b": 1}},
    )


def heisenberg() -> LInftyAlgebra:
    return LInftyAlgebra(
        "heisenberg",
        [("e1", 0), ("e2", 0), ("e3", 0)],
        {("e1", "e2"): {"e3": 1}},
    )


def _ut_symbols(size: int):
    return [(i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)]


def ut4() -> LInftyAlgebra:
    """Strictly upper-triangular 4x4 matrices under the commutator."""
    pairs = _ut_symbols(4)
    name = {p: f"E{p[0]}{p[1]}" for p in pairs}
    table = {}
    for a, b in itertools.combinations(pairs, 2):
        # E_ij E_kl = [j == k] E_il: at most one product is nonzero
        if a[1] == b[0]:
            table[(name[a], name[b])] = {name[(a[0], b[1])]: 1}
        elif b[1] == a[0]:
            table[(name[a], name[b])] = {name[(b[0], a[1])]: -1}
    return LInftyAlgebra("ut4", [(name[p], 0) for p in pairs], table)


def dg_lie_01() -> LInftyAlgebra:
    """Heisenberg in degree 0 with a differential into a trivial
    degree-1 module: nonabelian, nonzero differential, degrees {0, 1}."""
    return LInftyAlgebra(
        "dg_lie_01",
        [("e1", 0), ("e2", 0), ("e3", 0), ("f1", 1), ("f2", 1)],
        {
            ("e1", "e2"): {"e3": 1},
            ("e1",): {"f1": 1},
            ("e2",): {"f2": 1},
        },
    )


def heis_exterior() -> LInftyAlgebra:
    """Heisenberg tensored with a rank-2 exterior algebra on odd
    generators: degrees {0, 1, 2}, nontrivial Maurer-Cartan locus."""
    heis_syms = ["e1", "e2", "e3"]
    heis_table = {("e1", "e2"): {"e3": 1}}
    labels = {(): "", (1,): "_q1", (2,): "_q2", (1, 2): "_q12"}
    generators = []
    for subset, tag in labels.items():
        for sym in heis_syms:
            generators.append((sym + tag, len(subset)))
    table: dict = {}
    for s1, t1 in labels.items():
        for s2, t2 in labels.items():
            # the sign of interleaving the odd exterior factors; 0 on overlap
            merged, sign = kernel.merge_words(s1, s2)
            if not sign:
                continue
            for (a, b), value in heis_table.items():
                table[(a + t1, b + t2)] = {
                    v + labels[merged]: c * sign for v, c in value.items()
                }
    return LInftyAlgebra("heis_exterior", generators, table)


def three_bracket() -> LInftyAlgebra:
    """A minimal genuine L-infinity structure: one ternary bracket into
    degree -1, plus a spectator degree -1 generator used by the
    relative-filler fixtures."""
    return LInftyAlgebra(
        "three_bracket",
        [("a", 0), ("b", 0), ("c", 0), ("w", -1), ("v", -1)],
        {("a", "b", "c"): {"w": 1}},
    )


# -- the free nilpotent dg Lie algebra of class 3 -----------------------


@functools.cache
def free_nilpotent_class3():
    """The free dg Lie algebra on x1, x2 (degree 0), x12 (degree -1)
    with freely adjoined differentials y1, y2 (degree 1), y12 (degree
    0), truncated at bracket words of weight 4.

    Built in the free graded associative algebra on the six generators:
    a Lie element is a {word: coefficient} map, the bracket is the
    graded commutator uv - (-1)^(|u||v|) vu and delta is the derivation
    x -> y.  The basis is the generators, the canonical pairs w[a,b]
    and the cells w[[a,b],c] off the pivots of the relations among the
    word expansions of each generator multiset (in characteristic 0,
    the Jacobi relations), so every basis cell keeps its generator
    content.  Every table entry is a word expansion read back in this
    basis.  Returns (algebra, bracket_count) where bracket_count maps a
    basis symbol to (weight - 1) + (number of adjoined differential
    generators in its word).  Built once per process, so the algebra
    (with its cached lower central filtration) is the one
    get_fixture("free_nilpotent_class3") returns.
    """
    gens = ["x1", "x2", "x12", "y1", "y2", "y12"]
    degs = {"x1": 0, "x2": 0, "x12": -1, "y1": 1, "y2": 1, "y12": 0}
    delta = {"x1": "y1", "x2": "y2", "x12": "y12"}

    def odd(word):
        return sum(degs[g] for g in word) % 2

    def commutator(u, v):
        out: dict = {}
        for wu, cu in u.items():
            for wv, cv in v.items():
                c = cu * cv
                kernel.add_into(out, {wu + wv: c})
                kernel.add_into(out, {wv + wu: c if odd(wu) and odd(wv) else -c})
        return out

    def derivation(u):
        """delta on words, with the Koszul sign of the letters it passes."""
        out: dict = {}
        for word, c in u.items():
            for i, g in enumerate(word):
                if g in delta:
                    dword = word[:i] + (delta[g],) + word[i + 1:]
                    kernel.add_into(out, {dword: -c if odd(word[:i]) else c})
        return out

    expansion: dict = {}  # basis symbol -> word expansion
    content: dict = {}  # basis symbol -> its generators
    readers: dict = {}  # multiset -> (words, Subspace, cell symbols)

    def add_cells(cells):
        """Per multiset, RREF the rows (word expansion | unit) of the
        (symbol, generators, expansion) cells.  Its rows with no word
        part are the RREF of the relations; keep the cells off their
        pivots."""
        groups: dict = {}
        for cell in cells:
            groups.setdefault(tuple(sorted(cell[1])), []).append(cell)
        for multiset, group in groups.items():
            words = sorted(set(itertools.permutations(multiset)))
            reader = Subspace(len(words) + len(group), [
                [lie.get(w, _ZERO) for w in words]
                + [_ONE if k == q else _ZERO for k in range(len(group))]
                for q, (_, _, lie) in enumerate(group)
            ])
            readers[multiset] = (words, reader, [sym for sym, _, _ in group])
            relation_pivots = {
                p - len(words) for p in reader.pivots if p >= len(words)
            }
            for q, (sym, gs, lie) in enumerate(group):
                if q not in relation_pivots:
                    expansion[sym] = lie
                    content[sym] = gs

    def coords(u):
        """A Lie element in the basis: (words | 0) reduces to
        (0 | -coordinates) in each multiset's reader."""
        parts: dict = {}
        for word, c in u.items():
            parts.setdefault(tuple(sorted(word)), {})[word] = c
        out: dict = {}
        for multiset, part in parts.items():
            words, reader, syms = readers[multiset]
            rest = reader.reduce(
                [part.get(w, _ZERO) for w in words] + [_ZERO] * len(syms)
            )
            for sym, c in zip(syms, rest[len(words):]):
                if c:
                    out[sym] = -c
        return out

    add_cells([(g, (g,), {(g,): _ONE}) for g in gens])
    add_cells([
        (f"w[{a},{b}]", (a, b), commutator(expansion[a], expansion[b]))
        for i, a in enumerate(gens)
        for b in gens[i:]
    ])
    pairs = list(expansion)[len(gens):]
    add_cells([
        (f"w[[{','.join(content[p])}],{c}]", content[p] + (c,),
         commutator(expansion[p], expansion[c]))
        for p in pairs
        for c in gens
    ])

    # [a, b] = w[a,b]; [c, w[a,b]] and delta are read back from words
    table: dict = {content[p]: {p: _ONE} for p in pairs}

    def enter(key, lie):
        value = coords(lie)
        if value:
            table[key] = value

    for p in pairs:
        for c in gens:
            enter((c, p), commutator(expansion[c], expansion[p]))
    for sym, lie in expansion.items():
        enter((sym,), derivation(lie))

    generators = [(sym, sum(degs[g] for g in gs)) for sym, gs in content.items()]
    algebra = LInftyAlgebra("free_nilpotent_class3", generators, table)
    bracket_count = {
        sym: len(gs) - 1 + sum(g in delta.values() for g in gs)
        for sym, gs in content.items()
    }
    return algebra, bracket_count


# -- registry ------------------------------------------------------------


_BUILDERS = {
    "zero": zero_algebra,
    "abelian_delta": abelian_delta,
    "abelian_chain": abelian_chain,
    "heisenberg": heisenberg,
    "ut4": ut4,
    "dg_lie_01": dg_lie_01,
    "heis_exterior": heis_exterior,
    "three_bracket": three_bracket,
    "free_nilpotent_class3": lambda: free_nilpotent_class3()[0],
}

FIXTURE_NAMES = tuple(_BUILDERS)

_CACHE: dict = {}


def get_fixture(name: str) -> LInftyAlgebra:
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


# -- matrix representations ----------------------------------------------


def heisenberg_representation() -> MatrixRepresentation:
    z = [[0] * 3 for _ in range(3)]

    def basis(i, j):
        m = [row[:] for row in z]
        m[i][j] = 1
        return m

    return MatrixRepresentation(
        get_fixture("heisenberg"),
        3,
        {"e1": basis(0, 1), "e2": basis(1, 2), "e3": basis(0, 2)},
    )


def ut4_representation() -> MatrixRepresentation:
    algebra = get_fixture("ut4")
    images = {}
    for sym in algebra.symbols:
        i, j = int(sym[1]), int(sym[2])
        m = [[0] * 4 for _ in range(4)]
        m[i - 1][j - 1] = 1
        images[sym] = m
    return MatrixRepresentation(algebra, 4, images)


def get_representation(name: str) -> MatrixRepresentation:
    if name == "heisenberg":
        return heisenberg_representation()
    if name == "ut4":
        return ut4_representation()
    raise KeyError(f"no matrix representation for {name!r}")


# -- morphisms for relative filling ---------------------------------------


def heisenberg_abelianization():
    """Heisenberg onto its abelianization (the commutator killed)."""
    heis = get_fixture("heisenberg")
    target = LInftyAlgebra("heis_ab", [("a1", 0), ("a2", 0)])
    return Morphism(
        heis,
        target,
        {
            "e1": target.basis_vector("a1"),
            "e2": target.basis_vector("a2"),
            "e3": target.zero_vector(),
        },
    )


def three_bracket_projection():
    """three_bracket onto an abelian quotient keeping the spectator
    degree -1 generator; exercises the lifted top integral."""
    source = get_fixture("three_bracket")
    target = LInftyAlgebra(
        "three_bracket_ab",
        [("ab", 0), ("bb", 0), ("cb", 0), ("vb", -1)],
    )
    return Morphism(
        source,
        target,
        {
            "a": target.basis_vector("ab"),
            "b": target.basis_vector("bb"),
            "c": target.basis_vector("cb"),
            "w": target.zero_vector(),
            "v": target.basis_vector("vb"),
        },
    )


# -- finite groupoids ------------------------------------------------------


def cyclic_group_groupoid(order: int = 2) -> FiniteGroupoid:
    elements = list(range(order))
    compose = {
        (g, h): (g + h) % order for g in elements for h in elements
    }
    return FiniteGroupoid(
        objects=["*"],
        morphisms=elements,
        source={g: "*" for g in elements},
        target={g: "*" for g in elements},
        identity={"*": 0},
        compose=compose,
    )


def pair_groupoid() -> FiniteGroupoid:
    """The indiscrete groupoid on two objects: one morphism between any
    ordered pair."""
    objects = ["p", "q"]
    morphisms = [(a, b) for a in objects for b in objects]  # target, source
    compose = {}
    for g in morphisms:
        for h in morphisms:
            if g[1] == h[0]:
                compose[(g, h)] = (g[0], h[1])
    return FiniteGroupoid(
        objects=objects,
        morphisms=morphisms,
        source={g: g[1] for g in morphisms},
        target={g: g[0] for g in morphisms},
        identity={obj: (obj, obj) for obj in objects},
        compose=compose,
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

    def mc_element(self, algebra: LInftyAlgebra, attempts: int = 64) -> GVector:
        """A Maurer-Cartan element: rejection sampling over the pool,
        falling back to scaling central directions, finally to zero."""
        for _ in range(attempts):
            candidate = self.vector(algebra, 1)
            if is_mc(algebra, candidate):
                return candidate
        zero = algebra.zero_vector()
        for _ in range(attempts):
            candidate = self.vector(algebra, 1)
            if bracket(algebra, [candidate]).is_zero():
                # kill the quadratic part by scaling a central line
                for s in list(candidate.coeffs):
                    thinned = GVector(algebra, {s: candidate.coeffs[s]})
                    if is_mc(algebra, thinned):
                        return thinned
        return zero

    def form(self, n: int, exterior_degree: int, max_poly_degree: int) -> Form:
        total: dict = {}
        for mono in dupont.monomial_basis(n, max_poly_degree):
            word = next(iter(mono.terms))[1]
            if len(word) == exterior_degree:
                kernel.add_into(total, mono.terms, self.rational())
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
