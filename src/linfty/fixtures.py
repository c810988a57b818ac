"""Bundled test algebras, morphisms, representations, and samplers.

Everything the acceptance suite runs on lives here: the small named
presentations, the free nilpotent dg Lie algebra of class 3 built by
exact linear algebra on bracket words, the faithful matrix
representations for the group-law oracles, surjections for relative
horn filling, and the seeded deterministic samplers (coefficients drawn
from a fixed set of small rationals).
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
        value: dict = {}
        if a[1] == b[0]:
            value[name[(a[0], b[1])]] = value.get(name[(a[0], b[1])], 0) + 1
        if b[1] == a[0]:
            value[name[(b[0], a[1])]] = value.get(name[(b[0], a[1])], 0) - 1
        value = {s: v for s, v in value.items() if v}
        if value:
            table[(name[a], name[b])] = value
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
            if set(s1) & set(s2):
                continue
            merged = tuple(sorted(s1 + s2))
            # sign of interleaving the odd exterior factors
            sign = 1
            for a in s1:
                sign *= (-1) ** sum(1 for b in s2 if b < a)
            for (a, b), value in heis_table.items():
                key = (a + t1, b + t2)
                out = {v + labels[merged]: c * sign for v, c in value.items()}
                existing = table.setdefault(key, {})
                for sym, c in out.items():
                    existing[sym] = existing.get(sym, 0) + c
    cleaned = {}
    for key, value in table.items():
        value = {s: v for s, v in value.items() if v}
        if value:
            cleaned[key] = value
    return LInftyAlgebra("heis_exterior", generators, cleaned)


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


def _pair_sign_and_key(i, j, degs, order):
    """Canonical ordering of a weight-2 bracket word in generator
    order; sign 0 on an even square."""
    if i == j:
        if degs[i] % 2 == 0:
            return None, 0
        return (i, j), 1
    if order[i] < order[j]:
        return (i, j), 1
    sign = 1 if (degs[i] * degs[j]) % 2 else -1
    return (j, i), sign


@functools.cache
def free_nilpotent_class3():
    """The free dg Lie algebra on x1, x2 (degree 0), x12 (degree -1)
    with freely adjoined differentials y1, y2 (degree 1), y12 (degree
    0), truncated at bracket words of weight 4.

    Built by exact row reduction of the weight-3 bracket words modulo
    graded antisymmetry and the Jacobi relation; every basis cell keeps
    its generator content, so terms can be filtered by how many bracket
    applications produced them.  Returns (algebra, bracket_count) where
    bracket_count maps a basis symbol to (weight - 1) + (number of
    adjoined differential generators in its word).  Built once per
    process, so the algebra (with its cached lower central filtration)
    is the one get_fixture("free_nilpotent_class3") returns.
    """
    gens = ["x1", "x2", "x12", "y1", "y2", "y12"]
    degs = {"x1": 0, "x2": 0, "x12": -1, "y1": 1, "y2": 1, "y12": 0}
    delta = {"x1": "y1", "x2": "y2", "x12": "y12"}
    is_partner = {g: g.startswith("y") for g in gens}
    order = {g: i for i, g in enumerate(gens)}

    # weight-2 cells: canonical pairs
    pairs = []
    for i, a in enumerate(gens):
        for b in gens[i:]:
            key, sign = _pair_sign_and_key(a, b, degs, order)
            if sign:
                pairs.append(key)
    pair_index = {p: q for q, p in enumerate(pairs)}

    def expand2(a, b):
        """[a, b] for generators, as a sparse map pair -> coefficient."""
        key, sign = _pair_sign_and_key(a, b, degs, order)
        if sign == 0:
            return {}
        return {key: Fraction(sign)}

    # weight-3 formal cells ((a, b), c) grouped by generator multiset
    cells_by_multiset: dict = {}
    cell_order: dict = {}
    for p in pairs:
        for c in gens:
            multiset = tuple(sorted(p + (c,)))
            cells = cells_by_multiset.setdefault(multiset, [])
            cell_order[(p, c)] = len(cells)
            cells.append((p, c))

    def expand3(pair_vec, c):
        """[pair_vec, c] as formal weight-3 coordinates, per multiset."""
        out: dict = {}
        for p, coeff in pair_vec.items():
            multiset = tuple(sorted(p + (c,)))
            vec = out.setdefault(multiset, {})
            idx = cell_order[(p, c)]
            vec[idx] = vec.get(idx, _ZERO) + coeff
        return out

    # Jacobi relations per multiset: for generators (z1, z2, z3),
    # sum over 2-element heads of the alternating Koszul-signed
    # [[z_i, z_j], z_k]
    relation_rows: dict = {}
    for triple in itertools.combinations_with_replacement(gens, 3):
        row_per_multiset: dict = {}
        for head in itertools.combinations(range(3), 2):
            tail = [p for p in range(3) if p not in head][0]
            perm = head + (tail,)
            parity = 1
            koszul = 1
            for u in range(3):
                for v in range(u + 1, 3):
                    if perm[u] > perm[v]:
                        parity = -parity
                        if (degs[triple[perm[u]]] * degs[triple[perm[v]]]) % 2:
                            koszul = -koszul
            sign = parity * koszul
            inner = expand2(triple[head[0]], triple[head[1]])
            if not inner:
                continue
            outer = expand3(
                {p: c * sign for p, c in inner.items()}, triple[tail]
            )
            for multiset, vec in outer.items():
                row = row_per_multiset.setdefault(multiset, {})
                for idx, c in vec.items():
                    row[idx] = row.get(idx, _ZERO) + c
        for multiset, row in row_per_multiset.items():
            if any(row.values()):
                width = len(cells_by_multiset[multiset])
                dense = [row.get(q, _ZERO) for q in range(width)]
                relation_rows.setdefault(multiset, []).append(dense)

    relation_space = {
        multiset: Subspace(len(cells_by_multiset[multiset]), rows)
        for multiset, rows in relation_rows.items()
    }

    # quotient basis: non-pivot cells per multiset
    w3_symbols: dict = {}
    for multiset, cells in cells_by_multiset.items():
        space = relation_space.get(multiset)
        pivots = set(space.pivots) if space else set()
        for q, cell in enumerate(cells):
            if q not in pivots:
                (p, c) = cell
                sym = f"w[[{p[0]},{p[1]}],{c}]"
                w3_symbols[cell] = sym

    def reduce3(coords_by_multiset):
        """Reduce formal weight-3 coordinates modulo Jacobi, returning
        {symbol: coefficient} over the quotient basis."""
        out: dict = {}
        for multiset, vec in coords_by_multiset.items():
            cells = cells_by_multiset[multiset]
            dense = [vec.get(q, _ZERO) for q in range(len(cells))]
            space = relation_space.get(multiset)
            if space:
                dense = space.reduce(dense)
            for q, c in enumerate(dense):
                if c:
                    out[w3_symbols[cells[q]]] = out.get(
                        w3_symbols[cells[q]], _ZERO
                    ) + c
        return {s: c for s, c in out.items() if c}

    pair_symbol = {p: f"w[{p[0]},{p[1]}]" for p in pairs}
    generators = [(g, degs[g]) for g in gens]
    weight = {g: 1 for g in gens}
    content = {g: (g,) for g in gens}
    for p in pairs:
        sym = pair_symbol[p]
        generators.append((sym, degs[p[0]] + degs[p[1]]))
        weight[sym] = 2
        content[sym] = tuple(sorted(p))
    for cell, sym in w3_symbols.items():
        (p, c) = cell
        generators.append((sym, degs[p[0]] + degs[p[1]] + degs[c]))
        weight[sym] = 3
        content[sym] = tuple(sorted(p + (c,)))

    table: dict = {}

    def add_entry(key, value):
        value = {s: c for s, c in value.items() if c}
        if value:
            table[key] = value

    # generator x generator -> weight-2 cells
    for i, a in enumerate(gens):
        for b in gens[i:]:
            key, sign = _pair_sign_and_key(a, b, degs, order)
            if sign == 0:
                continue
            if (a, b) == key:
                add_entry((a, b), {pair_symbol[key]: Fraction(sign)})
            elif a == b:
                add_entry((a, b), {pair_symbol[key]: Fraction(sign)})

    # generator x weight-2 -> weight-3 cells, stored as (gen, pair)
    for p in pairs:
        psym = pair_symbol[p]
        pdeg = degs[p[0]] + degs[p[1]]
        for c in gens:
            # formal cell is [[p], c]; the stored key (c, psym) needs
            # the antisymmetric swap [c, p] = -(-1)^(|c||p|) [p, c]
            formal = reduce3(expand3({p: _ONE}, c))
            if not formal:
                continue
            swap = -1 if (degs[c] * pdeg) % 2 == 0 else 1
            add_entry(
                (c, psym), {s: swap * v for s, v in formal.items()}
            )

    # the differential as a derivation
    def delta_of_gen(g):
        partner = delta.get(g)
        return {partner: _ONE} if partner else {}

    for g, partner in delta.items():
        add_entry((g,), {partner: _ONE})

    for p in pairs:
        a, b = p
        out: dict = {}
        for da, ca in delta_of_gen(a).items():
            for key, sign in [_pair_sign_and_key(da, b, degs, order)]:
                if sign:
                    out[pair_symbol[key]] = out.get(
                        pair_symbol[key], _ZERO
                    ) + ca * sign
        sgn = -1 if degs[a] % 2 else 1
        for db, cb in delta_of_gen(b).items():
            for key, sign in [_pair_sign_and_key(a, db, degs, order)]:
                if sign:
                    out[pair_symbol[key]] = out.get(
                        pair_symbol[key], _ZERO
                    ) + cb * sign * sgn
        add_entry((pair_symbol[p],), out)

    for cell, sym in w3_symbols.items():
        (p, c) = cell
        pdeg = degs[p[0]] + degs[p[1]]
        out: dict = {}
        # delta[p] is a weight-2 vector; bracket with c stays weight 3
        dp = table.get((pair_symbol[p],), {})
        for psym2, coeff in dp.items():
            p2 = next(q for q in pairs if pair_symbol[q] == psym2)
            for s, v in reduce3(expand3({p2: coeff}, c)).items():
                out[s] = out.get(s, _ZERO) + v
        sgn = -1 if pdeg % 2 else 1
        for dc, cc in delta_of_gen(c).items():
            for s, v in reduce3(expand3({p: Fraction(cc * sgn)}, dc)).items():
                out[s] = out.get(s, _ZERO) + v
        add_entry((sym,), out)

    algebra = LInftyAlgebra("free_nilpotent_class3", generators, table)
    bracket_count = {
        sym: weight[sym] - 1 + sum(1 for g in content[sym] if is_partner[g])
        for sym, _ in generators
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
