"""Finitely presented L-infinity algebras over the rationals.

A presentation is a finite graded basis together with tables for the
multilinear brackets [x_1,...,x_k], each graded antisymmetric of degree
2-k.  Brackets are stored only on canonically sorted basis tuples; every
other evaluation order differs from the stored one by a Koszul sign,
and a trie over the orderings holds each signed value.  On top of the
presentations live vectors, derived structure (Jacobi verification, the
lower central filtration and nilpotency, curvature and the Maurer-Cartan
condition, twisting by a Maurer-Cartan element), strict morphisms and
the quotients by the filtration's terms, and the tensor algebra with
polynomial forms on a simplex.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, prod
from typing import Mapping, Sequence

from linfty.forms import (
    Form,
    SimplicialMap,
    evaluate_vertex,
    exterior_d,
    pullback,
    wedge,
)
from linfty.linalg import Subspace, solve_linear
from linfty import dupont, kernel
from linfty.report import Record, Report, quote

_ONE = Fraction(1)

# the deepest level of the lower central filtration that is built; an
# algebra whose filtration has not vanished by then counts as not nilpotent
NILPOTENCY_CAP = 64


def compositions(total: int, parts: int, below: int, least: int = 1):
    """The nondecreasing tuples of parts integers from least to below - 1
    that sum to total, in lexicographic order."""
    if parts == 1:
        if least <= total < below:
            yield (total,)
        return
    for first in range(least, min(total // parts, below - 1) + 1):
        for rest in compositions(total - first, parts - 1, below, first):
            yield (first,) + rest


class LInftyAlgebra:
    """A finitely presented L-infinity algebra.

    generators: sequence of (symbol, degree) pairs.
    brackets: mapping from tuples of argument symbols (any order) to the
    value, given as {symbol: coefficient}.  Unlisted brackets vanish;
    max_arity is the largest arity with a nonzero bracket (at least 1).
    """

    def __init__(
        self,
        name: str,
        generators: Sequence[tuple[str, int]],
        brackets: Mapping[tuple, Mapping[str, object]] | None = None,
    ):
        self.name = name
        self.symbols = tuple(sym for sym, _ in generators)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate generator symbols")
        self.degrees = {sym: int(deg) for sym, deg in generators}
        self.index = {sym: i for i, sym in enumerate(self.symbols)}
        self.dim = len(self.symbols)
        self._odd = frozenset(
            i for i, sym in enumerate(self.symbols) if self.degrees[sym] % 2
        )

        table: dict = {}
        arities = [1]
        for args, value in (brackets or {}).items():
            args = tuple(args)
            for sym in args:
                if sym not in self.index:
                    raise ValueError(f"unknown symbol {quote(sym)} in bracket key")
            key, sign = self._canonical_key(args)
            if sign == 0:
                raise ValueError(
                    f"bracket on {args} vanishes identically "
                    "(repeated even-degree argument)"
                )
            for sym in value:
                if sym not in self.index:
                    raise ValueError(f"unknown symbol {quote(sym)} in bracket value")
            cleaned = kernel.drop_zeros(
                {sym: Fraction(coeff) * sign for sym, coeff in value.items()}
            )
            if not cleaned:
                continue
            expected = sum(self.degrees[s] for s in key) + 2 - len(key)
            for sym in cleaned:
                if self.degrees[sym] != expected:
                    raise ValueError(
                        f"bracket {key} -> {sym} violates degree homogeneity: "
                        f"expected degree {expected}, got {self.degrees[sym]}"
                    )
            if key in table:
                raise ValueError(f"bracket on {key} specified twice")
            table[key] = cleaned
            arities.append(len(key))
        self.brackets = table
        self.max_arity = max(arities)
        # the support trie, the table of bracket values: per arity, a
        # trie of the orderings of the stored keys.  The node a proper
        # prefix reaches maps each symbol that can come next to the next
        # node; a last symbol maps to the bracket on the whole ordering,
        # the stored value times the ordering's Koszul sign.
        self._support = {k: {} for k in range(1, self.max_arity + 1)}
        for key, value in table.items():
            stored = GVector(self, value)
            signed = {1: stored, -1: -stored}
            for order in set(itertools.permutations(key)):
                node = self._support[len(key)]
                for sym in order[:-1]:
                    node = node.setdefault(sym, {})
                node[order[-1]] = signed[self._canonical_key(order)[1]]
        self._filtration = None

    # -- basic structure ----------------------------------------------

    def basis_vector(self, sym: str) -> "GVector":
        return GVector(self, {sym: _ONE})

    def zero_vector(self) -> "GVector":
        return GVector(self, {})

    def vector(self, coeffs: Mapping[str, object]) -> "GVector":
        return GVector(self, {s: Fraction(c) for s, c in coeffs.items()})

    def basis_of_degree(self, degree: int) -> list[str]:
        return [s for s in self.symbols if self.degrees[s] == degree]

    def _canonical_key(self, args: Sequence[str]):
        """Sort argument symbols into storage order, with the
        antisymmetric Koszul sign; sign 0 on a repeated even symbol."""
        order, sign = kernel.sort_word(map(self.index.__getitem__, args), self._odd)
        return tuple(self.symbols[i] for i in order), sign

    def canonical_tuples(self, arity: int):
        """The bracket's domain at one arity: the sorted symbol tuples
        that repeat no even symbol, in storage order."""
        odd = self._odd
        for word in itertools.combinations_with_replacement(
            range(self.dim), arity
        ):
            if all(a != b or a in odd for a, b in zip(word, word[1:])):
                yield tuple(self.symbols[i] for i in word)

    def bracket_on_basis(self, args: Sequence[str]) -> "GVector":
        """Bracket of basis symbols: the leaf of the support trie that
        args spell, or zero when they leave it."""
        node = self._support.get(len(args), {})
        for sym in args:
            node = node.get(sym, {})
        return node if isinstance(node, GVector) else self.zero_vector()

    # -- the lower central filtration ----------------------------------

    def lower_central(self) -> "FiltrationReport":
        """Iterated-bracket filtration and the nilpotency index.

        Successive terms are spans of brackets of at least two earlier
        terms whose weights sum to the current level (brackets of arity
        above the level push the sum up, which keeps the chain
        decreasing).  Nilpotent iff the chain reaches zero.

        The RREF rows of a level are homogeneous, so permuting a
        bracket's arguments changes only its sign: one nondecreasing
        composition of levels stands for all its orderings.  Each
        composition is one walk of the support trie (_atom_tuples) over
        the atoms (symbol, row number, coefficient) of its levels' rows,
        and the walk's atom tuples on one tuple of row numbers sum to
        the bracket of those rows.  The two orders of a pair of rows of
        one level stay apart, since summed they may cancel.
        """
        if self._filtration is not None:
            return self._filtration
        spaces = [Subspace(self.symbols, [{s: _ONE} for s in self.symbols])]
        atoms = []
        index = None
        for level in range(2, NILPOTENCY_CAP + 2):
            atoms.append([(s, i, c) for i, row in enumerate(spaces[-1].rows)
                          for s, c in row.items()])
            # the bracket of each tuple of rows, keyed by (levels, rows)
            values: dict = {}
            for arity in range(2, self.max_arity + 1):
                for comp in compositions(max(level, arity), arity, level):
                    walk, _ = _atom_tuples(
                        self, [atoms[c - 1] for c in comp], lambda a: a,
                        lambda atom: False,
                    )
                    for value, combo in walk:
                        rows = (comp, tuple(atom[1] for atom in combo))
                        kernel.add_into(values.setdefault(rows, {}),
                                        value.coeffs.items(),
                                        prod(atom[2] for atom in combo))
            space = Subspace(self.symbols, values.values())
            spaces.append(space)
            if space.is_zero():
                index = level
                break
        self._filtration = FiltrationReport(spaces, index)
        return self._filtration

    def is_nilpotent(self) -> bool:
        return self.lower_central().nilpotency_index is not None

    def nilpotency_index(self) -> int:
        report = self._filtration
        if report is None:
            report = self.lower_central()
        if report.nilpotency_index is None:
            raise ValueError(
                f"algebra {self.name!r} is not nilpotent (cap {NILPOTENCY_CAP})"
            )
        return report.nilpotency_index

    def __repr__(self):
        return (
            f"LInftyAlgebra({self.name!r}, dim={self.dim}, "
            f"max_arity={self.max_arity})"
        )


class FiltrationReport(Record):
    """Lower central filtration: subspaces, nilpotency index (least
    level whose subspace vanishes) or None when the cap was hit."""

    _fields = ("subspaces", "nilpotency_index")
    # not a field: every report is built to the one cap; the benchmark's
    # tracer reads it to tell a cached filtration from a new build
    cap = NILPOTENCY_CAP

    def __init__(self, subspaces: list, nilpotency_index: int | None):
        self.subspaces = subspaces
        self.nilpotency_index = nilpotency_index

    @property
    def diverged(self) -> bool:
        return self.nilpotency_index is None

    def dims(self) -> list[int]:
        return [s.dim for s in self.subspaces]


class GVector(kernel.Linear):
    """An element of an algebra: a finite basis-coefficient map."""

    __slots__ = ()
    algebra = kernel.Linear.space
    coeffs = kernel.Linear.entries

    def __init__(self, algebra: LInftyAlgebra, coeffs: Mapping[str, Fraction]):
        self.algebra = algebra
        self.coeffs = kernel.drop_zeros(coeffs)

    # -- the vector-space hooks of kernel.Linear ----------------------

    def scale(self, c) -> "GVector":
        return GVector(self.algebra, kernel.scale_terms(self.coeffs, c))

    def combine(self, pairs) -> "GVector":
        """self + sum of c * x over the (c, x) pairs."""
        acc = dict(self.coeffs)
        for c, x in pairs:
            self._check(x)
            kernel.add_into(acc, x.coeffs.items(), c)
        return GVector(self.algebra, acc)

    # -- grading -------------------------------------------------------

    def degrees_present(self):
        return sorted({self.algebra.degrees[s] for s in self.coeffs})

    def is_homogeneous(self, degree: int) -> bool:
        return all(self.algebra.degrees[s] == degree for s in self.coeffs)

    def component(self, degree: int) -> "GVector":
        return GVector(
            self.algebra,
            {
                s: c
                for s, c in self.coeffs.items()
                if self.algebra.degrees[s] == degree
            },
        )

    def render(self) -> str:
        return kernel.render_sum((self.coeffs[s], (s,))
                                 for s in self.algebra.symbols if s in self.coeffs)

    def __repr__(self):
        return f"GVector({self.algebra.name!r}, {self.render()!r})"


# -- brackets on vectors ----------------------------------------------


def bracket(algebra: LInftyAlgebra, args: Sequence, scale=1):
    """Multilinear bracket of vectors or tensor elements, times scale.

    Only the basis tuples that order a stored key are looked up
    (_atom_tuples), so an arity above the presentation bound gives zero;
    mixing algebras or simplex dimensions is an error.  A run of one odd
    vector repeated, as in [mu^l], is summed over multisets of its terms.
    The scale, such as the 1/l! of a term of bracket_series, is folded
    into the coefficient of each atom tuple, so that scale * [args] is
    built in one pass; it defaults to 1.
    """
    if not args:
        raise ValueError("bracket needs at least one argument")
    if isinstance(args[0], TensorElement):
        return tensor_bracket(algebra, args, scale)
    for a in args:
        if not isinstance(a, GVector) or a.algebra is not algebra:
            raise ValueError("bracket arguments must live in the given algebra")
    if not all(a.coeffs for a in args):
        return algebra.zero_vector()
    degrees = algebra.degrees
    walk, runs = _atom_tuples(
        algebra, args, lambda a: list(a.coeffs.items()),
        lambda atom: degrees[atom[0]] % 2,
    )
    total: dict = {}
    scale = kernel.as_fraction(scale)
    for value, combo in walk:
        coeff = scale
        for _, c in combo:
            coeff = kernel.frac_mul(coeff, c)
        if runs:
            coeff = kernel.frac_mul_int(coeff, _run_weight(runs, combo))
        kernel.add_into(total, value.coeffs.items(), coeff)
    return GVector(algebra, total)


def _atom_tuples(algebra: LInftyAlgebra, args: Sequence, atoms_of, is_odd):
    """(walk, runs): the (value, atoms) pairs of a bracket's expansion
    whose symbols order a stored key of the algebra, value the bracket on
    those symbols, and the runs that _run_weight weights them by.  Atom
    tuples off the table's support bracket to zero and are never built.
    atoms_of(arg) is the list of an argument's atoms, each with its
    symbol first.

    The walk goes through the argument positions once, keeping at each
    the atoms whose symbol the support trie allows after the symbols
    already chosen (the children of the trie node they reach), and ends
    at the trie's leaves; the pairs come in the order of the full
    product.

    A run is one object repeated m > 1 times in a row whose atoms all
    have odd total degree.  Moving two such atoms past each other costs
    -(-1)^((|x|+|a|)(|y|+|b|)) = +1, so the summand is symmetric over the
    run and one multiset of its atoms (indices that never decrease along
    the run) stands for all of its m!/prod(mult!) orderings.  With no
    run, runs is None.
    """
    if len(set(map(id, args))) == len(args):
        positions, runs = [(atoms_of(a), None) for a in args], None
    else:
        # a position that continues a run carries its atoms' ranks
        positions, runs = [], []
        for _, group in itertools.groupby(args, id):
            group = list(group)
            atoms = atoms_of(group[0])
            if len(group) > 1 and all(map(is_odd, atoms)):
                rank = {id(atom): i for i, atom in enumerate(atoms)}
                runs.append((atoms, len(group)))
                positions += [(atoms, None)] + [(atoms, rank)] * (len(group) - 1)
            else:
                runs += [(atoms, 1)] * len(group)
                positions += [(atoms, None)] * len(group)
        if len(runs) == len(args):
            runs = None
    # (trie node, atoms so far); after the last position the node is the
    # leaf that the atoms' symbols spell, the bracket on them
    walk = [(algebra._support.get(len(args), {}), ())]
    for atoms, rank in positions:
        walk = [
            (node[atom[0]], combo + (atom,))
            for node, combo in walk
            for atom in (atoms if rank is None else atoms[rank[id(combo[-1])]:])
            if atom[0] in node
        ]
    return walk, runs


def _run_weight(runs: list, combo: tuple) -> int:
    """How many orderings an atom tuple of _atom_tuples stands for: the
    product over the runs of m!/prod(mult!), with the equal atoms of a
    multiset next to each other."""
    weight, start = 1, 0
    for _, m in runs:
        repeat = 1
        for p in range(start + 1, start + m):
            repeat = repeat + 1 if combo[p] is combo[p - 1] else 1
            weight = weight * (p - start + 1) // repeat
        start += m
    return weight


def jacobiator(algebra: LInftyAlgebra, syms: Sequence[str]) -> dict:
    """The n-Jacobi sum on basis symbols, as a plain coefficient dict:
    over all splittings into a bracketed head and remaining arguments,
    with alternating and Koszul signs.  Each bracket is a walk of the
    support trie, which holds the value on every ordering."""
    n = len(syms)
    odd = frozenset(p for p in range(n) if algebra.degrees[syms[p]] % 2)
    total: dict = {}
    for k in range(1, n + 1):
        for head in itertools.combinations(range(n), k):
            inner = algebra.bracket_on_basis(tuple(syms[p] for p in head))
            if inner.is_zero():
                continue
            tail = tuple(p for p in range(n) if p not in head)
            sign = (-1) ** k * kernel.sort_word(head + tail, odd)[1]
            tail_syms = tuple(syms[p] for p in tail)
            for mid, c in inner.coeffs.items():
                outer = algebra.bracket_on_basis((mid,) + tail_syms)
                if outer.coeffs:
                    kernel.add_into(total, outer.coeffs.items(), sign * c)
    return total


def jacobi_arity(algebra: LInftyAlgebra) -> int:
    """The largest arity whose n-Jacobi rule can fail: the rule pairs
    l_k with l_(n-k+1), so it is 2 * max_arity - 1."""
    return max(1, 2 * algebra.max_arity - 1)


def jacobi_candidates(algebra: LInftyAlgebra, n_max: int) -> set:
    """The canonical tuples of arity <= n_max whose Jacobi sum can be
    nonzero.  A term [[head], tail] of the sum needs the head to order a
    stored key K1 and (m,) + tail to order a stored key K2 for a symbol
    m of the value on K1, so the tuple orders K1 + (K2 - m)."""
    keys_with: dict = {}
    for key in algebra.brackets:
        for sym in set(key):
            keys_with.setdefault(sym, []).append(key)
    found = set()
    for head, value in algebra.brackets.items():
        for mid in value:
            for outer in keys_with.get(mid, ()):
                if len(head) + len(outer) - 1 <= n_max:
                    tail = list(outer)
                    tail.remove(mid)
                    key, sign = algebra._canonical_key(head + tuple(tail))
                    if sign:
                        found.add(key)
    return found


def jacobi_cases(algebra: LInftyAlgebra, n_max: int) -> int:
    """The number of canonical tuples of arity 1..n_max: the cases of
    check_jacobi(algebra, n_max), passing or failing.  In closed form,
    so that a huge n_max costs nothing.  Padding each sorted tuple of
    arity at most n_max, the empty one included, to n_max with one extra
    odd symbol makes them the tuples of exactly that arity: j distinct
    even symbols and a multiset of n_max - j of the odd + 1 odd ones."""
    odd = len(algebra._odd)
    even = algebra.dim - odd
    return sum(comb(even, j) * comb(odd + n_max - j, n_max - j)
               for j in range(min(n_max, even) + 1)) - 1


def check_jacobi(algebra: LInftyAlgebra, n_max: int | None = None) -> Report:
    """Evaluate every n-Jacobi rule, n <= n_max, on basis tuples.

    The Jacobi sum is multilinear and graded antisymmetric, so the
    canonical tuples span the general case: a tuple repeating an
    even-degree symbol has a residual that vanishes identically.  So
    does a canonical tuple off jacobi_candidates, term by term: it
    counts as a passing case without being evaluated or built.  One case
    per canonical tuple, jacobi_cases in all, whether the check passes
    or fails.  The candidates are evaluated by arity and then in storage
    order, and each with a nonzero residual is one failure, named by its
    tuple and residual.  The default n_max is jacobi_arity.
    """
    if n_max is None:
        n_max = jacobi_arity(algebra)
    candidates = jacobi_candidates(algebra, n_max)
    report = Report(f"Jacobi({algebra.name}) up to arity {n_max}",
                    cases=jacobi_cases(algebra, n_max) - len(candidates))
    index, zero = algebra.index, algebra.zero_vector()
    for syms in sorted(candidates,
                       key=lambda syms: (len(syms), [index[s] for s in syms])):
        # the label is built only on failure
        report.record(lambda syms=syms: f"tuple {syms}",
                      GVector(algebra, jacobiator(algebra, syms)), zero)
    return report


# -- curvature, Maurer-Cartan, twisting -------------------------------


def bracket_series(algebra: LInftyAlgebra, mu, args: Sequence, first: int):
    """sum_{l>=first} [mu^l, args]/l! for vectors or tensor elements.

    The sum is finite: [mu^l, args] vanishes once its arity exceeds
    max_arity and, with no args, once l reaches the nilpotency index
    ([mu^l] lies in the l-th term of the lower central series).  Each
    bracket takes its 1/l! as its scale, and the terms are added unscaled.
    """
    args = list(args)
    bound = algebra.max_arity - len(args)
    if not args:
        bound = min(bound, algebra.nilpotency_index() - 1)
    zero = (
        zero_tensor(algebra, mu.n)
        if isinstance(mu, TensorElement)
        else algebra.zero_vector()
    )
    return zero.combine(
        (1, bracket(algebra, [mu] * ell + args, Fraction(1, factorial(ell))))
        for ell in range(first, bound + 1)
    )


def curvature(algebra: LInftyAlgebra, alpha):
    """[alpha] + sum_{l>=2} [alpha^l]/l!, a finite sum for nilpotent
    algebras; the unary bracket is delta on vectors and d + delta on
    tensor elements."""
    if (
        not isinstance(alpha, (GVector, TensorElement))
        or alpha.algebra is not algebra
    ):
        raise ValueError("curvature argument must live in the given algebra")
    if not alpha.is_zero() and not alpha.is_homogeneous(1):
        raise ValueError("curvature needs an element of (total) degree 1")
    return bracket_series(algebra, alpha, [], 1)


def is_mc(algebra: LInftyAlgebra, alpha) -> bool:
    """Exact test of the Maurer-Cartan equation."""
    return curvature(algebra, alpha).is_zero()


def twist(algebra: LInftyAlgebra, mu: GVector) -> LInftyAlgebra:
    """The algebra with brackets [x_1,...,x_k]_mu = sum_l [mu^l, x...]/l!.

    mu must satisfy the Maurer-Cartan equation; the twisted presentation
    again satisfies the Jacobi rules.
    """
    if not is_mc(algebra, mu):
        raise ValueError("twisting element does not satisfy Maurer-Cartan")
    new_table: dict = {}
    for arity in range(1, algebra.max_arity + 1):
        for key in algebra.canonical_tuples(arity):
            value = twisted_bracket(
                algebra, mu, [algebra.basis_vector(s) for s in key]
            )
            if not value.is_zero():
                new_table[key] = dict(value.coeffs)
    return LInftyAlgebra(
        f"{algebra.name}@twist",
        [(s, algebra.degrees[s]) for s in algebra.symbols],
        new_table,
    )


def twisted_bracket(algebra: LInftyAlgebra, mu: GVector, args: Sequence):
    """Evaluate [args]_mu on vectors without materializing the twisted
    table."""
    return bracket_series(algebra, mu, args, 0)


def bianchi_residual(algebra: LInftyAlgebra, alpha: GVector) -> GVector:
    """delta F(alpha) + sum_{l>=1} [alpha^l, F(alpha)]/l!; identically
    zero by the Jacobi rules."""
    return twisted_bracket(algebra, alpha, [curvature(algebra, alpha)])


# -- strict morphisms --------------------------------------------------


class Morphism:
    """A strict morphism of presentations: a degree-0 linear map
    commuting with every bracket."""

    def __init__(
        self,
        source: LInftyAlgebra,
        target: LInftyAlgebra,
        images: Mapping[str, "GVector"],
    ):
        self.source = source
        self.target = target
        for sym in images:
            if sym not in source.index:
                raise ValueError(f"unknown symbol {quote(sym)} in images")
        self.images = {}
        for sym in source.symbols:
            img = images.get(sym)
            if img is None:
                img = target.zero_vector()
            if img.algebra is not target:
                raise ValueError(f"image of {sym} lives in the wrong algebra")
            if not img.is_zero() and not img.is_homogeneous(source.degrees[sym]):
                raise ValueError(f"image of {sym} is not degree preserving")
            self.images[sym] = img
        self._check_strict()

    def _check_strict(self):
        arity_bound = max(self.source.max_arity, self.target.max_arity)
        for arity in range(1, arity_bound + 1):
            for key in self.source.canonical_tuples(arity):
                lhs = self.apply(self.source.bracket_on_basis(key))
                rhs = bracket(self.target, [self.images[s] for s in key])
                if lhs != rhs:
                    raise ValueError(
                        f"map fails to commute with the bracket on {key}"
                    )

    def apply(self, value):
        if isinstance(value, GVector):
            if value.algebra is not self.source:
                raise ValueError("vector lives in the wrong algebra")
            return self.target.zero_vector().combine(
                (c, self.images[sym]) for sym, c in value.coeffs.items()
            )
        if isinstance(value, TensorElement):
            return _map_symbols(value, self.target, self.images)
        raise TypeError(f"cannot apply morphism to {type(value).__name__}")

    def is_surjective(self) -> bool:
        degrees = {self.target.degrees[s] for s in self.target.symbols}
        return all(self._image_space(d).dim == len(self.target.basis_of_degree(d))
                   for d in degrees)

    def _image_space(self, degree: int) -> Subspace:
        return Subspace(self.target.basis_of_degree(degree), [
            self.images[sym].coeffs
            for sym in self.source.symbols
            if self.source.degrees[sym] == degree
        ])

    def section(self, value: GVector) -> GVector:
        """Canonical preimage: degreewise reduced-echelon pseudo-inverse
        with pivots preferred in generator order."""
        if value.algebra is not self.target:
            raise ValueError("vector lives in the wrong algebra")
        coeffs: dict = {}
        for degree in value.degrees_present():
            component = value.component(degree)
            sources = [
                s for s in self.source.symbols
                if self.source.degrees[s] == degree
            ]
            solution = solve_linear(
                [self.images[s].coeffs for s in sources], component.coeffs
            )
            if solution is None:
                raise ValueError("value is not in the image of the morphism")
            # the degrees have disjoint supports, so nothing cancels
            coeffs.update((sources[j], x) for j, x in solution.items())
        return GVector(self.source, coeffs)


def quotient(algebra: LInftyAlgebra, level: int) -> Morphism:
    """The surjection g -> g/F^level onto the quotient by a term of the
    lower central filtration, an ideal closed under the unary bracket.

    The quotient, named g/F<level>, keeps the symbols off the pivots of
    F^level; its brackets are the stored values reduced modulo F^level,
    and each symbol maps to its reduction.  Level 1 gives the zero
    algebra, the nilpotency index an isomorphic copy.
    """
    algebra.nilpotency_index()  # raises on an algebra that is not nilpotent
    spaces = algebra.lower_central().subspaces
    if not 1 <= level <= len(spaces):
        raise ValueError(f"level {level} is outside 1..{len(spaces)}")
    space = spaces[level - 1]
    killed = set(space.pivots)
    target = LInftyAlgebra(
        f"{algebra.name}/F{level}",
        [(s, algebra.degrees[s]) for s in algebra.symbols if s not in killed],
        {key: space.reduce(value) for key, value in algebra.brackets.items()
         if killed.isdisjoint(key)},
    )
    return Morphism(algebra, target, {
        s: GVector(target, space.reduce({s: _ONE})) for s in algebra.symbols
    })


# -- tensor elements over simplicial forms -----------------------------


class TensorElement(kernel.Linear):
    """An element of (algebra) tensor (forms on the n-simplex): a finite
    map from basis symbols to Forms.

    The constructor checks that each symbol is the algebra's and each
    component a Form on the n-simplex, and drops the zero components.
    The package's own results (from_terms, scale, apply_even, apply_odd)
    take the trusted path, _validated=True: their dict, whose components
    are nonzero Forms on the n-simplex by construction, is kept as it is.
    """

    __slots__ = ("algebra", "n")
    comps = kernel.Linear.entries

    def __init__(self, algebra: LInftyAlgebra, n: int,
                 comps: Mapping[str, Form], _validated: bool = False):
        self.algebra = algebra
        self.n = n
        self.space = (algebra, n)
        if not _validated:
            for sym, form in comps.items():
                if sym not in algebra.index:
                    raise ValueError(f"unknown symbol {quote(sym)}")
                if not isinstance(form, Form):
                    raise TypeError(
                        f"component {form!r} of {quote(sym)} is not a Form")
                if form.n != n:
                    raise ValueError(
                        "component form has the wrong simplex dimension")
            comps = {sym: form for sym, form in comps.items() if form}
        self.comps = comps

    @classmethod
    def from_terms(cls, algebra: LInftyAlgebra, n: int, acc: Mapping[str, dict]):
        """Build from a {symbol: term dict} accumulator, one Form each,
        by the trusted path; a term dict that cancelled to {} is left
        out."""
        return cls(algebra, n, {s: Form(n, t, _validated=True)
                                for s, t in acc.items() if t}, _validated=True)

    # -- the vector-space hooks of kernel.Linear ----------------------

    def scale(self, c) -> "TensorElement":
        c = kernel.as_fraction(c)
        comps = {s: f.scale(c) for s, f in self.comps.items()} if c else {}
        return TensorElement(self.algebra, self.n, comps, _validated=True)

    def combine(self, pairs) -> "TensorElement":
        """self + sum of c * x over the (c, x) pairs."""
        acc = {sym: dict(form.terms) for sym, form in self.comps.items()}
        for c, x in pairs:
            self._check(x)
            for sym, form in x.comps.items():
                kernel.add_into(acc.setdefault(sym, {}), form.terms.items(), c)
        return TensorElement.from_terms(self.algebra, self.n, acc)

    # -- grading -------------------------------------------------------

    def atoms(self):
        """Split into (symbol, exterior degree k, the form's degree-k
        part) pieces, by symbol and then by increasing k: one pass over
        each form's terms, and a form of one exterior degree is its own
        piece."""
        out = []
        n = self.n
        for sym, form in self.comps.items():
            parts: dict = {}
            for key, c in form.terms.items():
                part = parts.get(len(key[1]))
                if part is None:
                    part = parts[len(key[1])] = {}
                part[key] = c
            if len(parts) == 1:
                (k,) = parts
                out.append((sym, k, form))
                continue
            for k in sorted(parts):
                out.append((sym, k, Form(n, parts[k], _validated=True)))
        return out

    def is_homogeneous(self, total_degree: int) -> bool:
        return all(
            self.algebra.degrees[sym] + k == total_degree
            for sym, k, _ in self.atoms()
        )

    # -- formwise operators ---------------------------------------------

    def apply_even(self, op) -> "TensorElement":
        """Apply an even operator on the forms of the n-simplex
        componentwise."""
        out = {}
        for sym, form in self.comps.items():
            image = op(form)
            if image.terms:
                out[sym] = image
        return TensorElement(self.algebra, self.n, out, _validated=True)

    def apply_odd(self, op) -> "TensorElement":
        """Apply an odd operator on the forms of the n-simplex, with the
        sign (-1)^|x| on the component of a degree-|x| symbol."""
        out = {}
        degrees = self.algebra.degrees
        for sym, form in self.comps.items():
            image = op(form)
            if image.terms:
                out[sym] = -image if degrees[sym] % 2 else image
        return TensorElement(self.algebra, self.n, out, _validated=True)

    def d(self) -> "TensorElement":
        return self.apply_odd(exterior_d)

    def h(self, i: int) -> "TensorElement":
        return self.apply_odd(lambda f: dupont.poincare_h(i, self.n, f))

    def s(self) -> "TensorElement":
        return self.apply_odd(lambda f: dupont.dupont_s(self.n, f))

    def whitney(self) -> "TensorElement":
        return self.apply_even(lambda f: dupont.whitney_P(self.n, f))

    def delta(self) -> "TensorElement":
        """The unary bracket on the algebra factor, read from the support
        trie's arity-1 entry: the symbols that have one, with its value."""
        return _map_symbols(self, self.algebra, self.algebra._support[1])

    def d_plus_delta(self) -> "TensorElement":
        """d + delta, built in one accumulator: (-1)^|x| x (x) da plus
        [x] (x) a for each component x (x) a."""
        acc: dict = {}
        degrees, unary = self.algebra.degrees, self.algebra._support[1]
        for sym, form in self.comps.items():
            d_terms = exterior_d(form).terms
            if d_terms:
                kernel.add_into(acc.setdefault(sym, {}), d_terms.items(),
                                -1 if degrees[sym] % 2 else 1)
            value = unary.get(sym)
            if value is not None:
                for tsym, c in value.coeffs.items():
                    kernel.add_into(acc.setdefault(tsym, {}),
                                    form.terms.items(), c)
        return TensorElement.from_terms(self.algebra, self.n, acc)

    def evaluate_vertex(self, i: int) -> GVector:
        return GVector(
            self.algebra,
            {
                sym: evaluate_vertex(i, form)
                for sym, form in self.comps.items()
            },
        )

    def pullback(self, f: SimplicialMap) -> "TensorElement":
        if f.target != self.n:
            raise ValueError("simplicial map does not target this simplex")
        return TensorElement(
            self.algebra,
            f.source,
            {s: pullback(f, form) for s, form in self.comps.items()},
        )

    def integrate_chain(self, seq: Sequence[int]) -> GVector:
        return GVector(
            self.algebra,
            {
                sym: dupont.integrate_chain(seq, form)
                for sym, form in self.comps.items()
            },
        )

    def render(self) -> str:
        if not self.comps:
            return "0"
        pieces = []
        for sym in self.algebra.symbols:
            form = self.comps.get(sym)
            if form is not None:
                pieces.append(f"{sym} (x) [{form.render()}]")
        return " + ".join(pieces)

    def __repr__(self):
        return (
            f"TensorElement({self.algebra.name!r}, n={self.n}, "
            f"{self.render()!r})"
        )


def _map_symbols(
    x: TensorElement, target: LInftyAlgebra, images: Mapping[str, GVector]
) -> TensorElement:
    """Apply the linear map sym -> images[sym], a vector of target (zero
    off the mapping), to the algebra factor of x."""
    acc: dict = {}
    for sym, form in x.comps.items():
        if sym in images:
            for tsym, c in images[sym].coeffs.items():
                kernel.add_into(acc.setdefault(tsym, {}), form.terms.items(),
                                c)
    return TensorElement.from_terms(target, x.n, acc)


def zero_tensor(algebra: LInftyAlgebra, n: int) -> TensorElement:
    return TensorElement(algebra, n, {})


def tensor_product(vector: GVector, form: Form) -> TensorElement:
    """vector tensor form."""
    return TensorElement(
        vector.algebra,
        form.n,
        {s: form.scale(c) for s, c in vector.coeffs.items()},
    )


def constant_tensor(n: int, vector: GVector) -> TensorElement:
    """vector tensor 1, the inclusion of constants."""
    return tensor_product(vector, Form.one(n))


def tensor_bracket(algebra: LInftyAlgebra, args: Sequence[TensorElement],
                   scale=1):
    """Brackets on the tensor algebra, times scale.

    Unary: [x (x) a] = [x] (x) a + (-1)^|x| x (x) da.  Higher arity:
    the algebra bracket on symbols times the wedge of forms, with the
    Koszul sign (-1)^(sum_{i<j} |a_i| |x_j|) of commuting each form
    past the later elements.  This is the unique sign compatible with
    the unary convention: the total differential is then a graded
    derivation of the bracket (an exact test in the suite).  Only the
    atom tuples whose symbols order a stored key are formed
    (_atom_tuples), and a run of one total-degree-odd element repeated,
    as in [alpha^l], is summed over multisets of its atoms.  The scale,
    such as a series factor 1/l! or 1/prod(m_j!), defaults to 1; it is
    folded with the Koszul sign, the run weight and each coefficient of
    the bracket value into the one kernel.add_into per target symbol.
    """
    for a in args:
        if not isinstance(a, TensorElement) or a.algebra is not algebra:
            raise ValueError("tensor bracket arguments must match the algebra")
        if a.n != args[0].n:
            raise ValueError("tensor elements on different simplices")
    n = args[0].n
    if len(args) == 1:
        unary = args[0].d_plus_delta()
        return unary if scale == 1 else unary.scale(scale)
    if not all(a.comps for a in args):
        return zero_tensor(algebra, n)
    scale = kernel.as_fraction(scale)
    degrees = algebra.degrees
    walk, runs = _atom_tuples(
        algebra, args, TensorElement.atoms,
        lambda atom: (degrees[atom[0]] + atom[1]) % 2,
    )
    total: dict = {}
    for value, combo in walk:
        sign = 1
        for i in range(len(combo)):
            for j in range(i + 1, len(combo)):
                if (combo[i][1] * degrees[combo[j][0]]) % 2:
                    sign = -sign
        form = combo[0][2]
        for _, _, piece in combo[1:]:
            form = wedge(form, piece)
            if form.is_zero():
                break
        if form.is_zero():
            continue
        if runs:
            sign *= _run_weight(runs, combo)
        factor = kernel.frac_mul_int(scale, sign)
        for tsym, c in value.coeffs.items():
            kernel.add_into(total.setdefault(tsym, {}), form.terms.items(),
                            kernel.frac_mul(factor, c))
    return TensorElement.from_terms(algebra, n, total)


def tensor_curvature(alpha: TensorElement) -> TensorElement:
    """Curvature of a tensor element under the differential d + delta."""
    return curvature(alpha.algebra, alpha)
