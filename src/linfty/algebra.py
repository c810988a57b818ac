"""Finitely presented L-infinity algebras over the rationals.

A presentation is a finite graded basis together with tables for the
multilinear brackets [x_1,...,x_k], each graded antisymmetric of degree
2-k.  Brackets are stored only on canonically sorted basis tuples; any
other evaluation order is reduced to the stored one by the Koszul sign
convention.  On top of the presentations live vectors, derived
structure (Jacobi verification, the lower central filtration and
nilpotency, curvature and the Maurer-Cartan condition, twisting by a
Maurer-Cartan element), strict morphisms, and the tensor algebra with
polynomial forms on a simplex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


def koszul_sign(permutation: Sequence[int], degrees: Sequence[int]) -> int:
    """Koszul sign of a permutation acting on graded symbols.

    permutation[p] is the original position of the element landing in
    slot p; each inversion of a pair of degrees (d, e) contributes
    (-1)^(d*e).  Composes multiplicatively.
    """
    if len(permutation) != len(degrees):
        raise ValueError("permutation and degree list have different lengths")
    sign = 1
    for p in range(len(permutation)):
        for q in range(p + 1, len(permutation)):
            if permutation[p] > permutation[q]:
                if (degrees[permutation[p]] * degrees[permutation[q]]) % 2:
                    sign = -sign
    return sign


def permutation_parity(permutation: Sequence[int]) -> int:
    sign = 1
    for p in range(len(permutation)):
        for q in range(p + 1, len(permutation)):
            if permutation[p] > permutation[q]:
                sign = -sign
    return sign


def antisymmetric_sign(permutation: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign for rearranging arguments of a graded antisymmetric bracket:
    permutation parity times the Koszul sign."""
    return permutation_parity(permutation) * koszul_sign(permutation, degrees)


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

        table: dict = {}
        arities = [1]
        for args, value in (brackets or {}).items():
            args = tuple(args)
            for sym in args:
                if sym not in self.index:
                    raise ValueError(f"unknown symbol {sym!r} in bracket key")
            key, sign = self._canonical_key(args)
            if sign == 0:
                raise ValueError(
                    f"bracket on {args} vanishes identically "
                    "(repeated even-degree argument)"
                )
            for sym in value:
                if sym not in self.index:
                    raise ValueError(f"unknown symbol {sym!r} in bracket value")
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
        self._filtration = None
        self._basis_bracket_cache: dict = {}

    # -- basic structure ----------------------------------------------

    def degree(self, sym: str) -> int:
        return self.degrees[sym]

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
        order = [self.index[s] for s in args]
        degs = [self.degrees[s] for s in args]
        items = list(zip(order, degs))
        sign = 1
        for i in range(1, len(items)):
            j = i
            while j > 0 and items[j - 1][0] > items[j][0]:
                # a transposition costs -(-1)^(|a||b|): none for two odd symbols
                if not (items[j - 1][1] * items[j][1]) % 2:
                    sign = -sign
                items[j - 1], items[j] = items[j], items[j - 1]
                j -= 1
        for i in range(1, len(items)):
            if items[i - 1][0] == items[i][0] and items[i][1] % 2 == 0:
                return (), 0
        key = tuple(self.symbols[idx] for idx, _ in items)
        return key, sign

    def bracket_on_basis(self, args: Sequence[str]) -> "GVector":
        """Bracket of basis symbols, via the stored canonical table."""
        args = tuple(args)
        cached = self._basis_bracket_cache.get(args)
        if cached is not None:
            return cached
        if len(args) > self.max_arity:
            result = self.zero_vector()
        else:
            key, sign = self._canonical_key(args)
            value = self.brackets.get(key) if sign else None
            if not value:
                result = self.zero_vector()
            elif sign == 1:
                result = GVector(self, dict(value))
            else:
                result = GVector(self, {s: -c for s, c in value.items()})
        self._basis_bracket_cache[args] = result
        return result

    # -- the lower central filtration ----------------------------------

    def lower_central(self, cap: int = 64) -> "FiltrationReport":
        """Iterated-bracket filtration and the nilpotency index.

        Successive terms are spans of brackets of at least two earlier
        terms whose weights sum to the current level (brackets of arity
        above the level push the sum up, which keeps the chain
        decreasing).  Nilpotent iff the chain reaches zero.
        """
        if self._filtration is not None and self._filtration.cap >= cap:
            return self._filtration
        full = Subspace(
            self.dim,
            [[_ONE if i == j else _ZERO for j in range(self.dim)] for i in range(self.dim)],
        )
        spaces = [full]
        # the rows of each level as vectors, built once per level
        row_vectors = [[self.basis_vector(s) for s in self.symbols]]
        index = None
        for level in range(2, cap + 2):
            vectors = []
            for arity in range(2, self.max_arity + 1):
                weight = max(level, arity)
                for comp in _compositions(weight, arity):
                    if any(c >= level for c in comp):
                        continue
                    factor_bases = [row_vectors[c - 1] for c in comp]
                    if any(not rows for rows in factor_bases):
                        continue
                    for args in itertools.product(*factor_bases):
                        val = bracket(self, args)
                        if not val.is_zero():
                            vectors.append(val.to_list())
            space = Subspace(self.dim, vectors)
            spaces.append(space)
            row_vectors.append([
                GVector(self, dict(zip(self.symbols, row))) for row in space.rows
            ])
            if space.is_zero():
                index = level
                break
        report = FiltrationReport(
            algebra=self,
            subspaces=spaces,
            nilpotency_index=index,
            cap=cap,
        )
        self._filtration = report
        return report

    def is_nilpotent(self, cap: int = 64) -> bool:
        return self.lower_central(cap).nilpotency_index is not None

    def nilpotency_index(self, cap: int = 64) -> int:
        report = self._filtration
        if report is None or report.cap < cap:
            report = self.lower_central(cap)
        if report.nilpotency_index is None:
            raise ValueError(f"algebra {self.name!r} is not nilpotent (cap {cap})")
        return report.nilpotency_index

    def require_nilpotent(self):
        self.nilpotency_index()

    def __repr__(self):
        return (
            f"LInftyAlgebra({self.name!r}, dim={self.dim}, "
            f"max_arity={self.max_arity})"
        )


def _compositions(total: int, parts: int):
    """Ordered compositions of total into the given number of positive parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass
class FiltrationReport:
    """Lower central filtration: subspaces, nilpotency index (least
    level whose subspace vanishes) or None when the cap was hit."""

    algebra: "LInftyAlgebra"
    subspaces: list
    nilpotency_index: int | None
    cap: int

    @property
    def diverged(self) -> bool:
        return self.nilpotency_index is None

    def dims(self) -> list[int]:
        return [s.dim for s in self.subspaces]


class GVector:
    """An element of an algebra: a finite basis-coefficient map."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: LInftyAlgebra, coeffs: Mapping[str, Fraction]):
        self.algebra = algebra
        self.coeffs = kernel.drop_zeros(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def to_list(self):
        return [
            self.coeffs.get(s, _ZERO) for s in self.algebra.symbols
        ]

    def __add__(self, other: "GVector") -> "GVector":
        return linear_combination(self, [(1, other)])

    def __sub__(self, other: "GVector") -> "GVector":
        return linear_combination(self, [(-1, other)])

    def __neg__(self) -> "GVector":
        return GVector(self.algebra, kernel.scale_terms(self.coeffs, -1))

    def scale(self, c) -> "GVector":
        return GVector(self.algebra, kernel.scale_terms(self.coeffs, Fraction(c)))

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, GVector)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.coeffs.items())))

    def _check(self, other):
        if not isinstance(other, GVector) or other.algebra is not self.algebra:
            raise ValueError("vectors over different algebras")

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for s in self.algebra.symbols:
            c = self.coeffs.get(s)
            if not c:
                continue
            mag = -c if c < 0 else c
            body = s if mag == 1 else f"{mag}*{s}"
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"GVector({self.algebra.name!r}, {self.render()!r})"


# -- brackets on vectors ----------------------------------------------


def bracket(algebra: LInftyAlgebra, args: Sequence):
    """Multilinear bracket of vectors or tensor elements.

    Arity above the presentation bound gives zero; mixing algebras or
    simplex dimensions is an error.
    """
    if not args:
        raise ValueError("bracket needs at least one argument")
    if isinstance(args[0], TensorElement):
        return tensor_bracket(algebra, args)
    for a in args:
        if not isinstance(a, GVector) or a.algebra is not algebra:
            raise ValueError("bracket arguments must live in the given algebra")
    if len(args) > algebra.max_arity:
        return algebra.zero_vector()
    total: dict = {}
    for combo in itertools.product(*(list(a.coeffs.items()) for a in args)):
        value = algebra.bracket_on_basis([s for s, _ in combo])
        if value.coeffs:
            coeff = _ONE
            for _, c in combo:
                coeff *= c
            kernel.add_into(total, value.coeffs, coeff)
    return GVector(algebra, total)


@dataclass
class JacobiReport:
    algebra_name: str
    max_arity_checked: int
    cases: int
    failure: tuple | None  # (symbols, residual rendering)

    @property
    def passed(self) -> bool:
        return self.failure is None

    def summary(self) -> str:
        if self.passed:
            return (
                f"pass  Jacobi({self.algebra_name}) up to arity "
                f"{self.max_arity_checked}: {self.cases} tuples"
            )
        syms, residual = self.failure
        return (
            f"FAIL  Jacobi({self.algebra_name}): tuple {syms} has "
            f"residual {residual}"
        )


def jacobiator(algebra: LInftyAlgebra, syms: Sequence[str]) -> dict:
    """The n-Jacobi sum on basis symbols, as a plain coefficient dict:
    over all splittings into a bracketed head and remaining arguments,
    with alternating and Koszul signs.  Works through the cached table
    to keep exhaustive sweeps cheap."""
    n = len(syms)
    degs = [algebra.degrees[s] for s in syms]
    total: dict = {}
    for k in range(1, n + 1):
        for head in itertools.combinations(range(n), k):
            tail = tuple(p for p in range(n) if p not in head)
            perm = head + tail
            sign = (-1) ** k * antisymmetric_sign(perm, degs)
            inner = algebra.bracket_on_basis(tuple(syms[p] for p in head))
            if inner.is_zero():
                continue
            tail_syms = tuple(syms[p] for p in tail)
            for mid, c in inner.coeffs.items():
                outer = algebra.bracket_on_basis((mid,) + tail_syms)
                if outer.coeffs:
                    kernel.add_into(total, outer.coeffs, sign * c)
    return total


def check_jacobi(algebra: LInftyAlgebra, n_max: int | None = None) -> JacobiReport:
    """Evaluate every n-Jacobi rule, n <= n_max, on basis tuples.

    The Jacobi sum is multilinear and graded antisymmetric, so sorted
    tuples (with repetition) span the general case; tuples repeating an
    even-degree symbol are skipped because antisymmetry forces their
    residual to vanish identically.  Failure is data: the first
    offending tuple and its residual.
    """
    if n_max is None:
        n_max = algebra.max_arity + 2
    cases = 0
    even = {s for s in algebra.symbols if algebra.degrees[s] % 2 == 0}
    for n in range(1, n_max + 1):
        for syms in itertools.combinations_with_replacement(algebra.symbols, n):
            if any(
                syms[p] == syms[p + 1] and syms[p] in even
                for p in range(n - 1)
            ):
                continue
            cases += 1
            residual = jacobiator(algebra, syms)
            if residual:
                rendering = GVector(algebra, residual).render()
                return JacobiReport(algebra.name, n_max, cases, (syms, rendering))
    return JacobiReport(algebra.name, n_max, cases, None)


# -- curvature, Maurer-Cartan, twisting -------------------------------


def bracket_series(algebra: LInftyAlgebra, mu, args: Sequence, first: int):
    """sum_{l>=first} [mu^l, args]/l! for vectors or tensor elements.

    The sum is finite: [mu^l, args] vanishes once its arity exceeds
    max_arity and, with no args, once l reaches the nilpotency index
    ([mu^l] lies in the l-th term of the lower central series).
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
    return linear_combination(
        zero,
        (
            (Fraction(1, factorial(ell)), bracket(algebra, [mu] * ell + args))
            for ell in range(first, bound + 1)
        ),
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
        for key in itertools.combinations_with_replacement(algebra.symbols, arity):
            canon, sign = algebra._canonical_key(key)
            if sign == 0 or canon != key:
                continue
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


def twisted_bracket(algebra: LInftyAlgebra, mu, args: Sequence):
    """Evaluate [args]_mu without materializing the twisted table."""
    if isinstance(mu, GVector) and args and isinstance(args[0], TensorElement):
        mu = constant_tensor(args[0].n, mu)
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
        check: bool = True,
    ):
        self.source = source
        self.target = target
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
        if check:
            self._check_strict()

    def _check_strict(self):
        arity_bound = max(self.source.max_arity, self.target.max_arity)
        for arity in range(1, arity_bound + 1):
            for key in itertools.combinations_with_replacement(
                self.source.symbols, arity
            ):
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
            return linear_combination(
                self.target.zero_vector(),
                ((c, self.images[sym]) for sym, c in value.coeffs.items()),
            )
        if isinstance(value, TensorElement):
            return _map_symbols(value, self.target, self.images.__getitem__)
        raise TypeError(f"cannot apply morphism to {type(value).__name__}")

    def is_surjective(self) -> bool:
        degrees = {self.target.degrees[s] for s in self.target.symbols}
        return all(self._image_space(d).dim == len(self.target.basis_of_degree(d))
                   for d in degrees)

    def _image_space(self, degree: int) -> Subspace:
        targets = self.target.basis_of_degree(degree)
        cols = []
        for sym in self.source.symbols:
            if self.source.degrees[sym] != degree:
                continue
            img = self.images[sym]
            cols.append([img.coeffs.get(t, _ZERO) for t in targets])
        return Subspace(len(targets), cols)

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
            targets = self.target.basis_of_degree(degree)
            columns = [
                [self.images[s].coeffs.get(t, _ZERO) for t in targets]
                for s in sources
            ]
            rhs = [component.coeffs.get(t, _ZERO) for t in targets]
            solution = solve_linear(columns, rhs)
            if solution is None:
                raise ValueError("value is not in the image of the morphism")
            # the degrees have disjoint supports, so nothing cancels
            coeffs.update(zip(sources, solution))
        return GVector(self.source, coeffs)


# -- tensor elements over simplicial forms -----------------------------


class TensorElement:
    """An element of (algebra) tensor (forms on the n-simplex): a finite
    map from basis symbols to Forms."""

    __slots__ = ("algebra", "n", "comps")

    def __init__(self, algebra: LInftyAlgebra, n: int, comps: Mapping[str, Form]):
        self.algebra = algebra
        self.n = n
        for sym, form in comps.items():
            if sym not in algebra.index:
                raise ValueError(f"unknown symbol {sym!r}")
            if form.n != n:
                raise ValueError("component form has the wrong simplex dimension")
        self.comps = kernel.drop_zeros(comps)

    @classmethod
    def from_terms(cls, algebra: LInftyAlgebra, n: int, acc: Mapping[str, dict]):
        """Build from a {symbol: term dict} accumulator, one Form each."""
        return cls(
            algebra, n, {s: Form(n, t, _validated=True) for s, t in acc.items()}
        )

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return linear_combination(self, [(1, other)])

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return linear_combination(self, [(-1, other)])

    def __neg__(self) -> "TensorElement":
        return self.scale(-1)

    def scale(self, c) -> "TensorElement":
        c = Fraction(c)
        return TensorElement(
            self.algebra, self.n, {s: f.scale(c) for s, f in self.comps.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.algebra is other.algebra
            and self.n == other.n
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash(
            (id(self.algebra), self.n, frozenset(self.comps.items()))
        )

    def _check(self, other):
        if (
            not isinstance(other, TensorElement)
            or other.algebra is not self.algebra
            or other.n != self.n
        ):
            raise ValueError("tensor elements over different algebras or simplices")

    # -- grading -------------------------------------------------------

    def atoms(self):
        """Split into (symbol, exterior-homogeneous form) pieces."""
        out = []
        for sym, form in self.comps.items():
            for k in form.exterior_degrees():
                out.append((sym, k, form.component(k)))
        return out

    def component(self, total_degree: int) -> "TensorElement":
        degrees = self.algebra.degrees
        return TensorElement(
            self.algebra,
            self.n,
            {
                sym: form.component(total_degree - degrees[sym])
                for sym, form in self.comps.items()
            },
        )

    def is_homogeneous(self, total_degree: int) -> bool:
        return all(
            self.algebra.degrees[sym] + k == total_degree
            for sym, k, _ in self.atoms()
        )

    # -- formwise operators ---------------------------------------------

    def apply_even(self, op) -> "TensorElement":
        """Apply an even operator on forms componentwise."""
        return TensorElement(
            self.algebra, self.n, {s: op(f) for s, f in self.comps.items()}
        )

    def apply_odd(self, op) -> "TensorElement":
        """Apply an odd operator on forms, with the sign (-1)^|x| on the
        component of a degree-|x| symbol."""
        out = {}
        for sym, form in self.comps.items():
            image = op(form)
            if self.algebra.degrees[sym] % 2:
                image = -image
            out[sym] = image
        return TensorElement(self.algebra, self.n, out)

    def d(self) -> "TensorElement":
        return self.apply_odd(exterior_d)

    def h(self, i: int) -> "TensorElement":
        return self.apply_odd(lambda f: dupont.poincare_h(i, self.n, f))

    def s(self) -> "TensorElement":
        return self.apply_odd(lambda f: dupont.dupont_s(self.n, f))

    def whitney(self) -> "TensorElement":
        return self.apply_even(lambda f: dupont.whitney_P(self.n, f))

    def delta(self) -> "TensorElement":
        return _map_symbols(
            self, self.algebra, lambda sym: self.algebra.bracket_on_basis((sym,))
        )

    def d_plus_delta(self) -> "TensorElement":
        return self.d() + self.delta()

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

    def __str__(self):
        return self.render()

    def __repr__(self):
        return (
            f"TensorElement({self.algebra.name!r}, n={self.n}, "
            f"{self.render()!r})"
        )


def linear_combination(start, pairs):
    """start + sum of c * x over the (c, x) pairs, for vectors and tensor
    elements alike; one accumulator, so no partial sum is copied."""
    if isinstance(start, TensorElement):
        acc = {sym: dict(form.terms) for sym, form in start.comps.items()}
        for c, x in pairs:
            start._check(x)
            for sym, form in x.comps.items():
                kernel.add_into(acc.setdefault(sym, {}), form.terms, c)
        return TensorElement.from_terms(start.algebra, start.n, acc)
    acc = dict(start.coeffs)
    for c, x in pairs:
        start._check(x)
        kernel.add_into(acc, x.coeffs, c)
    return GVector(start.algebra, acc)


def _map_symbols(x: TensorElement, target: LInftyAlgebra, image) -> TensorElement:
    """Apply the linear map sym -> image(sym), a vector of target, to the
    algebra factor of x."""
    acc: dict = {}
    for sym, form in x.comps.items():
        for tsym, c in image(sym).coeffs.items():
            kernel.add_into(acc.setdefault(tsym, {}), form.terms, c)
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


def tensor_bracket(algebra: LInftyAlgebra, args: Sequence[TensorElement]):
    """Brackets on the tensor algebra.

    Unary: [x (x) a] = [x] (x) a + (-1)^|x| x (x) da.  Higher arity:
    the algebra bracket on symbols times the wedge of forms, with the
    Koszul sign (-1)^(sum_{i<j} |a_i| |x_j|) of commuting each form
    past the later elements.  This is the unique sign compatible with
    the unary convention: the total differential is then a graded
    derivation of the bracket (an exact test in the suite).
    """
    for a in args:
        if not isinstance(a, TensorElement) or a.algebra is not algebra:
            raise ValueError("tensor bracket arguments must match the algebra")
        if a.n != args[0].n:
            raise ValueError("tensor elements on different simplices")
    n = args[0].n
    if len(args) == 1:
        return args[0].delta() + args[0].d()
    if len(args) > algebra.max_arity:
        return zero_tensor(algebra, n)
    total: dict = {}
    atom_lists = [a.atoms() for a in args]
    for combo in itertools.product(*atom_lists):
        syms = [sym for sym, _, _ in combo]
        value = algebra.bracket_on_basis(syms)
        if value.is_zero():
            continue
        sign = 1
        for i in range(len(combo)):
            for j in range(i + 1, len(combo)):
                if (combo[i][1] * algebra.degrees[combo[j][0]]) % 2:
                    sign = -sign
        form = combo[0][2]
        for _, _, piece in combo[1:]:
            form = wedge(form, piece)
            if form.is_zero():
                break
        if form.is_zero():
            continue
        for tsym, c in value.coeffs.items():
            kernel.add_into(
                total.setdefault(tsym, {}), form.terms, c if sign > 0 else -c
            )
    return TensorElement.from_terms(algebra, n, total)


def tensor_curvature(alpha: TensorElement) -> TensorElement:
    """Curvature of a tensor element under the differential d + delta."""
    return curvature(alpha.algebra, alpha)
