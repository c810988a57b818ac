"""Group-like structure extracted from gauge-fixed simplices.

The rooted-tree exponential and the closed formula for the gauge flow
on edges, the generalized Campbell-Hausdorff series read off solved
simplices, composition through thin 2-fillers and its associativity,
the gauge action on Maurer-Cartan elements, nerves of finite groupoids,
and an exact nilpotent-matrix oracle certifying the monodromy identity
exp(x1) = exp(rho2(x1, x2, x12)) exp(x2).

Orientation convention, fixed once and validated by the matrix oracle
rather than assumed: the edge carrying the group element exp(x) is the
1-simplex with chain integral I_01 = -x (the driving datum enters the
solver witness as -x), and the k-index slot of the boundary data is
scaled by 1/k!.  With this convention the monodromy identity holds on
the nose and composition reads compose(x, y) = log(exp(x) exp(y)).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

from linfty import dupont, kernel
from linfty.algebra import (
    GVector,
    LInftyAlgebra,
    bracket,
    constant_tensor,
    is_mc,
    tensor_product,
    twisted_bracket,
    zero_tensor,
)
from linfty.forms import Form
from linfty.mc_gamma import (
    GaugeParameter,
    Horn,
    SimplexElement,
    fill_horn_gamma,
    incompatible_faces,
    solve_gauge_fixed,
)
from linfty.report import Record, Report

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- rooted trees -------------------------------------------------------

# a rooted tree is the sorted tuple of its child subtrees; the leaf is ()


def canonical_tree(children) -> tuple:
    return tuple(sorted(children))


def _grown(tree, width):
    """The tree with one more leaf, once for each vertex it can hang
    from: each vertex with fewer than width children (any vertex when
    width is None)."""
    if width is None or len(tree) < width:
        yield canonical_tree(tree + ((),))
    for i, child in enumerate(tree):
        for bigger in _grown(child, width):
            yield canonical_tree(tree[:i] + (bigger,) + tree[i + 1:])


@lru_cache(maxsize=None)
def enumerate_trees(k: int, width: int | None = None) -> tuple:
    """The rooted trees with k vertices and at most width children at
    each vertex (any number when width is None), sorted, each with its
    monotone-order coefficient: the number of ways to grow it from the
    root one leaf at a time, i.e. of its increasing vertex labelings.

    Removing a leaf never adds a child to a vertex, so every tree of
    width at most w grows only through trees of width at most w, and
    its coefficient is the same with or without the bound."""
    if k < 1:
        raise ValueError("trees need at least one vertex")
    if k == 1:
        return (((), 1),)
    counts = Counter()
    for tree, coefficient in enumerate_trees(k - 1, width):
        for bigger in _grown(tree, width):
            counts[bigger] += coefficient
    return tuple(sorted(counts.items()))


# -- the rooted-tree exponential ---------------------------------------


def gauge_flow_terms(algebra: LInftyAlgebra, mu: GVector, x: GVector):
    """The tree exponentials [epsilon^1, epsilon^2, ...] below the
    nilpotency index: the coefficients of the gauge flow generated by x
    at mu.

    Each tree contributes the nested twisted bracket obtained by reading
    a vertex with children a_1..a_i as [x, a_1, ..., a_i] twisted by mu,
    weighted by its monotone-order coefficient.  That bracket has arity
    i + 1 and vanishes above max_arity, so only the trees with at most
    max_arity - 1 children at each vertex are grown.  A subtree's
    bracket is evaluated once and shared by every k.
    """
    if not is_mc(algebra, mu):
        raise ValueError("base point does not satisfy Maurer-Cartan")
    width = algebra.max_arity - 1
    values: dict = {}

    def evaluate(tree) -> GVector:
        value = values.get(tree)
        if value is None:
            value = twisted_bracket(
                algebra, mu, [x] + [evaluate(c) for c in tree])
            values[tree] = value
        return value

    return [
        algebra.zero_vector().combine(
            (coefficient, evaluate(tree))
            for tree, coefficient in enumerate_trees(k, width))
        for k in range(1, algebra.nilpotency_index())
    ]


def tree_exponential(algebra: LInftyAlgebra, mu: GVector, x: GVector,
                     k: int) -> GVector:
    """The k-th coefficient of the gauge flow generated by x at mu, the
    k-th entry of gauge_flow_terms; zero once k reaches the nilpotency
    index."""
    if k < 1:
        raise ValueError("trees need at least one vertex")
    terms = gauge_flow_terms(algebra, mu, x)
    return terms[k - 1] if k <= len(terms) else algebra.zero_vector()


def alpha1(algebra: LInftyAlgebra, mu: GVector, x: GVector) -> SimplexElement:
    """The gauge-fixed edge generated by x in degree 0 starting at mu.

    Closed formula: mu - sum_k (t_1^k / k!) epsilon^k - x dt_1, where
    epsilon^k is the k-th tree exponential; equal to the solver output
    for the witness -x t_1 (checked in the test suite).  Its vertices
    are mu at e_0 and rho1(mu, x) at e_1, and I_01 integrates to -x.
    """
    if not x.is_zero() and not x.is_homogeneous(0):
        raise ValueError("edge datum must have degree 0")
    terms = []
    for k, eps in enumerate(gauge_flow_terms(algebra, mu, x), start=1):
        t1_power = Form(1, {((k,), ()): _ONE})
        terms.append((Fraction(-1, factorial(k)), tensor_product(eps, t1_power)))
    terms.append((-1, tensor_product(x, Form.dt(1, 1))))
    value = constant_tensor(1, mu).combine(terms)
    return SimplexElement(value)


def rho1(algebra: LInftyAlgebra, mu: GVector, x: GVector) -> GVector:
    """The endpoint of the gauge flow: mu - sum_k epsilon^k / k!.

    Coincides with the vertex-1 value of alpha1 and, for dg Lie
    algebras, with the gauge action of exp(x) on mu."""
    return mu.combine(
        (Fraction(-1, factorial(k)), eps)
        for k, eps in enumerate(gauge_flow_terms(algebra, mu, x), start=1)
    )


# -- the generalized Campbell-Hausdorff series --------------------------


class CHResult(Record):
    """A generalized Campbell-Hausdorff value with the solved simplex
    it was read from."""

    _fields = ("value", "simplex")

    def __init__(self, value: GVector, simplex: SimplexElement):
        self.value = value
        self.simplex = simplex


def generalized_ch(algebra: LInftyAlgebra, n: int, mu: GVector,
                   inputs: dict) -> CHResult:
    """The n-th generalized Campbell-Hausdorff series.

    inputs maps nonempty increasing tuples in 1..n to elements of degree
    1 - len(tuple).  Assembles the boundary data (orientation
    convention: the k-index slot enters the witness as -x/k!), solves in
    the gauge with base vertex 0, and integrates over the chain
    (1, ..., n).
    """
    terms = []
    for seq, vec in inputs.items():
        seq = tuple(seq)
        if not seq or list(seq) != sorted(set(seq)) or not (
            1 <= seq[0] and seq[-1] <= n
        ):
            raise ValueError(f"bad input index {seq}")
        k = len(seq)
        if not vec.is_zero() and not vec.is_homogeneous(1 - k):
            raise ValueError(
                f"input at {seq} must have degree {1 - k}"
            )
        omega = dupont.elementary_form(seq, n)
        terms.append((Fraction(-1, factorial(k)), tensor_product(vec, omega)))
    witness = zero_tensor(algebra, n).combine(terms)
    simplex = solve_gauge_fixed(GaugeParameter(mu=mu, witness=witness), 0)
    value = simplex.integrate(tuple(range(1, n + 1)))
    return CHResult(value=value, simplex=simplex)


def edge_value(edge: SimplexElement) -> GVector:
    """Read the group datum off a gauge-fixed edge: minus its chain
    integral (the inverse of alpha1 at the edge's initial vertex)."""
    return -edge.integrate((0, 1))


def compose(algebra: LInftyAlgebra, mu: GVector, x: GVector,
            y: GVector) -> GVector:
    """Composition of degree-0 data through the thin 2-filler.

    The edges generated by y (from mu) and x (from the endpoint of y)
    form a horn at position 1; the missing face of its thin filler is
    the composed edge.  Under the frozen orientation this is
    log(exp(x) exp(y)) in the matrix model.  The edge's value is read
    off the filler's chain integral over (0, 2), with no pullback:
    integration commutes with the face pullback.
    """
    if algebra.basis_of_degree(-1):
        # interior slot must vanish; guaranteed when the algebra is
        # concentrated in degrees >= 0
        raise ValueError(
            "composition needs an algebra concentrated in degrees >= 0"
        )
    edge_y = alpha1(algebra, mu, y)
    mu_y = edge_y.vertex(1)
    edge_x = alpha1(algebra, mu_y, x)
    horn = Horn(2, 1, {0: edge_x, 2: edge_y})
    filler = fill_horn_gamma(horn)
    return -filler.integrate((0, 2))


def rho3_associativity_check(algebra: LInftyAlgebra, mu: GVector,
                             x1: GVector, x2: GVector,
                             x3: GVector) -> GVector:
    """The degree -1 associator: the top series value with all interior
    slots zero.  Exactly zero for dg Lie algebras; at mu = 0 it is
    -l3(x1, x2, x3)/6 when the ternary bracket l3 is the only bracket
    on degree 0 (three_bracket, criterion 10)."""
    return generalized_ch(
        algebra, 3, mu, {(1,): x1, (2,): x2, (3,): x3}
    ).value


# -- the gauge action on Maurer-Cartan elements -------------------------


def deligne_action(algebra: LInftyAlgebra, x: GVector,
                   alpha: GVector) -> GVector:
    """Action of exp(x) on a Maurer-Cartan element of a dg Lie algebra:
    alpha - sum_n ad(x)^n (delta(x) + [alpha, x]) / (n+1)!."""
    if algebra.max_arity > 2:
        raise ValueError("the exponential action is for dg Lie algebras")
    if not is_mc(algebra, alpha):
        raise ValueError("action input does not satisfy Maurer-Cartan")
    if not x.is_zero() and not x.is_homogeneous(0):
        raise ValueError("action parameter must have degree 0")
    current = bracket(algebra, [x]) + bracket(algebra, [alpha, x])
    total = dict(alpha.coeffs)
    k = 1
    while not current.is_zero():
        kernel.add_into(total, current.coeffs.items(),
                        Fraction(-1, factorial(k)))
        current = bracket(algebra, [x, current])
        k += 1
        if k > algebra.nilpotency_index() + 1:
            raise RuntimeError("gauge action failed to terminate")
    return GVector(algebra, total)


# -- exact nilpotent matrices and the monodromy oracle ------------------


class NilMatrix:
    """A strictly upper-triangular matrix with exact rational entries."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        rows = [[Fraction(v) for v in row] for row in rows]
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise ValueError("matrix is not square")
        for i in range(m):
            for j in range(i + 1):
                if rows[i][j]:
                    raise ValueError("matrix is not strictly upper triangular")
        self.size = m
        self.rows = rows

    def __add__(self, other: "NilMatrix") -> "NilMatrix":
        return NilMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def scale(self, c) -> "NilMatrix":
        c = Fraction(c)
        return NilMatrix([[c * v for v in row] for row in self.rows])

    def commutator(self, other: "NilMatrix") -> "NilMatrix":
        ab = _mat_mul(self.rows, other.rows)
        ba = _mat_mul(other.rows, self.rows)
        return NilMatrix(
            [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
        )

    def __eq__(self, other):
        return isinstance(other, NilMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"NilMatrix({self.rows!r})"


def _mat_mul(a, b):
    """The product of two upper-triangular matrices: entry (i, j) sums
    over i <= k <= j only, and every entry below the diagonal is zero."""
    m = len(a)
    return [
        [_ZERO] * i
        + [sum(a[i][k] * b[k][j] for k in range(i, j + 1))
           for j in range(i, m)]
        for i in range(m)
    ]


def _power_series(rows, coefficient):
    """The sum of coefficient(k) N^k over k < m for the m x m strictly
    upper-triangular N given by rows, which is the whole series since
    N^m = 0 (Hall, Lie Groups, Lie Algebras, and Representations, 2.1)."""
    m = len(rows)
    c = coefficient(0)
    result = [[c if i == j else _ZERO for j in range(m)] for i in range(m)]
    power = rows
    for k in range(1, m):
        c = coefficient(k)
        result = [
            [r + c * p for r, p in zip(rrow, prow)]
            for rrow, prow in zip(result, power)
        ]
        power = _mat_mul(power, rows)
    return result


def matrix_exp(n: NilMatrix):
    """Exact exponential of a nilpotent matrix, the series of 1/k!.
    Returns a unipotent matrix as rational rows."""
    return _power_series(n.rows, lambda k: Fraction(1, factorial(k)))


def matrix_log(unipotent) -> NilMatrix:
    """Exact logarithm of a unipotent matrix U, the series of
    (-1)^(k+1)/k on U - I; inverse of matrix_exp."""
    m = len(unipotent)
    rows = [[Fraction(v) for v in row] for row in unipotent]
    for i in range(m):
        for j in range(i + 1):
            expected = _ONE if i == j else _ZERO
            if rows[i][j] != expected:
                raise ValueError("matrix is not unipotent upper triangular")
    n = [[_ZERO if i == j else v for j, v in enumerate(row)]
         for i, row in enumerate(rows)]
    return NilMatrix(_power_series(
        n, lambda k: Fraction((-1) ** (k + 1), k) if k else _ZERO))


def oracle_bch(x: NilMatrix, y: NilMatrix) -> NilMatrix:
    """log(exp(x) exp(y)), computed entirely in exact matrix arithmetic:
    the independent oracle for every group-law statement."""
    return matrix_log(_mat_mul(matrix_exp(x), matrix_exp(y)))


class MatrixRepresentation:
    """A faithful assignment of nilpotent matrices to degree-0 basis
    symbols, turning group-law claims into exact matrix identities."""

    def __init__(self, algebra: LInftyAlgebra, size: int, images: dict):
        self.algebra = algebra
        self.size = size
        self.images = {sym: NilMatrix(m) for sym, m in images.items()}
        for sym in images:
            if algebra.degrees[sym] != 0:
                raise ValueError("representation assigns only degree-0 symbols")
        self._entries = {
            sym: {
                (i, j): a
                for i, row in enumerate(m.rows)
                for j, a in enumerate(row)
                if a
            }
            for sym, m in self.images.items()
        }

    def apply(self, v: GVector) -> NilMatrix:
        total: dict = {}
        for sym, c in v.coeffs.items():
            kernel.add_into(total, self._entries[sym].items(), c)
        m = self.size
        return NilMatrix(
            [[total.get((i, j), _ZERO) for j in range(m)] for i in range(m)]
        )

    def check_faithful_bracket(self) -> bool:
        """Commutators of images match images of brackets on the basis."""
        syms = [s for s in self.algebra.symbols if self.algebra.degrees[s] == 0]
        for a, b in itertools.product(syms, repeat=2):
            lhs = self.images[a].commutator(self.images[b])
            rhs = self.apply(self.algebra.bracket_on_basis((a, b)))
            if lhs != rhs:
                return False
        return True


def check_monodromy(rep: MatrixRepresentation, x1: GVector,
                    x2: GVector) -> bool:
    """exp(x1) = exp(rho2(x1, x2)) exp(x2), exactly, in the matrix model."""
    algebra = rep.algebra
    rho = generalized_ch(
        algebra, 2, algebra.zero_vector(), {(1,): x1, (2,): x2}
    ).value
    lhs = matrix_exp(rep.apply(x1))
    rhs = _mat_mul(matrix_exp(rep.apply(rho)), matrix_exp(rep.apply(x2)))
    return lhs == rhs


def monodromy_report(name: str, rep: MatrixRepresentation, sampler,
                     samples: int) -> Report:
    """check_monodromy on `samples` degree-0 pairs drawn from the sampler,
    one case per pair."""
    report = Report(f"monodromy({name})")
    for _ in range(samples):
        x1 = sampler.vector(rep.algebra, 0)
        x2 = sampler.vector(rep.algebra, 0)
        report.check(
            check_monodromy(rep, x1, x2),
            f"x1 = {x1.render()}, x2 = {x2.render()}",
        )
    return report


# -- nerves of finite groupoids -----------------------------------------


class NerveTruncation:
    """The nerve of a finite composition table up to a dimension bound.

    The morphisms are the keys of source; compose[(g, h)] is "h then g".
    n-simplices are composable chains [g_1, ..., g_n]; face maps drop or
    compose.  Checks against every compatible family of faces that
    horns have unique fillers and that boundaries determine their
    simplices.  Following Duskin, a table in which every object carries
    a morphism is a groupoid exactly when every horn of dimension 2 and
    3 has one filler; nothing else checks the groupoid axioms.
    """

    def __init__(self, objects, source, target, compose, bound: int):
        self.source = dict(source)
        self.target = dict(target)
        self.compose = dict(compose)
        self.simplices = {0: [(obj,) for obj in objects],
                          1: [(g,) for g in self.source]}
        for n in range(2, bound + 1):
            self.simplices[n] = [
                chain + (g,)
                for chain in self.simplices[n - 1]
                for g in self.source
                if self.source[chain[-1]] == self.target[g]
            ]

    def face(self, n: int, k: int, simplex):
        if n == 1:
            return ((self.source if k == 0 else self.target)[simplex[0]],)
        if k == 0:
            return simplex[1:]
        if k == n:
            return simplex[:-1]
        return (
            simplex[: k - 1]
            + (self.compose[(simplex[k - 1], simplex[k])],)
            + simplex[k + 1 :]
        )

    def faces(self, n: int, simplex, missing=None):
        """The faces of an n-simplex, with None at position missing."""
        return tuple(None if k == missing else self.face(n, k, simplex)
                     for k in range(n + 1))

    def _faces_biject(self, n: int, missing=None) -> bool:
        """Whether the faces (None at missing) of the n-simplices are a
        bijection onto the compatible families of (n-1)-simplices: the
        horns at missing, or the boundaries when missing is None."""
        images = [self.faces(n, s, missing) for s in self.simplices[n]]
        slots = [(None,) if k == missing else self.simplices[n - 1]
                 for k in range(n + 1)]
        families = {
            family for family in itertools.product(*slots)
            if incompatible_faces(
                family, lambda x, j: self.face(n - 1, j, x)) is None
        }
        return len(images) == len(families) and set(images) == families

    def check_filler_bijectivity(self, n: int) -> bool:
        """Every compatible horn of dimension n, at every position, has
        exactly one filler: Duskin's condition in dimension n."""
        return all(self._faces_biject(n, i) for i in range(n + 1))

    def check_coskeletal(self, n: int) -> bool:
        """The boundary map from n-simplices to compatible boundary
        tuples is a bijection: the nerve is determined by its 2-skeleton."""
        return self._faces_biject(n)


def group_nerve(elements, multiply, bound: int) -> NerveTruncation:
    """The nerve of a finite group given by a multiplication function:
    the one-object groupoid with a morphism per element."""
    elements = list(elements)
    return NerveTruncation(
        objects=["*"],
        source={g: "*" for g in elements},
        target={g: "*" for g in elements},
        compose={(g, h): multiply(g, h) for g in elements for h in elements},
        bound=bound,
    )
