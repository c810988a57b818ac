"""The simplicial sets of Maurer-Cartan forms and their gauge-fixed nerve.

An n-simplex is a total-degree-1 tensor element solving the
Maurer-Cartan equation for d + delta; the gauge-fixed simplices are
those annihilated by the simplicial gauge s.  Both solvers build the
solution one lower-central weight at a time from a homotopy correction
of the brackets of the lighter pieces, so they are exact and finite for
nilpotent algebras.
Horn fillers (plain, gauge-fixed with unique thin output, and relative
along a surjection) reduce to the solvers with prescribed vertex and
homotopy data, and the abelian case is cross-checked against normalized
simplicial cochains.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from linfty import dupont
from linfty.algebra import (
    GVector,
    LInftyAlgebra,
    Morphism,
    TensorElement,
    bracket_series,
    compositions,
    constant_tensor,
    is_mc,
    tensor_bracket,
    tensor_curvature,
    tensor_product,
    zero_tensor,
)
from linfty.forms import SimplicialMap
from linfty.linalg import Subspace, kernel_basis
from linfty.report import Record, Report, quote


class SolverError(RuntimeError):
    """Internal failure of a guaranteed-terminating iteration."""


class SimplexElement:
    """A Maurer-Cartan form on the n-simplex.

    value is a total-degree-1 tensor element with vanishing curvature;
    gauge-fixed simplices additionally satisfy s(value) = 0 and are the
    points of the nerve this package is about.  The algebra and the
    dimension n are those of value.
    """

    __slots__ = ("value",)

    def __init__(self, value: TensorElement, validate: bool = True):
        if validate:
            if not value.is_zero() and not value.is_homogeneous(1):
                raise ValueError("simplex value must have total degree 1")
            if not tensor_curvature(value).is_zero():
                raise ValueError("value does not satisfy the Maurer-Cartan equation")
        self.value = value

    @property
    def algebra(self) -> LInftyAlgebra:
        return self.value.algebra

    @property
    def n(self) -> int:
        return self.value.n

    def is_gauge_fixed(self) -> bool:
        return self.value.s().is_zero()

    def vertex(self, i: int) -> GVector:
        return self.value.evaluate_vertex(i)

    def face(self, k: int) -> "SimplexElement":
        """Pullback along the k-th face inclusion."""
        if not 0 <= k <= self.n:
            raise ValueError(f"face index {k} out of range 0..{self.n}")
        return SimplexElement(
            self.value.pullback(SimplicialMap.face(k, self.n)), validate=False
        )

    def degenerate(self, k: int) -> "SimplexElement":
        """Pullback along the k-th degeneracy."""
        if not 0 <= k <= self.n:
            raise ValueError(f"degeneracy index {k} out of range 0..{self.n}")
        return SimplexElement(
            self.value.pullback(SimplicialMap.degeneracy(k, self.n + 1)),
            validate=False,
        )

    def integrate(self, seq) -> GVector:
        return self.value.integrate_chain(seq)

    def __eq__(self, other):
        return isinstance(other, SimplexElement) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def render(self) -> str:
        return self.value.render()

    def __repr__(self):
        return f"SimplexElement({self.algebra.name!r}, n={self.n}, {self.render()!r})"


def is_thin(simplex: SimplexElement) -> bool:
    """Whether the integral over the full simplex vanishes (exact)."""
    return simplex.integrate(tuple(range(simplex.n + 1))).is_zero()


def constant_simplex(n: int, mu: GVector) -> SimplexElement:
    """The constant extension of a Maurer-Cartan element."""
    if not is_mc(mu.algebra, mu):
        raise ValueError("vertex value does not satisfy Maurer-Cartan")
    return SimplexElement(constant_tensor(n, mu), validate=False)


class GaugeParameter(Record):
    """Prescribed solver data: a Maurer-Cartan vertex value and the
    witness of the homotopy part, both over the witness's algebra and
    simplex.

    The actual homotopy datum is (d + delta) of the witness; the solver
    normalizes the witness against its base vertex, and projects it onto
    elementary forms in the gauge-fixed case.
    """

    _fields = ("mu", "witness")

    def __init__(self, mu: GVector, witness: TensorElement):
        if mu.algebra is not witness.algebra:
            raise ValueError(
                "vertex value and witness live in different algebras: "
                f"{quote(mu.algebra.name)} and {quote(witness.algebra.name)}"
            )
        if not witness.is_zero() and not witness.is_homogeneous(0):
            raise ValueError("witness must have total degree 0")
        self.mu = mu
        self.witness = witness


def _solve(g: GaugeParameter, i: int, gauge: bool) -> SimplexElement:
    """Solve alpha = alpha0 - c(N(alpha)), N(alpha) = sum_{l>=2}
    [alpha^l]/l!, weight by weight along the lower central filtration
    F^w, with the correction c = h^i, or P h^i + s in the gauge.

    alpha is the sum of pieces alpha_w in F^w (x) forms: alpha_1 =
    alpha0 = mu + (d + delta)(witness), and for w = 2 .. index - 1

        N_w = sum over multisets w_1 <= ... <= w_l of w, 2 <= l <=
              max_arity, of [alpha_{w_1}, ..., alpha_{w_l}] / prod(m_j!),
        alpha_w = -c(N_w),

    with m_j the multiplicities of the w_j.  Each N_w only needs the
    pieces below it, c acts on the form factor alone, and brackets of
    total weight >= index land in F^index = 0, so the sum of the N_w is
    N(alpha) and alpha is the exact fixed point.  Three exact gates:
    N(alpha), computed afresh, equals the sum of the N_w (so alpha =
    alpha0 - c(N(alpha))); flatness (d + delta)alpha + N(alpha) = 0;
    and, in the gauge, s(alpha) = 0.
    """
    algebra, n = g.witness.algebra, g.witness.n
    if not 0 <= i <= n:
        raise ValueError(f"base vertex {i} out of range 0..{n}")
    if not is_mc(algebra, g.mu):
        raise ValueError("vertex value does not satisfy Maurer-Cartan")
    witness = g.witness - constant_tensor(n, g.witness.evaluate_vertex(i))
    if gauge:
        witness = witness.whitney()
    alpha0 = constant_tensor(n, g.mu) + witness.d_plus_delta()
    zero = zero_tensor(algebra, n)
    pieces = {1: alpha0}
    graded = []
    for w in range(2, algebra.nilpotency_index()):
        part = zero.combine(
            (Fraction(1, prod(map(factorial, Counter(parts).values()))),
             tensor_bracket(algebra, [pieces[v] for v in parts]))
            for ell in range(2, algebra.max_arity + 1)
            for parts in compositions(w, ell, w)
            if all(v in pieces for v in parts)
        )
        if part.is_zero():
            continue
        graded.append(part)
        correction = part.h(i)
        if gauge:
            correction = correction.whitney() + part.s()
        if not correction.is_zero():
            pieces[w] = -correction
    alpha = zero.combine((1, piece) for piece in pieces.values())
    nonlinear = bracket_series(algebra, alpha, [], 2)
    if nonlinear != zero.combine((1, part) for part in graded):
        raise SolverError(
            "the graded Maurer-Cartan solve missed part of the bracket "
            "series; this indicates an internal bug"
        )
    if not (alpha.d_plus_delta() + nonlinear).is_zero():
        raise SolverError("solver output fails the Maurer-Cartan equation")
    if gauge and not alpha.s().is_zero():
        raise SolverError("solver output fails the gauge condition")
    return SimplexElement(alpha, validate=False)


def solve_mc(g: GaugeParameter, i: int) -> SimplexElement:
    """The unique Maurer-Cartan n-simplex with prescribed vertex value
    at e_i and homotopy data (d+delta)(witness).

    Built in one pass per weight of the lower central filtration (at
    most nilpotency index - 2 of them, see _solve) and checked by three
    exact gates; the output satisfies the Maurer-Cartan equation,
    evaluates to mu at e_i, and returns the normalized data under the
    extraction map mc_data.
    """
    return _solve(g, i, gauge=False)


def solve_gauge_fixed(g: GaugeParameter, i: int) -> SimplexElement:
    """The unique gauge-fixed n-simplex with prescribed vertex value at
    e_i and elementary homotopy data.

    The witness is normalized and projected onto elementary forms and
    the simplex is built weight by weight as in solve_mc; the output
    satisfies the Maurer-Cartan equation and s(alpha) = 0 exactly, and
    round-trips through gamma_data.
    """
    return _solve(g, i, gauge=True)


def mc_data(simplex: SimplexElement, i: int) -> GaugeParameter:
    """Extract (vertex value, homotopy witness) at base vertex i; the
    inverse of solve_mc."""
    return GaugeParameter(mu=simplex.vertex(i), witness=simplex.value.h(i))


def gamma_data(simplex: SimplexElement, i: int) -> GaugeParameter:
    """Extract the gauge-fixed data (vertex value, projected homotopy
    witness) at base vertex i; the inverse of solve_gauge_fixed."""
    return GaugeParameter(
        mu=simplex.vertex(i), witness=simplex.value.h(i).whitney()
    )


# -- horns -------------------------------------------------------------


def incompatible_faces(faces, face):
    """The first pair j < k of present positions whose faces break the
    simplicial identity d_j d_k = d_{k-1} d_j, or None if there is none.
    faces[k] is the k-th face x_k (None where absent) of an n-simplex,
    and face(x, i) is the i-th face of x."""
    present = [k for k, x in enumerate(faces) if x is not None]
    for j, k in itertools.combinations(present, 2):
        if face(faces[k], j) != face(faces[j], k - 1):
            return j, k
    return None


def refill_report(label: str, n: int, simplices, horn, fill) -> Report:
    """Duskin's uniqueness condition on the given n-simplices: one case
    per simplex x and position k, fill(horn(x, k)) == x, where horn(x, k)
    is the k-th horn of x.  A ValueError or SolverError raised on the way
    fails its case with its message."""
    report = Report(label)
    for number, x in enumerate(simplices):
        for k in range(n + 1):
            try:
                ok, message = fill(horn(x, k)) == x, "filler differs"
            except (ValueError, SolverError) as exc:
                ok, message = False, str(exc)
            report.check(ok, f"simplex {number}, horn {k}: {message}")
    return report


class Horn:
    """Index i plus n compatible (n-1)-simplices: a map from the i-th
    horn of the n-simplex."""

    def __init__(self, n: int, missing: int, faces: dict):
        if n < 1:
            raise ValueError("horns need dimension >= 1")
        if not 0 <= missing <= n:
            raise ValueError(f"missing index {missing} out of range 0..{n}")
        expected = [j for j in range(n + 1) if j != missing]
        if sorted(faces) != expected:
            raise ValueError(
                f"horn needs faces at positions {expected}, got {sorted(faces)}"
            )
        self.n = n
        self.missing = missing
        self.faces = dict(faces)
        self.algebra = faces[expected[0]].algebra
        for j, face in faces.items():
            if face.algebra is not self.algebra or face.n != n - 1:
                raise ValueError(f"face {j} has the wrong shape")
        pair = incompatible_faces([faces.get(j) for j in range(n + 1)],
                                  SimplexElement.face)
        if pair is not None:
            j, k = pair
            raise ValueError(
                f"incompatible horn: face {j} of x_{k} differs "
                f"from face {k - 1} of x_{j}"
            )

    @classmethod
    def of(cls, simplex: SimplexElement, missing: int) -> "Horn":
        """The horn of simplex at missing: all faces but that one."""
        return cls(simplex.n, missing, {
            j: simplex.face(j) for j in range(simplex.n + 1) if j != missing
        })

    def integrate(self, seq) -> GVector:
        """Chain integral over a proper subchain, read off any face
        containing it."""
        seq = tuple(seq)
        outside = [j for j in range(self.n + 1)
                   if j not in seq and j != self.missing]
        if not outside:
            raise ValueError(f"chain {seq} is not contained in the horn")
        j = outside[0]
        local = tuple(v if v < j else v - 1 for v in seq)
        return self.faces[j].integrate(local)


def _degeneracy_extension(horn: Horn) -> TensorElement:
    """A total-degree-1 tensor element whose faces match the horn,
    built from degeneracies; the standard simplicial-group filler."""
    n = horn.n
    i = horn.missing
    rho = zero_tensor(horn.algebra, n)

    def face_of(t: TensorElement, k: int) -> TensorElement:
        return t.pullback(SimplicialMap.face(k, n))

    def degenerate(t: TensorElement, k: int) -> TensorElement:
        return t.pullback(SimplicialMap.degeneracy(k, n))

    for j in range(0, i):
        rho = rho + degenerate(horn.faces[j].value - face_of(rho, j), j)
    for j in range(n, i, -1):
        rho = rho + degenerate(horn.faces[j].value - face_of(rho, j), j - 1)
    return rho


def fill_horn_mc(horn: Horn) -> SimplexElement:
    """Fill a horn in the Maurer-Cartan nerve.

    Extends the horn linearly via degeneracies and re-solves with the
    extension's data; the faces away from the missing index are
    reproduced exactly.
    """
    i = horn.missing
    rho = _degeneracy_extension(horn)
    filler = solve_mc(
        GaugeParameter(mu=rho.evaluate_vertex(i), witness=rho.h(i)), i
    )
    _check_faces(filler, horn)
    return filler


def chain_witness(n: int, i: int, integral) -> TensorElement:
    """The gauge-fixed witness with the given chain integrals through
    the base vertex i:

        sum over seq not containing i of
        (-1)^(|seq|-1) * integral((i,) + seq) (x) omega_seq,

    with omega_seq the elementary form of seq.  The data gamma_data(x, i)
    of a gauge-fixed simplex is chain_witness(x.n, i, x.integrate), so
    the horn fillers build their witness from the horn's integrals.
    """
    zero = zero_tensor(integral((i,)).algebra, n)
    terms = []
    others = [v for v in range(n + 1) if v != i]
    for size in range(1, n + 1):
        sign = -1 if size % 2 == 0 else 1
        for seq in itertools.combinations(others, size):
            value = integral((i,) + seq)
            if not value.is_zero():
                omega = dupont.elementary_form(seq, n)
                terms.append((sign, tensor_product(value, omega)))
    return zero.combine(terms)


def _fill_gauge_fixed(horn: Horn, top) -> SimplexElement:
    """The gauge-fixed filler whose integral over (i,) + the chain
    opposite the missing vertex i is top(that chain); its other
    integrals are the horn's."""
    i = horn.missing

    def integral(seq):
        return top(seq) if len(seq) > horn.n else horn.integrate(seq)

    g = GaugeParameter(integral((i,)), chain_witness(horn.n, i, integral))
    filler = solve_gauge_fixed(g, i)
    _check_faces(filler, horn)
    return filler


def fill_horn_gamma(horn: Horn) -> SimplexElement:
    """The unique thin gauge-fixed filler of a gauge-fixed horn."""
    return _fill_gauge_fixed(horn, lambda seq: horn.algebra.zero_vector())


def fill_horn_relative(f: Morphism, horn: Horn,
                       target: SimplexElement) -> SimplexElement:
    """Fill a gauge-fixed horn over a prescribed image simplex.

    f must be a surjective strict morphism, the horn lives upstairs, the
    target downstairs with matching image faces; the output maps to the
    target exactly.  The filler's top integral is the canonical echelon
    section of the target's.
    """
    if horn.algebra is not f.source or target.algebra is not f.target:
        raise ValueError("horn/target do not match the morphism")
    if target.n != horn.n:
        raise ValueError("target dimension does not match the horn")
    if not f.is_surjective():
        raise ValueError("morphism is not surjective")
    for j, face in horn.faces.items():
        if f.apply(face.value) != target.face(j).value:
            raise ValueError(f"image of horn face {j} differs from target face")
    filler = _fill_gauge_fixed(
        horn, lambda seq: f.section(target.integrate(seq))
    )
    if f.apply(filler.value) != target.value:
        raise SolverError("relative filler does not map onto the target")
    return filler


def _check_faces(filler: SimplexElement, horn: Horn):
    for j, face in horn.faces.items():
        if filler.face(j) != face:
            raise SolverError(
                f"filler face {j} does not reproduce the horn exactly"
            )


# -- the abelian comparison with normalized cochains -------------------


def _is_abelian(algebra: LInftyAlgebra) -> bool:
    return all(len(key) == 1 for key in algebra.brackets)


def _whitney_basis(algebra: LInftyAlgebra, n: int, total_degree: int):
    """Index set for the elementary-form sector of a given total degree."""
    out = []
    for size in range(1, n + 2):
        for seq in itertools.combinations(range(n + 1), size):
            for sym in algebra.basis_of_degree(total_degree - (size - 1)):
                out.append((seq, sym))
    return out


def _expand_whitney(element: TensorElement, basis) -> dict:
    """Coordinates {(seq, sym): c} of an elementary tensor element in the
    Whitney basis, via the integral duality."""
    coords = {}
    for seq, sym in basis:
        form = element.comps.get(sym)
        if form is not None:
            c = dupont.integrate_chain(seq, form)
            if c:
                coords[(seq, sym)] = c
    return coords


def _simplicial_coboundary(seq: tuple, n: int):
    """Coboundary of the normalized cochain dual to a vertex chain:
    list of (bigger sequence, sign)."""
    out = []
    for v in range(n + 1):
        if v in seq:
            continue
        pos = sum(1 for w in seq if w < v)
        bigger = tuple(sorted(seq + (v,)))
        out.append((bigger, (-1) ** pos))
    return out


def _coordinates(element: TensorElement) -> dict:
    """{(symbol, form key): coefficient} of a tensor element."""
    return {
        (sym, key): coeff
        for sym, form in element.comps.items()
        for key, coeff in form.terms.items()
    }


def dold_kan_compare(algebra: LInftyAlgebra, n: int) -> Report:
    """Brute-force the isomorphism between gauge-fixed simplices of an
    abelian algebra and normalized cochain cocycles.

    Verifies that the differential on elementary tensor elements equals
    the normalized-cochain differential under the integral pairing, that
    the cocycle dimensions agree, and that on forms of polynomial
    degree <= 2 the kernel of (d + delta, s) is exactly the
    elementary cocycle space: three cases.  The notes give both cocycle
    dimensions and the cells (x) symbols indexing the two sides.
    """
    if not _is_abelian(algebra):
        raise ValueError("cochain comparison needs an abelian algebra")
    basis1 = _whitney_basis(algebra, n, 1)
    basis2 = _whitney_basis(algebra, n, 2)
    zero = zero_tensor(algebra, n)

    # differential on the form side, expanded through the duality
    cells = [
        TensorElement(algebra, n, {sym: dupont.elementary_form(seq, n)})
        for seq, sym in basis1
    ]
    columns_forms = [
        _expand_whitney(cell.d_plus_delta(), basis2) for cell in cells
    ]

    # differential on the cochain side; the simplicial coboundary picks
    # up the Koszul sign of moving past the coefficient symbol.  Both
    # parts land in the degree-2 Whitney basis and on distinct cells.
    columns_cochains = []
    for seq, sym in basis1:
        parity = -1 if algebra.degrees[sym] % 2 else 1
        col = {
            (bigger, sym): Fraction(sign * parity)
            for bigger, sign in _simplicial_coboundary(seq, n)
        }
        for tsym, c in algebra.bracket_on_basis((sym,)).coeffs.items():
            col[(seq, tsym)] = c
        columns_cochains.append(col)

    report = Report(f"cochain comparison({algebra.name}, n={n})")
    report.check(
        columns_forms == columns_cochains,
        "the differentials on elementary forms and on cochains differ",
    )
    ker_forms = kernel_basis(columns_forms)
    ker_cochains = kernel_basis(columns_cochains)
    report.note(f"dim Z = {len(ker_forms)} (forms)")
    report.note(f"dim Z = {len(ker_cochains)} (cochains)")
    report.check(
        len(ker_forms) == len(ker_cochains),
        f"dim Z = {len(ker_forms)} (forms) vs {len(ker_cochains)} (cochains)",
    )

    # truncated-degree check: the gauge kernel on forms of polynomial
    # degree <= 2 is exactly the span of the elementary cocycles, both
    # in (symbol, monomial) coordinates.  A total-degree-1 elementary
    # cell has polynomial degree <= 1, so its terms are all columns.
    monomials = [
        TensorElement(algebra, n, {sym: mono})
        for sym in algebra.symbols
        for mono in dupont.monomial_basis(n, 2)
        if len(next(iter(mono.terms))[1]) == 1 - algebra.degrees[sym]
    ]
    columns = [next(iter(_coordinates(mono))) for mono in monomials]
    gauge_kernel = kernel_basis(
        [_coordinates(mono.d_plus_delta() + mono.s()) for mono in monomials]
    )

    def span(parts, vectors):
        return Subspace(columns, [
            _coordinates(zero.combine((c, parts[j]) for j, c in vec.items()))
            for vec in vectors
        ])

    report.check(
        span(monomials, gauge_kernel) == span(cells, ker_forms),
        "the degree<=2 gauge kernel is not the elementary "
        "cocycle space",
    )
    for seq, sym in basis1:
        report.note(f"cell {''.join(map(str, seq))} (x) {sym}")
    return report
