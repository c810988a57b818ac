"""The simplicial sets of Maurer-Cartan forms and their gauge-fixed nerve.

An n-simplex is a total-degree-1 tensor element solving the
Maurer-Cartan equation for d + delta; the gauge-fixed simplices are
those annihilated by the simplicial gauge s.  Both solvers iterate a
homotopy correction whose successive differences climb the lower
central filtration, so they terminate exactly for nilpotent algebras.
Horn fillers (plain, gauge-fixed with unique thin output, and relative
along a surjection) reduce to the solvers with prescribed vertex and
homotopy data, and the abelian case is cross-checked against normalized
simplicial cochains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from linfty import dupont
from linfty.algebra import (
    GVector,
    LInftyAlgebra,
    Morphism,
    TensorElement,
    bracket_series,
    constant_tensor,
    is_mc,
    linear_combination,
    tensor_curvature,
    tensor_product,
    zero_tensor,
)
from linfty.forms import SimplicialMap
from linfty.linalg import Subspace, kernel_basis

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SolverError(RuntimeError):
    """Internal failure of a guaranteed-terminating iteration."""


class SimplexElement:
    """A Maurer-Cartan form on the n-simplex.

    value is a total-degree-1 tensor element with vanishing curvature;
    gauge-fixed simplices additionally satisfy s(value) = 0 and are the
    points of the nerve this package is about.
    """

    __slots__ = ("algebra", "n", "value")

    def __init__(self, algebra: LInftyAlgebra, n: int, value: TensorElement,
                 validate: bool = True):
        if value.algebra is not algebra or value.n != n:
            raise ValueError("value does not live over the given algebra/simplex")
        if validate:
            if not value.is_zero() and not value.is_homogeneous(1):
                raise ValueError("simplex value must have total degree 1")
            if not tensor_curvature(value).is_zero():
                raise ValueError("value does not satisfy the Maurer-Cartan equation")
        self.algebra = algebra
        self.n = n
        self.value = value

    def is_gauge_fixed(self) -> bool:
        return self.value.s().is_zero()

    def vertex(self, i: int) -> GVector:
        return self.value.evaluate_vertex(i)

    def face(self, k: int) -> "SimplexElement":
        """Pullback along the k-th face inclusion."""
        if not 0 <= k <= self.n:
            raise ValueError(f"face index {k} out of range 0..{self.n}")
        return SimplexElement(
            self.algebra,
            self.n - 1,
            self.value.pullback(SimplicialMap.face(k, self.n)),
            validate=False,
        )

    def degenerate(self, k: int) -> "SimplexElement":
        """Pullback along the k-th degeneracy."""
        if not 0 <= k <= self.n:
            raise ValueError(f"degeneracy index {k} out of range 0..{self.n}")
        return SimplexElement(
            self.algebra,
            self.n + 1,
            self.value.pullback(SimplicialMap.degeneracy(k, self.n + 1)),
            validate=False,
        )

    def integrate(self, seq) -> GVector:
        return self.value.integrate_chain(seq)

    def __eq__(self, other):
        return (
            isinstance(other, SimplexElement)
            and self.algebra is other.algebra
            and self.n == other.n
            and self.value == other.value
        )

    def __hash__(self):
        return hash((id(self.algebra), self.n, self.value))

    def render(self) -> str:
        return self.value.render()

    def __repr__(self):
        return f"SimplexElement({self.algebra.name!r}, n={self.n}, {self.render()!r})"


def is_thin(simplex: SimplexElement) -> bool:
    """Whether the integral over the full simplex vanishes (exact)."""
    return simplex.integrate(tuple(range(simplex.n + 1))).is_zero()


def constant_simplex(algebra: LInftyAlgebra, n: int, mu: GVector) -> SimplexElement:
    """The constant extension of a Maurer-Cartan element."""
    if not is_mc(algebra, mu):
        raise ValueError("vertex value does not satisfy Maurer-Cartan")
    return SimplexElement(algebra, n, constant_tensor(n, mu), validate=False)


@dataclass
class GaugeParameter:
    """Prescribed solver data: a Maurer-Cartan vertex value and the
    witness of the homotopy part.

    The actual homotopy datum is (d + delta) of the witness; the solver
    normalizes the witness against its base vertex, and projects it onto
    elementary forms in the gauge-fixed case.
    """

    n: int
    mu: GVector
    witness: TensorElement

    def __post_init__(self):
        if self.witness.n != self.n:
            raise ValueError("witness lives on the wrong simplex")
        if not self.witness.is_zero() and not self.witness.is_homogeneous(0):
            raise ValueError("witness must have total degree 0")


def _normalized_witness(g: GaugeParameter, i: int, whitney: bool) -> TensorElement:
    w = g.witness
    base = w.evaluate_vertex(i)
    if not base.is_zero():
        w = w - constant_tensor(g.n, base)
    if whitney:
        w = w.whitney()
    return w


def _solve(algebra: LInftyAlgebra, n: int, i: int, g: GaugeParameter,
           gauge: bool) -> SimplexElement:
    """Iterate alpha <- alpha0 - c(N(alpha)), N(alpha) = sum_{l>=2}
    [alpha^l]/l!, to its exact fixed point, with the correction c = h^i,
    or P h^i + s in the gauge; then check flatness (d + delta)alpha +
    N(alpha) = 0 with the N of the converged pass."""
    if g.n != n:
        raise ValueError("gauge parameter lives on the wrong simplex")
    if not 0 <= i <= n:
        raise ValueError(f"base vertex {i} out of range 0..{n}")
    if not is_mc(algebra, g.mu):
        raise ValueError("vertex value does not satisfy Maurer-Cartan")
    witness = _normalized_witness(g, i, whitney=gauge)
    alpha0 = constant_tensor(n, g.mu) + witness.d_plus_delta()
    alpha = alpha0
    for _ in range(algebra.nilpotency_index() + 2):
        nonlinear = bracket_series(algebra, alpha, [], 2)
        correction = nonlinear.h(i)
        if gauge:
            correction = correction.whitney() + nonlinear.s()
        total = alpha0 - correction
        if total == alpha:
            break
        alpha = total
    else:
        raise SolverError(
            "Maurer-Cartan iteration failed to stabilize within the nilpotency "
            "bound; this indicates an internal bug"
        )
    if not (alpha.d_plus_delta() + nonlinear).is_zero():
        raise SolverError("solver output fails the Maurer-Cartan equation")
    if gauge and not alpha.s().is_zero():
        raise SolverError("solver output fails the gauge condition")
    return SimplexElement(algebra, n, alpha, validate=False)


def solve_mc(algebra: LInftyAlgebra, n: int, i: int, g: GaugeParameter) -> SimplexElement:
    """The unique Maurer-Cartan n-simplex with prescribed vertex value
    at e_i and homotopy data (d+delta)(witness).

    Terminates in at most (nilpotency index) steps; the output exactly
    satisfies the Maurer-Cartan equation, evaluates to mu at e_i, and
    returns the normalized data under the extraction map mc_data.
    """
    return _solve(algebra, n, i, g, gauge=False)


def solve_gauge_fixed(algebra: LInftyAlgebra, n: int, i: int,
                      g: GaugeParameter) -> SimplexElement:
    """The unique gauge-fixed n-simplex with prescribed vertex value at
    e_i and elementary homotopy data.

    The witness is normalized and projected onto elementary forms; the
    output satisfies the Maurer-Cartan equation and s(alpha) = 0
    exactly, and round-trips through gamma_data.
    """
    return _solve(algebra, n, i, g, gauge=True)


def mc_data(simplex: SimplexElement, i: int) -> GaugeParameter:
    """Extract (vertex value, homotopy witness) at base vertex i; the
    inverse of solve_mc."""
    return GaugeParameter(
        n=simplex.n,
        mu=simplex.vertex(i),
        witness=simplex.value.h(i),
    )


def gamma_data(simplex: SimplexElement, i: int) -> GaugeParameter:
    """Extract the gauge-fixed data (vertex value, projected homotopy
    witness) at base vertex i; the inverse of solve_gauge_fixed."""
    return GaugeParameter(
        n=simplex.n,
        mu=simplex.vertex(i),
        witness=simplex.value.h(i).whitney(),
    )


# -- horns -------------------------------------------------------------


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
        first = faces[expected[0]]
        self.algebra = first.algebra
        for j, face in faces.items():
            if face.algebra is not self.algebra or face.n != n - 1:
                raise ValueError(f"face {j} has the wrong shape")
        for j in expected:
            for k in expected:
                if j < k:
                    left = self.faces[k].face(j)
                    right = self.faces[j].face(k - 1)
                    if left != right:
                        raise ValueError(
                            f"incompatible horn: face {j} of x_{k} differs "
                            f"from face {k - 1} of x_{j}"
                        )

    def vertex_value(self, i: int) -> GVector:
        """Value of the underlying form at vertex e_i of the big simplex."""
        j = next(p for p in self.faces if p != i)
        local = i if i < j else i - 1
        return self.faces[j].vertex(local)

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

    def is_gauge_fixed(self) -> bool:
        return all(f.is_gauge_fixed() for f in self.faces.values())


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


def fill_horn_mc(horn: Horn, base: int | None = None) -> SimplexElement:
    """Fill a horn in the Maurer-Cartan nerve.

    Extends the horn linearly via degeneracies and re-solves with the
    extension's data; the faces away from the missing index are
    reproduced exactly.
    """
    i = horn.missing if base is None else base
    rho = _degeneracy_extension(horn)
    g = GaugeParameter(n=horn.n, mu=rho.evaluate_vertex(i), witness=rho.h(i))
    filler = solve_mc(horn.algebra, horn.n, i, g)
    _check_faces(filler, horn)
    return filler


def _whitney_horn_witness(horn: Horn, base: int) -> TensorElement:
    """Elementary-form witness collecting the horn's chain integrals
    through the base vertex.

    The solver datum of any gauge-fixed simplex puts its integral over
    the chain (base, seq) on the elementary form of seq with an
    alternating factor (-1)^(|seq|-1); reproducing that factor here is
    what makes the filler restrict to the horn exactly (measured and
    pinned by the tests, like the sign inside the gauge itself).
    """
    n = horn.n
    terms = []
    for size in range(1, n):
        sign = -1 if size % 2 == 0 else 1
        for seq in itertools.combinations(
            [v for v in range(n + 1) if v != base], size
        ):
            value = horn.integrate((base,) + seq)
            if not value.is_zero():
                omega = dupont.elementary_form(seq, n)
                terms.append((sign, tensor_product(value, omega)))
    return linear_combination(zero_tensor(horn.algebra, n), terms)


def fill_horn_gamma(horn: Horn, base: int | None = None) -> SimplexElement:
    """The unique thin gauge-fixed filler of a gauge-fixed horn."""
    i = horn.missing if base is None else base
    g = GaugeParameter(
        n=horn.n,
        mu=horn.vertex_value(i),
        witness=_whitney_horn_witness(horn, i),
    )
    filler = solve_gauge_fixed(horn.algebra, horn.n, i, g)
    _check_faces(filler, horn)
    return filler


def fill_horn_relative(f: Morphism, horn: Horn, target: SimplexElement,
                       base: int | None = None) -> SimplexElement:
    """Fill a gauge-fixed horn over a prescribed image simplex.

    f must be a surjective strict morphism, the horn lives upstairs, the
    target downstairs with matching image faces; the output maps to the
    target exactly.  The lift of the target's top integral uses the
    canonical echelon section.
    """
    if horn.algebra is not f.source or target.algebra is not f.target:
        raise ValueError("horn/target do not match the morphism")
    if target.n != horn.n:
        raise ValueError("target dimension does not match the horn")
    if not f.is_surjective():
        raise ValueError("morphism is not surjective")
    i = horn.missing if base is None else base
    n = horn.n
    for j, face in horn.faces.items():
        if f.apply(face.value) != target.face(j).value:
            raise ValueError(f"image of horn face {j} differs from target face")
    x = f.section(target.integrate(tuple(range(n + 1))))
    witness = _whitney_horn_witness(horn, i)
    top_seq = tuple(v for v in range(n + 1) if v != i)
    omega_top = dupont.elementary_form(top_seq, n)
    sign = _TOP_WITNESS_SIGN(i, n)
    witness = witness + tensor_product(x, omega_top.scale(sign))
    g = GaugeParameter(n=n, mu=horn.vertex_value(i), witness=witness)
    filler = solve_gauge_fixed(horn.algebra, n, i, g)
    _check_faces(filler, horn)
    if f.apply(filler.value) != target.value:
        raise SolverError("relative filler does not map onto the target")
    return filler


def _TOP_WITNESS_SIGN(i: int, n: int) -> int:
    """Sign attaching the lifted top integral to the witness.

    The unique choice making the filler's image hit the target: the
    gauge data of any simplex carries its full-simplex integral on the
    elementary form missing the base vertex with this coefficient
    (measured exactly; pinned by the relative-filler tests)."""
    return -1 if (i + n) % 2 == 0 else 1


def _check_faces(filler: SimplexElement, horn: Horn):
    for j, face in horn.faces.items():
        if filler.face(j) != face:
            raise SolverError(
                f"filler face {j} does not reproduce the horn exactly"
            )


# -- the abelian comparison with normalized cochains -------------------


@dataclass
class DoldKanReport:
    """Comparison of gauge-fixed simplices of an abelian algebra with
    normalized simplicial cochain cocycles."""

    algebra_name: str
    n: int
    basis: list  # [(vertex sequence, symbol)] indexing both sides
    differential_matches: bool
    cocycle_dim: int
    cochain_cocycle_dim: int
    truncated_gamma_is_elementary: bool
    truncated_degree: int

    @property
    def passed(self) -> bool:
        return (
            self.differential_matches
            and self.cocycle_dim == self.cochain_cocycle_dim
            and self.truncated_gamma_is_elementary
        )

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}  cochain comparison({self.algebra_name}, n={self.n}): "
            f"dim Z = {self.cocycle_dim} (forms) vs "
            f"{self.cochain_cocycle_dim} (cochains), differentials "
            f"{'match' if self.differential_matches else 'DIFFER'}, "
            f"degree<={self.truncated_degree} gauge kernel "
            f"{'is' if self.truncated_gamma_is_elementary else 'is NOT'} "
            "elementary"
        )


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


def _expand_whitney(element: TensorElement, basis) -> list:
    """Coordinates of an elementary tensor element in the Whitney basis,
    via the integral duality."""
    coords = []
    for seq, sym in basis:
        form = element.comps.get(sym)
        coords.append(
            dupont.integrate_chain(seq, form) if form is not None else _ZERO
        )
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


def dold_kan_compare(algebra: LInftyAlgebra, n: int,
                     truncated_degree: int = 2) -> DoldKanReport:
    """Brute-force the isomorphism between gauge-fixed simplices of an
    abelian algebra and normalized cochain cocycles.

    Verifies that the differential on elementary tensor elements equals
    the normalized-cochain differential under the integral pairing, that
    the cocycle dimensions agree, and that on forms of bounded
    polynomial degree the kernel of (d + delta, s) is exactly the
    elementary cocycle space.
    """
    if not _is_abelian(algebra):
        raise ValueError("cochain comparison needs an abelian algebra")
    basis1 = _whitney_basis(algebra, n, 1)
    basis2 = _whitney_basis(algebra, n, 2)
    index2 = {key: p for p, key in enumerate(basis2)}

    # differential on the form side, expanded through the duality
    columns_forms = []
    for seq, sym in basis1:
        element = TensorElement(
            algebra, n, {sym: dupont.elementary_form(seq, n)}
        )
        columns_forms.append(_expand_whitney(element.d_plus_delta(), basis2))

    # differential on the cochain side; the simplicial coboundary picks
    # up the Koszul sign of moving past the coefficient symbol
    columns_cochains = []
    for seq, sym in basis1:
        col = [_ZERO] * len(basis2)
        parity = -1 if algebra.degrees[sym] % 2 else 1
        for bigger, sign in _simplicial_coboundary(seq, n):
            key = (bigger, sym)
            if key in index2:
                col[index2[key]] += Fraction(sign * parity)
        delta_sym = algebra.bracket_on_basis((sym,))
        for tsym, c in delta_sym.coeffs.items():
            key = (seq, tsym)
            if key in index2:
                col[index2[key]] += c
        columns_cochains.append(col)

    differential_matches = columns_forms == columns_cochains
    ker_forms = kernel_basis(columns_forms, len(basis2))
    ker_cochains = kernel_basis(columns_cochains, len(basis2))

    # truncated-degree check: the gauge kernel on bounded-degree forms
    # is exactly the elementary cocycle space
    mono_basis = []
    for sym in algebra.symbols:
        k = 1 - algebra.degrees[sym]
        if not 0 <= k <= n:
            continue
        for mono in dupont.monomial_basis(n, truncated_degree):
            word = next(iter(mono.terms))[1]
            if len(word) == k:
                mono_basis.append((sym, mono))
    image_keys: dict = {}
    columns = []
    for sym, mono in mono_basis:
        element = TensorElement(algebra, n, {sym: mono})
        image = element.d_plus_delta() + element.s()
        col = {}
        for tsym, form in image.comps.items():
            for key, coeff in form.terms.items():
                col[(tsym, key)] = coeff
        columns.append(col)
        for key in col:
            image_keys.setdefault(key, len(image_keys))
    dense = [
        [col.get(key, _ZERO) for key in image_keys]
        for col in columns
    ]
    gauge_kernel = kernel_basis(dense, len(image_keys))

    # expand elementary cocycles in the monomial basis for comparison
    mono_index = {}
    for p, (sym, mono) in enumerate(mono_basis):
        key = (sym, next(iter(mono.terms)))
        mono_index[key] = p
    elementary_vectors = []
    for vec in ker_forms:
        coords = [_ZERO] * len(mono_basis)
        ok = True
        for (seq, sym), c in zip(basis1, vec):
            if not c:
                continue
            omega = dupont.elementary_form(seq, n)
            for key, coeff in omega.terms.items():
                idx = mono_index.get((sym, key))
                if idx is None:
                    ok = False
                    break
                coords[idx] += c * coeff
            if not ok:
                break
        if ok:
            elementary_vectors.append(coords)
    same_space = (
        len(elementary_vectors) == len(ker_forms)
        and Subspace(len(mono_basis), gauge_kernel)
        == Subspace(len(mono_basis), elementary_vectors)
    )

    return DoldKanReport(
        algebra_name=algebra.name,
        n=n,
        basis=basis1,
        differential_matches=differential_matches,
        cocycle_dim=len(ker_forms),
        cochain_cocycle_dim=len(ker_cochains),
        truncated_gamma_is_elementary=same_space,
        truncated_degree=truncated_degree,
    )
