"""Solvers, horns, thinness, and the abelian cochain comparison."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty import kernel, mc_gamma
from linfty.acceptance import SOLVER_FIXTURES
from linfty.algebra import (
    LInftyAlgebra,
    Morphism,
    TensorElement,
    constant_tensor,
    quotient,
    tensor_bracket,
    tensor_curvature,
    zero_tensor,
)
from linfty.bch_groupoid import compose, generalized_ch
from linfty.fixtures import BUNDLED, Sampler, get_fixture
from linfty.dupont import monomial_basis
from linfty.forms import Form
from linfty.mc_gamma import (
    GaugeParameter,
    Horn,
    SimplexElement,
    chain_witness,
    constant_simplex,
    dold_kan_compare,
    fill_horn_gamma,
    fill_horn_mc,
    fill_horn_relative,
    gamma_data,
    is_thin,
    mc_data,
    refill_report,
    solve_gauge_fixed,
    solve_mc,
)


def make_edge_witness(algebra, vector):
    return TensorElement(
        algebra, 1,
        {s: Form.t(1, 1).scale(c) for s, c in vector.coeffs.items()},
    )


class TestSolvers:
    def test_abelian_single_step(self):
        ab = get_fixture("abelian_delta")
        sampler = Sampler(1)
        witness = sampler.witness(ab, 2)
        g = GaugeParameter(mu=ab.zero_vector(), witness=witness)
        alpha = solve_mc(g, 0)
        base = witness.evaluate_vertex(0)
        normalized = witness - constant_tensor(2, base)
        assert alpha.value == normalized.d_plus_delta()

    def test_degree_zero_on_the_interval(self):
        # any one-form with degree-0 coefficients is already flat
        heis = get_fixture("heisenberg")
        sampler = Sampler(2)
        witness = sampler.witness(heis, 1)
        g = GaugeParameter(mu=heis.zero_vector(), witness=witness)
        alpha = solve_mc(g, 0)
        normalized = witness - constant_tensor(
            1, witness.evaluate_vertex(0)
        )
        assert alpha.value == normalized.d_plus_delta()

    def test_heisenberg_two_simplex(self):
        heis = get_fixture("heisenberg")
        witness = TensorElement(
            heis, 2, {"e1": Form.t(1, 2), "e2": Form.t(2, 2)}
        )
        g = GaugeParameter(mu=heis.zero_vector(), witness=witness)
        alpha = solve_mc(g, 0)
        assert tensor_curvature(alpha.value).is_zero()
        fixed = solve_gauge_fixed(g, 0)
        assert fixed.value.s().is_zero()
        assert tensor_curvature(fixed.value).is_zero()

    def test_round_trips_all_bases(self):
        algebra = get_fixture("heis_exterior")
        sampler = Sampler(3)
        for n in (1, 2, 3):
            g = GaugeParameter(
                mu=sampler.mc_element(algebra),
                witness=sampler.witness(algebra, n),
            )
            plain = solve_mc(g, 0)
            fixed = solve_gauge_fixed(g, 0)
            for base in range(n + 1):
                assert solve_mc(mc_data(plain, base), base) == plain
                assert (
                    solve_gauge_fixed(gamma_data(fixed, base), base)
                    == fixed
                )

    def test_determinism(self):
        dg = get_fixture("dg_lie_01")
        sampler = Sampler(4)
        g = GaugeParameter(mu=sampler.mc_element(dg), witness=sampler.witness(dg, 2))
        assert solve_gauge_fixed(g, 0) == solve_gauge_fixed(g, 0)

    def test_rejects_non_mc_vertex(self):
        shifted = LInftyAlgebra(
            "shifted", [("p", 1), ("q", 2)], {("p",): {"q": 1}}
        )
        g = GaugeParameter(
            mu=shifted.basis_vector("p"),
            witness=TensorElement(shifted, 1, {}),
        )
        with pytest.raises(ValueError):
            solve_mc(g, 0)

    def test_witness_degree_validated(self):
        heis = get_fixture("heisenberg")
        with pytest.raises(ValueError):
            GaugeParameter(
                mu=heis.zero_vector(),
                witness=TensorElement(heis, 1, {"e1": Form.dt(1, 1)}),
            )


class TestFacesAndThinness:
    def test_face_degeneracy_identity(self):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(5)
        g = GaugeParameter(
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 2),
        )
        x = solve_gauge_fixed(g, 0)
        for k in (0, 1, 2):
            assert x.degenerate(k).face(k) == x

    def test_faces_read_their_algebra_and_dimension_off_the_value(self):
        algebra = get_fixture("heis_exterior")
        sampler = Sampler(6)
        g = GaugeParameter(mu=sampler.mc_element(algebra),
                           witness=sampler.witness(algebra, 3))
        x = solve_gauge_fixed(g, 0)
        assert x.algebra is algebra and x.n == 3
        for k in range(4):
            assert x.face(k).n == x.n - 1
            assert x.face(k).algebra is x.algebra

    def test_faces_preserve_equations(self):
        algebra = get_fixture("heis_exterior")
        sampler = Sampler(6)
        g = GaugeParameter(
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 3),
        )
        x = solve_gauge_fixed(g, 0)
        for k in range(4):
            face = x.face(k)
            assert tensor_curvature(face.value).is_zero()
            assert face.value.s().is_zero()

    def test_vertices_of_edges(self):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(7)
        mu = sampler.mc_element(algebra)
        g = GaugeParameter(mu=mu, witness=sampler.witness(algebra, 1))
        edge = solve_mc(g, 0)
        assert edge.vertex(0) == mu
        assert edge.face(1).value == constant_tensor(0, mu)
        assert edge.face(0).value == constant_tensor(0, edge.vertex(1))

    def test_degenerate_simplices_are_thin(self):
        algebra = get_fixture("heis_exterior")
        sampler = Sampler(8)
        g = GaugeParameter(
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 1),
        )
        edge = solve_gauge_fixed(g, 0)
        for k in (0, 1):
            assert is_thin(edge.degenerate(k))

    def test_everything_thin_when_degree_absent(self):
        # no degree -1 part: every 2-simplex is thin
        heis = get_fixture("heisenberg")
        sampler = Sampler(9)
        g = GaugeParameter(mu=heis.zero_vector(), witness=sampler.witness(heis, 2))
        assert is_thin(solve_gauge_fixed(g, 0))

    def test_constant_simplex(self):
        algebra = get_fixture("heis_exterior")
        sampler = Sampler(10)
        mu = sampler.mc_element(algebra)
        simplex = constant_simplex(2, mu)
        assert simplex.is_gauge_fixed()
        for i in range(3):
            assert simplex.vertex(i) == mu


class TestHorns:
    def fixture_horn(self, name, n, missing, seed=11):
        algebra = get_fixture(name)
        sampler = Sampler(seed)
        g = GaugeParameter(
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, n),
        )
        simplex = solve_gauge_fixed(g, 0)
        return simplex, Horn.of(simplex, missing)

    def test_incompatible_horn_rejected(self):
        simplex, horn = self.fixture_horn("dg_lie_01", 2, 1)
        other, _ = self.fixture_horn("dg_lie_01", 2, 1, seed=12)
        faces = {0: simplex.face(0), 2: other.face(2)}
        if simplex.face(0).face(1) != other.face(2).face(1):
            with pytest.raises(ValueError):
                Horn(2, 1, faces)

    # one face of a 3-simplex's horn swapped for another simplex's: the
    # first pair j < k of present faces that breaks d_j d_k = d_{k-1} d_j
    @pytest.mark.parametrize("missing, tampered, pair", [
        (0, 3, "face 1 of x_3 differs from face 2 of x_1"),
        (1, 3, "face 0 of x_3 differs from face 2 of x_0"),
        (3, 2, "face 0 of x_2 differs from face 1 of x_0"),
    ])
    def test_tampered_face_names_the_first_broken_pair(self, missing,
                                                       tampered, pair):
        _, horn = self.fixture_horn("heisenberg", 3, missing)
        other, _ = self.fixture_horn("heisenberg", 3, missing, seed=12)
        faces = dict(horn.faces)
        faces[tampered] = other.face(tampered)
        with pytest.raises(ValueError, match=f"incompatible horn: {pair}$"):
            Horn(3, missing, faces)

    # gamma is an l-groupoid when g vanishes in degrees <= -l: the top
    # integral of a gauge-fixed n-simplex lies in g^(1-n), so for n > l
    # the simplex is thin and each of its horns refills to it; for
    # n <= l the sampled top integral is nonzero
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_refill_exactly_when_thin(self, name, n):
        algebra = get_fixture(name)
        level = 1 - min(algebra.degrees.values(), default=1)
        simplex, _ = self.fixture_horn(name, n, 0)
        report = refill_report(name, n, [simplex], Horn.of, fill_horn_gamma)
        assert report.cases == n + 1
        assert report.passed == is_thin(simplex)
        assert is_thin(simplex) == (n > level)
        if not report.passed:
            # the thin filler differs from the simplex (on three_bracket
            # at n = 2, among others), yet two fills of one horn agree:
            # a double run checks determinism, not uniqueness
            for missing in range(n + 1):
                horn = Horn.of(simplex, missing)
                filler = fill_horn_gamma(horn)
                assert is_thin(filler) and filler.is_gauge_fixed()
                assert fill_horn_gamma(horn) == filler != simplex

    def test_gamma_fill_one_dimensional(self):
        algebra = get_fixture("heis_exterior")
        sampler = Sampler(13)
        mu = sampler.mc_element(algebra)
        vertex = SimplexElement(constant_tensor(0, mu), validate=False)
        for missing in (0, 1):
            horn = Horn(1, missing, {1 - missing: vertex})
            filler = fill_horn_gamma(horn)
            assert filler.face(1 - missing) == vertex
            # the 0-chain integral is the vertex value; the vertex the
            # missing face contains lies outside the horn
            assert horn.integrate((missing,)) == mu
            with pytest.raises(ValueError, match="not contained in the horn"):
                horn.integrate((1 - missing,))

    def test_plain_fill_one_dimensional(self):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(50)
        mu = sampler.mc_element(algebra)
        vertex = SimplexElement(constant_tensor(0, mu), validate=False)
        for missing in (0, 1):
            horn = Horn(1, missing, {1 - missing: vertex})
            filler = fill_horn_mc(horn)
            assert filler.face(1 - missing) == vertex

    def test_wrong_face_count_rejected(self):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(51)
        g = GaugeParameter(
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 2),
        )
        simplex = solve_gauge_fixed(g, 0)
        with pytest.raises(ValueError):
            Horn(2, 1, {0: simplex.face(0)})
        with pytest.raises(ValueError):
            Horn(2, 1, {0: simplex.face(0), 1: simplex.face(1),
                        2: simplex.face(2)})

    def test_gauge_parameter_dimension_mismatch(self):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(52)
        g = GaugeParameter(
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 2),
        )
        # the simplex is the witness's; a vertex value from another
        # algebra is the one mismatch left to refuse
        with pytest.raises(ValueError, match="different algebras"):
            GaugeParameter(mu=get_fixture("heisenberg").zero_vector(),
                           witness=g.witness)
        with pytest.raises(ValueError):
            solve_gauge_fixed(g, 5)

    def test_non_nilpotent_rejected_by_solver(self):
        split = LInftyAlgebra(
            "split",
            [("h", 0), ("e", 0), ("f", 0)],
            {
                ("h", "e"): {"e": 2},
                ("h", "f"): {"f": -2},
                ("e", "f"): {"h": 1},
            },
        )
        g = GaugeParameter(
            mu=split.zero_vector(),
            witness=TensorElement(split, 1, {"e": Form.t(1, 1)}),
        )
        with pytest.raises(ValueError):
            solve_mc(g, 0)

    def test_mc_fill_degenerate_faces(self):
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(14)
        g = GaugeParameter(
            mu=sampler.mc_element(algebra),
            witness=sampler.witness(algebra, 1),
        )
        edge = solve_mc(g, 0)
        simplex = edge.degenerate(0)
        horn = Horn.of(simplex, 1)
        filler = fill_horn_mc(horn)
        assert tensor_curvature(filler.value).is_zero()

    def test_abelian_composition_is_additive(self):
        ab = get_fixture("abelian_delta")
        sampler = Sampler(15)
        def edge(vec):
            wit = make_edge_witness(ab, vec)
            return solve_gauge_fixed(
                GaugeParameter(mu=ab.zero_vector(), witness=wit),
                0,
            )
        x = sampler.vector(ab, 0)
        y = sampler.vector(ab, 0)
        ex, ey = edge(x), edge(y)
        # endpoints of abelian edges agree, so the horn is constant
        horn = Horn(2, 1, {0: edge(x).degenerate(0).face(0), 2: ey})
        # composing with the degenerate-x edge keeps faces compatible
        filler = fill_horn_gamma(horn)
        assert filler.face(1).integrate((0, 1)) == ey.integrate((0, 1)) + \
            horn.faces[0].integrate((0, 1))


class TestRelativeFill:
    def test_heisenberg_quotient(self):
        heis = get_fixture("heisenberg")
        projection = quotient(heis, 2)
        sampler = Sampler(16)
        for missing in (0, 1, 2):
            g = GaugeParameter(mu=heis.zero_vector(), witness=sampler.witness(heis, 2))
            simplex = solve_gauge_fixed(g, 0)
            horn = Horn.of(simplex, missing)
            target = SimplexElement(projection.apply(simplex.value))
            lifted = fill_horn_relative(projection, horn, target)
            assert projection.apply(lifted.value) == target.value

    def test_lift_exercises_the_top_integral(self):
        source = get_fixture("three_bracket")
        projection = quotient(source, 2)
        sampler = Sampler(17)
        exercised = 0
        for missing in (0, 1, 2):
            g = GaugeParameter(
                mu=source.zero_vector(),
                witness=sampler.witness(source, 2),
            )
            simplex = solve_gauge_fixed(g, 0)
            horn = Horn.of(simplex, missing)
            target = SimplexElement(projection.apply(simplex.value))
            lifted = fill_horn_relative(projection, horn, target)
            assert projection.apply(lifted.value) == target.value
            exercised += not target.integrate((0, 1, 2)).is_zero()
        assert exercised > 0

    # the seven proper quotients g -> g/F^k, 2 <= k < nilpotency index
    @pytest.mark.parametrize("name, level", [
        (name, level) for name in BUNDLED
        for level in range(2, get_fixture(name).nilpotency_index())
    ])
    def test_lift_along_every_proper_quotient(self, name, level):
        algebra = get_fixture(name)
        f = quotient(algebra, level)
        sampler = Sampler(24)
        for n in (2, 3):
            for missing in range(n + 1):
                g = GaugeParameter(mu=sampler.mc_element(algebra),
                                   witness=sampler.witness(algebra, n))
                simplex = solve_gauge_fixed(g, 0)
                horn = Horn.of(simplex, missing)
                target = SimplexElement(f.apply(simplex.value))
                lifted = fill_horn_relative(f, horn, target)
                assert f.apply(lifted.value) == target.value

    def test_three_dimensional_lift(self):
        source = LInftyAlgebra(
            "deep", [("u", -2), ("z", -1), ("p", 0)], {("u",): {"z": 1}}
        )
        target = LInftyAlgebra(
            "deep_q", [("ub", -2), ("zb", -1)], {("ub",): {"zb": 1}}
        )
        f = Morphism(
            source, target,
            {
                "u": target.basis_vector("ub"),
                "z": target.basis_vector("zb"),
                "p": target.zero_vector(),
            },
        )
        sampler = Sampler(18)
        for missing in range(4):
            g = GaugeParameter(
                mu=source.zero_vector(),
                witness=sampler.witness(source, 3, 2),
            )
            simplex = solve_gauge_fixed(g, 0)
            horn = Horn.of(simplex, missing)
            image = SimplexElement(f.apply(simplex.value))
            lifted = fill_horn_relative(f, horn, image)
            assert f.apply(lifted.value) == image.value

    def test_identity_returns_target(self):
        heis = get_fixture("heisenberg")
        ident = Morphism(
            heis, heis, {s: heis.basis_vector(s) for s in heis.symbols}
        )
        sampler = Sampler(19)
        g = GaugeParameter(mu=heis.zero_vector(), witness=sampler.witness(heis, 2))
        simplex = solve_gauge_fixed(g, 0)
        horn = Horn.of(simplex, 1)
        assert fill_horn_relative(ident, horn, simplex) == simplex

    def test_two_lifts_differ_by_a_kernel_section(self):
        # moving the chosen preimage of the top integral by a kernel
        # element gives a different filler over the same target
        source = get_fixture("three_bracket")
        projection = quotient(source, 2)
        sampler = Sampler(20)
        simplex = None
        while True:
            g = GaugeParameter(
                mu=source.zero_vector(),
                witness=sampler.witness(source, 2),
            )
            simplex = solve_gauge_fixed(g, 0)
            if not projection.apply(
                simplex.value
            ).integrate_chain((0, 1, 2)).is_zero():
                break
        horn = Horn.of(simplex, 1)
        target = SimplexElement(projection.apply(simplex.value))
        lifted = fill_horn_relative(projection, horn, target)
        # shift the section of the top integral by the kernel generator w
        shifted = projection.section(
            target.integrate((1, 0, 2))
        ) + source.basis_vector("w")

        def integral(seq):
            return shifted if len(seq) == 3 else horn.integrate(seq)

        witness = chain_witness(2, 1, integral)
        other = solve_gauge_fixed(
            GaugeParameter(mu=horn.integrate((1,)), witness=witness),
            1,
        )
        assert all(other.face(j) == horn.faces[j] for j in horn.faces)
        assert projection.apply(other.value) == target.value
        assert other != lifted
        assert projection.apply(other.value - lifted.value).is_zero()

    def test_thin_target_lift_is_the_plain_fill(self):
        heis = get_fixture("heisenberg")
        projection = quotient(heis, 2)
        sampler = Sampler(23)
        g = GaugeParameter(mu=heis.zero_vector(), witness=sampler.witness(heis, 2))
        simplex = solve_gauge_fixed(g, 0)
        horn = Horn.of(simplex, 1)
        target = SimplexElement(projection.apply(simplex.value))
        # no degree -1 downstairs: the target is automatically thin and
        # the relative fill collapses onto the absolute thin filler
        lifted = fill_horn_relative(projection, horn, target)
        assert lifted == fill_horn_gamma(horn)

    def test_non_surjective_rejected(self):
        heis = get_fixture("heisenberg")
        target = LInftyAlgebra("bigger", [("a1", 0), ("a2", 0), ("extra", 7)])
        f = Morphism(
            heis, target,
            {
                "e1": target.basis_vector("a1"),
                "e2": target.basis_vector("a2"),
                "e3": target.zero_vector(),
            },
        )
        sampler = Sampler(21)
        g = GaugeParameter(mu=heis.zero_vector(), witness=sampler.witness(heis, 2))
        simplex = solve_gauge_fixed(g, 0)
        horn = Horn.of(simplex, 1)
        image = SimplexElement(f.apply(simplex.value))
        with pytest.raises(ValueError):
            fill_horn_relative(f, horn, image)


class TestOneForms:
    def test_every_polynomial_one_form_is_flat_in_degree_zero(self):
        heis = get_fixture("heisenberg")
        sampler = Sampler(22)
        for _ in range(20):
            comps = {}
            for sym in heis.symbols:
                form = sampler.form(1, 1, 4)
                if not form.is_zero():
                    comps[sym] = form
            alpha = TensorElement(heis, 1, comps)
            assert tensor_curvature(alpha).is_zero()


class BasisSampler(Sampler):
    """The sampler with forms drawn over the whole monomial basis, one
    draw per monomial of the wanted exterior degree: the reference."""

    def form(self, n, exterior_degree, max_poly_degree):
        total = {}
        for mono in monomial_basis(n, max_poly_degree):
            if len(next(iter(mono.terms))[1]) == exterior_degree:
                kernel.add_into(total, mono.terms.items(), self.rational())
        return Form(n, total, _validated=True)


@pytest.mark.parametrize("seed", range(4))
def test_sampler_witnesses_equal_the_basis_reference(seed):
    sampler, reference = Sampler(seed), BasisSampler(seed)
    for name in BUNDLED:
        algebra = get_fixture(name)
        for n in range(4):
            for degree in (1, 2):
                got = sampler.witness(algebra, n, degree)
                want = reference.witness(algebra, n, degree)
                assert got == want
                # the same terms in the same order, so renders agree
                assert [list(f.terms.items()) for f in got.comps.values()] \
                    == [list(f.terms.items()) for f in want.comps.values()]
    assert sampler.rng.getstate() == reference.rng.getstate()
    assert sampler.form(2, -1, 2) == reference.form(2, -1, 2)


class TestDoldKan:
    def test_reports_pass(self):
        for name in ("zero", "abelian_delta", "abelian_chain"):
            algebra = get_fixture(name)
            for n in (1, 2, 3):
                report = dold_kan_compare(algebra, n)
                assert report.passed, report.summary()

    def test_dimension_tables(self):
        # a single degree-0 generator: edges are exactly the group
        point = LInftyAlgebra("line", [("x", 0)])
        report = dold_kan_compare(point, 1)
        assert "dim Z = 1 (forms)" in report.lines
        # a single degree-1 generator with zero differential: the
        # cocycle condition ties the vertex labels into the constants
        top = LInftyAlgebra("top", [("y", 1)])
        report = dold_kan_compare(top, 1)
        assert "dim Z = 1 (forms)" in report.lines
        # on the 2-simplex the same algebra has the constants only
        assert "dim Z = 1 (forms)" in dold_kan_compare(top, 2).lines

    def test_zero_algebra_is_singleton(self):
        zero = get_fixture("zero")
        for n in (1, 2, 3):
            report = dold_kan_compare(zero, n)
            assert "dim Z = 0 (forms)" in report.lines

    def test_rejects_nonabelian(self):
        with pytest.raises(ValueError):
            dold_kan_compare(get_fixture("heisenberg"), 2)

    def test_report_fingerprint(self):
        # the exact reports, held fixed across rewrites of the comparison
        algebras = [get_fixture(name)
                    for name in ("zero", "abelian_delta", "abelian_chain")]
        algebras += [LInftyAlgebra("line", [("x", 0)]),
                     LInftyAlgebra("top", [("y", 1)])]
        rows = [[algebra.name, n, dold_kan_compare(algebra, n).report()]
                for algebra in algebras for n in range(5)]
        assert fingerprint(rows) == "13dd02014e4e7dea"

    def test_fails_without_the_gauge(self, monkeypatch):
        # with s = 0 the gauge kernel is every d + delta cocycle of
        # degree <= 2, not only the elementary ones
        monkeypatch.setattr(TensorElement, "s",
                            lambda self: zero_tensor(self.algebra, self.n))
        report = dold_kan_compare(get_fixture("abelian_chain"), 2)
        assert not report.passed
        assert ("FAIL: the degree<=2 gauge kernel is not the elementary "
                "cocycle space") in report.lines

    def test_fails_with_the_coboundary_signs_flipped(self, monkeypatch):
        coboundary = mc_gamma._simplicial_coboundary
        monkeypatch.setattr(
            mc_gamma, "_simplicial_coboundary",
            lambda seq, n: [(bigger, -sign) for bigger, sign in coboundary(seq, n)],
        )
        report = dold_kan_compare(get_fixture("abelian_chain"), 2)
        assert not report.passed
        assert ("FAIL: the differentials on elementary forms and on cochains "
                "differ") in report.lines


# -- gauge-fixed data is the chain witness of the simplex's integrals --------

@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["heisenberg", "ut4", "dg_lie_01", "heis_exterior",
                     "three_bracket"]),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 10**6),
)
def test_gamma_data_is_the_chain_witness(name, n, vertex, seed):
    algebra = get_fixture(name)
    sampler = Sampler(seed)
    g = GaugeParameter(
        mu=sampler.mc_element(algebra),
        witness=sampler.witness(algebra, n),
    )
    simplex = solve_gauge_fixed(g, 0)
    i = vertex % (n + 1)
    assert gamma_data(simplex, i).witness == chain_witness(n, i, simplex.integrate)



# -- the graded solve against the fixed-point iteration ----------------------


def fixed_point_solve(algebra, n, i, g, gauge):
    """Reference: iterate alpha <- alpha0 - c(N(alpha)) until it stops
    changing, with N(alpha) = sum_l [alpha^l]/l! expanded as ordered
    products over distinct copies of alpha."""
    witness = g.witness - constant_tensor(n, g.witness.evaluate_vertex(i))
    if gauge:
        witness = witness.whitney()
    alpha0 = constant_tensor(n, g.mu) + witness.d_plus_delta()
    alpha = alpha0
    for _ in range(algebra.nilpotency_index() + 2):
        nonlinear, factorial = zero_tensor(algebra, n), 1
        for ell in range(2, algebra.max_arity + 1):
            factorial *= ell
            ordered = tensor_bracket(algebra, [alpha.scale(1) for _ in range(ell)])
            nonlinear = nonlinear + ordered.scale(Fraction(1, factorial))
        correction = nonlinear.h(i)
        if gauge:
            correction = correction.whitney() + nonlinear.s()
        if alpha0 - correction == alpha:
            return alpha
        alpha = alpha0 - correction
    raise AssertionError("the reference iteration did not stabilize")


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SOLVER_FIXTURES),
    st.integers(1, 3),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_graded_solve_is_the_fixed_point(name, n, vertex, gauge, seed):
    algebra = get_fixture(name)
    sampler = Sampler(seed)
    g = GaugeParameter(
        mu=sampler.mc_element(algebra),
        witness=sampler.witness(algebra, n),
    )
    i = vertex % (n + 1)
    solve = solve_gauge_fixed if gauge else solve_mc
    assert solve(g, i).value == fixed_point_solve(algebra, n, i, g, gauge)


# -- the solver outputs pinned by fingerprint --------------------------------


def fingerprint(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _solver_outputs():
    """[fixture, n, plain rendering, gauge-fixed rendering] for two
    seeded data per solver fixture and simplex dimension 1..3."""
    rows = []
    for name in SOLVER_FIXTURES:
        algebra = get_fixture(name)
        for n in (1, 2, 3):
            sampler = Sampler(100 + n)
            for _ in range(2):
                g = GaugeParameter(
                    mu=sampler.mc_element(algebra),
                    witness=sampler.witness(algebra, n),
                )
                rows.append([name, n, solve_mc(g, 0).render(),
                             solve_gauge_fixed(g, 0).render()])
    return rows


def _series_outputs():
    """Renderings of 5 generalized_ch (n = 2) values and simplices on the
    free class-3 algebra and of 20 compose values on ut4."""
    free, ut4 = get_fixture("free_nilpotent_class3"), get_fixture("ut4")
    sampler = Sampler(7)
    rows = []
    for _ in range(5):
        inputs = {(1,): sampler.vector(free, 0), (2,): sampler.vector(free, 0),
                  (1, 2): sampler.vector(free, -1)}
        ch = generalized_ch(free, 2, free.zero_vector(), inputs)
        rows.append([ch.value.render(), ch.simplex.render()])
    for _ in range(20):
        x, y = sampler.vector(ut4, 0), sampler.vector(ut4, 0)
        rows.append(compose(ut4, ut4.zero_vector(), x, y).render())
    return rows


# the exact outputs, held fixed across rewrites of the solver
def test_solver_output_fingerprint():
    assert fingerprint(_solver_outputs()) == "9eff813db8633270"


def test_series_output_fingerprint():
    assert fingerprint(_series_outputs()) == "344643a240c49ba4"
