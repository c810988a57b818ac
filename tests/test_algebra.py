"""Presentations, brackets, filtrations, twisting, tensor structure."""

import itertools
import random
from fractions import Fraction

import pytest

from linfty.algebra import (
    LInftyAlgebra,
    Morphism,
    TensorElement,
    antisymmetric_sign,
    bianchi_residual,
    bracket,
    check_jacobi,
    constant_tensor,
    curvature,
    is_mc,
    jacobiator,
    koszul_sign,
    tensor_bracket,
    tensor_curvature,
    twist,
    twisted_bracket,
    zero_tensor,
)
from linfty.fixtures import (
    Sampler,
    free_nilpotent_class3,
    get_fixture,
    heisenberg_abelianization,
    three_bracket_projection,
)
from linfty.forms import Form
from linfty.linalg import Subspace


class TestKoszulSign:
    def test_examples(self):
        assert koszul_sign((0, 1), (1, 1)) == 1
        assert koszul_sign((1, 0), (1, 1)) == -1        # odd past odd
        assert koszul_sign((1, 0), (0, 1)) == 1         # even past odd
        assert koszul_sign((0, 1, 2), (1, 1, 1)) == 1   # identity

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 5)
            degrees = [rng.randint(-2, 2) for _ in range(n)]
            p1 = list(range(n))
            rng.shuffle(p1)
            p2 = list(range(n))
            rng.shuffle(p2)
            composed = [p1[p2[i]] for i in range(n)]
            lhs = koszul_sign(composed, degrees)
            rhs = koszul_sign(p1, degrees) * koszul_sign(
                p2, [degrees[p1[i]] for i in range(n)]
            )
            assert lhs == rhs

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            koszul_sign((0, 1), (1,))


class TestBrackets:
    def test_heisenberg_table(self):
        heis = get_fixture("heisenberg")
        e1, e2 = heis.basis_vector("e1"), heis.basis_vector("e2")
        assert bracket(heis, [e1, e2]) == heis.basis_vector("e3")
        assert bracket(heis, [e2, e1]) == -heis.basis_vector("e3")

    def test_abelian_brackets_vanish(self):
        ab = get_fixture("abelian_delta")
        x, y = ab.basis_vector("a"), ab.basis_vector("b")
        assert bracket(ab, [x, y]).is_zero()

    def test_arity_above_bound_is_zero(self):
        heis = get_fixture("heisenberg")
        args = [heis.basis_vector("e1")] * 3
        assert bracket(heis, args).is_zero()

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            # bracket of degrees (0, 1) must land in degree 1, not 0
            LInftyAlgebra(
                "bad", [("a", 0), ("b", 1)], {("a", "b"): {"a": 1}}
            )
        with pytest.raises(ValueError):
            LInftyAlgebra("dup", [("a", 0), ("a", 1)])


class TestJacobi:
    def test_fixtures_pass(self):
        for name in ("heisenberg", "ut4", "dg_lie_01", "three_bracket"):
            assert check_jacobi(get_fixture(name), 4).passed

    def test_flipped_sign_fails(self):
        # strictly-upper-triangular table with one flipped structure
        # constant fails the three-term identity on a distinct triple
        table = {
            ("E12", "E23"): {"E13": 1},
            ("E23", "E34"): {"E24": 1},
            ("E12", "E24"): {"E14": 1},
            ("E13", "E34"): {"E14": -1},  # flipped
        }
        broken = LInftyAlgebra(
            "broken", [(s, 0) for s in ("E12", "E13", "E14", "E23", "E24", "E34")],
            table,
        )
        report = check_jacobi(broken, 3)
        assert not report.passed
        assert set(report.failure[0]) == {"E12", "E23", "E34"}

    def test_jacobiator_antisymmetric_arguments(self):
        heis = get_fixture("heisenberg")
        assert jacobiator(heis, ("e1", "e1", "e2")) == {}


class TestLowerCentral:
    def test_heisenberg(self):
        heis = get_fixture("heisenberg")
        report = heis.lower_central()
        assert report.nilpotency_index == 3
        assert report.dims() == [3, 1, 0]
        # the middle term is exactly the center spanned by e3
        assert report.subspaces[1].contains([0, 0, Fraction(1)])
        assert not report.subspaces[1].contains([Fraction(1), 0, 0])

    def test_abelian_index(self):
        assert get_fixture("abelian_delta").lower_central().nilpotency_index == 2

    def test_ut4_index(self):
        assert get_fixture("ut4").lower_central().nilpotency_index == 4

    def test_non_nilpotent_flagged(self):
        sl2ish = LInftyAlgebra(
            "split",
            [("h", 0), ("e", 0), ("f", 0)],
            {
                ("h", "e"): {"e": 2},
                ("h", "f"): {"f": -2},
                ("e", "f"): {"h": 1},
            },
        )
        report = sl2ish.lower_central(cap=8)
        assert report.diverged
        with pytest.raises(ValueError):
            sl2ish.nilpotency_index(cap=8)

    def test_stall_then_drop(self):
        # a pure ternary bracket: the chain pauses before vanishing
        alg = get_fixture("three_bracket")
        assert alg.lower_central().dims() == [5, 1, 1, 0]

    def test_free_class3(self):
        report = get_fixture("free_nilpotent_class3").lower_central()
        assert report.dims() == [94, 88, 70, 0]
        assert report.nilpotency_index == 4

    def test_free_class3_is_built_once(self):
        algebra, _ = free_nilpotent_class3()
        assert algebra is get_fixture("free_nilpotent_class3")
        assert free_nilpotent_class3()[0] is algebra


class TestCurvatureAndTwist:
    def test_dg_lie_curvature(self):
        dg = get_fixture("dg_lie_01")
        sampler = Sampler(5)
        for _ in range(10):
            alpha = sampler.vector(dg, 1)
            expected = bracket(dg, [alpha]) + bracket(dg, [alpha, alpha]).scale(
                Fraction(1, 2)
            )
            assert curvature(dg, alpha) == expected

    def test_degree_zero_algebra_has_trivial_mc(self):
        heis = get_fixture("heisenberg")
        assert is_mc(heis, heis.zero_vector())
        assert curvature(heis, heis.zero_vector()).is_zero()

    def test_abelian_non_cocycle_rejected(self):
        chain = get_fixture("abelian_chain")
        assert is_mc(chain, chain.basis_vector("b"))
        shifted = LInftyAlgebra(
            "shifted", [("p", 1), ("q", 2)], {("p",): {"q": 1}}
        )
        assert not is_mc(shifted, shifted.basis_vector("p"))

    def test_twist_by_zero_is_identity(self):
        dg = get_fixture("dg_lie_01")
        assert twist(dg, dg.zero_vector()).brackets == dg.brackets

    def test_twist_examples(self):
        dg = get_fixture("dg_lie_01")
        mu = dg.basis_vector("f1")
        assert is_mc(dg, mu)
        e1 = dg.basis_vector("e1")
        e2 = dg.basis_vector("e2")
        assert twisted_bracket(dg, mu, [e1]) == bracket(dg, [e1]) + bracket(
            dg, [mu, e1]
        )
        assert twisted_bracket(dg, mu, [e1, e2]) == bracket(dg, [e1, e2])

    def test_twist_passes_jacobi(self):
        sampler = Sampler(6)
        for name in ("dg_lie_01", "heis_exterior"):
            algebra = get_fixture(name)
            for _ in range(3):
                mu = sampler.mc_element(algebra)
                assert check_jacobi(twist(algebra, mu), 4).passed

    def test_twist_additive_for_commuting_elements(self):
        chain = get_fixture("abelian_chain")
        mu1 = chain.basis_vector("b")
        once = twist(chain, mu1)
        mu2 = once.basis_vector("b").scale(Fraction(1, 2))
        lhs = twist(once, mu2)
        rhs = twist(chain, mu1 + chain.basis_vector("b").scale(Fraction(1, 2)))
        assert lhs.brackets == rhs.brackets
        # a central direction in a nonabelian fixture
        heis = get_fixture("heis_exterior")
        central = heis.vector({"e3_q1": 1})
        assert is_mc(heis, central)
        once = twist(heis, central)
        again = twist(once, once.vector({"e3_q2": Fraction(1, 2)}))
        direct = twist(
            heis, central + heis.vector({"e3_q2": Fraction(1, 2)})
        )
        assert again.brackets == direct.brackets

    def test_twist_requires_mc(self):
        shifted = LInftyAlgebra(
            "shifted", [("p", 1), ("q", 2)], {("p",): {"q": 1}}
        )
        with pytest.raises(ValueError):
            twist(shifted, shifted.basis_vector("p"))

    def test_bianchi(self):
        sampler = Sampler(7)
        for name in ("dg_lie_01", "heis_exterior", "three_bracket"):
            algebra = get_fixture(name)
            for _ in range(10):
                alpha = sampler.vector(algebra, 1)
                assert bianchi_residual(algebra, alpha).is_zero()


class TestTensorStructure:
    def test_unary_examples(self):
        heis = get_fixture("heisenberg")
        te = TensorElement(heis, 1, {"e1": Form.one(1)})
        assert tensor_bracket(heis, [te]).is_zero()  # delta = 0, d(1) = 0
        ab = get_fixture("abelian_delta")
        tb = TensorElement(ab, 1, {"a": Form.t(1, 1)})
        image = tensor_bracket(ab, [tb])
        assert image == TensorElement(
            ab, 1, {"b": Form.t(1, 1), "a": Form.dt(1, 1)}
        )

    def test_binary_example(self):
        heis = get_fixture("heisenberg")
        u = TensorElement(heis, 1, {"e1": Form.dt(1, 1)})
        v = TensorElement(heis, 1, {"e2": Form.t(1, 1)})
        out = tensor_bracket(heis, [u, v])
        assert out == TensorElement(
            heis, 1, {"e3": Form.t(1, 1) * Form.dt(1, 1)}
        )

    def test_leibniz_and_antisymmetry(self):
        algebra = get_fixture("heis_exterior")
        sampler = Sampler(8)
        for _ in range(15):
            u = sampler.witness(algebra, 2).d_plus_delta()
            v = sampler.witness(algebra, 2)
            # u has total degree 1 (odd), v total degree 0 (even)
            lhs = tensor_bracket(algebra, [u, v]).d_plus_delta()
            rhs = tensor_bracket(algebra, [u.d_plus_delta(), v]) + tensor_bracket(
                algebra, [u, v.d_plus_delta()]
            ).scale(-1)
            assert lhs == rhs
            assert tensor_bracket(algebra, [u, v]) == tensor_bracket(
                algebra, [v, u]
            ).scale(-1)

    def test_graded_jacobi_on_tensors(self):
        # for brackets of arity <= 2 the arity-3 rule is the classical
        # graded Jacobi sum over two-element heads
        algebra = get_fixture("heis_exterior")
        rng = random.Random(9)
        symbols = list(algebra.symbols)
        words = [(), (1,), (2,), (1, 2)]
        for _ in range(40):
            elements = []
            degrees = []
            for _ in range(3):
                sym = rng.choice(symbols)
                word = rng.choice(words)
                exps = tuple(rng.randint(0, 2) for _ in range(2))
                form = Form(2, {(exps, word): Fraction(rng.randint(1, 3))})
                elements.append(TensorElement(algebra, 2, {sym: form}))
                degrees.append(algebra.degrees[sym] + len(word))
            total = zero_tensor(algebra, 2)
            for head in itertools.combinations(range(3), 2):
                tail = [p for p in range(3) if p not in head][0]
                perm = head + (tail,)
                sign = antisymmetric_sign(perm, degrees)
                inner = tensor_bracket(
                    algebra, [elements[head[0]], elements[head[1]]]
                )
                if inner.is_zero():
                    continue
                total = total + tensor_bracket(
                    algebra, [inner, elements[tail]]
                ).scale(sign)
            assert total.is_zero()

    def test_tensor_curvature_matches_defining_equation(self):
        # three_bracket has the only ternary term; a 3-simplex carries it
        for name, n in (("dg_lie_01", 2), ("three_bracket", 3)):
            algebra = get_fixture(name)
            sampler = Sampler(10)
            w = sampler.witness(algebra, n)
            alpha = w.d_plus_delta()
            expected = (
                alpha.d_plus_delta()
                + tensor_bracket(algebra, [alpha] * 2).scale(Fraction(1, 2))
                + tensor_bracket(algebra, [alpha] * 3).scale(Fraction(1, 6))
            )
            assert tensor_curvature(alpha) == expected

    def test_tensor_operations_on_constants_and_forms(self):
        heis = get_fixture("heisenberg")
        # constants have vanishing unary bracket when the differential is 0
        x = constant_tensor(1, heis.basis_vector("e1"))
        assert tensor_bracket(heis, [x]).is_zero()
        # [x (x) t1] = delta x (x) t1 + x (x) dt1 with delta = 0
        xt = TensorElement(heis, 1, {"e1": Form.t(1, 1)})
        assert tensor_bracket(heis, [xt]) == TensorElement(
            heis, 1, {"e1": Form.dt(1, 1)}
        )
        alpha = TensorElement(heis, 1, {"e1": Form.dt(1, 1)})
        assert tensor_curvature(alpha).is_zero()


class TestMorphisms:
    def test_abelianization_is_strict_and_surjective(self):
        f = heisenberg_abelianization()
        assert f.is_surjective()

    def test_non_strict_rejected(self):
        heis = get_fixture("heisenberg")
        target = LInftyAlgebra("ab2", [("a1", 0), ("a2", 0), ("a3", 0)])
        with pytest.raises(ValueError):
            Morphism(
                heis,
                target,
                {
                    "e1": target.basis_vector("a1"),
                    "e2": target.basis_vector("a2"),
                    "e3": target.basis_vector("a3"),  # [a1,a2] = 0 != a3
                },
            )

    def test_section_is_canonical_preimage(self):
        f = three_bracket_projection()
        target_vec = f.target.vector({"ab": Fraction(2), "vb": Fraction(-1, 2)})
        lift = f.section(target_vec)
        assert f.apply(lift) == target_vec
        # deterministic: repeated calls agree
        assert f.section(target_vec) == lift

    def test_section_rejects_values_outside_image(self):
        heis = get_fixture("heisenberg")
        target = LInftyAlgebra("wide", [("a1", 0), ("z", 5)])
        f = Morphism(
            heis,
            target,
            {
                "e1": target.basis_vector("a1"),
                "e2": target.zero_vector(),
                "e3": target.zero_vector(),
            },
        )
        assert not f.is_surjective()
        with pytest.raises(ValueError):
            f.section(target.basis_vector("z"))
