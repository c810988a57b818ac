"""Presentations, brackets, filtrations, twisting, tensor structure."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import linfty
from linfty import kernel
from linfty.algebra import (
    NILPOTENCY_CAP,
    _atom_tuples,
    GVector,
    LInftyAlgebra,
    Morphism,
    TensorElement,
    bianchi_residual,
    bracket,
    check_jacobi,
    compositions,
    constant_tensor,
    curvature,
    is_mc,
    jacobi_arity,
    jacobi_candidates,
    jacobi_cases,
    jacobiator,
    quotient,
    tensor_bracket,
    tensor_product,
    tensor_curvature,
    twist,
    twisted_bracket,
    zero_tensor,
)
from linfty.bch_groupoid import (
    compose,
    deligne_action,
    generalized_ch,
    tree_exponential,
)
from linfty.fixtures import (
    CLASS3_DELTA,
    CLASS3_GENERATORS,
    FIXTURE_NAMES,
    Sampler,
    free_nilpotent,
    free_nilpotent_class3,
    get_fixture,
)
from linfty.forms import Form, wedge
from linfty.linalg import Subspace
from linfty.report import Report


# -- the reordering sign, by an independent oracle ---------------------------


def koszul_sign(permutation, degrees):
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


def permutation_parity(permutation):
    sign = 1
    for p in range(len(permutation)):
        for q in range(p + 1, len(permutation)):
            if permutation[p] > permutation[q]:
                sign = -sign
    return sign


def antisymmetric_sign(permutation, degrees):
    """Sign for rearranging arguments of a graded antisymmetric bracket:
    permutation parity times the Koszul sign."""
    return permutation_parity(permutation) * koszul_sign(permutation, degrees)


def mobius(n):
    """The Moebius function, by trial division."""
    sign, p = 1, 2
    while n > 1:
        if n % p:
            p += 1
            continue
        n //= p
        if n % p == 0:
            return 0
        sign = -sign
    return sign


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
        # only the flipped triple fails, named with its residual
        assert report.failures == 1
        assert report.lines == ["FAIL: tuple ('E12', 'E23', 'E34'): -2*E14 != 0"]

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
        assert report.subspaces[1].contains({"e3": 1})
        assert not report.subspaces[1].contains({"e1": 1})

    def test_abelian_index(self):
        assert get_fixture("abelian_delta").lower_central().nilpotency_index == 2

    def test_ut4_index(self):
        assert get_fixture("ut4").lower_central().nilpotency_index == 4

    def test_non_nilpotent_flagged(self):
        sl2ish = split_algebra()
        report = sl2ish.lower_central()
        assert report.diverged
        assert_filtration_is_the_ordered_product_one(sl2ish)
        with pytest.raises(ValueError):
            sl2ish.nilpotency_index()

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

    def test_free_two_generators_has_witt_dimensions(self):
        # Witt's necklace formula: the free Lie algebra on two letters
        # has (1/w) sum over d | w of mobius(d) 2^(w/d) basis elements
        # of weight w, and level k of its filtration is weights >= k
        top = 10
        algebra, _ = free_nilpotent("xy", [("x", 0), ("y", 0)], {}, top)
        witt = [sum(mobius(d) * 2 ** (w // d)
                    for d in range(1, w + 1) if w % d == 0) // w
                for w in range(1, top + 1)]
        assert witt[:6] == [2, 1, 2, 3, 6, 9]
        assert algebra.lower_central().dims() == (
            [sum(witt[k:]) for k in range(top)] + [0])

    def test_free_class3_generators_at_weight_two(self):
        algebra, _ = free_nilpotent(
            "pairs", CLASS3_GENERATORS, CLASS3_DELTA, 2
        )
        assert algebra.dim == 24
        assert algebra.lower_central().dims() == [24, 18, 0]
        report = check_jacobi(algebra, 3)
        assert report.passed
        assert report.cases == 2624

    def test_free_class3_generators_at_weight_four(self):
        # in a free nilpotent algebra level k is spanned by the cells whose
        # word has length >= k, an oracle independent of the bracket loop
        algebra, expansion = free_nilpotent(
            "c3w4", CLASS3_GENERATORS, CLASS3_DELTA, 4
        )
        assert algebra.dim == 418
        weight = {sym: len(next(iter(lie))) for sym, lie in expansion.items()}
        report = algebra.lower_central()
        assert report.dims() == [418, 412, 394, 324, 0]
        for k, space in enumerate(report.subspaces, start=1):
            assert space == Subspace(algebra.symbols, [
                {s: 1} for s in algebra.symbols if weight[s] >= k
            ])

    def test_free_class3_bracket_count(self, monkeypatch):
        # no bracket call: one support-trie walk per composition of
        # levels, (1, 1), (1, 2), (1, 3) and (2, 2), forming 348 atom
        # tuples in all
        algebra, _ = free_nilpotent(
            "class3", CLASS3_GENERATORS, CLASS3_DELTA, 3
        )
        calls, walks = [], []

        def counted(*args):
            calls.append(None)
            return bracket(*args)

        def walked(*args):
            walk, runs = _atom_tuples(*args)
            walks.append(len(walk))
            return walk, runs

        monkeypatch.setattr("linfty.algebra.bracket", counted)
        monkeypatch.setattr("linfty.algebra._atom_tuples", walked)
        assert algebra.lower_central().dims() == [94, 88, 70, 0]
        assert len(calls) == 0
        assert len(walks) == 4
        assert sum(walks) == 348


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
        f = quotient(get_fixture("heisenberg"), 2)
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

    def test_unknown_image_symbol_rejected(self):
        heis = get_fixture("heisenberg")
        target = LInftyAlgebra("ab", [("a1", 0), ("a2", 0)])
        a1, a2 = target.basis_vector("a1"), target.basis_vector("a2")
        with pytest.raises(ValueError, match="unknown symbol 'e33' in images"):
            Morphism(heis, target, {"e1": a1, "e2": a2, "e33": a1})

    def test_section_is_canonical_preimage(self):
        f = quotient(get_fixture("three_bracket"), 2)
        target_vec = f.target.vector({"a": Fraction(2), "v": Fraction(-1, 2)})
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


class TestQuotient:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_level_is_a_strict_surjection_killing_its_term(self, name):
        algebra = get_fixture(name)
        spaces = algebra.lower_central().subspaces
        for level in range(1, algebra.nilpotency_index() + 1):
            f = quotient(algebra, level)  # Morphism checks strictness
            space = spaces[level - 1]
            assert f.target.name == f"{name}/F{level}"
            assert f.is_surjective()
            assert f.target.dim == algebra.dim - space.dim
            for sym in algebra.symbols:
                assert f.images[sym].is_zero() == space.contains({sym: 1})

    def test_ends_of_the_filtration(self):
        heis = get_fixture("heisenberg")
        assert quotient(heis, 1).target.dim == 0
        top = quotient(heis, 3)
        assert top.target.symbols == heis.symbols
        assert top.target.brackets == heis.brackets
        assert all(top.images[s] == top.target.basis_vector(s)
                   for s in heis.symbols)

    def test_known_kernels(self):
        assert quotient(get_fixture("heisenberg"), 2).target.symbols == (
            "e1", "e2")
        three = quotient(get_fixture("three_bracket"), 2)
        assert three.target.symbols == ("a", "b", "c", "v")
        assert three.target.max_arity == 1
        assert three.images["w"].is_zero()

    @pytest.mark.parametrize("level", [0, -1, 4, 5])
    def test_level_out_of_range_rejected(self, level):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            quotient(get_fixture("heisenberg"), level)

    def test_not_nilpotent_rejected(self):
        with pytest.raises(ValueError, match="is not nilpotent"):
            quotient(split_algebra(), 2)


# -- random tensors: multiset brackets and the graded Leibniz rule ----------

PROPERTY = settings(max_examples=40, deadline=None)
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
DG_LIE = ("heisenberg", "ut4", "dg_lie_01", "heis_exterior",
          "free_nilpotent_class3")


@st.composite
def homogeneous_tensors(draw, algebra, n, total_degree):
    """A tensor element of the given total degree on the n-simplex, on at
    most three symbols with at most two terms each."""
    eligible = [s for s in algebra.symbols
                if 0 <= total_degree - algebra.degrees[s] <= n]
    if not eligible:
        return zero_tensor(algebra, n)
    comps = {}
    for sym in draw(st.lists(st.sampled_from(eligible), unique=True,
                             min_size=1, max_size=3)):
        k = total_degree - algebra.degrees[sym]
        word = st.lists(st.integers(1, n), unique=True, min_size=k,
                        max_size=k).map(lambda w: tuple(sorted(w)))
        key = st.tuples(st.tuples(*[st.integers(0, 2)] * n), word)
        comps[sym] = Form(n, draw(st.dictionaries(key, rationals, min_size=1,
                                                  max_size=2)))
    return TensorElement(algebra, n, comps)


def copies(x, m):
    """m equal but distinct copies of x, which the bracket expands as an
    ordered product (a run is one object repeated)."""
    return [x.scale(1) for _ in range(m)]


def random_case(data, names):
    algebra = get_fixture(data.draw(st.sampled_from(names)))
    return algebra, data.draw(st.integers(1, 3))


@PROPERTY
@given(st.data())
def test_square_of_a_degree_one_tensor_is_the_ordered_bracket(data):
    algebra, n = random_case(data, ("heisenberg", "ut4", "dg_lie_01",
                                    "heis_exterior", "three_bracket"))
    x = data.draw(homogeneous_tensors(algebra, n, 1))
    assert bracket(algebra, [x, x]) == bracket(algebra, copies(x, 2))


@PROPERTY
@given(st.data())
def test_cube_and_mixed_runs_are_the_ordered_bracket(data):
    # three_bracket has the only ternary bracket
    algebra, n = random_case(data, ("three_bracket",))
    x = data.draw(homogeneous_tensors(algebra, n, 1))
    y = data.draw(homogeneous_tensors(algebra, n, data.draw(st.integers(-1, 2))))
    assert bracket(algebra, [x, x, x]) == bracket(algebra, copies(x, 3))
    assert bracket(algebra, [x, x, y]) == bracket(algebra, copies(x, 2) + [y])
    assert bracket(algebra, [y, x, x]) == bracket(algebra, [y] + copies(x, 2))


@st.composite
def odd_vectors(draw, algebra):
    """A random degree-1 vector."""
    return GVector(algebra, {
        s: draw(rationals) for s in algebra.basis_of_degree(1)
    })


@PROPERTY
@given(st.data())
def test_square_of_a_degree_one_vector_is_the_ordered_bracket(data):
    algebra, _ = random_case(data, ("dg_lie_01", "heis_exterior",
                                    "free_nilpotent_class3"))
    # no fixture has both degree-1 vectors and a ternary bracket
    x = data.draw(odd_vectors(algebra))
    assert bracket(algebra, [x, x]) == bracket(algebra, copies(x, 2))


@PROPERTY
@given(st.sampled_from(("dg_lie_01", "heis_exterior")), st.integers(0, 2**32 - 1))
def test_twist_at_a_random_mc_element_passes_jacobi(name, seed):
    # criterion 5 twists by five sampled elements per fixture; here the
    # sampler's seed is random
    algebra = get_fixture(name)
    mu = Sampler(seed).mc_element(algebra)
    assert check_jacobi(twist(algebra, mu), 4).passed


def test_runs_merge_only_a_repeated_odd_argument():
    algebra = get_fixture("dg_lie_01")
    x = TensorElement(algebra, 1, {"e1": Form.dt(1, 1), "f1": Form.t(1, 1)})
    y = TensorElement(algebra, 1, {"e1": Form.t(1, 1)})

    def runs(args):
        return _atom_tuples(algebra, args, TensorElement.atoms,
                            lambda atom: (algebra.degrees[atom[0]] + atom[1]) % 2)[1]

    # x has total degree 1 and forms one run; y (degree 0) repeats unmerged;
    # dg_lie_01 stores no key of arity 5, which must not hide the runs
    assert [m for _, m in runs([x, x, x, y, y])] == [3, 1, 1]
    assert runs([y, y]) is None and runs([x, x.scale(1)]) is None


# -- the support walk against the full expansion ----------------------------


def full_expansion(args, atoms_of, is_odd):
    """(atom tuple, number of orderings it stands for) over the full
    product of the arguments' atoms: a run (one odd argument repeated)
    takes the multisets of its atoms, each weighted m!/prod(mult!)."""
    groups = []
    for _, group in itertools.groupby(args, id):
        group = list(group)
        atoms = atoms_of(group[0])
        if len(group) > 1 and all(map(is_odd, atoms)):
            groups.append(list(itertools.combinations_with_replacement(
                atoms, len(group))))
        else:
            groups.extend([(atom,) for atom in atoms] for _ in group)
    for parts in itertools.product(*groups):
        weight = 1
        for part in parts:
            weight *= factorial(len(part))
            for count in Counter(map(id, part)).values():
                weight //= factorial(count)
        yield sum(parts, ()), weight


def table_bracket(algebra, syms):
    """The bracket on basis symbols from the stored table and the
    reordering sign alone, apart from the support trie."""
    key, sign = algebra._canonical_key(syms)
    return algebra.vector(algebra.brackets.get(key, {})).scale(sign)


def expanded_bracket(algebra, args):
    """The vector bracket, one table lookup per tuple of the full
    expansion."""
    total = algebra.zero_vector()
    for combo, weight in full_expansion(
        args, lambda a: list(a.coeffs.items()),
        lambda atom: algebra.degrees[atom[0]] % 2,
    ):
        coeff = weight * prod(c for _, c in combo)
        total += table_bracket(algebra, [s for s, _ in combo]).scale(coeff)
    return total


def expanded_tensor_bracket(algebra, args):
    """The tensor bracket, one table lookup per tuple of the full
    expansion; the unary one looks up every symbol."""
    n = args[0].n
    if len(args) == 1:
        total = args[0].d()
        for sym, form in args[0].comps.items():
            total += tensor_product(table_bracket(algebra, (sym,)), form)
        return total
    total = zero_tensor(algebra, n)
    degrees = algebra.degrees
    for combo, weight in full_expansion(
        args, TensorElement.atoms, lambda atom: (degrees[atom[0]] + atom[1]) % 2
    ):
        # the Koszul sign of moving each form past the later symbols
        sign = (-1) ** sum(combo[i][1] * degrees[combo[j][0]]
                           for i in range(len(combo))
                           for j in range(i + 1, len(combo)))
        form = Form.one(n)
        for _, _, piece in combo:
            form = wedge(form, piece)
        value = table_bracket(algebra, [sym for sym, _, _ in combo])
        total += tensor_product(value, form).scale(sign * weight)
    return total


@st.composite
def graded_presentations(draw):
    """2-5 symbols of degrees -1..2 and a degree-homogeneous table of
    arity 1 to 4, a repeated odd symbol allowed in a key; not nilpotent
    in general, which the bracket does not need."""
    degrees = draw(st.lists(st.integers(-1, 2), min_size=2, max_size=5))
    symbols = [f"x{i}" for i in range(len(degrees))]
    table = {}
    for arity in range(1, 5):
        targets = {}
        for key in itertools.combinations_with_replacement(range(len(degrees)), arity):
            if any(a == b and degrees[a] % 2 == 0 for a, b in zip(key, key[1:])):
                continue
            degree = sum(degrees[i] for i in key) + 2 - arity
            fits = [s for s, d in zip(symbols, degrees) if d == degree]
            if fits:
                targets[tuple(symbols[i] for i in key)] = fits
        if not targets:
            continue
        for key in draw(st.lists(st.sampled_from(sorted(targets)), unique=True,
                                 max_size=4)):
            table[key] = draw(st.dictionaries(
                st.sampled_from(targets[key]), rationals, min_size=1
            ))
    return LInftyAlgebra("random", list(zip(symbols, degrees)), table)


@st.composite
def sparse_vectors(draw, algebra, odd=False):
    """A vector on at most four symbols, all of odd degree if odd."""
    symbols = [s for s in algebra.symbols
               if not odd or algebra.degrees[s] % 2] or algebra.symbols
    if not symbols:
        return algebra.zero_vector()
    return GVector(algebra, draw(st.dictionaries(
        st.sampled_from(symbols), rationals, max_size=4)))


@st.composite
def argument_lists(draw, elements):
    """1-4 arguments drawn from a pool of up to three elements, so that
    one object may repeat, next to itself (a run if it is odd) or not."""
    pool = draw(st.lists(elements, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=4))
    return [pool[i] for i in picks]


def assert_brackets_are_the_full_expansion(data, algebra):
    # each argument list and its first argument alone (the unary bracket)
    args = data.draw(argument_lists(st.one_of(
        sparse_vectors(algebra), sparse_vectors(algebra, odd=True))))
    assert bracket(algebra, args) == expanded_bracket(algebra, args)
    assert bracket(algebra, args[:1]) == expanded_bracket(algebra, args[:1])
    walk, _ = _atom_tuples(algebra, args, lambda a: list(a.coeffs.items()),
                           lambda atom: algebra.degrees[atom[0]] % 2)
    for value, combo in walk:
        syms = tuple(s for s, _ in combo)
        assert value and value == algebra.bracket_on_basis(syms)
        assert algebra._canonical_key(syms)[0] in algebra.brackets
    n = data.draw(st.integers(1, 2))
    tensors = st.integers(-1, 3).flatmap(
        lambda degree: homogeneous_tensors(algebra, n, degree))
    args = data.draw(argument_lists(tensors))
    assert tensor_bracket(algebra, args) == expanded_tensor_bracket(algebra, args)
    assert tensor_bracket(algebra, args[:1]) == expanded_tensor_bracket(
        algebra, args[:1])


@PROPERTY
@given(graded_presentations(), st.data())
def test_brackets_are_the_full_expansion(algebra, data):
    assert_brackets_are_the_full_expansion(data, algebra)


@PROPERTY
@given(st.sampled_from(FIXTURE_NAMES), st.data())
def test_fixture_brackets_are_the_full_expansion(name, data):
    assert_brackets_are_the_full_expansion(data, get_fixture(name))


def test_the_series_look_up_only_nonzero_brackets(monkeypatch):
    # every leaf the walk reaches is a nonzero bracket, and the series
    # read the brackets off those leaves (delta off the trie's unary
    # entry) without one basis lookup
    walk_atoms = linfty.algebra._atom_tuples
    leaves = []

    def recorded(*args):
        walk, runs = walk_atoms(*args)
        leaves.extend(value for value, _ in walk)
        return walk, runs

    def refuse(algebra, args):
        raise AssertionError(f"the series looked up the bracket on {args}")

    ut4, free = get_fixture("ut4"), get_fixture("free_nilpotent_class3")
    free.nilpotency_index()
    sampler = Sampler(5)
    monkeypatch.setattr(linfty.algebra, "_atom_tuples", recorded)
    monkeypatch.setattr(LInftyAlgebra, "bracket_on_basis", refuse)
    compose(ut4, ut4.zero_vector(), sampler.vector(ut4, 0), sampler.vector(ut4, 0))
    generalized_ch(free, 2, free.zero_vector(), {
        (1,): sampler.vector(free, 0), (2,): sampler.vector(free, 0),
        (1, 2): sampler.vector(free, -1),
    })
    assert leaves and all(leaves)


def assert_the_trie_is_the_signed_table(data, algebra):
    # every ordering of a stored key is its value times the reordering
    # sign; the empty tuple, an arity above the bound and a tuple off the
    # table bracket to zero
    for key, value in algebra.brackets.items():
        for order in itertools.permutations(key):
            sign = algebra._canonical_key(order)[1]
            assert algebra.bracket_on_basis(order) == algebra.vector(
                value).scale(sign), order
    zero = algebra.zero_vector()
    assert algebra.bracket_on_basis(()) == zero
    if not algebra.symbols:
        return
    top = algebra.max_arity
    symbols = st.sampled_from(algebra.symbols)
    above = data.draw(st.lists(symbols, min_size=top + 1, max_size=top + 2))
    assert algebra.bracket_on_basis(above) == zero
    off = data.draw(st.lists(symbols, min_size=1, max_size=top).filter(
        lambda syms: algebra._canonical_key(syms)[0] not in algebra.brackets))
    assert algebra.bracket_on_basis(off) == zero
    syms = data.draw(st.lists(symbols, max_size=top + 1))
    assert algebra.bracket_on_basis(syms) == table_bracket(algebra, syms)


@PROPERTY
@given(graded_presentations(), st.data())
def test_the_support_trie_is_the_signed_table(algebra, data):
    assert_the_trie_is_the_signed_table(data, algebra)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_fixture_support_trie_is_the_signed_table(name, data):
    assert_the_trie_is_the_signed_table(data, get_fixture(name))


@PROPERTY
@given(st.data())
def test_tensor_bracket_obeys_graded_leibniz(data):
    # (d+delta)[x, y] = [(d+delta)x, y] + (-1)^|x| [x, (d+delta)y]
    algebra, n = random_case(data, DG_LIE)
    degree = data.draw(st.integers(-1, 2))
    x = data.draw(homogeneous_tensors(algebra, n, degree))
    y = data.draw(homogeneous_tensors(algebra, n, data.draw(st.integers(-1, 2))))
    lhs = tensor_bracket(algebra, [x, y]).d_plus_delta()
    rhs = tensor_bracket(algebra, [x.d_plus_delta(), y]) + tensor_bracket(
        algebra, [x, y.d_plus_delta()]
    ).scale((-1) ** degree)
    assert lhs == rhs


# -- the lower central filtration against the ordered-product loop --------


def ordered_filtration(algebra):
    """The lower central filtration with no saving: every ordered
    composition of each level into parts below it, the full rows of each
    part, one bracket per ordered tuple of rows.  Returns (subspaces,
    nilpotency index or None)."""
    rows = [[algebra.basis_vector(s) for s in algebra.symbols]]
    spaces = [Subspace(algebra.symbols, [v.coeffs for v in rows[0]])]
    for level in range(2, NILPOTENCY_CAP + 2):
        vectors = []
        for arity in range(2, algebra.max_arity + 1):
            for comp in itertools.product(range(1, level), repeat=arity):
                if sum(comp) != max(level, arity):
                    continue
                for args in itertools.product(*(rows[c - 1] for c in comp)):
                    value = bracket(algebra, args)
                    if value:
                        vectors.append(value.coeffs)
        space = Subspace(algebra.symbols, vectors)
        spaces.append(space)
        rows.append([GVector(algebra, row) for row in space.rows])
        if space.is_zero():
            return spaces, level
    return spaces, None


def split_algebra():
    """sl(2) in the split basis, which is not nilpotent."""
    return LInftyAlgebra(
        "split", [("h", 0), ("e", 0), ("f", 0)],
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )


@st.composite
def triangular_presentations(draw):
    """2-6 symbols of degrees -1..2 and a degree-homogeneous table of
    arity 2 and 3, a repeated odd symbol allowed in a key.  Each value
    lies on symbols after every symbol of its key, so brackets nested
    deeper than the dimension vanish and the algebra is nilpotent."""
    degrees = draw(st.lists(st.integers(-1, 2), min_size=2, max_size=6))
    symbols = [f"x{i}" for i in range(len(degrees))]
    targets = {}
    for arity in (2, 3):
        for key in itertools.combinations_with_replacement(range(len(degrees)), arity):
            if any(a == b and degrees[a] % 2 == 0 for a, b in zip(key, key[1:])):
                continue
            degree = sum(degrees[i] for i in key) + 2 - arity
            later = [symbols[j] for j in range(key[-1] + 1, len(degrees))
                     if degrees[j] == degree]
            if later:
                targets[tuple(symbols[i] for i in key)] = later
    table = {}
    if targets:
        for key in draw(st.lists(st.sampled_from(sorted(targets)), unique=True,
                                 max_size=10)):
            table[key] = draw(st.dictionaries(
                st.sampled_from(targets[key]), rationals, min_size=1
            ))
    return LInftyAlgebra("random", list(zip(symbols, degrees)), table)


def assert_filtration_is_the_ordered_product_one(algebra):
    spaces, index = ordered_filtration(algebra)
    report = algebra.lower_central()
    assert report.nilpotency_index == index
    assert report.subspaces == spaces


@PROPERTY
@given(triangular_presentations())
def test_filtration_is_the_ordered_product_one(algebra):
    assert_filtration_is_the_ordered_product_one(algebra)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_filtration_is_the_ordered_product_one(name):
    assert_filtration_is_the_ordered_product_one(get_fixture(name))


# -- the Jacobi check on the support, against the full sweep ----------------


def full_jacobi_sweep(algebra, n_max):
    """check_jacobi without the support argument: the Jacobi sum on
    every sorted tuple that repeats no even symbol, in storage order."""
    report = Report(f"Jacobi({algebra.name}) up to arity {n_max}")
    zero = algebra.zero_vector()
    for n in range(1, n_max + 1):
        for syms in itertools.combinations_with_replacement(algebra.symbols, n):
            if algebra._canonical_key(syms)[1]:
                residual = GVector(algebra, jacobiator(algebra, syms))
                report.record(f"tuple {syms}", residual, zero)
    return report


def l4l4():
    """Two quaternary brackets that first meet in the 7-Jacobi rule,
    where they fail it."""
    return LInftyAlgebra(
        "l4l4",
        [(s, 0) for s in "abcd"] + [("e", -2)]
        + [(s, 0) for s in "fgh"] + [("z", -4)],
        {("a", "b", "c", "d"): {"e": 1}, ("e", "f", "g", "h"): {"z": 1}},
    )


# about one graded presentation in five fails the Jacobi rules, so the
# property sees passing and failing ones
@settings(max_examples=150, deadline=None)
@given(st.one_of(triangular_presentations(), graded_presentations()),
       st.integers(1, 5))
def test_jacobi_check_is_the_full_sweep(algebra, n_max):
    assert check_jacobi(algebra, n_max) == full_jacobi_sweep(algebra, n_max)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_jacobi_check_is_the_full_sweep(name):
    algebra = get_fixture(name)
    n_max = 2 if name == "free_nilpotent_class3" else 5
    assert check_jacobi(algebra, n_max) == full_jacobi_sweep(algebra, n_max)


def test_jacobi_check_counts_the_tuples_without_building_them(monkeypatch):
    def refuse(self, arity):
        raise AssertionError("check_jacobi built the canonical tuples")

    monkeypatch.setattr(LInftyAlgebra, "canonical_tuples", refuse)
    report = check_jacobi(get_fixture("dg_lie_01"), 200)
    assert report.passed and report.cases == 160_001
    assert check_jacobi(l4l4(), 7) == full_jacobi_sweep(l4l4(), 7)


def test_failing_jacobi_check_is_the_full_sweep():
    report = check_jacobi(l4l4(), 7)
    assert report == full_jacobi_sweep(l4l4(), 7)
    assert report.lines == [
        "FAIL: tuple ('a', 'b', 'c', 'd', 'f', 'g', 'h'): z != 0"
    ]


def test_failing_jacobi_check_counts_every_case_and_failure(scaled_class3):
    report = check_jacobi(scaled_class3, 3)
    assert report.failures > 1
    assert report.cases == jacobi_cases(scaled_class3, 3) == 142_974
    assert report.lines[0] == (
        "FAIL: tuple ('x1', 'x2'): 2*w[x1,y2] - 2*w[x2,y1] != 0")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_jacobi_sum_vanishes_off_its_candidates(name):
    algebra = get_fixture(name)
    n_max = jacobi_arity(algebra)
    candidates = jacobi_candidates(algebra, n_max)
    for n in range(1, n_max + 1):
        for syms in algebra.canonical_tuples(n):
            if syms not in candidates:
                assert jacobiator(algebra, syms) == {}


# -- the vector-space surface that Form, GVector and TensorElement share ----


def _form_case():
    x = Form.t(1, 2) * Form.dt(2, 2) + Form.constant(2, Fraction(3, 4))
    return x, Form.dt(1, 2), Form.zero(2), Form.t(1, 3)


def _vector_case():
    heis, ut4 = get_fixture("heisenberg"), get_fixture("ut4")
    x = heis.vector({"e1": 2, "e3": Fraction(-1, 3)})
    return x, heis.basis_vector("e2"), heis.zero_vector(), ut4.basis_vector("E12")


def _tensor_case():
    heis = get_fixture("heisenberg")
    x = TensorElement(heis, 1, {"e1": Form.t(1, 1), "e2": Form.dt(1, 1)})
    y = constant_tensor(1, heis.basis_vector("e3"))
    return x, y, zero_tensor(heis, 1), zero_tensor(heis, 2)


# each case gives (x, y, the zero of their space, an element over another)
LINEAR_CASES = {"Form": _form_case, "GVector": _vector_case,
                "TensorElement": _tensor_case}


@pytest.mark.parametrize("name", LINEAR_CASES)
def test_zero_is_falsy(name):
    x, y, zero, _ = LINEAR_CASES[name]()
    assert x and y
    assert not zero and zero.is_zero()
    assert not (x - x) and (x - x) == zero
    assert (x + zero) == x


@pytest.mark.parametrize("name", LINEAR_CASES)
def test_scalar_multiples(name):
    x, y, _, _ = LINEAR_CASES[name]()
    assert 2 * x == x + x
    assert -x == (-1) * x
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x
    assert 3 * (x - y) == 3 * x - 3 * y
    assert x.scale(Fraction(2, 3)) == Fraction(2, 3) * x


@pytest.mark.parametrize("name", LINEAR_CASES)
def test_equal_values_hash_equal(name):
    x, y, zero, _ = LINEAR_CASES[name]()
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert hash(2 * x) == hash(x + x)
    assert hash(x - x) == hash(zero)
    assert len({x + y, y + x, x}) == 2


@pytest.mark.parametrize("name", LINEAR_CASES)
def test_another_type_or_space_is_refused(name):
    x, _, _, elsewhere = LINEAR_CASES[name]()
    for other_name, case in LINEAR_CASES.items():
        if other_name != name:
            other = case()[0]
            assert x != other
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                x - other
    with pytest.raises(TypeError):
        x + 1
    assert x != elsewhere
    with pytest.raises(ValueError):
        x + elsewhere
    with pytest.raises(ValueError):
        x.combine([(2, elsewhere)])


@pytest.mark.parametrize("cls", [Form, GVector, TensorElement])
def test_the_vector_space_surface_is_written_once(cls):
    shared = {"__add__", "__sub__", "__neg__", "__rmul__", "__eq__",
              "__hash__", "is_zero", "__bool__"}
    assert not shared & set(vars(cls))
    assert issubclass(cls, kernel.Linear)


def test_package_exports_resolve_once():
    assert len(set(linfty.__all__)) == len(linfty.__all__)
    for name in linfty.__all__:
        assert getattr(linfty, name) is not None, name


# -- one reordering sign and one enumeration of the bracket's domain --------

@PROPERTY
@given(st.data())
def test_sort_word_is_the_antisymmetric_sign(data):
    degrees = data.draw(st.lists(st.integers(-2, 2), max_size=7))
    perm = data.draw(st.permutations(range(len(degrees))))
    odd = frozenset(p for p, d in enumerate(degrees) if d % 2)
    assert kernel.sort_word(perm, odd) == (
        tuple(range(len(degrees))), antisymmetric_sign(perm, degrees)
    )


@PROPERTY
@given(st.data())
def test_canonical_key_is_the_oracle_sign(data):
    degrees = data.draw(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
    symbols = [f"x{i}" for i in range(len(degrees))]
    algebra = LInftyAlgebra("graded", list(zip(symbols, degrees)))
    args = data.draw(st.lists(st.sampled_from(symbols), max_size=7))
    # the stable sorting permutation: slot p holds the argument at perm[p]
    perm = sorted(range(len(args)), key=lambda p: algebra.index[args[p]])
    key = tuple(args[p] for p in perm)
    repeats_even = any(
        a == b and algebra.degrees[a] % 2 == 0 for a, b in zip(key, key[1:])
    )
    expected = ((), 0) if repeats_even else (
        key, antisymmetric_sign(perm, [algebra.degrees[a] for a in args])
    )
    assert algebra._canonical_key(args) == expected


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_canonical_tuples_skip_exactly_a_repeated_even_symbol(name):
    algebra = get_fixture(name)
    even = {s for s in algebra.symbols if algebra.degrees[s] % 2 == 0}
    top = 3 if name == "free_nilpotent_class3" else 4
    for m in range(1, top + 1):
        expected = [
            syms
            for syms in itertools.combinations_with_replacement(algebra.symbols, m)
            if not any(
                syms[p] == syms[p + 1] and syms[p] in even for p in range(m - 1)
            )
        ]
        assert list(algebra.canonical_tuples(m)) == expected


@PROPERTY
@given(st.lists(st.integers(-2, 2), max_size=6), st.integers(0, 8))
def test_jacobi_cases_is_the_per_arity_sum(degrees, n_max):
    symbols = [f"x{i}" for i in range(len(degrees))]
    algebra = LInftyAlgebra("graded", list(zip(symbols, degrees)))
    assert jacobi_cases(algebra, n_max) == sum(
        1 for n in range(1, n_max + 1) for _ in algebra.canonical_tuples(n))


@PROPERTY
@given(st.integers(2, 12), st.integers(2, 6))
def test_compositions_are_the_filtered_combinations(level, arity):
    # the compositions lower_central walks at one level and arity, and
    # the solver of mc_gamma at one weight
    total = max(level, arity)
    assert list(compositions(total, arity, level)) == [
        comp
        for comp in itertools.combinations_with_replacement(range(1, level), arity)
        if sum(comp) == total
    ]


def test_series_on_a_non_nilpotent_algebra_are_refused():
    algebra = split_algebra()
    zero, x = algebra.zero_vector(), algebra.basis_vector("e")
    message = r"algebra 'split' is not nilpotent \(cap 64\)"
    with pytest.raises(ValueError, match=message):
        tree_exponential(algebra, zero, x, 1)
    with pytest.raises(ValueError, match=message):
        deligne_action(algebra, x, zero)
