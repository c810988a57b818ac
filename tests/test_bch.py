"""Trees, the gauge flow, composition series, the matrix oracle, and
finite groupoid nerves."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from linfty import bch_groupoid, kernel
from linfty.algebra import (
    LInftyAlgebra,
    TensorElement,
    bracket,
    is_mc,
    twisted_bracket,
)
from linfty.bch_groupoid import (
    NerveTruncation,
    NilMatrix,
    alpha1,
    canonical_tree,
    check_monodromy,
    compose,
    deligne_action,
    edge_value,
    enumerate_trees,
    generalized_ch,
    group_nerve,
    matrix_exp,
    matrix_log,
    oracle_bch,
    rho1,
    rho3_associativity_check,
    tree_exponential,
)
from linfty.fixtures import (
    REPRESENTATIONS,
    Sampler,
    cyclic_group_nerve,
    free_nilpotent,
    free_nilpotent_class3,
    get_fixture,
    get_representation,
    pair_groupoid_nerve,
    word_commutator,
)
from linfty.forms import Form
from linfty.mc_gamma import (
    GaugeParameter,
    Horn,
    fill_horn_gamma,
    is_thin,
    refill_report,
    solve_gauge_fixed,
)
from word_oracle import exp_log


def tree_size(tree) -> int:
    return 1 + sum(tree_size(c) for c in tree)


def weight_formula_coefficient(tree) -> int:
    """k!/(prod of subtree sizes * |Aut T|) for a tree T of k vertices:
    the monotone-order coefficient in closed form (Hairer-Lubich-Wanner,
    Geometric Numerical Integration, III.1)."""

    def size_product(t):
        prod = tree_size(t)
        for c in t:
            prod *= size_product(c)
        return prod

    def automorphisms(t):
        count = 1
        for shape, group in itertools.groupby(sorted(t)):
            mult = len(list(group))
            count *= factorial(mult) * automorphisms(shape) ** mult
        return count

    return factorial(tree_size(tree)) // (size_product(tree) * automorphisms(tree))


def brute_force_tree_coefficients(k):
    """Count growth sequences by shape: every function sending each
    label below k-1 to a larger parent label gives a rooted tree on
    {0..k-1} with root k-1, and the number of such labeled trees per
    unlabeled shape is exactly the flow coefficient."""
    counts = Counter()
    choices = [range(v + 1, k) for v in range(k - 1)]
    for parents in itertools.product(*choices):
        children = {v: [] for v in range(k)}
        for v, p in enumerate(parents):
            children[p].append(v)

        def shape(v):
            return canonical_tree([shape(c) for c in children[v]])

        counts[shape(k - 1)] += 1
    return counts


def is_group(rows) -> bool:
    """The group axioms, by brute force, for the table rows[a][b] = ab
    on range(len(rows)): associativity, a two-sided identity, and a
    two-sided inverse of every element."""
    elements = range(len(rows))
    if any(rows[rows[a][b]][c] != rows[a][rows[b][c]]
           for a in elements for b in elements for c in elements):
        return False
    e = next((e for e in elements
              if all(rows[e][g] == g == rows[g][e] for g in elements)), None)
    return e is not None and all(
        any(rows[g][h] == e == rows[h][g] for h in elements)
        for g in elements
    )


class TestTrees:
    def test_counts(self):
        assert [len(enumerate_trees(k)) for k in range(1, 6)] == [1, 1, 2, 4, 9]

    def test_small_coefficients(self):
        assert [c for _, c in enumerate_trees(1)] == [1]
        assert [c for _, c in enumerate_trees(2)] == [1]
        assert sorted(c for _, c in enumerate_trees(3)) == [1, 1]

    def test_coefficients_match_brute_force(self):
        for k in range(1, 7):
            expected = brute_force_tree_coefficients(k)
            computed = dict(enumerate_trees(k))
            assert computed == dict(expected)

    def test_coefficients_match_the_weight_formula(self):
        for k in range(1, 10):
            for tree, coefficient in enumerate_trees(k):
                assert coefficient == weight_formula_coefficient(tree)

    def test_total_weight_is_factorial(self):
        for k in range(1, 7):
            assert sum(c for _, c in enumerate_trees(k)) == factorial(k - 1)

    def test_canonical_order_is_stable(self):
        first = [tree for tree, _ in enumerate_trees(5)]
        second = [tree for tree, _ in enumerate_trees(5)]
        assert first == second
        assert all(tree_size(t) == 5 for t in first)

    def test_width_keeps_the_narrow_trees_and_their_coefficients(self):
        # brute force: the unbounded coefficients, restricted to the
        # trees with at most w children at each vertex
        def width(tree):
            return max([len(tree)] + [width(c) for c in tree])

        for k in range(1, 9):
            unbounded = dict(brute_force_tree_coefficients(k))
            for w in range(4):
                assert dict(enumerate_trees(k, w)) == {
                    tree: c for tree, c in unbounded.items()
                    if width(tree) <= w}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)
        heis = get_fixture("heisenberg")
        with pytest.raises(ValueError):
            tree_exponential(heis, heis.zero_vector(), heis.basis_vector("e1"), 0)


class TestGaugeFlow:
    def test_first_terms_displayed(self):
        algebra, _ = free_nilpotent_class3()
        zero = algebra.zero_vector()
        x = algebra.basis_vector("x1")

        def tb(*args):
            return twisted_bracket(algebra, zero, list(args))

        assert tree_exponential(algebra, zero, x, 1) == tb(x)
        assert tree_exponential(algebra, zero, x, 2) == tb(x, tb(x))
        assert tree_exponential(algebra, zero, x, 3) == tb(x, tb(x, tb(x))) + tb(
            x, tb(x), tb(x)
        )

    def test_vanishes_past_nilpotency(self):
        heis = get_fixture("heisenberg")
        x = heis.vector({"e1": 1, "e2": Fraction(1, 2)})
        for k in range(3, 6):
            assert tree_exponential(heis, heis.zero_vector(), x, k).is_zero()

    def test_one_edge_evaluates_each_tree_once(self, monkeypatch):
        # ut4 has nilpotency index 4 and max_arity 2: the three trees of
        # width 1 with 1-3 vertices (the chains) each cost one twisted
        # bracket, and the base point one MC check; the two-leaf tree
        # would be a zero ternary bracket and is not grown
        ut4 = get_fixture("ut4")
        assert ut4.nilpotency_index() == 4
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(bch_groupoid, name, wrapper)

        counted("twisted_bracket", bch_groupoid.twisted_bracket)
        counted("is_mc", bch_groupoid.is_mc)
        x = ut4.vector({"E12": 1, "E23": Fraction(1, 2), "E34": -1})
        alpha1(ut4, ut4.zero_vector(), x)
        assert calls == {"twisted_bracket": 3, "is_mc": 1}

    def test_degree_zero_lie_flow_is_trivial(self):
        heis = get_fixture("heisenberg")
        x = heis.basis_vector("e1")
        for k in range(1, 4):
            assert tree_exponential(heis, heis.zero_vector(), x, k).is_zero()


class TestEdgeFormula:
    def test_degree_zero_edge(self):
        heis = get_fixture("heisenberg")
        x = heis.vector({"e1": 1, "e3": Fraction(-1, 2)})
        edge = alpha1(heis, heis.zero_vector(), x)
        expected = TensorElement(
            heis, 1, {s: Form.dt(1, 1).scale(-c) for s, c in x.coeffs.items()}
        )
        assert edge.value == expected
        assert edge_value(edge) == x

    def test_abelian_edge(self):
        ab = get_fixture("abelian_delta")
        x = ab.basis_vector("a")
        edge = alpha1(ab, ab.zero_vector(), x)
        expected = TensorElement(
            ab, 1, {"b": Form.t(1, 1).scale(-1), "a": Form.dt(1, 1).scale(-1)}
        )
        assert edge.value == expected
        assert edge.vertex(0) == ab.zero_vector()
        assert edge.vertex(1) == rho1(ab, ab.zero_vector(), x)

    def test_matches_solver(self):
        sampler = Sampler(30)
        for name in ("dg_lie_01", "heis_exterior", "three_bracket"):
            algebra = get_fixture(name)
            for _ in range(5):
                mu = sampler.mc_element(algebra)
                x = sampler.vector(algebra, 0)
                witness = TensorElement(
                    algebra, 1,
                    {s: Form.t(1, 1).scale(-c) for s, c in x.coeffs.items()},
                )
                solved = solve_gauge_fixed(GaugeParameter(mu=mu, witness=witness), 0)
                assert alpha1(algebra, mu, x) == solved

    def test_rho1_values(self):
        ab = get_fixture("abelian_delta")
        x = ab.basis_vector("a")
        assert rho1(ab, ab.zero_vector(), x) == -ab.basis_vector("b")
        heis = get_fixture("heisenberg")
        assert rho1(
            heis, heis.zero_vector(), heis.basis_vector("e1")
        ).is_zero()


class TestGeneralizedSeries:
    def test_abelian_quadratic_value(self):
        # exact closed form in an abelian algebra with a differential on
        # the interior slot, under the frozen orientation
        ab = LInftyAlgebra(
            "ab_mix",
            [("x1", 0), ("x2", 0), ("x12", -1), ("y12", 0)],
            {("x12",): {"y12": 1}},
        )
        result = generalized_ch(
            ab, 2, ab.zero_vector(),
            {
                (1,): ab.basis_vector("x1"),
                (2,): ab.basis_vector("x2"),
                (1, 2): ab.basis_vector("x12"),
            },
        )
        expected = (
            ab.basis_vector("x1")
            - ab.basis_vector("x2")
            - ab.basis_vector("y12").scale(Fraction(1, 2))
        )
        assert result.value == expected
        # the opposite orientation reproduces the reference sign +1/2
        flipped = -generalized_ch(
            ab, 2, ab.zero_vector(),
            {
                (1,): -ab.basis_vector("x1"),
                (2,): -ab.basis_vector("x2"),
                (1, 2): ab.basis_vector("x12"),
            },
        ).value
        assert flipped == (
            ab.basis_vector("x1")
            - ab.basis_vector("x2")
            + ab.basis_vector("y12").scale(Fraction(1, 2))
        )

    def test_one_dimensional_case_reduces_to_the_edge_series(self):
        sampler = Sampler(31)
        for name in ("heisenberg", "dg_lie_01"):
            algebra = get_fixture(name)
            mu = sampler.mc_element(algebra)
            x = sampler.vector(algebra, 0)
            result = generalized_ch(algebra, 1, mu, {(1,): x})
            assert result.value == rho1(algebra, mu, x)

    def test_heisenberg_quadratic_is_the_matrix_logarithm(self):
        heis = get_fixture("heisenberg")
        rep = get_representation("heisenberg")
        sampler = Sampler(32)
        for _ in range(5):
            x1 = sampler.vector(heis, 0)
            x2 = sampler.vector(heis, 0)
            rho = generalized_ch(
                heis, 2, heis.zero_vector(), {(1,): x1, (2,): x2}
            ).value
            expected = oracle_bch(rep.apply(x1), rep.apply(x2).scale(-1))
            assert rep.apply(rho) == expected

    def test_input_validation(self):
        heis = get_fixture("heisenberg")
        with pytest.raises(ValueError):
            generalized_ch(
                heis, 2, heis.zero_vector(), {(2, 1): heis.basis_vector("e1")}
            )
        with pytest.raises(ValueError):
            generalized_ch(
                heis, 2, heis.zero_vector(), {(1, 2): heis.basis_vector("e1")}
            )


class TestCompose:
    def test_identity_laws(self):
        heis = get_fixture("heisenberg")
        sampler = Sampler(33)
        zero = heis.zero_vector()
        x = sampler.vector(heis, 0)
        assert compose(heis, zero, x, zero) == x
        assert compose(heis, zero, zero, x) == x

    def test_abelian_composition_adds(self):
        ab = LInftyAlgebra("plain", [("g1", 0), ("g2", 0)])
        sampler = Sampler(34)
        x, y = sampler.vector(ab, 0), sampler.vector(ab, 0)
        assert compose(ab, ab.zero_vector(), x, y) == x + y

    def test_matches_matrix_group_law(self):
        for name in ("heisenberg", "ut4"):
            rep = get_representation(name)
            algebra = rep.algebra
            sampler = Sampler(35)
            zero = algebra.zero_vector()
            for _ in range(6):
                x, y = sampler.vector(algebra, 0), sampler.vector(algebra, 0)
                z = compose(algebra, zero, x, y)
                assert rep.apply(z) == oracle_bch(rep.apply(x), rep.apply(y))

    def test_self_cancellation(self):
        heis = get_fixture("heisenberg")
        sampler = Sampler(36)
        x = sampler.vector(heis, 0)
        rho = generalized_ch(
            heis, 2, heis.zero_vector(), {(1,): x, (2,): x}
        ).value
        assert rho.is_zero()

    def test_rejects_negative_degrees(self):
        tb = get_fixture("three_bracket")
        with pytest.raises(ValueError):
            compose(
                tb, tb.zero_vector(), tb.basis_vector("a"), tb.basis_vector("b")
            )

    def test_nonzero_base_point(self):
        # identities and associativity hold along a moving base point
        algebra = get_fixture("dg_lie_01")
        sampler = Sampler(50)
        zero = algebra.zero_vector()
        for _ in range(4):
            mu = sampler.mc_element(algebra)
            x, y, z = (sampler.vector(algebra, 0) for _ in range(3))
            assert compose(algebra, mu, x, zero) == x
            assert compose(algebra, mu, zero, y) == y
            left = compose(algebra, mu, compose(algebra, mu, x, y), z)
            right = compose(algebra, mu, x, compose(algebra, mu, y, z))
            assert left == right

    @pytest.mark.parametrize("name", ["ut4", "heisenberg", "dg_lie_01"])
    def test_reads_the_pulled_back_face(self, name):
        # compose integrates the filler over (0, 2); the composed edge is
        # the filler's face 1, pulled back
        algebra = get_fixture(name)
        sampler = Sampler(70)
        for _ in range(10):
            mu = sampler.mc_element(algebra)
            x, y = sampler.vector(algebra, 0), sampler.vector(algebra, 0)
            edge_y = alpha1(algebra, mu, y)
            edge_x = alpha1(algebra, edge_y.vertex(1), x)
            filler = fill_horn_gamma(Horn(2, 1, {0: edge_x, 2: edge_y}))
            assert compose(algebra, mu, x, y) == edge_value(filler.face(1))


class TestWordOracle:
    """The series on the free nilpotent Lie algebra on two degree-0
    letters against log(e^x e^y) on words truncated at the same weight:
    exact, matrix-free and with no coefficient table."""

    LETTERS = [("x", 0), ("y", 0)]

    @staticmethod
    def _words(expansion, v):
        out: dict = {}
        for sym, c in v.coeffs.items():
            kernel.add_into(out, expansion[sym].items(), c)
        return out

    @pytest.mark.parametrize("top", [5, 6, 7, 8])
    def test_series_are_log_of_exponentials(self, top):
        algebra, expansion = free_nilpotent("xy", self.LETTERS, {}, top)
        exp, log, mul = exp_log(top)
        zero = algebra.zero_vector()
        sampler = Sampler(60 + top)
        for _ in range(3):
            x, y = sampler.vector(algebra, 0), sampler.vector(algebra, 0)
            wx, wy = self._words(expansion, x), self._words(expansion, y)
            z = compose(algebra, zero, x, y)
            assert self._words(expansion, z) == log(mul(exp(wx), exp(wy)))
            rho = generalized_ch(algebra, 2, zero, {(1,): x, (2,): y}).value
            minus_wy = kernel.scale_terms(wy, -1)
            assert self._words(expansion, rho) == log(
                mul(exp(wx), exp(minus_wy))
            )

    def test_goldberg_coefficients_to_weight_four(self):
        algebra, expansion = free_nilpotent("xy", self.LETTERS, {}, 4)
        z = compose(
            algebra, algebra.zero_vector(),
            algebra.basis_vector("x"), algebra.basis_vector("y"),
        )
        x, y = expansion["x"], expansion["y"]

        def br(u, v):
            return word_commutator(u, v, algebra.degrees)

        xy = br(x, y)
        expected: dict = {}
        for scale, u in (
            (1, x),
            (1, y),
            (Fraction(1, 2), xy),
            (Fraction(1, 12), br(x, xy)),
            (Fraction(-1, 12), br(y, xy)),
            (Fraction(-1, 24), br(y, br(x, xy))),
        ):
            kernel.add_into(expected, u.items(), scale)
        assert self._words(expansion, z) == expected


class TestAssociativity:
    def test_dg_lie_associator_vanishes(self):
        sampler = Sampler(37)
        for name in ("heisenberg", "ut4", "dg_lie_01"):
            algebra = get_fixture(name)
            mu = sampler.mc_element(algebra)
            xs = [sampler.vector(algebra, 0) for _ in range(3)]
            assert rho3_associativity_check(algebra, mu, *xs).is_zero()

    @pytest.mark.parametrize("top", [3, 4, 5])
    def test_free_nilpotent_associator_vanishes(self, top):
        """The dg Lie half of criterion 10 on the free nilpotent Lie
        algebra on three generators of degree 0, universal for the
        nilpotent Lie algebras of class <= top: the associator is zero,
        the n = 3 series simplex is thin, and compose is associative.
        The algebra has no degree -1 or -2, so the first two hold by
        degree; the third is the group law's associativity."""
        algebra, _ = free_nilpotent(
            "xyz", (("x", 0), ("y", 0), ("z", 0)), {}, top)
        zero = algebra.zero_vector()
        sampler = Sampler(40 + top)
        x1, x2, x3 = (sampler.vector(algebra, 0) for _ in range(3))
        assert rho3_associativity_check(algebra, zero, x1, x2, x3).is_zero()
        series = generalized_ch(algebra, 3, zero,
                                {(1,): x1, (2,): x2, (3,): x3})
        assert is_thin(series.simplex)
        left = compose(algebra, zero, compose(algebra, zero, x1, x2), x3)
        right = compose(algebra, zero, x1, compose(algebra, zero, x2, x3))
        assert left == right
        assert len(left.coeffs) == len(algebra.basis_of_degree(0))

    def test_free_class3_associator_vanishes(self):
        # g^-1 has 15 dimensions, so the associator is not zero by degree
        free = get_fixture("free_nilpotent_class3")
        assert len(free.basis_of_degree(-1)) == 15
        zero = free.zero_vector()
        sampler = Sampler(0)
        for _ in range(3):
            xs = [sampler.vector(free, 0) for _ in range(3)]
            assert rho3_associativity_check(free, zero, *xs).is_zero()

    def test_three_bracket_associator_reported(self):
        tb = get_fixture("three_bracket")
        associator = rho3_associativity_check(
            tb, tb.zero_vector(),
            tb.basis_vector("a"), tb.basis_vector("b"), tb.basis_vector("c"),
        )
        # the associator at mu = 0 is -l3/6, and l3(a, b, c) = w
        assert associator == tb.basis_vector("w").scale(Fraction(-1, 6))


class TestGaugeAction:
    def test_examples(self):
        dg = get_fixture("dg_lie_01")
        sampler = Sampler(38)
        mu = sampler.mc_element(dg)
        assert deligne_action(dg, dg.zero_vector(), mu) == mu
        ab = get_fixture("abelian_delta")
        x = ab.basis_vector("a")
        mu0 = ab.zero_vector()
        assert deligne_action(ab, x, mu0) == -bracket(ab, [x])

    def test_matches_rho1_and_preserves_flatness(self):
        sampler = Sampler(39)
        for name in ("dg_lie_01", "heis_exterior"):
            algebra = get_fixture(name)
            for _ in range(10):
                mu = sampler.mc_element(algebra)
                x = sampler.vector(algebra, 0)
                acted = deligne_action(algebra, x, mu)
                assert is_mc(algebra, acted)
                assert acted == rho1(algebra, mu, x)

    def test_action_property_through_the_oracle(self):
        # acting twice equals acting by the matrix-certified product
        algebra = get_fixture("heis_exterior")
        rep3 = get_representation("heisenberg")
        sampler = Sampler(40)
        for _ in range(8):
            mu = sampler.mc_element(algebra)
            x = sampler.vector(algebra, 0)
            y = sampler.vector(algebra, 0)
            twice = deligne_action(algebra, x, deligne_action(algebra, y, mu))
            xm = rep3.apply(rep3.algebra.vector(
                {s: c for s, c in x.coeffs.items()}
            ))
            ym = rep3.apply(rep3.algebra.vector(
                {s: c for s, c in y.coeffs.items()}
            ))
            zm = oracle_bch(xm, ym)
            z = algebra.vector(
                {
                    "e1": zm.rows[0][1],
                    "e2": zm.rows[1][2],
                    "e3": zm.rows[0][2],
                }
            )
            assert deligne_action(algebra, z, mu) == twice

    def test_rejects_higher_brackets(self):
        tb = get_fixture("three_bracket")
        with pytest.raises(ValueError):
            deligne_action(
                tb, tb.basis_vector("a"), tb.zero_vector()
            )


class TestNilMatrices:
    def test_exp_example(self):
        m = NilMatrix([[0, 1, 3], [0, 0, 2], [0, 0, 0]])
        assert matrix_exp(m) == [
            [1, 1, 4],
            [0, 1, 2],
            [0, 0, 1],
        ]

    def test_log_inverts_exp(self):
        rng = random.Random(41)
        for _ in range(10):
            rows = [[Fraction(0)] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i + 1, 4):
                    rows[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m = NilMatrix(rows)
            assert matrix_log(matrix_exp(m)) == m

    def test_heisenberg_oracle_truncation(self):
        x = NilMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        y = NilMatrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        z = oracle_bch(x, y)
        half = x + y
        assert z == half + x.commutator(y).scale(Fraction(1, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_triangular_product_equals_the_dense_product(self, data):
        m = data.draw(st.integers(1, 5))
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        a, b = ([[data.draw(entry) if i <= j else Fraction(0)
                  for j in range(m)] for i in range(m)] for _ in range(2))
        dense = [[sum(a[i][k] * b[k][j] for k in range(m))
                  for j in range(m)] for i in range(m)]
        assert bch_groupoid._mat_mul(a, b) == dense

    def test_representation_table(self):
        # a matrix unit for each degree-0 symbol, commutators of images
        # are images of brackets, and no other fixture has an entry
        for name, (size, units) in REPRESENTATIONS.items():
            rep = get_representation(name)
            assert rep.size == size
            assert sorted(units) == sorted(rep.algebra.basis_of_degree(0))
            assert rep.check_faithful_bracket()
        with pytest.raises(KeyError):
            get_representation("dg_lie_01")

    def test_validation(self):
        with pytest.raises(ValueError):
            NilMatrix([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            matrix_log([[2, 0], [0, 1]])


def nerve_fill(nerve, n):
    """The inverse of the face maps of the nerve's n-simplices: a horn
    (the faces with None at one position) -> the simplex it was cut
    from.  Where two simplices share a horn it keeps the later one, so
    a refill of the earlier one fails."""
    inverse = {nerve.faces(n, s, k): s
               for s in nerve.simplices[n] for k in range(n + 1)}
    return inverse.__getitem__


class TestGroupoidNerve:
    def test_cyclic_two_element_nerve(self):
        nerve = cyclic_group_nerve(2, 3)
        assert len(nerve.simplices[2]) == 4
        filler = nerve_fill(nerve, 2)(((1,), None, (1,)))
        assert nerve.face(2, 1, filler) == (0,)

    def test_composite_edge_of_inner_horn(self):
        z4 = cyclic_group_nerve(4, 3)
        fill = nerve_fill(z4, 2)
        for g in range(4):
            for h in range(4):
                filler = fill(((g,), None, (h,)))
                assert z4.face(2, 1, filler) == ((h + g) % 4,)

    # the refill check that criterion 7 runs on gamma, on every simplex
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make_nerve", [partial(cyclic_group_nerve, 2),
                                            pair_groupoid_nerve],
                             ids=["cyclic2", "pair"])
    def test_every_horn_refills(self, make_nerve, n):
        nerve = make_nerve(3)
        report = refill_report("nerve", n, nerve.simplices[n],
                               partial(nerve.faces, n), nerve_fill(nerve, n))
        assert report.passed, report.report()
        assert report.cases == (n + 1) * len(nerve.simplices[n])

    def test_discrete_groupoid_nerve_constant(self):
        nerve = NerveTruncation(
            objects=["p", "q"],
            source={("p", "p"): "p", ("q", "q"): "q"},
            target={("p", "p"): "p", ("q", "q"): "q"},
            compose={
                (("p", "p"), ("p", "p")): ("p", "p"),
                (("q", "q"), ("q", "q")): ("q", "q"),
            },
            bound=3,
        )
        assert all(len(nerve.simplices[n]) == 2 for n in range(4))
        assert nerve.check_filler_bijectivity(2)
        assert nerve.check_filler_bijectivity(3)

    def test_bijectivity_and_coskeletal(self):
        for nerve in (cyclic_group_nerve(2, 3), pair_groupoid_nerve(3)):
            assert nerve.check_filler_bijectivity(2)
            assert nerve.check_filler_bijectivity(3)
            assert nerve.check_coskeletal(3)

    # a nerve with one simplex deleted leaves that simplex's horns
    # compatible but unfilled; each deletion must be caught
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make_nerve", [partial(cyclic_group_nerve, 2),
                                            pair_groupoid_nerve],
                             ids=["cyclic2", "pair"])
    def test_deleted_simplex_breaks_filler_bijectivity(self, make_nerve, n):
        for index in range(len(make_nerve(3).simplices[n])):
            nerve = make_nerve(3)
            del nerve.simplices[n][index]
            assert not nerve.check_filler_bijectivity(n)

    def test_invalid_tables_rejected(self):
        nerve = group_nerve([0, 1], lambda a, b: 0, 3)  # not a group
        assert not nerve.check_filler_bijectivity(2)

    def test_duskin_condition_matches_group_axioms(self):
        tables = [
            rows
            for order in (1, 2)
            for rows in itertools.product(
                itertools.product(range(order), repeat=order), repeat=order)
        ]
        latin = [
            rows
            for rows in itertools.product(
                itertools.permutations(range(3)), repeat=3)
            if all(len(set(column)) == 3 for column in zip(*rows))
        ]
        assert (len(tables), len(latin)) == (17, 12)
        verdicts = []
        for rows in tables + latin:
            nerve = group_nerve(range(len(rows)),
                                lambda a, b: rows[a][b], 3)
            duskin = (nerve.check_filler_bijectivity(2)
                      and nerve.check_filler_bijectivity(3))
            assert duskin == is_group(rows), rows
            verdicts.append(duskin)
        # one group table on one element, two on two, three on three
        assert sum(verdicts) == 6

    def test_non_associative_latin_square_fails_at_three(self):
        nerve = group_nerve(range(3), lambda a, b: (-a - b) % 3, 3)
        assert nerve.check_filler_bijectivity(2)
        assert not nerve.check_filler_bijectivity(3)
        assert not nerve.check_coskeletal(3)

    def test_non_invertible_element_fails_at_two(self):
        nerve = group_nerve([0, 1], lambda a, b: a * b, 3)
        assert not nerve.check_filler_bijectivity(2)
        # 0 * g = g * 0 = 0: the 2-simplex (0, 0) shares its horn at
        # position 0 with (0, 1) and at position 2 with (1, 0)
        report = refill_report("nerve", 2, nerve.simplices[2],
                               partial(nerve.faces, 2), nerve_fill(nerve, 2))
        assert report.lines == ["FAIL: simplex 0, horn 0: filler differs",
                                "FAIL: simplex 0, horn 2: filler differs"]

    def test_wrong_endpoint_composite_fails_at_two(self):
        pair = pair_groupoid_nerve(3)
        compose = dict(pair.compose)
        # ("q", "p") after ("p", "q") is ("q", "q"); give it target p
        compose[(("q", "p"), ("p", "q"))] = ("p", "q")
        nerve = NerveTruncation(["p", "q"], pair.source, pair.target,
                                compose, 3)
        assert not nerve.check_filler_bijectivity(2)

    def test_monodromy_checks(self):
        for name in ("heisenberg", "ut4"):
            rep = get_representation(name)
            sampler = Sampler(42)
            for _ in range(5):
                x1 = sampler.vector(rep.algebra, 0)
                x2 = sampler.vector(rep.algebra, 0)
                assert check_monodromy(rep, x1, x2)
