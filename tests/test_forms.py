"""Exact arithmetic on simplicial polynomial forms."""

import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linfty import forms, kernel
from linfty.forms import (
    Form,
    SimplicialMap,
    _t0_power,
    contract_euler,
    evaluate_vertex,
    exterior_d,
    pullback,
    reduce_barycentric,
    wedge,
)
from linfty.serialize import parse_form

from form_oracle import dt_form, reduce_by_products, t_form


def mono(n, exps, word=()):
    return Form(n, {(tuple(exps), tuple(word)): Fraction(1)})


class TestReduction:
    def test_t0_eliminated(self):
        assert reduce_barycentric([(1, (1, 0), ())], 1).render() == "1 - t1"

    def test_dt0_eliminated(self):
        assert reduce_barycentric([(1, (0, 0), (0,))], 1).render() == "-dt1"

    def test_cross_term_collapses(self):
        # t0 dt1 - t1 dt0 on the 1-simplex
        form = reduce_barycentric([(1, (1, 0), (1,)), (-1, (0, 1), (0,))], 1)
        assert form == Form.dt(1, 1)

    def test_idempotent_on_reduced_input(self):
        raw = [(Fraction(3, 2), (0, 1, 2), (1, 2)), (1, (0, 0, 0), ())]
        once = reduce_barycentric(raw, 2)
        again = reduce_barycentric(
            [(c, (0,) + k[0], k[1]) for k, c in once.terms.items()], 2
        )
        assert once == again

    def test_barycentric_relation_kills_products(self):
        # (t0 + t1 + t2 - 1) * f == 0 and (dt0 + dt1 + dt2) ^ f == 0
        rng = random.Random(4)
        for _ in range(10):
            exps = tuple(rng.randint(0, 2) for _ in range(2))
            word = tuple(sorted(rng.sample((1, 2), rng.randint(0, 2))))
            tsum = []
            for i in range(3):
                full = [0, exps[0], exps[1]]
                full[i] += 1
                tsum.append((1, tuple(full), word))
            tsum.append((-1, (0,) + exps, word))
            assert reduce_barycentric(tsum, 2).is_zero()
            dsum = [(1, (0,) + exps, (i,) + word) for i in range(3)]
            assert reduce_barycentric(dsum, 2).is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_barycentric([(1, (0, 0), (3,))], 1)

    def test_generators_are_the_written_out_coordinates(self):
        for n in range(4):
            for i in range(n + 1):
                assert Form.t(i, n) == t_form(i, n)
                assert Form.dt(i, n) == dt_form(i, n)


class TestDifferential:
    def test_on_generators(self):
        assert exterior_d(Form.t(1, 1)) == Form.dt(1, 1)
        assert exterior_d(Form.dt(1, 1)).is_zero()

    def test_leibniz_on_product(self):
        t1, t2 = Form.t(1, 2), Form.t(2, 2)
        assert exterior_d(t1 * t2) == t2 * Form.dt(1, 2) + t1 * Form.dt(2, 2)

    def test_squares_to_zero_on_generators(self):
        from linfty.dupont import monomial_basis

        for n in (1, 2, 3):
            for f in monomial_basis(n, 4):
                assert exterior_d(exterior_d(f)).is_zero()


class TestWedge:
    def test_odd_square_is_zero(self):
        dt1 = Form.dt(1, 2)
        assert (dt1 * dt1).is_zero()

    def test_graded_commutativity(self):
        dt1, dt2 = Form.dt(1, 2), Form.dt(2, 2)
        assert dt1 * dt2 == -(dt2 * dt1)
        t1 = Form.t(1, 2)
        assert t1 * dt1 == dt1 * t1

    def test_expansion(self):
        t1, t2 = Form.t(1, 2), Form.t(2, 2)
        dt1, dt2 = Form.dt(1, 2), Form.dt(2, 2)
        lhs = (t1 * dt1) * (t2 * dt2)
        assert lhs == mono(2, (1, 1), (1, 2))

    def test_associativity_on_random_monomials(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 3)
            forms = []
            for _ in range(3):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                word = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                forms.append(
                    mono(n, exps, word).scale(Fraction(rng.randint(-3, 3) or 1))
                )
            a, b, c = forms
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(Form.t(1, 1), Form.t(1, 2))


class TestVertexAndEuler:
    def test_vertex_coordinates(self):
        t0 = Form.t(0, 1)
        assert evaluate_vertex(0, t0) == 1
        assert evaluate_vertex(1, t0) == 0
        assert evaluate_vertex(0, Form.dt(1, 1)) == 0

    def test_contraction_values(self):
        assert contract_euler(0, Form.dt(0, 1)) == -Form.t(1, 1)
        assert contract_euler(0, Form.dt(1, 1)) == Form.t(1, 1)
        w01 = Form.t(0, 1) * Form.dt(1, 1) - Form.t(1, 1) * Form.dt(0, 1)
        assert contract_euler(1, w01) == -Form.t(0, 1)

    def test_contraction_is_a_derivation(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(1, 3)
            i = rng.randint(0, n)
            def rand():
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                word = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                return mono(n, exps, word)
            a, b = rand(), rand()
            k = len(next(iter(a.terms))[1])
            sign = -1 if k % 2 else 1
            lhs = contract_euler(i, a * b)
            rhs = contract_euler(i, a) * b + (a * contract_euler(i, b)).scale(sign)
            assert lhs == rhs

    def test_contraction_squares_to_zero(self):
        rng = random.Random(15)
        for _ in range(40):
            n = rng.randint(1, 3)
            i = rng.randint(0, n)
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            word = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            f = mono(n, exps, word)
            assert contract_euler(i, contract_euler(i, f)).is_zero()

    def test_index_range(self):
        with pytest.raises(ValueError):
            evaluate_vertex(2, Form.t(1, 1))
        with pytest.raises(ValueError):
            contract_euler(4, Form.t(1, 3))


def _all_face_degeneracy_maps(max_dim):
    for n in range(1, max_dim + 1):
        for k in range(n + 1):
            yield SimplicialMap.face(k, n)
        for k in range(n):
            yield SimplicialMap.degeneracy(k, n)


class TestPullback:
    def test_face_examples(self):
        d0 = SimplicialMap.face(0, 2)
        assert pullback(d0, Form.t(1, 2)) == Form.t(0, 1)
        assert pullback(d0, Form.t(0, 2)).is_zero()
        s0 = SimplicialMap.degeneracy(0, 2)
        assert pullback(s0, Form.t(1, 1)) == Form.t(2, 2)

    def test_high_powers_pull_back(self):
        # the substitution sets each exponent directly, so an exponent
        # far past the recursion limit is no error
        form = mono(2, (2000, 0), (1,))
        assert pullback(SimplicialMap.face(2, 2), form) == mono(1, (2000,), (1,))
        assert pullback(SimplicialMap.face(1, 2), form).is_zero()
        assert pullback(SimplicialMap.face(0, 1), mono(1, (2000,))) == Form.one(0)

    def test_commutes_with_differential_and_product(self):
        rng = random.Random(6)
        for f in _all_face_degeneracy_maps(3):
            for _ in range(5):
                n = f.target
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                word = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                a = mono(n, exps, word)
                b = mono(n, tuple(rng.randint(0, 1) for _ in range(n)))
                assert pullback(f, exterior_d(a)) == exterior_d(pullback(f, a))
                assert pullback(f, a * b) == pullback(f, a) * pullback(f, b)

    def test_functoriality(self):
        rng = random.Random(7)
        maps = list(_all_face_degeneracy_maps(3))
        for f in maps:
            for g in maps:
                if g.target != f.source:
                    continue
                composite = f.compose(g)
                n = f.target
                form = mono(n, tuple(1 for _ in range(n)))
                assert pullback(composite, form) == pullback(g, pullback(f, form))

    def test_simplicial_operator_identity(self):
        # d_j* d_i* = d_i* d_{j-1}* for i < j, as operators on forms
        for n in (2, 3):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    di = SimplicialMap.face(i, n)
                    dj = SimplicialMap.face(j, n)
                    di_low = SimplicialMap.face(i, n - 1)
                    dj_low = SimplicialMap.face(j - 1, n - 1)
                    for exps in itertools.product(range(2), repeat=n):
                        form = mono(n, exps)
                        lhs = pullback(dj_low, pullback(di, form))
                        rhs = pullback(di_low, pullback(dj, form))
                        assert lhs == rhs

    def test_factorization(self):
        for m in range(4):
            for n in range(4):
                for values in itertools.combinations_with_replacement(
                    range(n + 1), m + 1
                ):
                    f = SimplicialMap(m, n, values)
                    composite = SimplicialMap.identity(n)
                    for factor in f.factorize():
                        composite = composite.compose(factor)
                    assert composite == f

    def test_malformed_map(self):
        with pytest.raises(ValueError):
            SimplicialMap(1, 2, (2, 1))


class TestPowersOfT:
    def test_each_power_is_one_product_from_the_one_below(self, monkeypatch):
        monkeypatch.setattr(forms, "_T0_POWER_CACHE", {})
        _t0_power(5, 3)
        calls = []

        def counted(a, b, mul_terms=kernel.mul_terms):
            calls.append((a, b))
            return mul_terms(a, b)

        monkeypatch.setattr(kernel, "mul_terms", counted)
        _t0_power(6, 3)
        assert len(calls) == 1
        _t0_power(6, 3)
        assert len(calls) == 1

    def test_powers_are_the_multinomial_expansion(self, monkeypatch):
        # t_0^e = (1 - t_1 - ... - t_n)^e, expanded term by term
        monkeypatch.setattr(forms, "_T0_POWER_CACHE", {})
        for n, e in ((0, 3), (1, 7), (2, 5), (3, 4)):
            terms = {}
            for exps in itertools.product(range(e + 1), repeat=n):
                rest = e - sum(exps)
                if rest >= 0:
                    count = factorial(e) // (
                        factorial(rest) * prod(map(factorial, exps))
                    )
                    terms[(exps, ())] = Fraction((-1) ** sum(exps) * count)
            assert _t0_power(e, n) == terms


class TestRendering:
    def test_golden_examples(self):
        assert Form.dt(1, 1).render() == "dt1"
        f = Form(2, {((2, 0), (1, 2)): Fraction(1, 2)})
        assert f.render() == "1/2*t1^2*dt1^dt2"
        assert Form.zero(3).render() == "0"

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = tuple(rng.randint(0, 3) for _ in range(n))
                word = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                if coeff:
                    terms[(exps, word)] = coeff
            f = Form(n, terms)
            assert parse_form(f.render(), n) == f

    def test_deterministic(self):
        f = reduce_barycentric(
            [(Fraction(1, 3), (1, 1, 1), (0, 2)), (2, (0, 2, 0), (1,))], 2
        )
        assert f.render() == f.render()


# -- the reducer, pullback and d on random sparse forms -------------------

PROPERTY = settings(max_examples=50, deadline=None)
# a property whose every example empties the operator tables
# (cold_operator_caches) and checks on the cold tables, then again on the
# warm tables the cold pass filled
COLD_AND_WARM = settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def sparse_forms(n):
    """Random sparse forms on the n-simplex, n >= 1."""
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * n),
        st.lists(st.integers(1, n), unique=True, max_size=n).map(
            lambda w: tuple(sorted(w))
        ),
    )
    return st.dictionaries(term, rationals, min_size=1, max_size=4).map(
        lambda terms: Form(n, terms)
    )


@st.composite
def raw_barycentric(draw):
    """(n, raw terms on the n-simplex), n = 0..3: exponents over
    t_0..t_n and unsorted dt-words over 0..n that may repeat a letter."""
    n = draw(st.integers(0, 3))
    term = st.tuples(
        rationals,
        st.tuples(*[st.integers(0, 3)] * (n + 1)),
        st.lists(st.integers(0, n), max_size=n + 1).map(tuple),
    )
    return n, draw(st.lists(term, max_size=4))


@COLD_AND_WARM
@given(raw_barycentric())
def test_reduce_barycentric_is_the_product_of_the_generators(
        cold_operator_caches, case):
    n, raw = case
    expected = reduce_by_products(raw, n)
    cold_operator_caches()
    for _ in ("cold", "warm"):
        assert reduce_barycentric(raw, n) == expected


@st.composite
def maps_and_forms(draw):
    """(a random monotone map [m] -> [n], two forms on the n-simplex),
    n = 1..3, m = 0..4."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    values = sorted(draw(st.lists(st.integers(0, n), min_size=m + 1,
                                  max_size=m + 1)))
    return SimplicialMap(m, n, values), draw(sparse_forms(n)), draw(sparse_forms(n))


@COLD_AND_WARM
@given(maps_and_forms())
def test_pullback_is_a_dg_algebra_map_on_random_forms(cold_operator_caches,
                                                      case):
    f, a, b = case
    cold_operator_caches()
    for _ in ("cold", "warm"):
        assert pullback(f, a * b) == pullback(f, a) * pullback(f, b)
        assert pullback(f, exterior_d(a)) == exterior_d(pullback(f, a))


@COLD_AND_WARM
@given(maps_and_forms())
def test_pullback_along_the_factors_on_random_forms(cold_operator_caches,
                                                    case):
    f, a, _ = case
    cold_operator_caches()
    for _ in ("cold", "warm"):
        # f is the composite factors[0] o factors[1] o ..., so the
        # pullbacks apply in list order
        pulled = a
        for factor in f.factorize():
            pulled = pullback(factor, pulled)
        assert pulled == pullback(f, a)


def _d_by_products(f):
    """d by the Leibniz rule on each monomial c t^e dt_W written as the
    product of its generators: the sum over its t-factors of the product
    with that factor t_j replaced by dt_j.  The t-factors are even and
    come first, so no sign arises, and d(dt_j) = 0."""
    n = f.n
    total = Form.zero(n)
    for (exps, word), coeff in f.terms.items():
        ts = [j for j, e in enumerate(exps, start=1) for _ in range(e)]
        for pos in range(len(ts)):
            image = Form.constant(n, coeff)
            for k, j in enumerate(ts):
                image = image * (Form.dt(j, n) if k == pos else Form.t(j, n))
            for j in word:
                image = image * Form.dt(j, n)
            total = total + image
    return total


@COLD_AND_WARM
@given(st.integers(1, 3).flatmap(sparse_forms))
def test_d_is_the_product_rule_and_squares_to_zero_on_random_forms(
        cold_operator_caches, f):
    expected = _d_by_products(f)
    cold_operator_caches()
    for _ in ("cold", "warm"):
        assert exterior_d(f) == expected
        assert exterior_d(exterior_d(f)).is_zero()


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(sparse_forms(n),
                                                      sparse_forms(n))))
def test_d_obeys_graded_leibniz_on_random_forms(pair):
    # d(ab) = (da) b + (-1)^k a (db) on the exterior-degree-k part of a
    a, b = pair
    rhs = Form.zero(a.n)
    for k in a.exterior_degrees():
        a_k = a.component(k)
        rhs = rhs + exterior_d(a_k) * b + (a_k * exterior_d(b)).scale((-1) ** k)
    assert exterior_d(a * b) == rhs
