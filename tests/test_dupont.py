"""The simplicial de Rham operators and their exact identities."""

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linfty import dupont, forms
from linfty.dupont import (
    check_contraction_identities,
    check_gauge_identities,
    check_gaugeify_fixed_point,
    check_naturality,
    dupont_s,
    elementary_form,
    gaugeify,
    integrate_chain,
    monomial_basis,
    poincare_h,
    whitney_P,
)
from linfty.fixtures import SAMPLE_VALUES
from linfty.forms import (
    Form,
    SimplicialMap,
    contract_euler,
    evaluate_vertex,
    exterior_d,
    pullback,
)

from form_oracle import dt_form, t_form


def mono(n, exps, word=()):
    return Form(n, {(tuple(exps), tuple(word)): Fraction(1)})


class TestElementaryForms:
    def test_vertex_form(self):
        assert elementary_form((0,), 1) == Form.t(0, 1)

    def test_edge_form_reduces(self):
        assert elementary_form((0, 1), 1) == Form.dt(1, 1)

    def test_repeats_vanish(self):
        assert elementary_form((0, 0), 1).is_zero()
        assert elementary_form((0, 1, 0), 2).is_zero()

    def test_alternating(self):
        assert elementary_form((1, 0), 2) == -elementary_form((0, 1), 2)

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            elementary_form((), 1)

    def test_differential_expands_over_added_vertices(self):
        for n in (1, 2, 3):
            for size in range(1, n + 1):
                for seq in itertools.combinations(range(n + 1), size):
                    total = Form.zero(n)
                    for i in range(n + 1):
                        total = total + elementary_form((i,) + seq, n)
                    assert exterior_d(elementary_form(seq, n)) == total


class TestChainIntegrals:
    def test_monomial_values(self):
        assert integrate_chain((0, 1), mono(1, (1,), (1,))) == Fraction(1, 2)
        assert integrate_chain((0, 1), elementary_form((0, 1), 1)) == 1
        assert integrate_chain((0, 1, 2), mono(2, (0, 0), (1, 2))) == Fraction(1, 2)

    def test_duality_with_elementary_forms(self):
        for n in (1, 2, 3):
            for size in range(1, n + 2):
                for seq in itertools.combinations(range(n + 1), size):
                    for other in itertools.combinations(range(n + 1), size):
                        expected = Fraction(int(seq == other))
                        assert integrate_chain(
                            other, elementary_form(seq, n)
                        ) == expected

    def test_alternating_and_repeats(self):
        f = mono(2, (0, 0), (1, 2))
        assert integrate_chain((0, 2, 1), f) == -integrate_chain((0, 1, 2), f)
        assert integrate_chain((0, 1, 0), f) == 0

    def test_degree_mismatch_gives_zero(self):
        assert integrate_chain((0, 1), mono(1, (2,))) == 0
        assert integrate_chain((0,), mono(1, (0,), (1,))) == 0

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            integrate_chain((), Form.t(1, 1))


# each operator refuses a form on another simplex, naming both dimensions
@pytest.mark.parametrize("apply, op", [
    (lambda n, f: poincare_h(0, n, f), "h^0"),
    (whitney_P, "P"),
    (dupont_s, "s"),
], ids=["h", "P", "s"])
def test_operators_refuse_a_form_on_another_simplex(apply, op):
    with pytest.raises(ValueError, match=(
            rf"^form lives on the 1-simplex, {re.escape(op)} acts on the 2-simplex$")):
        apply(2, Form.t(1, 1))


class TestPoincareHomotopy:
    def test_values_on_the_interval(self):
        assert poincare_h(0, 1, Form.dt(1, 1)) == Form.t(1, 1)
        assert poincare_h(0, 1, mono(1, (1,), (1,))) == mono(1, (2,)).scale(
            Fraction(1, 2)
        )
        assert poincare_h(0, 1, Form.t(1, 1)).is_zero()

    def test_degree_zero_input_gives_zero(self):
        for n in (1, 2):
            for i in range(n + 1):
                assert poincare_h(i, n, mono(n, (1,) * n)).is_zero()


class TestWhitneyProjection:
    def test_projects_onto_elementary_span(self):
        f = mono(1, (2,), (1,))
        assert whitney_P(1, f) == elementary_form((0, 1), 1).scale(Fraction(1, 3))
        assert whitney_P(1, Form.t(1, 1)) == Form.t(1, 1)

    def test_fixes_elementary_forms(self):
        for n in (1, 2, 3):
            for size in range(1, n + 2):
                for seq in itertools.combinations(range(n + 1), size):
                    omega = elementary_form(seq, n)
                    assert whitney_P(n, omega) == omega


class TestGauge:
    def test_small_values(self):
        f = mono(1, (1,), (1,))
        expected = (mono(1, (2,)) - mono(1, (1,))).scale(Fraction(1, 2))
        assert dupont_s(1, f) == expected
        assert dupont_s(1, Form.dt(1, 1)).is_zero()
        assert dupont_s(2, Form.t(1, 2)).is_zero()

    def test_point_has_no_gauge_sequences(self):
        # on the 0-simplex the walk visits no sequence and applies no h
        before = len(dupont._H_CACHE)
        assert dupont_s(0, Form.one(0)).is_zero()
        assert len(dupont._H_CACHE) == before

    def test_identity_checks_small(self):
        for n in (1, 2):
            for check in check_contraction_identities(n, 2):
                assert check.passed, check.summary()
            for check in check_gauge_identities(n, 2):
                assert check.passed, check.summary()


class TestGaugeify:
    def test_fixes_the_gauge(self):
        for n in (1, 2):
            for check in check_gaugeify_fixed_point(n, 3):
                assert check.passed, check.summary()

    def test_twisted_homotopy_squares_to_zero(self):
        # start from a contraction that is not a gauge: s + commutator
        # defect would break the precondition, so perturb by a cochain
        # homotopy of square type: s' = s + [d, q] style terms do not
        # stay contractions in general, so instead verify on the gauge
        # itself plus the projection-killed property
        homotopy = gaugeify(2, lambda f: dupont_s(2, f),
                            lambda f: whitney_P(2, f), max_degree=2)
        for m in monomial_basis(2, 2):
            assert homotopy(homotopy(m)).is_zero()
            assert homotopy(whitney_P(2, m)).is_zero()

    def test_rejects_non_contraction(self):
        with pytest.raises(ValueError):
            gaugeify(1, lambda f: Form.zero(1), lambda f: whitney_P(1, f),
                     max_degree=2)


def test_naturality_small():
    for check in check_naturality(2, 2):
        assert check.passed, check.summary()


# -- the identities on random sparse forms ----------------------------------

PROPERTY = settings(max_examples=50, deadline=None)
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def simplex_forms(draw, n=None):
    """(n, a random sparse form on the n-simplex), n = 1..3 unless
    given."""
    if n is None:
        n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        word = tuple(i for i in range(1, n + 1) if draw(st.booleans()))
        terms[(exps, word)] = draw(rationals)
    return n, Form(n, terms)


@PROPERTY
@given(simplex_forms())
def test_contraction_identity_on_random_forms(nf):
    n, f = nf
    lhs = exterior_d(dupont_s(n, f)) + dupont_s(n, exterior_d(f))
    assert lhs == f - whitney_P(n, f)


@st.composite
def linear_combinations(draw):
    """(n, f, g, a, b): random sparse forms f and g on one n-simplex, g
    holding a multiple of f so that a f + b g can cancel, and a and b
    from the sample pool."""
    n, f = draw(simplex_forms())
    _, g = draw(simplex_forms(n))
    pool = st.sampled_from(SAMPLE_VALUES)
    g = g + f.scale(draw(pool))
    return n, f, g, draw(pool), draw(pool)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(linear_combinations())
def test_operators_are_linear_through_the_tables(cold_operator_caches, case):
    """h^i, P and s are linear, with cancellation, on cold tables and on
    the warm tables the same calls filled."""
    n, f, g, a, b = case
    operators = [lambda x, i=i: poincare_h(i, n, x) for i in range(n + 1)]
    operators += [lambda x: whitney_P(n, x), lambda x: dupont_s(n, x)]
    zero = Form.zero(n)
    cold_operator_caches()
    for _ in ("cold", "warm"):
        for op in operators:
            assert op(f.scale(a) + g.scale(b)) == (
                op(f).scale(a) + op(g).scale(b))
            assert op(f - f) == zero


@PROPERTY
@given(simplex_forms())
def test_gauge_and_projection_identities_on_random_forms(nf):
    n, f = nf
    zero = Form.zero(n)
    s_f, p_f = dupont_s(n, f), whitney_P(n, f)
    assert dupont_s(n, s_f) == zero
    assert whitney_P(n, p_f) == p_f
    assert whitney_P(n, s_f) == zero
    assert dupont_s(n, p_f) == zero


@PROPERTY
@given(simplex_forms(), st.integers(0, 3))
def test_poincare_identity_on_random_forms(nf, vertex):
    n, f = nf
    i = vertex % (n + 1)
    lhs = exterior_d(poincare_h(i, n, f)) + poincare_h(i, n, exterior_d(f))
    assert lhs == f - Form.constant(n, evaluate_vertex(i, f))


# -- pullback and chain integration against the product algorithms ---------


def _pullback_by_products(f, form):
    """The pullback as the product of the images of the generators: each
    monomial maps to its coefficient times the images of its t-factors
    and dt-letters, the image of t_j (dt_j) being the sum of the source
    t_a (dt_a) over a in f^-1(j), with t_0 and dt_0 written out."""
    m = f.source
    t_images = [Form.zero(m)] * (f.target + 1)
    dt_images = [Form.zero(m)] * (f.target + 1)
    for a, v in enumerate(f.values):
        t_images[v] = t_images[v] + t_form(a, m)
        dt_images[v] = dt_images[v] + dt_form(a, m)
    total = Form.zero(m)
    for (exps, word), coeff in form.terms.items():
        image = Form.constant(m, coeff)
        for j, e in enumerate(exps, start=1):
            for _ in range(e):
                image = image * t_images[j]
        for j in word:
            image = image * dt_images[j]
        total = total + image
    return total


def _integral_by_pullback(seq, f):
    """The chain integral as the pullback of f to the standard k-simplex
    spanned by the sorted sequence, integrated term by term, with the
    sign of the sorting permutation."""
    if len(set(seq)) != len(seq):
        return Fraction(0)
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    k = len(seq) - 1
    chain = SimplicialMap(k, f.n, sorted(seq))
    pulled = _pullback_by_products(chain, f.component(k)).component(k)
    total = Fraction(0)
    for (exps, _), coeff in pulled.terms.items():
        weight = math.prod(math.factorial(e) for e in exps)
        total += coeff * Fraction(weight, math.factorial(sum(exps) + k))
    return -total if inversions % 2 else total


@st.composite
def forms_on(draw, n):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(n))
        word = tuple(i for i in range(1, n + 1) if draw(st.booleans()))
        terms[(exps, word)] = draw(rationals)
    return Form(n, terms)


@st.composite
def maps_and_forms(draw):
    """A random monotone map [m] -> [n], not necessarily injective or
    surjective, and a form on the n-simplex; n = 0..3, m = 0..4."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    values = sorted(draw(st.lists(st.integers(0, n), min_size=m + 1,
                                  max_size=m + 1)))
    return SimplicialMap(m, n, values), draw(forms_on(n))


@st.composite
def sequences_and_forms(draw):
    """A random vertex sequence, often without repeats but unsorted, and
    a form on the n-simplex whose terms often have the sequence's
    exterior degree; n = 0..3."""
    n = draw(st.integers(0, 3))
    vertices = st.integers(0, n)
    seq = draw(st.lists(vertices, min_size=1, max_size=n + 1, unique=True)
               | st.lists(vertices, min_size=1, max_size=n + 2))
    k = min(len(seq) - 1, n)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(n))
        size = k if draw(st.booleans()) else draw(st.integers(0, n))
        # (on the point, size is 0 and no letter is drawn)
        word = draw(st.lists(st.integers(1, max(n, 1)), min_size=size,
                             max_size=size, unique=True))
        terms[(exps, tuple(sorted(word)))] = draw(rationals)
    return tuple(seq), Form(n, terms)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(maps_and_forms())
def test_pullback_equals_the_product_of_generator_images(
        cold_operator_caches, case):
    """On cold tables and on the warm tables the same calls filled,
    along f and its mirror image, a second map of the same shape whose
    values a table shared between maps would mix up."""
    f, form = case
    mirror = SimplicialMap(f.source, f.target,
                           [f.target - v for v in reversed(f.values)])
    expected = {g: _pullback_by_products(g, form) for g in (f, mirror)}
    cold_operator_caches()
    for _ in ("cold", "warm"):
        for g, value in expected.items():
            assert pullback(g, form) == value


@settings(max_examples=200, deadline=None)
@given(sequences_and_forms())
def test_chain_integral_equals_the_integral_of_the_pullback(case):
    seq, form = case
    value = integrate_chain(seq, form)
    assert type(value) is Fraction
    assert value == _integral_by_pullback(seq, form)


# -- the caches filled once per vertex-permutation orbit -------------------


def _direct_h(i, n, f, memo):
    """h^i of f term by term through _h_monomial, memoised per monomial
    (no orbit)."""
    out = Form.zero(n)
    for key, coeff in f.terms.items():
        if (i, key) not in memo:
            memo[i, key] = dupont._h_monomial(i, n, key)
        out = out + memo[i, key].scale(coeff)
    return out


def _direct_s(n, f, h_memo):
    """Dupont's sum over the increasing sequences I of sizes 1..n of
    (-1)^(|I|-1) omega_I h^{i_k}...h^{i_0} f, each chain h of its
    prefix's."""
    chains = {(): f}
    total = Form.zero(n)
    for size in range(1, n + 1):
        for seq in itertools.combinations(range(n + 1), size):
            chains[seq] = _direct_h(seq[-1], n, chains[seq[:-1]], h_memo)
            term = elementary_form(seq, n) * chains[seq]
            total = total + term if size % 2 else total - term
    return total


def _direct_P(n, f):
    """The sum of omega_I times the chain integral of f over I."""
    return Form.zero(n).combine(
        (integrate_chain(seq, f), elementary_form(seq, n))
        for size in range(1, n + 2)
        for seq in itertools.combinations(range(n + 1), size))


@pytest.mark.parametrize("n, max_degree",
                         [(0, 4), (1, 4), (2, 4), (3, 4), (4, 3)])
def test_orbit_filled_operators_equal_the_direct_computation(
        n, max_degree, cold_operator_caches):
    h_memo = {}
    monos = monomial_basis(n, max_degree)
    for m in monos:
        for i in range(n + 1):
            assert poincare_h(i, n, m) == _direct_h(i, n, m, h_memo), (i, m)
        assert whitney_P(n, m) == _direct_P(n, m), m
        assert dupont_s(n, m) == _direct_s(n, m, h_memo), m
    # one orbit-table entry per orbit of the missed monomials
    for orbits, cache in ((dupont._S_ORBITS, dupont._S_CACHE),
                          (dupont._P_ORBITS, dupont._P_CACHE)):
        assert len(orbits) == len({_orbit(n, 0, key) for key in cache})
    if n >= 2:
        assert len(dupont._S_ORBITS) < len(monos) == len(dupont._S_CACHE)


def _orbit(n, i, key):
    """The least image of (i, key) under the permutations of 1..n."""
    exps, word = key
    images = []
    for rest in itertools.permutations(range(1, n + 1)):
        sigma = (0, *rest)
        moved = [0] * n
        for j, e in enumerate(exps, start=1):
            moved[sigma[j] - 1] = e
        images.append((sigma[i], tuple(moved),
                       tuple(sorted(sigma[j] for j in word))))
    return min(images)


def _permuted(sigma, f):
    """sigma f: each t_j and dt_j renamed t_sigma(j) and dt_sigma(j), as
    the product of the renamed generators."""
    n = f.n
    total = Form.zero(n)
    for (exps, word), coeff in f.terms.items():
        image = Form.constant(n, coeff)
        for j, e in enumerate(exps, start=1):
            for _ in range(e):
                image = image * Form.t(sigma[j], n)
        for j in word:
            image = image * Form.dt(sigma[j], n)
        total = total + image
    return total


@st.composite
def permuted_forms(draw):
    """(n, sigma, f, i): a permutation sigma of 0..n fixing 0, a random
    sparse form on the n-simplex and a vertex; n = 1..4."""
    n = draw(st.integers(1, 4))
    sigma = (0, *draw(st.permutations(range(1, n + 1))))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        word = tuple(i for i in range(1, n + 1) if draw(st.booleans()))
        terms[(exps, word)] = draw(rationals)
    return n, sigma, Form(n, terms), draw(st.integers(0, n))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(permuted_forms())
def test_operators_commute_with_permuting_the_vertices(
        cold_operator_caches, case):
    n, sigma, f, i = case
    g = _permuted(sigma, f)
    assert poincare_h(sigma[i], n, g) == _permuted(sigma, poincare_h(i, n, f))
    assert dupont_s(n, g) == _permuted(sigma, dupont_s(n, f))
    assert whitney_P(n, g) == _permuted(sigma, whitney_P(n, f))


# -- the cached terms share their keys and coefficients -------------------


def test_cached_terms_share_one_object_per_key_and_coefficient(
        cold_operator_caches):
    for check in (check_contraction_identities, check_gauge_identities):
        check(3, 3)
    check_naturality(3, 3)
    tables = [getattr(dupont, name) for name in (
        "_H_CACHE", "_P_CACHE", "_S_CACHE", "_P_ORBITS", "_S_ORBITS")]
    tables.append(forms._D_CACHE)
    tables.extend(forms._PULLBACK_CACHE.values())
    # d ran, and so did the pullbacks along the 9 faces and 6
    # degeneracies with target dimension 1..3
    assert forms._D_CACHE and len(forms._PULLBACK_CACHE) == 9 + 6
    values = [flat for table in tables for flat in table.values()]
    # each value is a flat tuple (key1, c1, key2, c2, ...)
    assert all(type(flat) is tuple and len(flat) % 2 == 0 for flat in values)
    keys = [key for flat in values for key in flat[::2]]
    coeffs = [coeff for flat in values for coeff in flat[1::2]]
    assert len(keys) > 10 * len(set(keys))
    # one object per key, per exponent tuple, per dt-word and per
    # coefficient value
    for objects in (keys, coeffs, [exps for exps, _ in keys],
                    [word for _, word in keys]):
        assert len({id(obj) for obj in objects}) == len(set(objects))
    # every zero value is the one empty tuple
    zeros = [flat for flat in values if not flat]
    assert zeros
    assert len({id(flat) for flat in zeros}) == 1


# -- the harness labels, rendered only on failure ---------------------------


def _broken_h(h):
    """h^i with h^n replaced by (1 + t_1) h^n: the identities that read
    h^n fail."""
    def broken(i, n, f):
        value = h(i, n, f)
        return value + value * Form.t(1, n) if i == n else value
    return broken


@pytest.mark.parametrize("name, broken, first_failures", [
    ("poincare_h", _broken_h, {
        "d s + s d = Id - P on 2-simplex":
            "FAIL: t2: -t1*t2 + t1*t2^2 != 0",
        "d h^i + h^i d = Id - eval_i on 2-simplex":
            "FAIL: h^2 on t2: -1 + t2 - t1 + t1*t2 != -1 + t2",
        "h^i h^j + h^j h^i = 0 on 2-simplex":
            "FAIL: h^0,h^2 on dt1^dt2: -1/4*t1^2 != 0",
        "pullback s = s pullback":
            "FAIL: (1, 2) on dt1: -t1^2 + t1^3 != t1^2 - t1^3",
    }),
    ("integrate_chain", lambda integral: lambda seq, f: integral(seq, f) + 1, {
        "I_seq = eval h...h on 2-simplex": "FAIL: I_0 on 1: 1 != 2",
    }),
], ids=["h", "integral"])
def test_harness_failure_lines_keep_their_text(
        monkeypatch, cold_operator_caches, name, broken, first_failures):
    monkeypatch.setattr(dupont, name, broken(getattr(dupont, name)))
    reports = (check_contraction_identities(2, 1)
               + check_gauge_identities(2, 1) + check_naturality(2, 1))
    first = {r.name: next(line for line in r.lines if line.startswith("FAIL"))
             for r in reports if r.name in first_failures}
    assert first == first_failures


def test_passing_harness_renders_nothing(monkeypatch):
    def render(self):
        raise AssertionError("a passing case rendered a form")

    monkeypatch.setattr(Form, "render", render)
    for check in (check_contraction_identities, check_gauge_identities,
                  check_naturality, check_gaugeify_fixed_point):
        assert all(r.passed for r in check(2, 2))


# -- the operators pinned by fingerprint ---------------------------------


def fingerprint(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _images(op):
    """[source rendering, label, image rendering] for every monomial of
    the 3-simplex basis of degree <= 3 under the named operator."""
    n, rows = 3, []
    for m in monomial_basis(n, 3):
        if op == "poincare_h":
            rows += [[m.render(), i, poincare_h(i, n, m).render()]
                     for i in range(n + 1)]
        elif op == "dupont_s":
            rows.append([m.render(), None, dupont_s(n, m).render()])
        elif op == "whitney_P":
            rows.append([m.render(), None, whitney_P(n, m).render()])
        elif op == "exterior_d":
            # a unit and a non-unit coefficient, so both paths are pinned
            rows += [[f.render(), None, exterior_d(f).render()]
                     for f in (m, m.scale(Fraction(-2, 3)))]
        elif op == "contract_euler":
            rows += [[f.render(), i, contract_euler(i, f).render()]
                     for f in (m, m.scale(Fraction(-2, 3)))
                     for i in range(n + 1)]
        elif op == "integrate_chain":
            # every vertex sequence of length <= 4: sorted, unsorted, with
            # repeats, and not starting at 0
            rows += [[f.render(), list(seq), str(integrate_chain(seq, f))]
                     for f in (m, m.scale(Fraction(-2, 3)))
                     for size in range(1, n + 2)
                     for seq in itertools.product(range(n + 1), repeat=size)]
        else:
            maps = [SimplicialMap.face(k, n) for k in range(n + 1)]
            maps += [SimplicialMap.degeneracy(k, n + 1) for k in range(n + 1)]
            rows += [[m.render(), list(f.values), pullback(f, m).render()]
                     for f in maps]
    return rows


# the exact images, held fixed across rewrites of the operators
@pytest.mark.parametrize(
    "op, expected",
    [
        ("poincare_h", "eaf9bc276f07c30a"),
        ("dupont_s", "775645af24a5e4d4"),
        ("whitney_P", "6cac743f7a2c0fe8"),
        ("pullback", "9975a8f63af83b39"),
        ("exterior_d", "30a1df25f3129062"),
        ("contract_euler", "7da8b5a9b4719ef5"),
        ("integrate_chain", "bf1bd78ac6faa12d"),
    ],
)
def test_operator_image_fingerprint(op, expected):
    assert fingerprint(_images(op)) == expected
