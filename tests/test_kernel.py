"""The term kernel and the sparse containers built on it."""

import fractions
import sys
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

from linfty import kernel
from linfty.algebra import (
    GVector,
    TensorElement,
    bracket,
    constant_tensor,
    curvature,
    quotient,
    tensor_bracket,
)
from linfty.fixtures import BUNDLED, get_fixture
from linfty.dupont import _h_monomial, integrate_chain
from linfty.forms import Form, SimplicialMap, exterior_d, pullback


def test_sort_word_signs():
    assert kernel.sort_word(()) == ((), 1)
    assert kernel.sort_word((2,)) == ((2,), 1)
    assert kernel.sort_word((1, 2)) == ((1, 2), 1)
    assert kernel.sort_word((2, 1)) == ((1, 2), -1)
    assert kernel.sort_word((3, 1, 2)) == ((1, 2, 3), 1)
    assert kernel.sort_word((1, 1)) == ((), 0)
    assert kernel.sort_word((2, 3, 2)) == ((), 0)


def test_merge_words_signs():
    assert kernel.merge_words((1,), (2,)) == ((1, 2), 1)
    assert kernel.merge_words((2,), (1,)) == ((1, 2), -1)
    assert kernel.merge_words((1, 3), (2,)) == ((1, 2, 3), -1)
    assert kernel.merge_words((1,), (1,)) == ((), 0)
    assert kernel.merge_words((), (1, 2)) == ((1, 2), 1)


def test_add_into_drops_zeros():
    a = {((1,), ()): Fraction(1)}
    b = {((1,), ()): Fraction(-1, 2)}
    out = kernel.add_into(dict(a), b.items(), Fraction(2))
    assert out == {}


def test_mul_is_graded_commutative_at_term_level():
    a = {((0, 0), (1,)): Fraction(1)}
    b = {((0, 0), (2,)): Fraction(1)}
    ab = kernel.mul_terms(a, b)
    ba = kernel.mul_terms(b, a)
    assert ab == {((0, 0), (1, 2)): Fraction(1)}
    assert ba == {((0, 0), (1, 2)): Fraction(-1)}


# -- the exact primitives against the fractions operators ------------------


def _assert_canonical(values):
    """Each value is a true Fraction in lowest terms with a positive
    denominator, hashing like the Fraction the constructor builds."""
    for c in values:
        assert type(c) is Fraction
        assert gcd(c.numerator, c.denominator) == 1
        assert c.denominator > 0
        assert hash(c) == hash(Fraction(c.numerator, c.denominator))


def test_fraction_layout_is_the_one_the_primitives_fill():
    # the primitives build a Fraction by setting these two slots
    assert Fraction.__slots__ == ("_numerator", "_denominator")


small_rationals = st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)
)
wide_rationals = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)
)
any_rationals = small_rationals | wide_rationals | st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1)]
)


@settings(max_examples=500, deadline=None)
@given(any_rationals, any_rationals)
# one example per gcd branch of the sum: coprime denominators; a common
# factor of the denominators that the new numerator does not share; one
# that it does; equal denominators; a sum that cancels to zero.  Then a
# product that cancels on both sides, and a zero factor
@example(Fraction(1, 2), Fraction(1, 3))
@example(Fraction(1, 6), Fraction(1, 4))
@example(Fraction(1, 6), Fraction(1, 10))
@example(Fraction(5, 7), Fraction(-3, 7))
@example(Fraction(7, 10**6), Fraction(-7, 10**6))
@example(Fraction(2, 3), Fraction(9, 4))
@example(Fraction(0), Fraction(-999_983, 999_979))
def test_primitives_equal_the_fractions_operators(a, b):
    results = (kernel.frac_add(a, b), kernel.frac_mul(a, b), kernel.frac_neg(a))
    assert results == (a + b, a * b, -a)
    _assert_canonical(results)


@settings(max_examples=500, deadline=None)
@given(any_rationals, st.integers(-10**6, 10**6), st.integers(1, 10**6))
# an int that cancels the denominator, one that does not, a divisor
# that cancels the numerator, a zero factor and a zero Fraction
@example(Fraction(5, 6), 4, 1)
@example(Fraction(5, 6), 7, 1)
@example(Fraction(-9, 7), 1, 6)
@example(Fraction(2, 3), 0, 5)
@example(Fraction(0), -3, 4)
def test_integer_scaling_equals_the_fractions_operators(a, m, d):
    results = (kernel.frac_mul_int(a, m), kernel.frac_mul_int(a, m, d))
    assert results == (a * m, a * m / d)
    _assert_canonical(results)


# -- the kernel against plain Fraction sums and products --------------------

nonzero_rationals = (small_rationals | wide_rationals).filter(bool)
# few keys, so that sums collide and cancel; half the coefficients are +-1
term_dicts = st.dictionaries(
    st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)),
              st.sampled_from([(), (1,), (2,), (1, 2)])),
    st.sampled_from([Fraction(1), Fraction(-1)]) | nonzero_rationals,
    max_size=5,
)
scales = st.sampled_from([1, -1, 2, -2]) | nonzero_rationals


def _reference_product(a, b):
    out = {}
    for (e1, w1), c1 in a.items():
        for (e2, w2), c2 in b.items():
            word, sign = kernel.merge_words(w1, w2)
            if sign:
                key = (tuple(x + y for x, y in zip(e1, e2)), word)
                out[key] = out.get(key, Fraction(0)) + Fraction(sign) * c1 * c2
    return {key: c for key, c in out.items() if c}


def _reference_sum(dst, src, scale):
    zero = Fraction(0)
    out = {key: dst.get(key, zero) + Fraction(scale) * src.get(key, zero)
           for key in {**dst, **src}}
    return {key: c for key, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(term_dicts, term_dicts, scales)
def test_unit_fast_paths_match_plain_products(a, b, scale):
    """mul_terms, add_into, add_term and scale_terms on unit, small and
    wide coefficients equal plain Fraction arithmetic."""
    product = kernel.mul_terms(a, b)
    summed = kernel.add_into(dict(a), b.items(), scale)
    single = dict(a)
    for key, coeff in b.items():
        kernel.add_term(single, key, Fraction(scale) * coeff)
    assert product == _reference_product(a, b)
    assert summed == _reference_sum(a, b, scale)
    assert single == summed
    for out in (product, summed, single):
        # no zero is stored, and an int scale is never stored as-is
        assert all(c and isinstance(c, Fraction) for c in out.values())
        _assert_canonical(out.values())
    scaled = kernel.scale_terms(b, scale)
    assert scaled == {key: Fraction(scale) * c for key, c in b.items()}
    _assert_canonical(scaled.values())


@settings(max_examples=200, deadline=None)
@given(term_dicts)
def test_share_keeps_the_terms_and_reuses_their_objects(terms):
    shared = kernel.share(terms.items())
    # the flat tuple (key1, c1, key2, c2, ...) of the terms, in order
    assert type(shared) is tuple
    assert dict(kernel.pairs(shared)) == terms
    assert list(kernel.pairs(shared)) == list(terms.items())
    # sharing the result, or an equal dict of newly built keys and
    # coefficients, gives back the same objects in the same order
    rebuilt = {(tuple(list(e)), tuple(list(w))): Fraction(c.numerator,
                                                          c.denominator)
               for (e, w), c in terms.items()}
    for again in (kernel.share(kernel.pairs(shared)),
                  kernel.share(rebuilt.items())):
        assert all(a is b for a, b in zip(again, shared, strict=True))


def test_containers_store_fractions_for_int_input():
    heis = get_fixture("heisenberg")
    values = [
        *GVector(heis, {"e1": 2, "e3": -1}).coeffs.values(),
        *GVector(heis, {"e1": Fraction(1, 2)}).scale(4).coeffs.values(),
        *Form.constant(2, 3).scale(-1).terms.values(),
        *kernel.add_into({"x": Fraction(1, 3)}, {"x": Fraction(1)}.items(),
                        2).values(),
    ]
    assert values == [2, -1, 2, -3, Fraction(7, 3)]
    _assert_canonical(values)


# -- no operator dispatch on the hot paths ---------------------------------


def _fractions_calls(action):
    """The names of the ``fractions`` functions entered while action runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def test_hot_paths_make_no_call_into_fractions():
    terms = {((1, 0, 2), (1,)): Fraction(-2, 3), ((0, 1, 1), (1, 3)): Fraction(5, 7),
             ((2, 0, 0), (2, 3)): Fraction(1), ((0, 0, 1), ()): Fraction(3, 2)}
    form = Form(3, terms)
    top = Form(3, {((1, 0, 2), (1, 2)): Fraction(-2, 3),
                   ((0, 2, 1), (2, 3)): Fraction(5, 7),
                   ((1, 1, 1), (1, 3)): Fraction(4)})
    d0, s1 = SimplicialMap.face(0, 3), SimplicialMap.degeneracy(1, 4)
    scale = Fraction(-2, 3)
    actions = {
        "add_into": lambda: kernel.add_into(dict(terms), top.terms.items(),
                                                scale),
        "exterior_d": lambda: exterior_d(form),
        "pullback along d_0": lambda: pullback(d0, form),
        "pullback along s_1": lambda: pullback(s1, form),
        "integrate_chain from vertex 1": lambda: integrate_chain((1, 2, 3), top),
        "Form.constant": lambda: Form.constant(3, scale),
    }
    for i in range(4):
        for key in top.terms:
            actions[f"h^{i} of {key}"] = (
                lambda i=i, key=key: _h_monomial(i, 3, key)
            )
    for name, action in actions.items():
        # the first pullback along d_0 fills the cached powers of t_0
        action()
        assert _fractions_calls(action) == [], name
    assert integrate_chain((1, 2, 3), top) != 0
    assert pullback(d0, form).terms


# -- properties of the shared core on random elements --------------------

ALGEBRAS = ("heisenberg", "ut4", "dg_lie_01", "heis_exterior", "three_bracket")
N = 2
PROPERTY = settings(max_examples=40, deadline=None)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def vectors(draw, algebra):
    syms = draw(st.lists(st.sampled_from(algebra.symbols), max_size=4))
    return GVector(algebra, {s: draw(rationals) for s in syms})


@st.composite
def forms(draw, n=N):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        word = tuple(i for i in range(1, n + 1) if draw(st.booleans()))
        terms[(exps, word)] = draw(rationals)
    return Form(n, terms)


@st.composite
def tensors(draw, algebra, n=N):
    syms = draw(st.lists(st.sampled_from(algebra.symbols), max_size=3))
    return TensorElement(algebra, n, {s: draw(forms(n)) for s in syms})


@st.composite
def algebra_and_args(draw):
    algebra = get_fixture(draw(st.sampled_from(ALGEBRAS)))
    arity = draw(st.integers(1, algebra.max_arity))
    args = [draw(vectors(algebra)) for _ in range(arity)]
    return algebra, args, draw(st.integers(0, arity - 1)), draw(vectors(algebra))


@PROPERTY
@given(algebra_and_args())
def test_bracket_is_additive_in_each_slot(case):
    algebra, args, slot, extra = case
    summed = list(args)
    summed[slot] = args[slot] + extra
    replaced = list(args)
    replaced[slot] = extra
    assert bracket(algebra, summed) == (
        bracket(algebra, args) + bracket(algebra, replaced)
    )


@PROPERTY
@given(algebra_and_args())
def test_tensor_bracket_of_constants_is_constant(case):
    algebra, args, _, _ = case
    constants = [constant_tensor(N, v) for v in args]
    assert tensor_bracket(algebra, constants) == constant_tensor(
        N, bracket(algebra, args)
    )


@st.composite
def algebra_and_degree_one(draw):
    algebra = get_fixture(draw(st.sampled_from(ALGEBRAS)))
    syms = draw(st.lists(st.sampled_from(algebra.symbols), max_size=4))
    coeffs = {s: draw(rationals) for s in syms if algebra.degrees[s] == 1}
    return algebra, GVector(algebra, coeffs)


@PROPERTY
@given(algebra_and_degree_one())
def test_curvature_of_constants_is_constant(case):
    algebra, a = case
    assert curvature(algebra, constant_tensor(N, a)) == constant_tensor(
        N, curvature(algebra, a)
    )


# the seven proper quotients g -> g/F^k, 2 <= k < nilpotency index
QUOTIENTS = [
    (name, level) for name in BUNDLED
    for level in range(2, get_fixture(name).nilpotency_index())
]


@st.composite
def morphism_and_tensors(draw):
    name, level = draw(st.sampled_from(QUOTIENTS))
    f = quotient(get_fixture(name), level)
    return f, draw(tensors(f.source)), draw(tensors(f.source))


@PROPERTY
@given(morphism_and_tensors())
def test_morphism_apply_is_additive_on_tensors(case):
    f, x, y = case
    assert f.apply(x + y) == f.apply(x) + f.apply(y)


@PROPERTY
@given(forms(), forms())
def test_form_sum_cancels(a, b):
    total = (a + b) - b
    assert total == a
    assert all((a + b).terms.values())


@PROPERTY
@given(st.sampled_from(ALGEBRAS).flatmap(
    lambda name: st.tuples(*[vectors(get_fixture(name))] * 2)))
def test_vector_sum_cancels(pair):
    a, b = pair
    assert (a + b) - b == a
    assert all((a + b).coeffs.values())
    assert (a - a).coeffs == {}


@PROPERTY
@given(st.sampled_from(ALGEBRAS).flatmap(
    lambda name: st.tuples(*[tensors(get_fixture(name))] * 2)))
def test_tensor_sum_cancels(pair):
    a, b = pair
    assert (a + b) - b == a
    total = a + b
    assert all(total.comps.values())
    for form in total.comps.values():
        assert all(form.terms.values())
    assert (a - a).comps == {}
