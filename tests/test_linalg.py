"""Exact linear algebra on sparse term dicts: RREF, spans, solutions
and kernels on random rational rows over a shuffled column order."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from linfty import kernel
from linfty.linalg import Subspace, kernel_basis, rref, solve_linear

PROPERTY = settings(max_examples=60, deadline=None)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def sparse_rows(draw, keys, max_rows=6):
    """Random term dicts over keys; the zero draws test zero dropping."""
    return draw(st.lists(
        st.dictionaries(st.sampled_from(keys), rationals, max_size=4),
        max_size=max_rows,
    ))


@st.composite
def rows_over_columns(draw):
    width = draw(st.integers(1, 6))
    columns = draw(st.permutations([f"c{i}" for i in range(width)]))
    return columns, draw(sparse_rows(columns))


@st.composite
def systems(draw):
    """Columns of a matrix with rows keyed r0.. and a right-hand side."""
    height = draw(st.integers(1, 5))
    keys = [f"r{i}" for i in range(height)]
    columns = draw(sparse_rows(keys))
    if columns and draw(st.booleans()):
        # a target in the image
        target: dict = {}
        for col in columns:
            kernel.add_into(target, kernel.drop_zeros(col).items(),
                            draw(rationals))
    else:
        target = draw(st.dictionaries(st.sampled_from(keys), rationals, max_size=4))
    return keys, columns, target


def combine(columns, x):
    """sum_j x_j * columns[j] as a term dict."""
    out: dict = {}
    for j, c in x.items():
        kernel.add_into(out, kernel.drop_zeros(columns[j]).items(), c)
    return out


@PROPERTY
@given(rows_over_columns())
def test_rref_is_reduced_and_sorted(case):
    columns, rows = case
    rank = {col: i for i, col in enumerate(columns)}
    reduced, pivots = rref(rows, columns)
    assert len(reduced) == len(pivots)
    assert [rank[p] for p in pivots] == sorted(rank[p] for p in pivots)
    assert len(set(pivots)) == len(pivots)
    for row, pivot in zip(reduced, pivots):
        assert row[pivot] == 1
        assert min(row, key=rank.__getitem__) == pivot
        assert all(c for c in row.values())
        assert not any(other in row for other in pivots if other != pivot)


@PROPERTY
@given(rows_over_columns())
def test_every_input_reduces_to_zero(case):
    columns, rows = case
    space = Subspace(columns, rows)
    for row in rows:
        assert space.reduce(row) == {}
        assert space.contains(row)
    assert space.dim <= len(rows)
    # the RREF rows span the same space
    assert Subspace(columns, space.rows) == space


@PROPERTY
@given(rows_over_columns(), st.randoms(use_true_random=False))
def test_span_does_not_depend_on_input_order(case, rng):
    columns, rows = case
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert Subspace(columns, shuffled) == Subspace(columns, rows)


@PROPERTY
@given(systems())
def test_solve_linear_reproduces_the_target(case):
    keys, columns, target = case
    solution = solve_linear(columns, target)
    if solution is None:
        assert not Subspace(keys, columns).contains(target)
    else:
        assert combine(columns, solution) == kernel.drop_zeros(target)
        assert all(0 <= j < len(columns) and x for j, x in solution.items())


@PROPERTY
@given(systems())
def test_kernel_basis_is_annihilated_and_complete(case):
    keys, columns, _ = case
    basis = kernel_basis(columns)
    for vec in basis:
        assert combine(columns, vec) == {}
    assert len(basis) == len(columns) - Subspace(keys, columns).dim
    assert Subspace(range(len(columns)), basis).dim == len(basis)


def test_equal_columns_solve_to_the_first():
    one = Fraction(1)
    assert solve_linear([{"a": one}, {"a": one}], {"a": one}) == {0: one}


def test_inconsistent_system_has_no_solution():
    one = Fraction(1)
    assert solve_linear([{"a": one}], {"b": one}) is None
