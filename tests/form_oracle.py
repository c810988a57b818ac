"""The generators of the forms on the n-simplex written out in the
reduced coordinates, and the reduction by products of them: the oracles
of the reducer and pullback tests, independent of Form.t, Form.dt and
reduce_barycentric."""

from fractions import Fraction

from linfty.forms import Form


def _unit(j, n):
    return tuple(int(k == j) for k in range(1, n + 1))


def t_form(i, n):
    """t_i; t_0 = 1 - t_1 - ... - t_n."""
    if i:
        return Form(n, {(_unit(i, n), ()): Fraction(1)})
    terms = {((0,) * n, ()): Fraction(1)}
    for j in range(1, n + 1):
        terms[_unit(j, n), ()] = Fraction(-1)
    return Form(n, terms)


def dt_form(i, n):
    """dt_i; dt_0 = -(dt_1 + ... + dt_n)."""
    if i:
        return Form(n, {((0,) * n, (i,)): Fraction(1)})
    return Form(n, {((0,) * n, (j,)): Fraction(-1) for j in range(1, n + 1)})


def reduce_by_products(raw_terms, n):
    """The reduction of raw (coeff, exps over t_0..t_n, dt-word over
    0..n) terms as the sum of the products of their generators, in the
    order written."""
    total = Form.zero(n)
    for coeff, exps, word in raw_terms:
        piece = Form.constant(n, coeff)
        for i, e in enumerate(exps):
            for _ in range(e):
                piece = piece * t_form(i, n)
        for i in word:
            piece = piece * dt_form(i, n)
        total = total + piece
    return total
