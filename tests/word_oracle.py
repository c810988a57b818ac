"""The word oracle of the Campbell-Hausdorff series: exact truncated exp
and log in the free associative algebra, shared by the series tests."""

from fractions import Fraction
from math import factorial

from linfty import kernel
from linfty.fixtures import word_product


def exp_log(top):
    """Truncated exp and log in the free associative algebra, and the
    product they are truncated in: words longer than top are dropped."""
    one = {(): Fraction(1)}

    def by_length(u):
        pieces: dict = {}
        for w, c in u.items():
            pieces.setdefault(len(w), {})[w] = c
        return pieces

    def mul(u, v):
        # word_product piece by piece, skipping the pairs of pieces
        # whose words are all longer than top
        out: dict = {}
        v_pieces = by_length(v)
        for k, uk in by_length(u).items():
            for j, vj in v_pieces.items():
                if k + j <= top:
                    kernel.add_into(out, word_product(uk, vj).items())
        return out

    def exp(x):
        total, power = dict(one), one
        for k in range(1, top + 1):
            power = mul(power, x)
            kernel.add_into(total, power.items(), Fraction(1, factorial(k)))
        return total

    def log(g):
        z = kernel.add_into(dict(g), one.items(), -1)
        total, power = {}, one
        for k in range(1, top + 1):
            power = mul(power, z)
            kernel.add_into(total, power.items(), Fraction((-1) ** (k + 1), k))
        return total

    return exp, log, mul
