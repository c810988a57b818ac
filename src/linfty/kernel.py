"""The term kernel: sparse sums of exact rational terms.

A term dict maps hashable keys to nonzero Fraction coefficients.  Forms
key it by ``(exps, word)``, where ``exps`` is a tuple of exponents for
t_1..t_n and ``word`` a strictly increasing tuple of dt-indices;
algebra vectors key it by basis symbol; the rows, solutions and kernel
vectors of ``linalg`` key it by column.  ``add_into``, ``add_term``
(one term), ``scale_terms`` and ``drop_zeros`` are the only places a
term dict is added into, scaled or cleared of zeros (``add_into`` and
``mul_terms``, the innermost loops, inline ``add_term``); the word
helpers carry the signs of the exterior product.

Unit fast paths: a product with a factor of 1 or -1 is never
multiplied out.  ``mul_terms`` copies or negates the other coefficient
(testing each left coefficient once per left term, and a right one only
when the left is not a unit), and ``add_into`` negates under the scale
-1 and stores +-scale for a source coefficient of +-1 under a Fraction
scale.  Every stored coefficient is a Fraction: an int scale is only
ever multiplied into one.
"""

from fractions import Fraction
from operator import add

IMPLEMENTATION = "python"


def sort_word(word):
    """Sort a dt-index word, returning (sorted_word, sign).

    The sign is the parity of the sorting permutation; a repeated index
    gives sign 0 (odd generators square to zero).
    """
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            w[j - 1], w[j] = w[j], w[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and w[j - 1] == w[j]:
            return (), 0
    return tuple(w), sign


def merge_words(w1, w2):
    """Merge two sorted dt-words, returning (merged, sign).

    Sign counts inversions between the blocks; overlapping words give
    ((), 0).
    """
    if not w1:
        return w2, 1
    if not w2:
        return w1, 1
    merged = []
    sign = 1
    i = j = 0
    n1, n2 = len(w1), len(w2)
    while i < n1 and j < n2:
        a, b = w1[i], w2[j]
        if a == b:
            return (), 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            # b jumps over the remaining n1-i letters of w1
            if (n1 - i) & 1:
                sign = -sign
    merged.extend(w1[i:])
    merged.extend(w2[j:])
    return tuple(merged), sign


def add_exps(e1, e2):
    """Componentwise sum of two exponent tuples."""
    return tuple(map(add, e1, e2))


def drop_zeros(terms):
    """A copy of terms without its zero (falsy) values."""
    return {key: value for key, value in terms.items() if value}


def _unit(coeff):
    """1 or -1 when coeff is 1 or -1, else 0."""
    if coeff == 1:
        return 1
    if coeff == -1:
        return -1
    return 0


def _scaled(src, scale):
    """The items of src scaled by the Fraction scale; a unit coefficient
    yields scale or -scale without a multiplication."""
    negated = None
    for key, coeff in src.items():
        if coeff == 1:
            yield key, scale
        elif coeff == -1:
            if negated is None:
                negated = -scale
            yield key, negated
        else:
            yield key, scale * coeff


def add_into(dst, src, scale=1):
    """In-place dst += scale * src, dropping coefficients that cancel.

    src must hold no zeros; returns dst.
    """
    if not src or not scale:
        return dst
    if scale == 1:
        items = src.items()
    elif scale == -1:
        items = ((key, -coeff) for key, coeff in src.items())
    elif isinstance(scale, Fraction):
        items = _scaled(src, scale)
    else:
        items = ((key, scale * coeff) for key, coeff in src.items())
    for key, coeff in items:
        acc = dst.get(key)
        if acc is None:
            dst[key] = coeff
        else:
            acc = acc + coeff
            if acc:
                dst[key] = acc
            else:
                del dst[key]
    return dst


def add_term(dst, key, coeff):
    """In-place dst[key] += coeff for one nonzero Fraction coeff,
    dropping the key if it cancels; returns dst."""
    acc = dst.get(key)
    if acc is None:
        dst[key] = coeff
    else:
        acc = acc + coeff
        if acc:
            dst[key] = acc
        else:
            del dst[key]
    return dst


def scale_terms(terms, scale):
    """Return a new term dict equal to scale * terms."""
    if not scale:
        return {}
    if scale == -1:
        return {key: -coeff for key, coeff in terms.items()}
    return {key: scale * coeff for key, coeff in terms.items()}


def mul_terms(a, b):
    """Graded product of two form term dicts over the same n."""
    out = {}
    for (e1, w1), c1 in a.items():
        u1 = _unit(c1)
        for (e2, w2), c2 in b.items():
            word, sign = merge_words(w1, w2)
            if sign == 0:
                continue
            key = (add_exps(e1, e2), word)
            if u1:
                coeff = c2 if sign == u1 else -c2
            else:
                u2 = _unit(c2)
                if u2:
                    coeff = c1 if sign == u2 else -c1
                else:
                    coeff = c1 * c2 if sign > 0 else -(c1 * c2)
            # add_term inlined: this is the innermost loop of the package
            acc = out.get(key)
            if acc is None:
                out[key] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out
