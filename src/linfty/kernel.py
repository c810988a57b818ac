"""The term kernel: sparse sums of exact rational terms.

A term dict maps hashable keys to nonzero Fraction coefficients.  Forms
key it by ``(exps, word)``, where ``exps`` is a tuple of exponents for
t_1..t_n and ``word`` a strictly increasing tuple of dt-indices;
algebra vectors key it by basis symbol; the rows, solutions and kernel
vectors of ``linalg`` key it by column.  ``add_into``, ``add_term``
(one term), ``scale_terms`` and ``drop_zeros`` are the only places a
term dict is added into, scaled or cleared of zeros (``add_into`` and
``mul_terms``, the innermost loops, inline ``add_term``; ``add_into``
adds (key, coefficient) pairs, a term dict's ``items()`` or a flat
tuple read by ``pairs``); the word
helpers carry every reordering sign: ``sort_word`` for dt-words and for
the arguments of a graded antisymmetric bracket, ``merge_words`` for
the exterior product.

Cached terms are flat and share their keys, the parts of their keys
and their coefficients: ``share`` returns a form's terms as one flat
tuple (key1, c1, key2, c2, ...), the zero form as (), whose keys,
exponent tuples and dt-words come from one module-level table and whose
coefficients come from another, keyed by (numerator, denominator)
(hash-consing).  So the long-lived operator tables of ``forms`` (d and
the pullbacks) and ``dupont`` (h^i, P, s) hold one tuple per cached
value and no dict, and they, the elementary-form cache of ``dupont``
(``Form``s) and the t_0-power table of ``forms`` (term dicts), both
rebuilt from the tuple with ``dict(pairs(flat))``, hold one key object
per monomial, one tuple per exponent vector or word and one Fraction
per value.

Exact arithmetic: the package's four internal primitives compute
from numerators and denominators: ``frac_add``, ``frac_mul`` and
``frac_neg`` give a + b, a * b and -a of Fractions, and
``frac_mul_int`` gives a * m / d of a Fraction a and ints m and d > 0
with one gcd (``exterior_d`` scales by exponents, ``pullback`` by
multinomial coefficients and ``integrate_chain`` by the Dirichlet
integral's factorials through it).  They run the gcd steps of the
``fractions`` module but skip its operator dispatch and constructor
checks (an operator call takes about three times as long as the
primitive), and build each result in place as CPython 3.12's
``Fraction._from_coprime_ints`` does: a true Fraction in lowest terms
with a positive denominator, equal and hashing equal to what the
operator gives.  They rely on Fraction's two slots, ``_numerator`` and
``_denominator``, a layout the tests pin.  Every coefficient the
kernel computes goes through them, and every stored coefficient is a
Fraction: ``drop_zeros`` converts coefficients that come from outside,
and ``add_into`` and ``scale_terms`` convert a scale that is not a
Fraction once per call.

``Linear`` is the vector-space surface of every container over a term
dict (``Form``, ``GVector``, ``TensorElement``): sum, difference,
negation, scalar multiple, equality, hash and zero test, written once
on the dict it holds (``entries``) and the space it lives in
(``space``).  A container supplies ``scale(c)`` and ``combine(pairs)``,
the linear combination self + sum of c * x built in one accumulator.
``render_sum`` is the one canonical text of a signed sum, which
``Form.render`` and ``GVector.render`` call.
"""

from fractions import Fraction
from math import gcd
from operator import add

IMPLEMENTATION = "python"

_new = object.__new__


def _fraction(numerator, denominator):
    """The Fraction numerator/denominator of two coprime ints with
    denominator > 0, built without normalising."""
    value = _new(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


def frac_add(a, b):
    """a + b for two Fractions."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _fraction(t // g2, s * (db // g2))


def frac_mul(a, b):
    """a * b for two Fractions."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _fraction(na * nb, db * da)


def frac_mul_int(a, m, d=1):
    """a * m / d for a Fraction a and ints m and d > 0."""
    numerator = a._numerator * m
    denominator = a._denominator * d
    g = gcd(numerator, denominator)
    if g == 1:
        return _fraction(numerator, denominator)
    return _fraction(numerator // g, denominator // g)


def frac_neg(a):
    """-a for a Fraction."""
    return _fraction(-a._numerator, a._denominator)


def as_fraction(value):
    """value as a Fraction, converting only a value that is not one."""
    return value if type(value) is Fraction else Fraction(value)


def sort_word(word, commuting=()):
    """Sort a word of letters, returning (sorted_word, sign).

    Swapping two neighbours costs -1 unless both letters are in
    ``commuting``: the sign of a graded antisymmetric bracket whose odd
    arguments are the commuting letters, and with no commuting letter
    the parity of the sorting permutation (dt-words).  A repeated letter
    outside ``commuting`` gives ((), 0): it squares to zero.
    """
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            if w[j] not in commuting or w[j - 1] not in commuting:
                sign = -sign
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
        if j > 0 and w[j - 1] == w[j] and w[j] not in commuting:
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
    """A copy of terms without its zeros, each coefficient a Fraction."""
    return {key: as_fraction(value) for key, value in terms.items() if value}


def add_into(dst, items, scale=1):
    """In-place dst += scale * (the sum of c * key over the (key, c)
    pairs of items), dropping coefficients that cancel.

    The package's one accumulation loop: a term dict passes
    ``terms.items()``, a flat tuple from ``share`` passes
    ``pairs(flat)``.  No c may be zero; returns dst.
    """
    if not items:  # an empty dict view; pairs(flat) is always true
        return dst
    # the scale is tested by value as an int and by its slots as a
    # Fraction, so that no test dispatches into ``fractions``
    if type(scale) is int:
        if not scale:
            return dst
        scaled = scale != 1
        if scaled:
            scale = _fraction(scale, 1)
    else:
        if type(scale) is not Fraction:  # as_fraction, without the call
            scale = Fraction(scale)
        if not scale._numerator:
            return dst
        scaled = scale._numerator != 1 or scale._denominator != 1
    for key, coeff in items:
        if scaled:
            coeff = frac_mul(scale, coeff)
        acc = dst.get(key)
        if acc is None:
            dst[key] = coeff
        else:
            acc = frac_add(acc, coeff)
            if acc._numerator:
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
        acc = frac_add(acc, coeff)
        if acc._numerator:
            dst[key] = acc
        else:
            del dst[key]
    return dst


# the first object seen for each key and key part, by value, and for
# each coefficient, by its (numerator, denominator)
_SHARED: dict = {}
_SHARED_COEFFS: dict = {}


def share(items):
    """The flat tuple (key1, c1, key2, c2, ...) of a form's (key,
    coefficient) pairs items, in their order, whose keys, the exponent
    tuples and dt-words of the keys, and coefficients are the first
    objects ``share`` saw with their values; the zero form gives ().

    Called where a form enters a long-lived table, so that the table
    holds one tuple per form, with one object per monomial, per
    exponent tuple, per word and per coefficient value, and no dict.
    Equal tuples share one object whatever their role.  A coefficient
    is looked up by the pair of its slots, whose hash costs a tenth of
    ``Fraction.__hash__``.  ``pairs`` reads the result back."""
    shared = _SHARED.setdefault
    coeffs = _SHARED_COEFFS
    flat = []
    for key, coeff in items:
        first = _SHARED.get(key)
        if first is None:
            exps, word = key
            first = (shared(exps, exps), shared(word, word))
            _SHARED[first] = first
        flat.append(first)
        value = coeff._numerator, coeff._denominator
        first = coeffs.get(value)
        if first is None:
            first = coeffs[value] = coeff
        flat.append(first)
    return tuple(flat)


def pairs(flat):
    """The (key, coefficient) pairs of a flat tuple from ``share``."""
    it = iter(flat)
    return zip(it, it)


def scale_terms(terms, scale):
    """Return a new term dict equal to scale * terms."""
    scale = as_fraction(scale)
    if not scale:
        return {}
    return {key: frac_mul(scale, coeff) for key, coeff in terms.items()}


def mul_terms(a, b):
    """Graded product of two form term dicts over the same n."""
    out = {}
    for (e1, w1), c1 in a.items():
        negated = frac_neg(c1)
        for (e2, w2), c2 in b.items():
            word, sign = merge_words(w1, w2)
            if sign == 0:
                continue
            key = (add_exps(e1, e2), word)
            coeff = frac_mul(c1 if sign > 0 else negated, c2)
            # add_term inlined: this is the innermost loop of the package
            acc = out.get(key)
            if acc is None:
                out[key] = coeff
            else:
                acc = frac_add(acc, coeff)
                if acc._numerator:
                    out[key] = acc
                else:
                    del out[key]
    return out


def render_sum(terms):
    """The canonical text of a sum of (coefficient, factors) pairs, in
    their order; factors is a sequence of texts, a monomial's variables
    or a basis symbol, and empty for a constant.  A term is its
    coefficient's magnitude and its factors joined by '*', the magnitude
    left out when it is 1 and there are factors.  The first term takes
    the sign '-' or none, each later one ' - ' or ' + '; the empty sum
    is '0'."""
    pieces = []
    for coeff, factors in terms:
        mag = -coeff if coeff < 0 else coeff
        body = "*".join(factors if mag == 1 and factors else [str(mag), *factors])
        if pieces:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if coeff < 0 else body)
    return " ".join(pieces) or "0"


class Linear:
    """The vector-space operations of a sparse container.

    ``entries`` is the container's dict of nonzero values and ``space``
    what two operands must share: a simplex dimension, an algebra, or
    both.  A subclass may give either slot its own name as well
    (``terms = Linear.entries``), and supplies ``scale(c)`` and
    ``combine(pairs)``, self + the sum of c * x over the (c, x) pairs in
    one accumulator, calling ``_check`` on each x.  An operand of
    another type raises TypeError, one over another space ValueError;
    zero is falsy.
    """

    __slots__ = ("entries", "space")

    def is_zero(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __add__(self, other):
        return self.combine(((1, other),))

    def __sub__(self, other):
        return self.combine(((-1, other),))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.entries == other.entries
            and self.space == other.space
        )

    def __hash__(self):
        return hash((self.space, frozenset(self.entries.items())))

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"expected {type(self).__name__}, got {type(other).__name__}"
            )
        if other.space != self.space:
            raise ValueError(
                f"{type(self).__name__}s over different spaces: "
                f"{self.space!r} != {other.space!r}"
            )

    def __str__(self):
        return self.render()
