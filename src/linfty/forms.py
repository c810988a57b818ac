"""Exact polynomial differential forms on simplices.

The algebra of forms on the n-simplex is generated by barycentric
coordinates t_0..t_n (degree 0) and their differentials dt_0..dt_n
(degree 1), subject to t_0+...+t_n = 1 and dt_0+...+dt_n = 0.  We store
the unique reduced representative obtained by eliminating t_0 and dt_0:
a Form is a sparse map from (exponent vector over t_1..t_n, strictly
increasing dt-word) to rational coefficients.  All arithmetic is exact.

reduce_barycentric is the one reduction to that normal form (Form.t,
Form.dt, the elementary forms and the s_0/ds_0 terms of a pullback go
through it); it expands dt_0 and multiplies by the powers of t_0 in
_t0_power, a table of term dicts.

Every linear operator on forms acts through apply_cached: a table maps
each monomial to the operator's value on it, a flat tuple of
kernel.share computed once from the monomial alone, and the values are
added in with kernel.add_into.  exterior_d keeps one table keyed by the
monomial, pullback one per SimplicialMap, and the Dupont operators h^i,
P and s of linfty.dupont, and the gauge correction P h^i + s of the
gauge-fixed solver (dupont.gauge_correction), keep their own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from linfty import kernel

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Form(kernel.Linear):
    """A differential form on the n-simplex in reduced normal form.

    Immutable; term keys are pairs (exps, word) with exps a tuple of
    exponents of t_1..t_n and word a strictly increasing tuple of
    dt-indices in 1..n.  May be inhomogeneous in both polynomial and
    exterior degree.
    """

    __slots__ = ()
    n = kernel.Linear.space
    terms = kernel.Linear.entries

    def __init__(self, n: int, terms: dict | None = None, _validated: bool = False):
        if n < 0:
            raise ValueError(f"simplex dimension must be >= 0, got {n}")
        self.n = n
        if terms is None:
            terms = {}
        if not _validated:
            for (exps, word), coeff in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent vector {exps} has length != {n}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if list(word) != sorted(set(word)) or any(
                    not 1 <= i <= n for i in word
                ):
                    raise ValueError(f"bad dt-word {word} for n={n}")
                if not isinstance(coeff, Fraction):
                    raise TypeError(f"coefficient {coeff!r} is not a Fraction")
            terms = kernel.drop_zeros(terms)
        self.terms = terms

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Form":
        return Form(n, {}, _validated=True)

    @staticmethod
    def constant(n: int, value) -> "Form":
        value = kernel.as_fraction(value)
        if not value._numerator:
            return Form.zero(n)
        return Form(n, {((0,) * n, ()): value}, _validated=True)

    @staticmethod
    def one(n: int) -> "Form":
        return Form.constant(n, 1)

    @staticmethod
    def t(i: int, n: int) -> "Form":
        """The barycentric coordinate t_i as a reduced form."""
        _check_vertex(i, n)
        exps = [0] * (n + 1)
        exps[i] = 1
        return reduce_barycentric([(_ONE, tuple(exps), ())], n)

    @staticmethod
    def dt(i: int, n: int) -> "Form":
        """The differential dt_i as a reduced form."""
        _check_vertex(i, n)
        return reduce_barycentric([(_ONE, (0,) * (n + 1), (i,))], n)

    # -- the vector-space hooks of kernel.Linear ----------------------

    def scale(self, c) -> "Form":
        return Form(self.n, kernel.scale_terms(self.terms, c), _validated=True)

    def combine(self, pairs) -> "Form":
        """self + sum of c * x over the (c, x) pairs."""
        out = dict(self.terms)
        for c, x in pairs:
            self._check(x)
            kernel.add_into(out, x.terms.items(), c)
        return Form(self.n, out, _validated=True)

    def __mul__(self, other):
        if isinstance(other, Form):
            return wedge(self, other)
        return self.scale(other)

    # -- grading -----------------------------------------------------

    def exterior_degrees(self):
        """Sorted list of exterior degrees present."""
        return sorted({len(word) for _, word in self.terms})

    def component(self, k: int) -> "Form":
        """The exterior-degree-k part."""
        return Form(
            self.n,
            {key: c for key, c in self.terms.items() if len(key[1]) == k},
            _validated=True,
        )

    # -- rendering ---------------------------------------------------

    def render(self) -> str:
        """Canonical text rendering, e.g. '1/2*t1^2*dt1^dt2'."""
        terms = []
        for exps, word in sorted(self.terms, key=lambda k: (k[1], k[0])):
            factors = [f"t{i}" if e == 1 else f"t{i}^{e}"
                       for i, e in enumerate(exps, start=1) if e]
            if word:
                factors.append("^".join(f"dt{i}" for i in word))
            terms.append((self.terms[exps, word], factors))
        return kernel.render_sum(terms)

    def __repr__(self):
        return f"Form({self.n}, {self.render()!r})"


def _check_vertex(i: int, n: int):
    if not 0 <= i <= n:
        raise ValueError(f"vertex index {i} out of range 0..{n}")


# -- reduction of raw barycentric expressions ------------------------


def reduce_barycentric(raw_terms: Iterable, n: int) -> Form:
    """Reduce a formal polynomial in t_0..t_n, dt_0..dt_n to normal form:
    the one reduction to the coordinates t_1..t_n, dt_1..dt_n.

    raw_terms is an iterable of (coeff, exps, word) with exps of length
    n+1 (exponents of t_0..t_n) and word a tuple over 0..n (a formal
    dt-product, in the given order).  Each word is sorted with its sign
    (kernel.sort_word) and dt_0 = -(dt_1 + ... + dt_n) expanded; the
    terms are then collected by their power p of t_0, and each
    collection is multiplied once by t_0^p (_t0_power).  Idempotent on
    already-reduced input.
    """
    # p -> the terms with the factor t_0^p, t_0^p left out
    groups: dict = {}
    for coeff, exps, word in raw_terms:
        coeff = kernel.as_fraction(coeff)
        if not coeff:
            continue
        if len(exps) != n + 1:
            raise ValueError(f"raw exponent vector {exps} has length != {n + 1}")
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        for i in word:
            _check_vertex(i, n)
        word, sign = kernel.sort_word(word)
        if not sign:
            continue
        if sign < 0:
            coeff = kernel.frac_neg(coeff)
        group = groups.setdefault(exps[0], {})
        rest = tuple(exps[1:])
        if word and not word[0]:
            # dt_0 = -(dt_1 + ... + dt_n)
            negated = kernel.frac_neg(coeff)
            for a in range(1, n + 1):
                merged, sign = kernel.merge_words((a,), word[1:])
                if sign:
                    kernel.add_term(group, (rest, merged),
                                    negated if sign > 0 else coeff)
        else:
            kernel.add_term(group, (rest, word), coeff)
    total: dict = {}
    for p, group in groups.items():
        if p:
            group = kernel.mul_terms(_t0_power(p, n), group)
        kernel.add_into(total, group.items())
    return Form(n, total, _validated=True)


# (n, e) -> t_0^e on the n-simplex, a term dict with shared keys and
# coefficients
_T0_POWER_CACHE: dict = {}


def _t0_power(e: int, n: int) -> dict:
    """t_0^e = (1 - t_1 - ... - t_n)^e as a term dict, each power one
    product of the cached power below it (t_0^0 = 1) with t_0."""
    below = e
    while below and (n, below) not in _T0_POWER_CACHE:
        below -= 1
    power = _T0_POWER_CACHE[n, below] if below else {((0,) * n, ()): _ONE}
    if below < e:
        # t_0 = 1 - t_1 - ... - t_n
        t0 = {((0,) * n, ()): _ONE}
        for j in range(n):
            t0[(0,) * j + (1,) + (0,) * (n - 1 - j), ()] = -_ONE
        for k in range(below + 1, e + 1):
            power = _T0_POWER_CACHE[n, k] = dict(kernel.pairs(
                kernel.share(kernel.mul_terms(power, t0).items())))
    return power


# -- the graded product ----------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    """Graded-commutative product of two forms over the same n."""
    a._check(b)
    if not a.terms or not b.terms:
        return Form.zero(a.n)
    return Form(a.n, kernel.mul_terms(a.terms, b.terms), _validated=True)


# -- the cached-apply path of the linear operators ---------------------


def apply_cached(table: dict, fill: Callable, f: Form, n: int,
                 vertex: int | None = None) -> Form:
    """A linear operator on f, monomial by monomial through table, with
    its value on the n-simplex: the one path through which exterior_d,
    pullback, the Dupont operators h^i, P and s and the gauge correction
    P h^i + s act.

    The table is keyed by the monomial key, or (vertex, key) for an
    operator that marks a vertex (h^i, P h^i + s), and holds the
    operator's value on the monomial with coefficient 1 as the flat tuple
    of kernel.share (a zero value is ()).  A miss is filled with
    fill(key), which returns that tuple; each value is added in, scaled
    by the monomial's coefficient, with kernel.add_into.
    """
    out: dict = {}
    for key, coeff in f.terms.items():
        entry = key if vertex is None else (vertex, key)
        flat = table.get(entry)
        if flat is None:  # a zero value, (), is a hit
            flat = table[entry] = fill(key)
        if flat:  # a zero value adds nothing
            it = iter(flat)  # kernel.pairs, without the call
            kernel.add_into(out, zip(it, it), coeff)
    return Form(n, out, _validated=True)


# -- the exterior differential ---------------------------------------

# monomial key -> d of the monomial, flat; the key fixes n
_D_CACHE: dict = {}


def exterior_d(f: Form) -> Form:
    """Exterior differential: degree +1 graded derivation with d(t_i) = dt_i."""
    return apply_cached(_D_CACHE, _d_monomial, f, f.n)


def _d_monomial(key) -> tuple:
    """d of the monomial t^e dt_W (key = (e, W)), flat: the sum over j
    with e_j > 0 of e_j t^(e - 1_j) dt_j dt_W.  Each j lowers a different
    exponent, so the terms have distinct keys and are stored without
    adding."""
    exps, word = key
    terms = []
    for pos, e in enumerate(exps):
        if not e:
            continue
        new_word, sign = kernel.merge_words((pos + 1,), word)
        if sign == 0:
            continue
        new_exps = list(exps)
        new_exps[pos] -= 1
        terms.append(((tuple(new_exps), new_word),
                      kernel.frac_mul_int(_ONE, e * sign)))
    return kernel.share(terms)


# -- vertex evaluation and Euler contraction -------------------------


def evaluate_vertex(i: int, f: Form) -> Rational:
    """Evaluation at the vertex e_i; kills positive exterior degree."""
    _check_vertex(i, f.n)
    total = _ZERO
    for (exps, word), coeff in f.terms.items():
        if word:
            continue
        if all(e == 0 for pos, e in enumerate(exps) if pos + 1 != i):
            total = kernel.frac_add(total, coeff)
    return total


def contract_euler(i: int, f: Form) -> Form:
    """Interior product with the dilation field toward vertex e_i.

    Degree -1 graded derivation with iota(t_j) = 0 and
    iota(dt_j) = t_j - delta_ij; squares to zero.
    """
    _check_vertex(i, f.n)
    n = f.n
    out: dict = {}
    for (exps, word), coeff in f.terms.items():
        if not word:
            continue
        negated = kernel.frac_neg(coeff)
        for pos, j in enumerate(word):
            rest = word[:pos] + word[pos + 1 :]
            # iota(dt_j) = t_j - delta_ij, with sign (-1)^pos
            plus, minus = (coeff, negated) if pos % 2 == 0 else (negated, coeff)
            bumped = list(exps)
            bumped[j - 1] += 1
            kernel.add_term(out, (tuple(bumped), rest), plus)
            if j == i:
                kernel.add_term(out, (exps, rest), minus)
    return Form(n, out, _validated=True)


# -- simplicial maps and pullback ------------------------------------


class SimplicialMap:
    """A monotone map [m] -> [n], the shape of a simplicial operator."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source: int, target: int, values: Sequence[int]):
        values = tuple(values)
        if len(values) != source + 1:
            raise ValueError(
                f"map on [{source}] needs {source + 1} values, got {len(values)}"
            )
        if any(not 0 <= v <= target for v in values):
            raise ValueError(f"values {values} out of range 0..{target}")
        if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
            raise ValueError(f"values {values} are not monotone")
        self.source = source
        self.target = target
        self.values = values

    @staticmethod
    def face(k: int, n: int) -> "SimplicialMap":
        """The injection [n-1] -> [n] skipping k."""
        if not 0 <= k <= n:
            raise ValueError(f"face index {k} out of range 0..{n}")
        return SimplicialMap(
            n - 1, n, tuple(i if i < k else i + 1 for i in range(n))
        )

    @staticmethod
    def degeneracy(k: int, n: int) -> "SimplicialMap":
        """The surjection [n] -> [n-1] repeating k."""
        if not 0 <= k <= n - 1:
            raise ValueError(f"degeneracy index {k} out of range 0..{n - 1}")
        return SimplicialMap(
            n, n - 1, tuple(i if i <= k else i - 1 for i in range(n + 1))
        )

    @staticmethod
    def identity(n: int) -> "SimplicialMap":
        return SimplicialMap(n, n, tuple(range(n + 1)))

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other: [k] -> [m] -> [n]."""
        if other.target != self.source:
            raise ValueError(
                f"cannot compose [{other.source}]->[{other.target}] with "
                f"[{self.source}]->[{self.target}]"
            )
        return SimplicialMap(
            other.source, self.target, tuple(self.values[v] for v in other.values)
        )

    def factorize(self) -> "list[SimplicialMap]":
        """Write the map as degeneracies followed by faces (composition
        right to left); composing the factors recovers the map."""
        factors = []
        current = SimplicialMap.identity(self.target)
        missing = sorted(set(range(self.target + 1)) - set(self.values))
        for value in reversed(missing):
            face = SimplicialMap.face(value, current.source)
            factors.append(face)
            current = current.compose(face)
        repeats = [
            i for i in range(len(self.values) - 1)
            if self.values[i] == self.values[i + 1]
        ]
        for i in repeats:
            degeneracy = SimplicialMap.degeneracy(i, current.source + 1)
            factors.append(degeneracy)
            current = current.compose(degeneracy)
        return factors

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __repr__(self):
        return f"SimplicialMap([{self.source}]->[{self.target}], {self.values})"


# SimplicialMap -> its table: monomial key -> the monomial's pullback, flat
_PULLBACK_CACHE: dict = {}


def pullback(f: SimplicialMap, form: Form) -> Form:
    """Pull a form on the target simplex back along f; an algebra map
    commuting with the differential.  Applied monomial by monomial
    through one table per map, filled by _pullback_monomial."""
    if form.n != f.target:
        raise ValueError(
            f"form lives on the {form.n}-simplex, map targets [{f.target}]"
        )
    return apply_cached(_PULLBACK_CACHE.setdefault(f, {}),
                        lambda key: _pullback_monomial(f, key), form, f.source)


def _pullback_monomial(f: SimplicialMap, key) -> tuple:
    """The pullback along f of the monomial t^e dt_W (key = (e, W)),
    flat.

    Substitutes t_j -> sum of s_a and dt_j -> sum of ds_a over the
    preimage f^-1(j) of each j >= 1.  The preimages are disjoint blocks
    of consecutive source vertices, so the monomial expands into a
    multinomial coefficient for each way of spreading every t_j^e_j over
    its block and choosing one ds-letter from the block of every letter
    of W; the chosen letters come out sorted.  Two different expansions
    never give the same key, so these terms are stored without adding.
    Only the terms with a factor s_0 or ds_0, eliminated on the source,
    need reduction; they occur when f(0) > 0, as on a d_0 face, and go
    through reduce_barycentric.
    """
    exps, word = key
    m = f.source
    blocks = [[] for _ in range(f.target + 1)]
    for a, v in enumerate(f.values):
        blocks[v].append(a)
    words = list(itertools.product(*[blocks[j] for j in word]))
    if not words:
        return ()
    src = [0] * (m + 1)
    tables = []
    for j, e in enumerate(exps, start=1):
        if not e:
            continue
        block = blocks[j]
        if len(block) == 1:
            src[block[0]] = e
        else:
            tables.append(_spread(block, e))
    images = [(src, _ONE)]
    for table in tables:
        images = [_apply_spread(image, part, count)
                  for image in images for part, count in table]
    out: dict = {}
    raw = []  # the terms with a factor s_0 or ds_0, left to the reducer
    for image, c in images:
        exps_key = tuple(image[1:])
        for w in words:
            if image[0] or (w and not w[0]):
                raw.append((c, image, w))
            else:
                out[exps_key, w] = c
    if raw:
        kernel.add_into(out, reduce_barycentric(raw, m).terms.items())
    return kernel.share(out.items())


def _apply_spread(image, part, count):
    """An image (source exponents, coefficient) times one term of a
    spread."""
    exps, coeff = image
    exps = list(exps)
    for a, x in part:
        exps[a] = x
    return exps, coeff if count == 1 else kernel.frac_mul_int(coeff, count)


def _spread(block, e: int) -> list:
    """The terms of (s_a + s_b + ...)^e over a block of source vertices:
    pairs (((a, exponent), ...), multinomial); none for an empty block."""
    if len(block) <= 1:
        return [(((block[0], e),), 1)] if block else []
    first, rest = block[0], block[1:]
    return [(((first, x),) + part, comb(e, x) * count)
            for x in range(e + 1) for part, count in _spread(rest, e - x)]
