"""The simplicial de Rham operators.

Elementary (Whitney) forms, integration over chains, the Whitney
projection P_n onto elementary forms, the vertexwise Poincare
homotopies h^i_n, the simplicial gauge s_n assembled from them, and the
Lambe-Stasheff gaugeification of an arbitrary contraction.  The
operator identities these satisfy (ds + sd = Id - P, s^2 = 0, ...) are
checked exactly on monomial generator sets by the harness at the
bottom; those checks are the core of the acceptance suite.

h^i, P and s act monomial by monomial through forms.apply_cached, the
one cached-apply path of the linear operators on forms.  Each cache
maps a monomial key, or (i, key) for h^i, to the operator's value on
the monomial as one flat tuple (key1, c1, key2, c2, ...) of
kernel.share, whose keys and coefficients are shared objects; a zero
value is ().  An h^i miss is computed by _h_monomial.  P and s commute
with renaming the vertices 1..n (vertex 0, eliminated in the reduced
coordinates, stays put), so a miss of theirs is filled from the
operator's value on one representative of the monomial's orbit under
those renamings, computed once per orbit (_orbit_fill).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from linfty import kernel
from linfty.forms import (
    Form,
    Rational,
    SimplicialMap,
    apply_cached,
    contract_euler,
    evaluate_vertex,
    exterior_d,
    pullback,
    reduce_barycentric,
)
from linfty.report import Report

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- elementary forms -------------------------------------------------

_ELEMENTARY_CACHE: dict = {}


def elementary_form(seq: Sequence[int], n: int) -> Form:
    """The Whitney form attached to a vertex sequence, reduced.

    For a sequence of k+1 vertices this is
    k! * sum_j (-1)^j t_{i_j} dt_{i_0} ... (omit j) ... dt_{i_k};
    it is alternating in the sequence and zero on repeats, and is
    normalized so that the chain integral over its own sequence is 1.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty vertex sequence")
    for i in seq:
        if not 0 <= i <= n:
            raise ValueError(f"vertex index {i} out of range 0..{n}")
    if len(set(seq)) != len(seq):
        return Form.zero(n)
    key = (n, seq)
    cached = _ELEMENTARY_CACHE.get(key)
    if cached is not None:
        return cached
    k = len(seq) - 1
    raw = []
    for j, vertex in enumerate(seq):
        exps = [0] * (n + 1)
        exps[vertex] = 1
        word = seq[:j] + seq[j + 1 :]
        coeff = factorial(k) * (-1) ** j
        raw.append((coeff, tuple(exps), word))
    flat = kernel.share(reduce_barycentric(raw, n).terms.items())
    form = _ELEMENTARY_CACHE[key] = Form(n, dict(kernel.pairs(flat)),
                                         _validated=True)
    return form


# -- chain integration -------------------------------------------------


def integrate_chain(seq: Sequence[int], f: Form) -> Rational:
    """Integral of f over the affine chain spanned by the vertex sequence.

    Zero unless f has a component of exterior degree len(seq)-1;
    alternating in the sequence, zero on repeats.

    Integrated in closed form, with no pullback: on the sorted chain
    v_0 < ... < v_k a term c t^e dt_W with |W| = k is zero unless every
    j with e_j > 0 and every letter of W lie on the chain.  Otherwise
    it pulls back to c s^e ds_W on the standard k-simplex, s_a = t_{v_a}
    (s_0 carries the exponent e_{v_0}), and W misses exactly one chain
    position b: b = 0 gives ds_1...ds_k, and b > 0, where v_0 lies in W,
    gives (-1)^b ds_1...ds_k through ds_0 = -(ds_1 + ... + ds_k).  The
    Dirichlet integral of s_0^a_0 ... s_k^a_k ds_1...ds_k over the
    k-simplex is a_0! ... a_k! / (|a| + k)!, so the term contributes
    c (-1)^b prod e_j! / (|e| + k)!.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty vertex sequence")
    n = f.n
    for i in seq:
        if not 0 <= i <= n:
            raise ValueError(f"vertex index {i} out of range 0..{n}")
    chain, sign = kernel.sort_word(seq)
    if sign == 0:
        return _ZERO
    k = len(chain) - 1
    # the word of a term that can contribute, by the chain position b it
    # misses, with its sign (-1)^b; the words holding vertex 0 never occur
    faces = {chain[:b] + chain[b + 1:]: 1 - 2 * (b & 1) for b in range(k + 1)}
    off_chain = [j - 1 for j in range(1, n + 1) if j not in chain]
    total = _ZERO
    for (exps, word), coeff in f.terms.items():
        face_sign = faces.get(word)
        if face_sign is None or any(exps[pos] for pos in off_chain):
            continue
        weight = factorial(sum(exps) + k)
        for e in exps:
            if e > 1:
                weight //= factorial(e)
        total = kernel.frac_add(
            total, kernel.frac_mul_int(coeff, face_sign, weight)
        )
    return total if sign > 0 else kernel.frac_neg(total)


# -- Poincare homotopies ----------------------------------------------

_H_CACHE: dict = {}


def poincare_h(i: int, n: int, f: Form) -> Form:
    """The degree -1 homotopy contracting the simplex onto vertex e_i.

    Satisfies d h + h d = Id - (evaluation at e_i).  Computed by
    contracting with the dilation field, substituting the dilation
    parameter, dividing by it exactly, and integrating it over [0,1].
    A monomial missing from the cache, keyed (i, key), is filled by
    _h_monomial.
    """
    if not 0 <= i <= n:
        raise ValueError(f"vertex index {i} out of range 0..{n}")
    if f.n != n:
        raise _wrong_simplex(f"h^{i}", n, f)

    def fill(key):
        return kernel.share(_h_monomial(i, n, key).terms.items())

    return apply_cached(_H_CACHE, fill, f, n, i)


def _h_monomial(i: int, n: int, key) -> Form:
    """h^i of one monomial, integrated in closed form.

    Substituting t_j -> u t_j + (1-u) delta_ij turns each term of the
    contracted monomial into u^base (u t_i + 1 - u)^e times a key; the
    m-th binomial piece carries u^(b-1) (1-u)^(e-m) after the division
    by u, with b = base + m, and integrates over [0,1] to the Beta value
    (b-1)! (e-m)! / (b+e-m)! when b >= 1.  When b = 0 the piece is
    (1-u)^e / u: its u^0 part -H_e (H_e the e-th harmonic number) is
    integrated, and its 1/u part is a remainder that must cancel across
    the terms of the key, since h is polynomial.  The remainder is kept
    per key and checked, so a sign or reduction bug upstream still
    raises instead of being integrated away.
    """
    g = contract_euler(i, Form(n, {key: _ONE}, _validated=True))
    terms: dict = {}
    remainders: dict = {}
    for (gexps, gword), gcoeff in g.terms.items():
        base = len(gword) + sum(
            e for pos, e in enumerate(gexps) if pos + 1 != i
        )
        # at i = 0 (t_0 eliminated) no factor u t_i + 1 - u appears
        e = gexps[i - 1] if i else 0
        # the Beta value times comb(e, m) is e! (b-1)! / (m! (base+e)!);
        # its numerator steps from m to m + 1 by the factor b / (m + 1)
        numerator = factorial(e) * factorial(max(base - 1, 0))
        denominator = factorial(base + e)
        for m in range(e + 1):
            new_exps = list(gexps)
            if i:
                new_exps[i - 1] = m
            key2 = (tuple(new_exps), gword)
            b = base + m
            if b:
                c = kernel.frac_mul_int(gcoeff, numerator, denominator)
                numerator = numerator * b // (m + 1)
            else:
                # b = 0 forces m = 0, where the binomial is 1
                kernel.add_term(remainders, key2, gcoeff)
                c = kernel.frac_mul(gcoeff, kernel.frac_neg(_harmonic(e)))
            if c._numerator:
                kernel.add_term(terms, key2, c)
    if remainders:
        raise ArithmeticError(
            "nonzero remainder in division by the dilation parameter; "
            "this indicates an internal sign or reduction bug"
        )
    return Form(n, terms, _validated=True)


def _harmonic(e: int) -> Rational:
    return sum((Fraction(1, k) for k in range(1, e + 1)), _ZERO)


# -- Whitney projection ------------------------------------------------


_P_CACHE: dict = {}


def whitney_P(n: int, f: Form) -> Form:
    """Projection onto the span of elementary forms.

    Sends f to sum over vertex subsets of (elementary form) * (chain
    integral of f); idempotent, and dual to chain integration.  A
    monomial missing from the cache is filled by _orbit_fill from P of
    its orbit's representative.
    """
    if f.n != n:
        raise _wrong_simplex("P", n, f)
    return apply_cached(
        _P_CACHE, lambda key: _orbit_fill(_P_ORBITS, _p_monomial, n, key),
        f, n)


def _p_monomial(n: int, key) -> Form:
    """P of one monomial, by its chain integrals."""
    single = Form(n, {key: _ONE}, _validated=True)
    terms: dict = {}
    for seq in itertools.combinations(range(n + 1), len(key[1]) + 1):
        weight = integrate_chain(seq, single)
        if weight:
            kernel.add_into(terms, elementary_form(seq, n).terms.items(),
                            weight)
    return Form(n, terms, _validated=True)


# -- the Dupont gauge --------------------------------------------------

_S_CACHE: dict = {}


def dupont_s(n: int, f: Form) -> Form:
    """The simplicial gauge: degree -1 operator satisfying
    d s + s d = Id - P together with s^2 = 0.

    Sum over vertex sequences i_0 < ... < i_k, k < n, of
    (-1)^k * (Whitney form of the sequence) * h^{i_k} ... h^{i_0};
    the alternating factor is forced by the contraction identity at the
    normalization I_seq(elementary_form(seq)) = 1 (checked exactly by
    the harness below).  Each monomial's chains are built by a
    depth-first walk over the increasing sequences of sizes 1..n: the
    chain of a sequence is h of the chain of its prefix, so every chain
    costs one h application, and the walk stops at a chain that
    vanishes, as do all its extensions.  A monomial missing from the
    cache is filled by _orbit_fill, so the walk runs once per orbit.
    """
    if f.n != n:
        raise _wrong_simplex("s", n, f)
    return apply_cached(
        _S_CACHE, lambda key: _orbit_fill(_S_ORBITS, _s_monomial, n, key),
        f, n)


def _s_monomial(n: int, key) -> Form:
    """s of one monomial, by the gauge walk."""
    terms: dict = {}
    _gauge_walk(n, (), Form(n, {key: _ONE}, _validated=True), terms)
    return Form(n, terms, _validated=True)


def _gauge_walk(n: int, seq: tuple, chain: Form, terms: dict):
    """Add the terms of every extension of seq (of size <= n) into terms;
    chain is h^{i_k} ... h^{i_0} of the monomial for seq = (i_0..i_k)."""
    if len(seq) == n:
        return
    for idx in range(seq[-1] + 1 if seq else 0, n + 1):
        ext = poincare_h(idx, n, chain)
        if ext.is_zero():
            continue
        longer = seq + (idx,)
        sign = -1 if len(longer) % 2 == 0 else 1
        term = elementary_form(longer, n) * ext
        kernel.add_into(terms, term.terms.items(), sign)
        _gauge_walk(n, longer, ext, terms)


# -- filling the caches of P and s once per vertex-permutation orbit ----

# per operator: the representative key -> the operator's value on it, flat
_P_ORBITS: dict = {}
_S_ORBITS: dict = {}


def _wrong_simplex(name: str, n: int, f: Form) -> ValueError:
    """The error of the operator name, acting on the n-simplex, on a
    form f of another simplex."""
    return ValueError(
        f"form lives on the {f.n}-simplex, {name} acts on the {n}-simplex")


def _orbit_fill(orbits: dict, compute: Callable, n: int, key) -> tuple:
    """P's or s's flat value on the monomial t^e dt_W (key = (e, W)),
    computed as compute(n, key) once per orbit of the key under the
    permutations sigma of the vertices 1..n.

    sigma renames t_j, dt_j to t_sigma(j), dt_sigma(j); it fixes vertex
    0, so it maps reduced forms to reduced forms, and P and s commute
    with it.  The representative sorts the vertices 1..n stably by
    (e_j, j in W), so the orbit's members share it.  Its value is kept
    in orbits, keyed by the representative, and renamed back by
    sigma^-1, each dt-word re-sorted with its sign; when sigma is the
    identity, or the value is the zero value (), the kept tuple itself
    is returned.  Both the kept value and the renamed one are flat
    tuples of kernel.share, so the tables hold one object per monomial
    and per coefficient value, and no dict.
    """
    exps, word = key
    order = sorted(range(1, n + 1), key=lambda j: (exps[j - 1], j in word))
    rank = [0] * (n + 1)  # rank[j] = sigma(j); sigma(0) = 0
    for position, j in enumerate(order, 1):
        rank[j] = position
    rep_word, sign = kernel.sort_word([rank[j] for j in word])
    rep = (tuple(exps[j - 1] for j in order), rep_word)
    flat = orbits.get(rep)
    if flat is None:
        flat = orbits[rep] = kernel.share(compute(n, rep).terms.items())
    if not flat or rep == key:
        return flat
    # sigma(t^e dt_W) = sign * rep, so op(t^e dt_W) is sign times
    # sigma^-1 of op(rep)
    renamed = []
    for (rep_exps, rep_w), coeff in kernel.pairs(flat):
        w, w_sign = kernel.sort_word([order[k - 1] for k in rep_w])
        renamed.append(((tuple(rep_exps[k - 1] for k in rank[1:]), w),
                        coeff if w_sign == sign else kernel.frac_neg(coeff)))
    return kernel.share(renamed)


# -- monomial bases and gaugeification -------------------------------


def monomial_basis(n: int, max_degree: int) -> list[Form]:
    """All monomials t^a dt_S with total polynomial degree <= max_degree."""
    monos = []
    for word_size in range(n + 1):
        for word in itertools.combinations(range(1, n + 1), word_size):
            for exps in _exponent_vectors(n, max_degree):
                monos.append(
                    Form(n, {(exps, word): _ONE}, _validated=True)
                )
    return monos


def _exponent_vectors(n: int, max_degree: int):
    if n == 0:
        yield ()
        return
    for total in range(max_degree + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            exps = []
            prev = -1
            for c in cuts:
                exps.append(c - prev - 1)
                prev = c
            exps.append(total + n - 2 - prev)
            yield tuple(exps)


def gaugeify(n: int, homotopy: Callable[[Form], Form],
             projection: Callable[[Form], Form],
             max_degree: int = 3) -> Callable[[Form], Form]:
    """Lambe-Stasheff twist of a contraction into a gauge.

    Returns the homotopy s d s (Id - P) of the contraction (homotopy s,
    projection P) of forms on the n-simplex; it is a contraction with
    the same P whose homotopy squares to zero, and a gauge is a fixed
    point.  The input must satisfy the contraction identity, checked on
    monomials up to the given polynomial degree.
    """
    s, P = homotopy, projection
    for mono in monomial_basis(n, max_degree):
        lhs = exterior_d(s(mono)) + s(exterior_d(mono))
        if lhs != mono - P(mono):
            raise ValueError(
                "input contraction fails the contraction identity on "
                f"{mono.render()}"
            )

    def twisted(f: Form) -> Form:
        g = f - P(f)
        return s(exterior_d(s(g)))

    return twisted


# -- identity verification harness -------------------------------------


def check_contraction_identities(n: int, max_degree: int) -> list[Report]:
    """ds + sd = Id - P, the Poincare identity for every base vertex,
    and the two vanishing products P s = 0 and s P = 0."""
    monos = monomial_basis(n, max_degree)
    main = Report(f"d s + s d = Id - P on {n}-simplex")
    poincare = Report(f"d h^i + h^i d = Id - eval_i on {n}-simplex")
    ps = Report(f"P s = 0 on {n}-simplex")
    sp = Report(f"s P = 0 on {n}-simplex")
    pp = Report(f"P P = P on {n}-simplex")
    zero = Form.zero(n)
    for mono in monos:
        # labels are callables that Report.record calls only on failure
        label = mono.render
        d_mono = exterior_d(mono)
        s_mono = dupont_s(n, mono)
        p_mono = whitney_P(n, mono)
        lhs = exterior_d(s_mono) + dupont_s(n, d_mono)
        main.record(label, lhs, mono - p_mono)
        ps.record(label, whitney_P(n, s_mono), zero)
        sp.record(label, dupont_s(n, p_mono), zero)
        pp.record(label, whitney_P(n, p_mono), p_mono)
        for i in range(n + 1):
            h_mono = poincare_h(i, n, mono)
            lhs = exterior_d(h_mono) + poincare_h(i, n, d_mono)
            rhs = mono - Form.constant(n, evaluate_vertex(i, mono))
            poincare.record(lambda: f"h^{i} on {label()}", lhs, rhs)
    return [main, poincare, ps, sp, pp]


def check_gauge_identities(n: int, max_degree: int) -> list[Report]:
    """s^2 = 0, anticommutation of the homotopies, and the expression
    of chain integrals through them."""
    monos = monomial_basis(n, max_degree)
    square = Report(f"s s = 0 on {n}-simplex")
    anti = Report(f"h^i h^j + h^j h^i = 0 on {n}-simplex")
    integrals = Report(
        f"I_seq = eval h...h on {n}-simplex"
    )
    zero = Form.zero(n)
    vertices = range(n + 1)
    for mono in monos:
        label = mono.render  # called by Report.record only on failure
        square.record(label, dupont_s(n, dupont_s(n, mono)), zero)
        # the homotopy strings of length <= 2, keyed by their vertex
        # sequence: strings[i, j] = h^j h^i mono, each computed once
        strings = {(): mono}
        for i in vertices:
            strings[i,] = poincare_h(i, n, mono)
        for i in vertices:
            for j in vertices:
                strings[i, j] = poincare_h(j, n, strings[i,])
        for i in vertices:
            for j in range(i, n + 1):
                lhs = strings[i, j] + strings[j, i]
                anti.record(lambda: f"h^{i},h^{j} on {label()}", lhs, zero)
        # chain integrals through homotopy strings: at the duality
        # normalization I_seq(elementary_form(seq)) = 1 the string
        # carries no alternating sign
        for size in range(1, min(4, n + 2)):
            for seq in itertools.combinations(vertices, size):
                value = evaluate_vertex(seq[-1], strings[seq[:-1]])
                integrals.record(
                    lambda: f"I_{''.join(map(str, seq))} on {label()}",
                    Form.constant(n, value),
                    Form.constant(n, integrate_chain(seq, mono)),
                )
    return [square, anti, integrals]


def check_gaugeify_fixed_point(n: int, max_degree: int) -> list[Report]:
    """Gaugeification fixes the Dupont gauge, operator equality on the
    monomial generator set."""
    twisted = gaugeify(n, lambda f: dupont_s(n, f), lambda f: whitney_P(n, f),
                       max_degree=min(max_degree, 3))
    fixed = Report(f"gaugeified s = s on {n}-simplex")
    for mono in monomial_basis(n, max_degree):
        fixed.record(mono.render, twisted(mono), dupont_s(n, mono))
    return [fixed]


def check_naturality(max_dim: int, max_degree: int) -> list[Report]:
    """s and P commute with every face and degeneracy pullback between
    simplices of dimension <= max_dim."""
    result_s = Report("pullback s = s pullback")
    result_p = Report("pullback P = P pullback")
    maps = []
    for n in range(1, max_dim + 1):
        maps.extend(SimplicialMap.face(k, n) for k in range(n + 1))
        maps.extend(SimplicialMap.degeneracy(k, n) for k in range(n))
    for f in maps:
        for mono in monomial_basis(f.target, max_degree):
            # called by Report.record only on failure
            def label():
                return f"{f.values} on {mono.render()}"

            pulled = pullback(f, mono)
            result_s.record(
                label,
                pullback(f, dupont_s(f.target, mono)),
                dupont_s(f.source, pulled),
            )
            result_p.record(
                label,
                pullback(f, whitney_P(f.target, mono)),
                whitney_P(f.source, pulled),
            )
    return [result_s, result_p]
