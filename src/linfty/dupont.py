"""The simplicial de Rham operators.

Elementary (Whitney) forms, integration over chains, the Whitney
projection P_n onto elementary forms, the vertexwise Poincare
homotopies h^i_n, the simplicial gauge s_n assembled from them, and the
Lambe-Stasheff gaugeification of an arbitrary contraction.  The
operator identities these satisfy (ds + sd = Id - P, s^2 = 0, ...) are
checked exactly on monomial generator sets by the harness at the
bottom; those checks are the core of the acceptance suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from linfty import kernel
from linfty.forms import (
    Form,
    Rational,
    SimplicialMap,
    contract_euler,
    evaluate_vertex,
    exterior_d,
    pullback,
    reduce_barycentric,
)

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
    form = reduce_barycentric(raw, n)
    _ELEMENTARY_CACHE[key] = form
    return form


# -- chain integration -------------------------------------------------


def integrate_chain(seq: Sequence[int], f: Form) -> Rational:
    """Integral of f over the affine chain spanned by the vertex sequence.

    Zero unless f has a component of exterior degree len(seq)-1;
    alternating in the sequence, zero on repeats.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty vertex sequence")
    n = f.n
    for i in seq:
        if not 0 <= i <= n:
            raise ValueError(f"vertex index {i} out of range 0..{n}")
    sorted_seq, sign = kernel.sort_word(seq)
    if sign == 0:
        return _ZERO
    k = len(seq) - 1
    if k == 0:
        return sign * evaluate_vertex(sorted_seq[0], f)
    part = f.component(k)
    if part.is_zero():
        return _ZERO
    chain = SimplicialMap(k, n, sorted_seq)
    pulled = pullback(chain, part).component(k)
    total = _ZERO
    for (exps, word), coeff in pulled.terms.items():
        # on the k-simplex the only exterior-top word is (1, ..., k)
        total += coeff * _standard_integral(exps)
    return sign * total


def _standard_integral(exps: Sequence[int]) -> Rational:
    """Integral of t^exps dt_1...dt_k over the standard k-simplex."""
    k = len(exps)
    num = 1
    for e in exps:
        num *= factorial(e)
    return Fraction(num, factorial(sum(exps) + k))


# -- Poincare homotopies ----------------------------------------------

_H_CACHE: dict = {}


def poincare_h(i: int, n: int, f: Form) -> Form:
    """The degree -1 homotopy contracting the simplex onto vertex e_i.

    Satisfies d h + h d = Id - (evaluation at e_i).  Computed by
    contracting with the dilation field, substituting the dilation
    parameter, dividing by it exactly, and integrating it over [0,1].
    """
    if not 0 <= i <= n:
        raise ValueError(f"vertex index {i} out of range 0..{n}")
    out: dict = {}
    for key, coeff in f.terms.items():
        mono = _H_CACHE.get((n, i, key))
        if mono is None:
            mono = _h_monomial(i, n, key)
            _H_CACHE[(n, i, key)] = mono
        kernel.add_into(out, mono.terms, coeff)
    return Form(n, out, _validated=True)


def _h_monomial(i: int, n: int, key) -> Form:
    exps, word = key
    g = contract_euler(i, Form(n, {key: _ONE}, _validated=True))
    # substitute t_j -> u t_j + (1-u) delta_ij; coefficients become
    # polynomials in u, collected per reduced key
    upolys: dict = {}
    for (gexps, gword), gcoeff in g.terms.items():
        base = len(gword) + sum(
            e for pos, e in enumerate(gexps) if pos + 1 != i
        )
        if i == 0:
            _add_upoly(upolys, (gexps, gword), base, gcoeff)
            continue
        ei = gexps[i - 1]
        for m in range(ei + 1):
            # C(ei, m) u^m (1-u)^(ei-m) t_i^m
            new_exps = list(gexps)
            new_exps[i - 1] = m
            for j in range(ei - m + 1):
                c = gcoeff * comb(ei, m) * comb(ei - m, j) * (-1) ** j
                _add_upoly(upolys, (tuple(new_exps), gword), base + m + j, c)
    # divide by u (remainder must vanish) and integrate u over [0,1]
    terms: dict = {}
    for key2, poly in upolys.items():
        if poly.get(0):
            raise ArithmeticError(
                "nonzero remainder in division by the dilation parameter; "
                "this indicates an internal sign or reduction bug"
            )
        total = _ZERO
        for deg, c in poly.items():
            if deg:
                total += Fraction(c, deg)
        if total:
            terms[key2] = total
    return Form(n, terms, _validated=True)


def _add_upoly(upolys: dict, key, degree: int, coeff):
    if coeff:
        kernel.add_into(upolys.setdefault(key, {}), {degree: coeff})


# -- Whitney projection ------------------------------------------------


_P_CACHE: dict = {}


def whitney_P(n: int, f: Form) -> Form:
    """Projection onto the span of elementary forms.

    Sends f to sum over vertex subsets of (elementary form) * (chain
    integral of f); idempotent, and dual to chain integration.
    """
    out: dict = {}
    for key, coeff in f.terms.items():
        mono = _P_CACHE.get((n, key))
        if mono is None:
            single = Form(n, {key: _ONE}, _validated=True)
            terms: dict = {}
            k = len(key[1])
            for seq in itertools.combinations(range(n + 1), k + 1):
                weight = integrate_chain(seq, single)
                if weight:
                    kernel.add_into(terms, elementary_form(seq, n).terms, weight)
            mono = _P_CACHE[(n, key)] = Form(n, terms, _validated=True)
        kernel.add_into(out, mono.terms, coeff)
    return Form(n, out, _validated=True)


# -- the Dupont gauge --------------------------------------------------

_S_CACHE: dict = {}


def dupont_s(n: int, f: Form) -> Form:
    """The simplicial gauge: degree -1 operator satisfying
    d s + s d = Id - P together with s^2 = 0.

    Sum over vertex sequences i_0 < ... < i_k, k < n, of
    (-1)^k * (Whitney form of the sequence) * h^{i_k} ... h^{i_0};
    the alternating factor is forced by the contraction identity at the
    normalization I_seq(elementary_form(seq)) = 1 (checked exactly by
    the harness below).
    """
    out: dict = {}
    for key, coeff in f.terms.items():
        mono = _S_CACHE.get((n, key))
        if mono is None:
            single = Form(n, {key: _ONE}, _validated=True)
            terms: dict = {}
            for size in range(1, n + 1):
                for seq in itertools.combinations(range(n + 1), size):
                    chain = single
                    for idx in seq:
                        chain = poincare_h(idx, n, chain)
                        if chain.is_zero():
                            break
                    if chain.is_zero():
                        continue
                    sign = -1 if size % 2 == 0 else 1
                    kernel.add_into(
                        terms, (elementary_form(seq, n) * chain).terms, sign
                    )
            mono = _S_CACHE[(n, key)] = Form(n, terms, _validated=True)
        kernel.add_into(out, mono.terms, coeff)
    return Form(n, out, _validated=True)


# -- contraction bundles and gaugeification ----------------------------


@dataclass(frozen=True)
class ContractionBundle:
    """A candidate contraction: a homotopy and a projection on forms
    over a fixed simplex dimension."""

    n: int
    homotopy: Callable[[Form], Form]
    projection: Callable[[Form], Form]


def dupont_bundle(n: int) -> ContractionBundle:
    return ContractionBundle(
        n=n,
        homotopy=lambda f: dupont_s(n, f),
        projection=lambda f: whitney_P(n, f),
    )


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


def gaugeify(bundle: ContractionBundle, max_degree: int = 3) -> ContractionBundle:
    """Lambe-Stasheff twist of a contraction into a gauge.

    Returns the bundle with homotopy s d s (Id - P); the result is a
    contraction whose homotopy squares to zero, and a gauge is a fixed
    point.  The input must satisfy the contraction identity, checked on
    monomials up to the given polynomial degree.
    """
    n = bundle.n
    s, P = bundle.homotopy, bundle.projection
    for mono in monomial_basis(n, max_degree):
        lhs = exterior_d(s(mono)) + s(exterior_d(mono))
        if lhs != mono - P(mono):
            raise ValueError(
                "input bundle fails the contraction identity on "
                f"{mono.render()}"
            )

    def twisted(f: Form) -> Form:
        g = f - P(f)
        return s(exterior_d(s(g)))

    return ContractionBundle(n=n, homotopy=twisted, projection=P)


# -- identity verification harness -------------------------------------


@dataclass
class CheckResult:
    """Outcome of one operator-identity check over a case set."""

    name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, case_label: str, lhs: Form, rhs: Form):
        self.cases += 1
        if lhs != rhs:
            self.failures.append(
                (case_label, lhs.render(), rhs.render())
            )

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{status}  {self.name}: {self.cases} cases"
        if self.failures:
            label, lhs, rhs = self.failures[0]
            line += (
                f", {len(self.failures)} failures; first: {label}: "
                f"{lhs} != {rhs}"
            )
        return line


def check_contraction_identities(n: int, max_degree: int) -> list[CheckResult]:
    """ds + sd = Id - P, the Poincare identity for every base vertex,
    and the two vanishing products P s = 0 and s P = 0."""
    monos = monomial_basis(n, max_degree)
    main = CheckResult(f"d s + s d = Id - P on {n}-simplex")
    poincare = CheckResult(f"d h^i + h^i d = Id - eval_i on {n}-simplex")
    ps = CheckResult(f"P s = 0 on {n}-simplex")
    sp = CheckResult(f"s P = 0 on {n}-simplex")
    pp = CheckResult(f"P P = P on {n}-simplex")
    zero = Form.zero(n)
    for mono in monos:
        label = mono.render()
        s_mono = dupont_s(n, mono)
        p_mono = whitney_P(n, mono)
        lhs = exterior_d(s_mono) + dupont_s(n, exterior_d(mono))
        main.record(label, lhs, mono - p_mono)
        ps.record(label, whitney_P(n, s_mono), zero)
        sp.record(label, dupont_s(n, p_mono), zero)
        pp.record(label, whitney_P(n, p_mono), p_mono)
        for i in range(n + 1):
            h_mono = poincare_h(i, n, mono)
            lhs = exterior_d(h_mono) + poincare_h(i, n, exterior_d(mono))
            rhs = mono - Form.constant(n, evaluate_vertex(i, mono))
            poincare.record(f"h^{i} on {label}", lhs, rhs)
    return [main, poincare, ps, sp, pp]


def check_gauge_identities(n: int, max_degree: int) -> list[CheckResult]:
    """s^2 = 0, anticommutation of the homotopies, and the expression
    of chain integrals through them."""
    monos = monomial_basis(n, max_degree)
    square = CheckResult(f"s s = 0 on {n}-simplex")
    anti = CheckResult(f"h^i h^j + h^j h^i = 0 on {n}-simplex")
    integrals = CheckResult(
        f"I_seq = eval h...h on {n}-simplex"
    )
    zero = Form.zero(n)
    for mono in monos:
        label = mono.render()
        square.record(label, dupont_s(n, dupont_s(n, mono)), zero)
        for i in range(n + 1):
            h_i = poincare_h(i, n, mono)
            for j in range(i, n + 1):
                lhs = poincare_h(j, n, h_i) + poincare_h(
                    i, n, poincare_h(j, n, mono)
                )
                anti.record(f"h^{i},h^{j} on {label}", lhs, zero)
        # chain integrals through homotopy strings: at the duality
        # normalization I_seq(elementary_form(seq)) = 1 the string
        # carries no alternating sign
        for size in range(1, min(4, n + 2)):
            for seq in itertools.combinations(range(n + 1), size):
                chain = mono
                for idx in seq[:-1]:
                    chain = poincare_h(idx, n, chain)
                value = evaluate_vertex(seq[-1], chain)
                integrals.record(
                    f"I_{''.join(map(str, seq))} on {label}",
                    Form.constant(n, value),
                    Form.constant(n, integrate_chain(seq, mono)),
                )
    return [square, anti, integrals]


def check_gaugeify_fixed_point(n: int, max_degree: int) -> list[CheckResult]:
    """Gaugeification fixes the Dupont gauge, operator equality on the
    monomial generator set."""
    twisted = gaugeify(dupont_bundle(n), max_degree=min(max_degree, 3))
    fixed = CheckResult(f"gaugeified s = s on {n}-simplex")
    for mono in monomial_basis(n, max_degree):
        fixed.record(
            mono.render(), twisted.homotopy(mono), dupont_s(n, mono)
        )
    return [fixed]


def check_naturality(max_dim: int, max_degree: int) -> list[CheckResult]:
    """s and P commute with every face and degeneracy pullback between
    simplices of dimension <= max_dim."""
    result_s = CheckResult("pullback s = s pullback")
    result_p = CheckResult("pullback P = P pullback")
    maps = []
    for n in range(1, max_dim + 1):
        maps.extend(SimplicialMap.face(k, n) for k in range(n + 1))
        maps.extend(SimplicialMap.degeneracy(k, n) for k in range(n))
    for f in maps:
        for mono in monomial_basis(f.target, max_degree):
            label = f"{f.values} on {mono.render()}"
            result_s.record(
                label,
                pullback(f, dupont_s(f.target, mono)),
                dupont_s(f.source, pullback(f, mono)),
            )
            result_p.record(
                label,
                pullback(f, whitney_P(f.target, mono)),
                whitney_P(f.source, pullback(f, mono)),
            )
    return [result_s, result_p]
