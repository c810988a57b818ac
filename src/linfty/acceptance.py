"""The acceptance suite: thirteen exact criteria.

Each criterion is a function returning a Report; all checks
are exact (tolerance zero), deterministic for a fixed seed, and print
one line per criterion through the runner.  Criterion 8 compares the
computed quadratic-order composition series against a reference
coefficient table; the exact matrix-monodromy oracle certifies a
different sign for one cubic coefficient, so that single term is
reported as a failure by design (see the README and the test suite).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import factorial

from linfty import dupont
from linfty.algebra import (
    GVector,
    TensorElement,
    bianchi_residual,
    bracket,
    check_jacobi,
    is_mc,
    quotient,
    tensor_curvature,
    twist,
    twisted_bracket,
)
from linfty.bch_groupoid import (
    NerveTruncation,
    alpha1,
    compose,
    deligne_action,
    enumerate_trees,
    gauge_flow_terms,
    generalized_ch,
    monodromy_report,
    oracle_bch,
    rho1,
    rho3_associativity_check,
    tree_exponential,
)
from linfty.fixtures import (
    BUNDLED,
    Sampler,
    cyclic_group_groupoid,
    free_nilpotent_class3,
    get_fixture,
    get_representation,
    pair_groupoid,
)
from linfty.forms import Form
from linfty.mc_gamma import (
    GaugeParameter,
    Horn,
    SimplexElement,
    dold_kan_compare,
    fill_horn_gamma,
    fill_horn_mc,
    fill_horn_relative,
    gamma_data,
    is_thin,
    mc_data,
    solve_gauge_fixed,
    solve_mc,
)
from linfty.report import Report

SOLVER_FIXTURES = (
    "heisenberg",
    "ut4",
    "dg_lie_01",
    "heis_exterior",
    "three_bracket",
)


# criteria 1-4 run the Dupont harness: name -> (number, title, dupont
# check, the simplex dimensions it runs on).  Naturality checks pullbacks
# into every dimension up to its argument, so it runs once on the
# largest; the command line bounds the work on HARNESS_DIMS before it
# starts.
HARNESS_DIMS = (1, 2, 3)
HARNESS = {
    "contraction": (1, "contraction identities (n <= 3, degree <= {})",
                    dupont.check_contraction_identities, HARNESS_DIMS),
    "gauge": (2, "gauge theorem (s^2 = 0 and homotopy identities)",
              dupont.check_gauge_identities, HARNESS_DIMS),
    "gaugeify": (3, "gaugeification fixed point",
                 dupont.check_gaugeify_fixed_point, HARNESS_DIMS),
    "naturality": (4, "naturality under face/degeneracy pullbacks",
                   dupont.check_naturality, (max(HARNESS_DIMS),)),
}


def _criterion(number: int, title: str) -> Report:
    return Report(f"criterion {number:2d}: {title}", number)


def harness_reports(names, dims, max_degree: int) -> list[Report]:
    """The reports of the named harness checks, dimension by dimension."""
    return [report for n in dims for name in names
            for report in HARNESS[name][2](n, max_degree)]


def _harness_criterion(name: str, seed: int = 0, max_degree: int = 4) -> Report:
    number, title, _, dims = HARNESS[name]
    result = _criterion(number, title.format(max_degree))
    for report in harness_reports((name,), dims, max_degree):
        result.include(report)
    return result


def criterion_jacobi_twist(seed: int = 0, max_degree: int = 4) -> Report:
    """5: Jacobi for all bundled fixtures, Jacobi after twisting by
    sampled Maurer-Cartan elements, and exact Bianchi residuals."""
    result = _criterion(5, "Jacobi, twisted Jacobi, and Bianchi residuals")
    for name in BUNDLED:
        result.include(check_jacobi(get_fixture(name), 4))
    sampler = Sampler(seed)
    for name in BUNDLED:
        algebra = get_fixture(name)
        if not algebra.basis_of_degree(1):
            continue
        twisted = Report(f"{name}: twisted Jacobi")
        for _ in range(5):
            mu = sampler.mc_element(algebra)
            report = check_jacobi(twist(algebra, mu), 4)
            twisted.check(
                report.passed, f"twist by {mu.render()}: {report.summary()}"
            )
        result.include(twisted)
        bianchi = Report(f"{name}: Bianchi residuals")
        for _ in range(20):
            residual = bianchi_residual(algebra, sampler.vector(algebra, 1))
            bianchi.record("residual", residual, algebra.zero_vector())
        result.include(bianchi)
    return result


def criterion_solver_roundtrip(seed: int = 0, max_degree: int = 4) -> Report:
    """6: solver outputs satisfy their equations exactly and the data
    maps round-trip to syntactically equal simplices."""
    result = _criterion(6, "solver round trips (20 samples per fixture per n)")
    sampler = Sampler(seed)
    for name in SOLVER_FIXTURES:
        algebra = get_fixture(name)
        for n in (1, 2, 3):
            sub = Report(f"{name} n={n}")
            for _ in range(20):
                g = GaugeParameter(
                    mu=sampler.mc_element(algebra),
                    witness=sampler.witness(algebra, n),
                )
                plain = solve_mc(g, 0)
                sub.check(
                    tensor_curvature(plain.value).is_zero(),
                    "plain solve fails the flatness equation",
                )
                again = solve_mc(mc_data(plain, 0), 0)
                sub.check(again == plain, "plain data round trip differs")
                fixed = solve_gauge_fixed(g, 0)
                sub.check(
                    tensor_curvature(fixed.value).is_zero()
                    and fixed.value.s().is_zero(),
                    "gauge-fixed output fails its equations",
                )
                again = solve_gauge_fixed(gamma_data(fixed, 0), 0)
                sub.check(again == fixed, "gauge-fixed round trip differs")
            result.include(sub)
    return result


def criterion_horn_filling(seed: int = 0, max_degree: int = 4) -> Report:
    """7: thin fillers exist at every position with exact faces, are
    unique under double runs, and relative filling hits its target."""
    result = _criterion(7, "horn filling (absolute, thin, and relative)")
    sampler = Sampler(seed)
    for name in ("heisenberg", "dg_lie_01"):
        algebra = get_fixture(name)
        for n in (2, 3):
            sub = Report(f"{name} n={n}: horns at every position")
            for missing in range(n + 1):
                g = GaugeParameter(
                    mu=sampler.mc_element(algebra),
                    witness=sampler.witness(algebra, n),
                )
                simplex = solve_gauge_fixed(g, 0)
                faces = {
                    j: simplex.face(j) for j in range(n + 1) if j != missing
                }
                horn = Horn(n, missing, faces)
                try:
                    filler = fill_horn_gamma(horn)
                except Exception as exc:
                    sub.check(False, f"horn {missing}: {exc}")
                    continue
                sub.check(is_thin(filler), f"horn {missing}: filler is not thin")
                sub.check(
                    fill_horn_gamma(horn) == filler,
                    f"horn {missing}: double run differs",
                )
                try:
                    fill_horn_mc(horn)
                except Exception as exc:
                    sub.check(False, f"plain horn {missing}: {exc}")
            result.include(sub)
    heis = get_fixture("heisenberg")
    projection = quotient(heis, 2)
    relative = Report("relative filling along the abelianization")
    for missing in range(3):
        g = GaugeParameter(mu=heis.zero_vector(), witness=sampler.witness(heis, 2))
        simplex = solve_gauge_fixed(g, 0)
        horn = Horn(2, missing, {j: simplex.face(j) for j in range(3) if j != missing})
        target = SimplexElement(projection.apply(simplex.value))
        lifted = fill_horn_relative(projection, horn, target)
        relative.check(
            projection.apply(lifted.value) == target.value,
            f"relative fill at position {missing} misses the target",
        )
    result.include(relative)
    return result


DISPLAYED_RHO2_COEFFS = (
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(1, 2),
    Fraction(1, 12),
    Fraction(1, 6),
    Fraction(1, 6),
    Fraction(-1, 12),
)


def criterion_rho2_series(seed: int = 0, max_degree: int = 4) -> Report:
    """8: the computed quadratic-order series against the reference
    coefficient table {1, -1, 1/2, 1/2, 1/12, 1/6, 1/6, -1/12},
    term by term, up to one global orientation sign."""
    result = _criterion(
        8, "quadratic-order series coefficients against the reference table"
    )
    algebra, bracket_count = free_nilpotent_class3()
    x1 = algebra.basis_vector("x1")
    x2 = algebra.basis_vector("x2")
    x12 = algebra.basis_vector("x12")

    def br(*args):
        return bracket(algebra, list(args))

    xs = x1 + x2
    c = DISPLAYED_RHO2_COEFFS
    reference = (
        x1.scale(c[0])
        + x2.scale(c[1])
        + br(x1, x2).scale(c[2])
        + br(x12).scale(c[3])
        + br(xs, br(x1, x2)).scale(c[4])
        # the ternary term (coefficient c[5]) vanishes identically here
        + br(br(xs), x12).scale(c[6])
        + br(xs, br(x12)).scale(c[7])
    )

    def truncate(v):
        return GVector(
            algebra,
            {s: q for s, q in v.coeffs.items() if bracket_count[s] <= 2},
        )

    for flip in (1, -1):
        computed = generalized_ch(
            algebra,
            2,
            algebra.zero_vector(),
            {(1,): x1.scale(flip), (2,): x2.scale(flip), (1, 2): x12},
        ).value.scale(flip)
        diff = truncate(computed) - truncate(reference)
        if diff.is_zero():
            break
    if result.check(
        diff.is_zero(),
        "no global orientation matches the reference table; residual "
        f"after the orientation fixed by the monodromy oracle: {diff.render()} "
        "(the oracle-certified cubic coefficient is -1/12 where the "
        "table lists 1/12; all other terms match)",
    ):
        result.note(f"matched with global orientation {flip:+d}")
    return result


def criterion_monodromy(seed: int = 0, max_degree: int = 4) -> Report:
    """9: exp(x1) = exp(rho2(x1, x2)) exp(x2) exactly in faithful
    matrix models."""
    result = _criterion(9, "matrix monodromy identity (exact)")
    for name in ("heisenberg", "ut4"):
        rep = get_representation(name)
        result.check(
            rep.check_faithful_bracket(), f"{name}: representation not faithful"
        )
        result.include(monodromy_report(name, rep, Sampler(seed), 20))
    return result


def criterion_associativity(seed: int = 0, max_degree: int = 4) -> Report:
    """10: the degree -1 associator vanishes for dg Lie fixtures,
    composition is associative on samples, and the genuine three-bracket
    fixture's associator is reported."""
    result = _criterion(10, "associativity (vanishing associator, table check)")
    sampler = Sampler(seed)
    for name in ("heisenberg", "ut4", "dg_lie_01"):
        algebra = get_fixture(name)
        sub = Report(f"{name}: associator zero on sampled triples")
        for _ in range(20):
            mu = sampler.mc_element(algebra)
            xs = [sampler.vector(algebra, 0) for _ in range(3)]
            ok, _ = rho3_associativity_check(algebra, mu, *xs)
            sub.check(ok, f"associator nonzero at {[x.render() for x in xs]}")
        result.include(sub)
    for name in ("heisenberg", "ut4"):
        algebra = get_fixture(name)
        zero = algebra.zero_vector()
        sub = Report(f"{name}: compose associative and self-cancelling")
        for _ in range(6):
            x, y, z = (sampler.vector(algebra, 0) for _ in range(3))
            left = compose(algebra, zero, compose(algebra, zero, x, y), z)
            right = compose(algebra, zero, x, compose(algebra, zero, y, z))
            sub.record(f"({x.render()}, {y.render()}, {z.render()})", left, right)
        x = sampler.vector(algebra, 0)
        self_cancel = generalized_ch(
            algebra, 2, zero, {(1,): x, (2,): x}
        ).value
        sub.record(f"self-composition of {x.render()}", self_cancel, zero)
        result.include(sub)
    tb = get_fixture("three_bracket")
    sampler_tb = Sampler(seed + 1)
    xs = [sampler_tb.vector(tb, 0) for _ in range(3)]
    ok, res = rho3_associativity_check(tb, tb.zero_vector(), *xs)
    result.note(
        "three_bracket associator (reported, not asserted): "
        f"{res.value.render()}"
    )
    return result


def criterion_tree_exponential(seed: int = 0, max_degree: int = 4) -> Report:
    """11: tree counts and low-order terms, the flow recursion, the
    closed edge formula against the solver, and the gauge action."""
    result = _criterion(11, "tree exponential, edge formula, gauge action")
    counts = [len(enumerate_trees(k)) for k in range(1, 6)]
    result.check(
        counts == [1, 1, 2, 4, 9], f"tree counts {counts} != [1, 1, 2, 4, 9]"
    )
    result.note(f"tree counts for 1..5 vertices: {counts}")

    # low-order term sets, checked symbolically in the free fixture
    algebra, _ = free_nilpotent_class3()
    zero = algebra.zero_vector()
    x = algebra.basis_vector("x1") + algebra.basis_vector("x2").scale(Fraction(1, 2))

    def tb(*args):
        return twisted_bracket(algebra, zero, list(args))

    low = Report("flow terms for k <= 3 against the nested-bracket expansion")
    low.record("k=1", tree_exponential(algebra, zero, x, 1), tb(x))
    low.record("k=2", tree_exponential(algebra, zero, x, 2), tb(x, tb(x)))
    low.record(
        "k=3 (path + fork)",
        tree_exponential(algebra, zero, x, 3),
        tb(x, tb(x, tb(x))) + tb(x, tb(x), tb(x)),
    )
    result.include(low)

    # the flow recursion for k <= 4
    sampler = Sampler(seed)
    for name in ("heisenberg", "ut4", "dg_lie_01", "heis_exterior"):
        alg = get_fixture(name)
        mu = sampler.mc_element(alg)
        xv = sampler.vector(alg, 0)
        # eps[k] for k = 1..5: the flow's terms, zero from the index on
        eps = [None, *gauge_flow_terms(alg, mu, xv)] + [alg.zero_vector()] * 5
        sub = Report(f"{name}: flow recursion for k <= 4")
        for k in range(1, 5):
            terms = []
            for parts in range(0, k + 1):
                # the ordered compositions of k into parts positive parts
                for comp in itertools.product(range(1, k + 1), repeat=parts):
                    if sum(comp) != k:
                        continue
                    coeff = Fraction(factorial(k))
                    for piece in comp:
                        coeff /= factorial(piece)
                    coeff /= factorial(parts)
                    term = twisted_bracket(
                        alg, mu, [xv] + [eps[piece] for piece in comp]
                    )
                    terms.append((coeff, term))
            expected = alg.zero_vector().combine(terms)
            sub.record(f"k={k}", eps[k + 1], expected)
        result.include(sub)

    # closed edge formula equals the solver output
    for name in ("heisenberg", "ut4", "dg_lie_01", "heis_exterior"):
        alg = get_fixture(name)
        sub = Report(f"{name}: edge formula equals the solver")
        for _ in range(5):
            mu = sampler.mc_element(alg)
            xv = sampler.vector(alg, 0)
            edge = alpha1(alg, mu, xv)
            witness = TensorElement(
                alg, 1,
                {s: Form.t(1, 1).scale(-c) for s, c in xv.coeffs.items()},
            )
            solved = solve_gauge_fixed(GaugeParameter(mu=mu, witness=witness), 0)
            sub.record(f"x={xv.render()}", edge, solved)
        result.include(sub)

    # the gauge action preserves flatness and matches the edge endpoint
    for name in ("dg_lie_01", "heis_exterior"):
        alg = get_fixture(name)
        sub = Report(f"{name}: action preserves flatness and matches rho1")
        for _ in range(20):
            mu = sampler.mc_element(alg)
            xv = sampler.vector(alg, 0)
            acted = deligne_action(alg, xv, mu)
            sub.check(
                is_mc(alg, acted) and acted == rho1(alg, mu, xv),
                f"mismatch at x={xv.render()}",
            )
        result.include(sub)
    return result


def criterion_dold_kan(seed: int = 0, max_degree: int = 4) -> Report:
    """12: the abelian comparison with normalized cochain cocycles."""
    result = _criterion(12, "abelian comparison with normalized cochains")
    for name in ("zero", "abelian_delta", "abelian_chain"):
        algebra = get_fixture(name)
        for n in (1, 2, 3):
            result.include(dold_kan_compare(algebra, n))
    return result


def criterion_groupoid_nerve(seed: int = 0, max_degree: int = 4) -> Report:
    """13: unique fillers and coskeletality for finite groupoid nerves,
    and the gauge-fixed 2-truncation against the matrix group law."""
    result = _criterion(13, "groupoid nerves and the group-law comparison")
    for label, groupoid in (
        ("cyclic order 2", cyclic_group_groupoid(2)),
        ("two-object indiscrete", pair_groupoid()),
    ):
        nerve = NerveTruncation(groupoid, 3)
        sub = Report(f"{label}: unique fillers at n=2,3 and coskeletal at level 3")
        for n in (2, 3):
            sub.check(
                nerve.check_filler_bijectivity(n),
                f"filler bijectivity fails at n={n}",
            )
        sub.check(nerve.check_coskeletal(3), "coskeletal reconstruction fails")
        result.include(sub)
    rep = get_representation("heisenberg")
    algebra = rep.algebra
    sampler = Sampler(seed)
    sub = Report("thin-filler composition equals the matrix group law")
    for _ in range(20):
        x = sampler.vector(algebra, 0)
        y = sampler.vector(algebra, 0)
        z = compose(algebra, algebra.zero_vector(), x, y)
        sub.check(
            rep.apply(z) == oracle_bch(rep.apply(x), rep.apply(y)),
            f"composition table mismatch at x={x.render()}, y={y.render()}",
        )
    result.include(sub)
    return result


CRITERIA = {
    **{name: partial(_harness_criterion, name) for name in HARNESS},
    "jacobi-twist": criterion_jacobi_twist,
    "solver-roundtrip": criterion_solver_roundtrip,
    "horn-filling": criterion_horn_filling,
    "rho2-series": criterion_rho2_series,
    "monodromy": criterion_monodromy,
    "associativity": criterion_associativity,
    "tree-exponential": criterion_tree_exponential,
    "dold-kan": criterion_dold_kan,
    "groupoid-nerve": criterion_groupoid_nerve,
}


def run_criterion(name: str, seed: int = 0, max_degree: int = 4) -> Report:
    if name not in CRITERIA:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(CRITERIA)}"
        )
    return CRITERIA[name](seed=seed, max_degree=max_degree)


def run_all(seed: int = 0, max_degree: int = 4):
    return [fn(seed=seed, max_degree=max_degree) for fn in CRITERIA.values()]
