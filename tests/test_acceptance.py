"""The thirteen acceptance criteria, one test each, all exact.

Every test prints its pass/fail line.  Criterion 8 compares the
computed quadratic-order composition series with a fixed reference
coefficient table; the exact matrix-monodromy oracle (criteria 9/10,
and the companion test below) certifies that one cubic coefficient of
that table has the opposite sign, so the literal comparison is a
documented expected failure rather than something to tune away.
"""

from fractions import Fraction

import pytest

from linfty import acceptance, kernel
from linfty.algebra import GVector, bracket
from linfty.bch_groupoid import generalized_ch, tree_exponential
from linfty.fixtures import (
    CLASS3_DELTA,
    CLASS3_GENERATORS,
    free_nilpotent,
    free_nilpotent_class3,
    word_commutator,
)
from word_oracle import exp_log


# each criterion's summary line at seed 0 and degree <= 4, the lines
# `linfty --seed 0 run-all` prints: the case counts and criterion 8's
# failure text are pinned, so a change to what a criterion checks shows
SUMMARIES = {
    "contraction": "pass  criterion  1: contraction identities "
                   "(n <= 3, degree <= 4): 2720 cases",
    "gauge": "pass  criterion  2: gauge theorem (s^2 = 0 and homotopy "
             "identities): 7910 cases",
    "gaugeify": "pass  criterion  3: gaugeification fixed point: 350 cases",
    "naturality": "pass  criterion  4: naturality under face/degeneracy "
                  "pullbacks: 3042 cases",
    "jacobi-twist": "pass  criterion  5: Jacobi, twisted Jacobi, and "
                    "Bianchi residuals: 1629 cases",
    "solver-roundtrip": "pass  criterion  6: solver round trips (20 samples "
                        "per fixture per n): 1200 cases",
    "horn-filling": "pass  criterion  7: horn filling (unique refill, "
                    "plain, and relative): 31 cases",
    "rho2-series": "FAIL  criterion  8: quadratic-order series coefficients "
                   "against the reference table: 1 cases, 1 failures; "
                   "first: no global orientation matches the reference "
                   "table; residual after the orientation fixed by the "
                   "monodromy oracle: 1/6*w[[x1,x2],x1] + "
                   "1/6*w[[x1,x2],x2] (the oracle-certified cubic "
                   "coefficient is -1/12 where the table lists 1/12; all "
                   "other terms match)",
    "monodromy": "pass  criterion  9: matrix monodromy identity (exact): "
                 "42 cases",
    "associativity": "pass  criterion 10: associativity (associator 0 or "
                     "-l3/6, table check): 94 cases",
    "tree-exponential": "pass  criterion 11: tree exponential, edge "
                        "formula, gauge action: 80 cases",
    "dold-kan": "pass  criterion 12: abelian comparison with normalized "
                "cochains: 27 cases",
    "groupoid-nerve": "pass  criterion 13: groupoid nerves and the "
                      "group-law comparison: 26 cases",
}


def _run(name):
    result = acceptance.run_criterion(name, seed=0, max_degree=4)
    print(result.summary())
    # pytest.fail, not assert: criterion 8's expected failure is an
    # AssertionError, which must not hide a changed summary
    if result.summary() != SUMMARIES[name]:
        pytest.fail(f"summary changed: {result.summary()!r}")
    assert result.passed, result.report()


def test_criterion_01_contraction():
    _run("contraction")


def test_criterion_02_gauge():
    _run("gauge")


def test_criterion_03_gaugeify():
    _run("gaugeify")


def test_criterion_04_naturality():
    _run("naturality")


def test_criterion_05_jacobi_twist():
    _run("jacobi-twist")


def test_criterion_06_solver_roundtrip():
    _run("solver-roundtrip")


def test_criterion_07_horn_filling():
    _run("horn-filling")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "one cubic coefficient of the reference series table is "
        "inconsistent with the exact matrix-monodromy oracle: the "
        "oracle-certified expansion carries -1/12 on the "
        "[x1+x2, [x1, x2]] term where the table lists +1/12, and no "
        "global orientation sign reconciles the two (see the decisions "
        "notes and test_oracle_certified_rho2_expansion below)"
    ),
)
def test_criterion_08_rho2_series():
    _run("rho2-series")


def test_criterion_09_monodromy():
    _run("monodromy")


def test_criterion_10_associativity():
    _run("associativity")


def test_criterion_11_tree_exponential():
    _run("tree-exponential")


def test_criterion_11_reads_one_flow_per_fixture(monkeypatch):
    # the flow recursion takes every k from one gauge_flow_terms call;
    # only the three low-order records ask for a single tree exponential
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return tree_exponential(*args)

    monkeypatch.setattr(acceptance, "tree_exponential", counted)
    assert acceptance.run_criterion("tree-exponential").passed
    assert calls == [1, 2, 3]


def test_criterion_12_dold_kan():
    _run("dold-kan")


def test_criterion_13_groupoid_nerve():
    _run("groupoid-nerve")


def test_oracle_certified_rho2_expansion():
    """The exact quadratic-order expansion, with every coefficient
    certified by the matrix monodromy identity: in the reference
    orientation it reads x1 - x2 + (1/2)[x1,x2] + (1/2)d(x12)
    - (1/12)[x1+x2,[x1,x2]] + (1/6)[d(x1+x2),x12] - (1/12)[x1+x2,d(x12)]
    modulo terms with more than two bracket applications."""
    algebra, bracket_count = free_nilpotent_class3()
    x1 = algebra.basis_vector("x1")
    x2 = algebra.basis_vector("x2")
    x12 = algebra.basis_vector("x12")

    def br(*args):
        return bracket(algebra, list(args))

    xs = x1 + x2
    certified = (
        x1
        - x2
        + br(x1, x2).scale(Fraction(1, 2))
        + br(x12).scale(Fraction(1, 2))
        - br(xs, br(x1, x2)).scale(Fraction(1, 12))
        + br(br(xs), x12).scale(Fraction(1, 6))
        - br(xs, br(x12)).scale(Fraction(1, 12))
    )
    flipped = -generalized_ch(
        algebra, 2, algebra.zero_vector(),
        {(1,): -x1, (2,): -x2, (1, 2): x12},
    ).value

    def truncate(v):
        return GVector(
            algebra,
            {s: c for s, c in v.coeffs.items() if bracket_count[s] <= 2},
        )

    assert truncate(flipped) == truncate(certified)


def test_word_bch_witness_rho2_expansion():
    """A third, matrix-free witness for the disputed coefficient:
    log(e^{-x2} e^{x1}), by exact truncated exp and log on words of
    length <= 3, is the word expansion of the flipped series above at
    x12 = 0 (bracket_count <= 2) and carries -1/12 on [x1+x2,[x1,x2]]."""
    algebra, bracket_count = free_nilpotent_class3()
    _, expansion = free_nilpotent(
        "words", CLASS3_GENERATORS, CLASS3_DELTA, 3
    )
    exp, log, mul = exp_log(3)
    x1, x2 = expansion["x1"], expansion["x2"]
    bch = log(mul(exp(kernel.scale_terms(x2, -1)), exp(x1)))

    x1_x2 = word_commutator(x1, x2, algebra.degrees)
    x1_plus_x2 = kernel.add_into(dict(x1), x2.items())
    expected: dict = {}
    for scale, u in (
        (1, x1),
        (-1, x2),
        (Fraction(1, 2), x1_x2),
        (Fraction(-1, 12), word_commutator(x1_plus_x2, x1_x2, algebra.degrees)),
    ):
        kernel.add_into(expected, u.items(), scale)
    assert bch == expected

    flipped = -generalized_ch(
        algebra, 2, algebra.zero_vector(),
        {
            (1,): -algebra.basis_vector("x1"),
            (2,): -algebra.basis_vector("x2"),
            (1, 2): algebra.zero_vector(),
        },
    ).value
    words: dict = {}
    for s, c in flipped.coeffs.items():
        if bracket_count[s] <= 2:
            kernel.add_into(words, expansion[s].items(), c)
    assert words == bch
