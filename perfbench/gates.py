"""Exact correctness gates for the benchmark workloads.

Each gate runs outside the timed region.  The acceptance and sweep gates
return the operations they gated and the failing ones, keyed by
criterion number or check name, so a check that misses its gate in two
ways still counts as one failed operation; the series gates return the
failure messages of one operation.  Expected values are pinned, so a
change cannot pass by checking less.
"""

from __future__ import annotations

# Criterion 8 fails by design: the exact matrix-monodromy oracle forces
# -1/12 where the reference table lists 1/12 (see the package README).
CRITERION_8_LINE = (
    "FAIL: no global orientation matches the reference table; residual "
    "after the orientation fixed by the monodromy oracle: "
    "1/6*w[[x1,x2],x1] + 1/6*w[[x1,x2],x2] (the oracle-certified cubic "
    "coefficient is -1/12 where the table lists 1/12; all other terms match)"
)
CRITERIA_COUNT = 13

# Dupont identity sweep on the 4-simplex, monomial degree <= 3:
# CheckResult name -> number of cases it must check.
SWEEP_N = 4
SWEEP_MAX_DEGREE = 3
SWEEP_CASES = {
    "d s + s d = Id - P on 4-simplex": 560,
    "d h^i + h^i d = Id - eval_i on 4-simplex": 2800,
    "P s = 0 on 4-simplex": 560,
    "s P = 0 on 4-simplex": 560,
    "P P = P on 4-simplex": 560,
    "s s = 0 on 4-simplex": 560,
    "h^i h^j + h^j h^i = 0 on 4-simplex": 8400,
    "I_seq = eval h...h on 4-simplex": 14000,
    "pullback s = s pullback": 4353,
    "pullback P = P pullback": 4353,
}


def gate_verdicts(verdicts):
    """verdicts: list of (number, passed, lines), one per criterion, as
    run_all returns them.  Criteria 1..13 must run once each, in order;
    criterion 8 must fail with exactly the known residual line and every
    other criterion must pass.  Returns (ops, failures): the number of
    criteria expected or reported, and {criterion number: messages} for
    each one that missed its gate."""
    failures = {}
    expected = range(1, CRITERIA_COUNT + 1)
    numbers = [number for number, _, _ in verdicts]
    for position, (number, passed, lines) in enumerate(verdicts, 1):
        if number != position:
            failures.setdefault(number, []).append(
                f"criterion {number} ran at position {position}")
        if number == 8:
            fail_lines = [line for line in lines if line.startswith("FAIL")]
            if passed or fail_lines != [CRITERION_8_LINE]:
                failures.setdefault(number, []).append(
                    f"criterion 8: expected the known FAIL, got "
                    f"passed={passed}, {fail_lines}")
        elif not passed:
            failures.setdefault(number, []).append(
                f"criterion {number} failed: {lines[:1]}")
    for number in expected:
        if number not in numbers:
            failures[number] = [f"criterion {number}: missing"]
    return len(set(expected) | set(numbers)), failures


def gate_sweep(checks):
    """checks: list of (name, cases, passed) from the Dupont harness.
    Every pinned check must appear once, pass, and check exactly its
    pinned number of cases.  Returns (ops, failures): the number of
    checks pinned or reported, and {check name: messages} for each one
    that missed its gate."""
    failures = {}
    seen = set()
    for name, cases, passed in checks:
        found = failures.setdefault(name, [])
        if name in seen:
            found.append(f"{name}: reported twice")
        seen.add(name)
        if name not in SWEEP_CASES:
            found.append(f"{name}: not a pinned check")
        elif cases != SWEEP_CASES[name]:
            found.append(f"{name}: {cases} cases, expected {SWEEP_CASES[name]}")
        if not passed:
            found.append(f"{name}: identity fails")
    for name in SWEEP_CASES:
        if name not in seen:
            failures[name] = [f"{name}: missing"]
    return (len(seen | set(SWEEP_CASES)),
            {name: msgs for name, msgs in failures.items() if msgs})


def gate_compose(rep, x, y, z):
    """compose(x, y) must equal log(exp(x) exp(y)) in the faithful matrix
    model."""
    from linfty.bch_groupoid import oracle_bch

    if rep.apply(z) != oracle_bch(rep.apply(x), rep.apply(y)):
        return [f"compose({x.render()}, {y.render()}) = {z.render()} "
                "differs from the matrix oracle"]
    return []


def ch_witness(algebra, n, inputs):
    """The solver witness generalized_ch assembles from its inputs: the
    k-index slot enters as -x/k! times its elementary form."""
    from fractions import Fraction
    from math import factorial

    from linfty.algebra import TensorElement, zero_tensor
    from linfty.dupont import elementary_form

    witness = zero_tensor(algebra, n)
    for seq, vec in inputs.items():
        omega = elementary_form(seq, n).scale(Fraction(-1, factorial(len(seq))))
        witness = witness + TensorElement(
            algebra, n, {s: omega.scale(c) for s, c in vec.coeffs.items()})
    return witness


def gate_ch(algebra, n, mu, inputs, result):
    """A generalized_ch result: its simplex satisfies the flatness
    equation and s(alpha) = 0, has mu at vertex 0, returns the projected
    input witness under gamma_data(., 0), and the value is its chain
    integral over (1, ..., n)."""
    from linfty.algebra import constant_tensor, tensor_curvature
    from linfty.mc_gamma import gamma_data

    simplex = result.simplex
    failures = []
    if not tensor_curvature(simplex.value).is_zero():
        failures.append("series simplex fails the flatness equation")
    if not simplex.value.s().is_zero():
        failures.append("series simplex fails s(alpha) = 0")
    if simplex.vertex(0) != mu:
        failures.append("series simplex has the wrong value at vertex 0")
    witness = ch_witness(algebra, n, inputs)
    base = witness.evaluate_vertex(0)
    if not base.is_zero():
        witness = witness - constant_tensor(n, base)
    if gamma_data(simplex, 0).witness != witness.whitney():
        failures.append("gamma_data does not return the projected witness")
    if result.value != simplex.integrate(tuple(range(1, n + 1))):
        failures.append("series value is not the chain integral")
    return failures
