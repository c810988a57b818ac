"""Tests for the benchmark's own code: span arithmetic, the recorder, the
correctness gates and the metric list in BENCHMARK.json.

Run from the root of the repository:
    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
from run import tail  # noqa: E402
from tracer import Recorder, SpanLog, unit_of  # noqa: E402


def _verdicts():
    out = [(k, True, [f"note {k}"]) for k in range(1, 14)]
    out[7] = (8, False, [gates.CRITERION_8_LINE])
    return out


# -- span arithmetic -------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    log = SpanLog(["root", "child", "leaf"])
    root = log.add(0, -1, 0.0, 10.0)
    first = log.add(1, root, 1.0, 4.0)
    log.add(2, first, 2.0, 3.0)
    log.add(1, root, 5.0, 7.0)
    assert list(log.self_times()) == [5.0, 2.0, 1.0, 2.0]
    stats = log.summary()
    assert stats["root"] == [1, 10.0, 5.0]
    assert stats["child"] == [2, 5.0, 4.0]
    assert stats["leaf"] == [1, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    log = SpanLog(["a", "b"])
    root = log.add(0, -1, 0.0, 10.0)
    log.add(1, root, 1.0, 5.0)
    log.add(1, root, 3.0, 7.0)
    assert log.self_times()[0] == 4.0


def test_recursive_total_counts_the_outermost_call():
    log = SpanLog(["f"])
    outer = log.add(0, -1, 0.0, 10.0)
    log.add(0, outer, 2.0, 4.0)
    assert log.summary()["f"] == [2, 10.0, 10.0]


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = tail([float(v) for v in range(1, 21)])
    assert (value, pct, n) == (10.0, 50.0, 20)
    assert tail([1.0] * 10) is None


# -- the recorder on the real modules -------------------------------------


def test_recorder_wraps_every_namespace_and_restores():
    from linfty import algebra, dupont, forms
    from linfty.dupont import monomial_basis

    original = forms.wedge
    assert algebra.wedge is original
    rec = Recorder(["contraction"])
    rec.install()
    try:
        assert forms.wedge is not original and algebra.wedge is forms.wedge
        mono = monomial_basis(3, 5)[-1]
        dupont.dupont_s(3, mono)
        dupont.dupont_s(3, mono)
    finally:
        rec.uninstall()
    assert forms.wedge is original and algebra.wedge is original
    metrics = rec.metrics()
    assert metrics["dupont.dupont_s.calls"] == 2
    assert metrics["dupont.s.lookups"] == 2
    assert metrics["dupont.s.hit_ratio"] >= 0.5
    assert metrics["dupont.poincare_h.calls"] > 0
    assert metrics["acceptance.contraction.total_s"] == 0.0
    roots = sum(e - s for s, e, p in zip(rec.log.start, rec.log.end,
                                           rec.log.parent) if p < 0)
    self_total = sum(v for k, v in metrics.items()
                     if k.count(".") == 1 and k.endswith(".self_s"))
    assert abs(self_total - roots) < 1e-9


def test_benchmark_json_lists_the_recorded_metrics():
    from linfty.acceptance import CRITERIA

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = set(Recorder(list(CRITERIA)).metrics())
    names |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_ratio"}
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (name, unit_of(name)) for name in names}


# -- the gates ---------------------------------------------------------------


def test_gate_accepts_the_known_verdicts():
    assert gates.gate_verdicts(_verdicts()) == (13, {})


def test_gate_flags_criterion_8_passing():
    verdicts = _verdicts()
    verdicts[7] = (8, True, ["matched with global orientation +1"])
    assert set(gates.gate_verdicts(verdicts)[1]) == {8}


def test_gate_flags_criterion_8_failing_differently():
    verdicts = _verdicts()
    verdicts[7] = (8, False, ["FAIL: something else"])
    assert set(gates.gate_verdicts(verdicts)[1]) == {8}


def test_gate_flags_another_failure_or_a_missing_criterion():
    verdicts = _verdicts()
    verdicts[2] = (3, False, ["FAIL: gaugeified s != s"])
    assert set(gates.gate_verdicts(verdicts)[1]) == {3}
    assert gates.gate_verdicts(_verdicts()[:-1]) == (
        13, {13: ["criterion 13: missing"]})


def test_gate_counts_a_criterion_failing_twice_once():
    verdicts = _verdicts()
    verdicts[2], verdicts[3] = verdicts[3], (3, False, ["FAIL: gaugeified"])
    ops, failures = gates.gate_verdicts(verdicts)
    assert ops == 13 and set(failures) == {3, 4}
    assert len(failures[3]) == 2


def _sweep():
    return [(name, cases, True) for name, cases in gates.SWEEP_CASES.items()]


def test_gate_accepts_the_pinned_sweep():
    assert gates.gate_sweep(_sweep()) == (10, {})


def test_gate_flags_a_sweep_with_a_missing_case():
    sweep = _sweep()
    name, cases, ok = sweep[0]
    sweep[0] = (name, cases - 1, ok)
    assert set(gates.gate_sweep(sweep)[1]) == {name}


def test_gate_flags_a_missing_or_failing_check():
    assert set(gates.gate_sweep(_sweep()[1:])[1]) == {_sweep()[0][0]}
    sweep = _sweep()
    sweep[3] = (sweep[3][0], sweep[3][1], False)
    assert set(gates.gate_sweep(sweep)[1]) == {sweep[3][0]}


def test_gate_counts_a_check_failing_twice_once():
    sweep = _sweep()
    name, cases, _ = sweep[0]
    sweep[0] = (name, cases - 1, False)
    sweep.append(("extra check", 1, True))
    ops, failures = gates.gate_sweep(sweep)
    assert ops == 11 and set(failures) == {name, "extra check"}
    assert len(failures[name]) == 2


def test_gate_flags_a_ut4_compose_with_one_coefficient_changed():
    from fractions import Fraction

    from linfty.algebra import GVector
    from linfty.bch_groupoid import compose
    from linfty.fixtures import Sampler, get_fixture, get_representation

    ut4, rep = get_fixture("ut4"), get_representation("ut4")
    sampler = Sampler(3)
    x, y = sampler.vector(ut4, 0), sampler.vector(ut4, 0)
    z = compose(ut4, ut4.zero_vector(), x, y)
    assert gates.gate_compose(rep, x, y, z) == []
    coeffs = dict(z.coeffs)
    sym = ut4.basis_of_degree(0)[-1]
    coeffs[sym] = coeffs.get(sym, Fraction(0)) + 1
    assert gates.gate_compose(rep, x, y, GVector(ut4, coeffs))


def test_gate_checks_a_series_result():
    from linfty.bch_groupoid import CHResult, generalized_ch
    from linfty.fixtures import Sampler, get_fixture

    heis = get_fixture("heisenberg")
    sampler = Sampler(5)
    zero = heis.zero_vector()
    inputs = {(1,): sampler.vector(heis, 0), (2,): sampler.vector(heis, 0)}
    result = generalized_ch(heis, 2, zero, inputs)
    assert gates.gate_ch(heis, 2, zero, inputs, result) == []
    shifted = CHResult(result.value + heis.basis_vector("e3"), result.simplex)
    assert gates.gate_ch(heis, 2, zero, inputs, shifted)
    other = {(1,): inputs[(2,)], (2,): inputs[(1,)]}
    if other != inputs:
        assert gates.gate_ch(heis, 2, zero, other, result)
