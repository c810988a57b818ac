"""One benchmark process: set up a workload, then time its passes.

Usage (from run.py): python3 perfbench/worker.py '<json config>'
with config keys workload, seed, seconds, mode ("setup", "measure",
"cold" or "trace") and root (the checkout holding src/linfty).

The process prints the line READY when set-up is done, so the parent
can time set-up from spawn to that line, then one JSON result line.
Work is timed in steps (a criterion, a harness function, a series
block), each calibrated as calibration.Clock describes.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
from time import perf_counter

import gates
from calibration import Clock, calibration_s
from tracer import Recorder

# series stream: each block holds this many compose operations on ut4
# and one generalized_ch evaluation on the free algebra, in seeded order.
# The ratio gives each operation type about half of a block's time, so
# that a change to either path moves wall_s: over 30 runs the median
# compose took 3.9-4.2 ms and generalized_ch 95-112 ms (reference
# seconds), and in the last ten compose had 42-46% of a block; run.py
# reports the measured share of each run as compose_share.
COMPOSE_PER_BLOCK = 20
WARMUP_BLOCKS = 4
TRACE_BLOCKS = 12
# warm-up inputs come from a stream separate from the measured one
WARMUP_SEED_OFFSET = 1_000_003


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- acceptance and gauge-sweep: whole cold/warm passes --------------------


class Acceptance:
    def __init__(self, seed):
        from linfty import acceptance

        self.acceptance = acceptance
        self.seed = seed
        self.criteria = acceptance.CRITERIA  # traced in place

    def run_pass(self, clock):
        """run_all, each criterion a clock step.  Returns (raw seconds,
        reference seconds, ops, failures) with one op per criterion and
        failures as gates.gate_verdicts gives them."""
        criteria = self.acceptance.CRITERIA
        originals = dict(criteria)
        raw = ref = 0.0

        def step(fn):
            def call(*args, **kwargs):
                nonlocal raw, ref
                result, r, f = clock.run(fn, *args, **kwargs)
                raw, ref = raw + r, ref + f
                return result
            return call

        for name, fn in originals.items():
            criteria[name] = step(fn)
        try:
            results = self.acceptance.run_all(self.seed)
        finally:
            criteria.update(originals)
        verdicts = [(r.number, r.passed, list(r.lines)) for r in results]
        return (raw, ref) + gates.gate_verdicts(verdicts)


class GaugeSweep:
    """The Dupont identity harness on the 4-simplex over the whole
    monomial basis of degree <= 3; the seed has no effect."""

    criteria = None

    def __init__(self, seed):
        from linfty import dupont

        self.dupont = dupont

    def run_pass(self, clock):
        """The three harness functions, each a clock step.  Returns (raw
        seconds, reference seconds, ops, failures) with one op per check
        and failures as gates.gate_sweep gives them."""
        d, n, deg = self.dupont, gates.SWEEP_N, gates.SWEEP_MAX_DEGREE
        raw = ref = 0.0
        checks = []
        for fn in (d.check_contraction_identities, d.check_gauge_identities,
                   d.check_naturality):
            result, r, f = clock.run(fn, n, deg)
            checks += result
            raw, ref = raw + r, ref + f
        summary = [(c.name, c.cases, c.passed) for c in checks]
        return (raw, ref) + gates.gate_sweep(summary)


# -- series: a closed loop over a seeded operation stream ------------------


class Series:
    """compose on ut4 and generalized_ch (n = 2) on the free nilpotent
    algebra, one client, caches warmed during set-up."""

    criteria = None

    def __init__(self, seed):
        from linfty import bch_groupoid
        from linfty.fixtures import get_fixture, get_representation

        # called through the module, so that the traced run sees the calls
        self.bch = bch_groupoid
        self.free = get_fixture("free_nilpotent_class3")
        self.free.nilpotency_index()  # builds the lower central filtration
        self.ut4 = get_fixture("ut4")
        self.rep = get_representation("ut4")
        warmup = self.blocks(seed + WARMUP_SEED_OFFSET)
        for _ in range(WARMUP_BLOCKS):
            self.run_block(next(warmup))
        self.stream = self.blocks(seed)

    def blocks(self, seed):
        """The seeded stream of blocks."""
        from linfty.fixtures import Sampler

        sampler, order = Sampler(seed), random.Random(seed)
        while True:
            ops = [("compose", sampler.vector(self.ut4, 0),
                    sampler.vector(self.ut4, 0))
                   for _ in range(COMPOSE_PER_BLOCK)]
            ops.append(("ch", sampler.vector(self.free, 0),
                        sampler.vector(self.free, 0),
                        sampler.vector(self.free, -1)))
            order.shuffle(ops)
            yield ops

    def ch_inputs(self, op):
        return {(1,): op[1], (2,): op[2], (1, 2): op[3]}

    def run_op(self, op):
        if op[0] == "compose":
            return self.bch.compose(self.ut4, self.ut4.zero_vector(),
                                    op[1], op[2])
        return self.bch.generalized_ch(self.free, 2, self.free.zero_vector(),
                                       self.ch_inputs(op))

    def run_block(self, block):
        """Returns (outputs, per-op (kind, seconds))."""
        outputs, latencies = [], []
        for op in block:
            t0 = perf_counter()
            outputs.append(self.run_op(op))
            latencies.append((op[0], perf_counter() - t0))
        return outputs, latencies

    def run_pair(self, clock, block):
        """The block, then its replay with the same inputs, each a clock
        step.  Returns the outputs of both runs, their raw and reference
        seconds, and the fresh run's per-op latencies in reference
        seconds."""
        (outputs, latencies), raw, ref = clock.run(self.run_block, block)
        (replayed, _), replay_raw, replay_ref = clock.run(self.run_block,
                                                          block)
        return {"outputs": outputs, "replayed": replayed, "raw": raw,
                "ref": ref, "replay_raw": replay_raw,
                "replay_ref": replay_ref,
                "latencies": [(kind, sec * ref / raw)
                              for kind, sec in latencies]}

    def gate(self, block, outputs, replayed):
        """Gate every fresh output; its replay must equal it.  Returns
        (failed operations, messages), counting both runs of an op."""
        failed, messages = 0, []
        for op, out, again in zip(block, outputs, replayed):
            if op[0] == "compose":
                found = gates.gate_compose(self.rep, op[1], op[2], out)
                same = out == again
            else:
                found = gates.gate_ch(self.free, 2, self.free.zero_vector(),
                                      self.ch_inputs(op), out)
                same = out.simplex == again.simplex and out.value == again.value
            if not same:
                found.append(f"{op[0]}: the replay gave a different output")
            failed += 2 * (len(found) > 0)
            messages += found
        return failed, messages


WORKLOADS = {"acceptance": Acceptance, "series": Series,
             "gauge-sweep": GaugeSweep}


def run_passes(work, count):
    """count passes in this process (the first is cold); returns their
    raw and reference seconds, ops, failed ops and failure messages."""
    clock = Clock()
    out = {"pass_s": [], "pass_ref_s": [], "ops": 0, "failed": 0,
           "failures": []}
    for _ in range(count):
        raw, ref, ops, failures = work.run_pass(clock)
        out["pass_s"].append(raw)
        out["pass_ref_s"].append(ref)
        out["ops"] += ops
        out["failed"] += len(failures)
        out["failures"] += [m for msgs in failures.values() for m in msgs]
    out["cal_s"] = clock.cal_s
    return out


def measure_series(work, seconds):
    """Fresh blocks, each replayed once, until the fresh runs and replays
    add up to `seconds`.  Each block is gated right after its replay,
    outside the timed steps."""
    clock = Clock()
    out = {"block_s": [], "block_ref_s": [], "replay_ref_s": [],
           "compose_ref_s": [], "ch_ref_s": []}
    timed, ops, failed, failures = 0.0, 0, 0, []
    while timed < seconds:
        block = next(work.stream)
        pair = work.run_pair(clock, block)
        timed += pair["raw"] + pair["replay_raw"]
        out["block_s"].append(pair["raw"])
        out["block_ref_s"].append(pair["ref"])
        out["replay_ref_s"].append(pair["replay_ref"])
        for kind, sec in pair["latencies"]:
            out[f"{kind}_ref_s"].append(sec)
        f, msgs = work.gate(block, pair["outputs"], pair["replayed"])
        ops += 2 * len(block)
        failed += f
        failures += msgs
    out.update(cal_s=clock.cal_s, timed_s=timed, ops=ops, failed=failed,
               failures=failures)
    return out


def trace_run(work, workload, seed, root):
    """One traced pass (series: TRACE_BLOCKS blocks and their replays,
    run untraced first for the overhead base).  Per-layer times are
    rescaled to reference seconds by the traced steps' calibration."""
    from linfty.acceptance import CRITERIA

    rec = Recorder(list(CRITERIA))
    clock = Clock()
    out = {}
    if workload == "series":
        blocks = [next(work.stream) for _ in range(TRACE_BLOCKS)]
        out["untraced_ref_s"] = sum(
            p["ref"] + p["replay_ref"]
            for p in (work.run_pair(clock, b) for b in blocks))
        rec.install()
        try:
            pairs = [work.run_pair(clock, b) for b in blocks]
        finally:
            rec.uninstall()
        raw = sum(p["raw"] + p["replay_raw"] for p in pairs)
        ref = sum(p["ref"] + p["replay_ref"] for p in pairs)
        ops, failed, failures = 2 * sum(len(b) for b in blocks), 0, []
        for b, p in zip(blocks, pairs):
            f, msgs = work.gate(b, p["outputs"], p["replayed"])
            failed += f
            failures += msgs
    else:
        rec.install(work.criteria)
        try:
            raw, ref, ops, failing = work.run_pass(clock)
        finally:
            rec.uninstall()
        failed = len(failing)
        failures = [m for msgs in failing.values() for m in msgs]
    metrics = rec.metrics()
    self_total = sum(v for k, v in metrics.items()
                     if k.count(".") == 1 and k.endswith(".self_s"))
    if self_total > raw * 1.001:
        failures.append(f"self times {self_total:.3f}s exceed the traced "
                        f"steps' {raw:.3f}s")
        failed = max(failed, 1)
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    rec.log.write(os.path.join(outdir, f"spans-{workload}-seed{seed}.tsv.gz"))
    scale = ref / raw
    metrics = {k: v * scale if k.endswith("_s") else v
               for k, v in metrics.items()}
    out.update(metrics=metrics, traced_ref_s=ref, ops=ops, failed=failed,
               failures=failures, spans=len(rec.log))
    return out


def main():
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    work = WORKLOADS[cfg["workload"]](cfg["seed"])
    print("READY", flush=True)
    setup_cal_s = calibration_s()  # the parent calibrates before the spawn
    mode = cfg["mode"]
    if mode == "setup":
        result = {}
    elif mode == "trace":
        result = trace_run(work, cfg["workload"], cfg["seed"], cfg["root"])
    elif cfg["workload"] == "series":
        result = measure_series(work, cfg["seconds"])
    else:  # a cold pass, and in "measure" mode a warm pass after it
        result = run_passes(work, 2 if mode == "measure" else 1)
    from linfty.kernel import IMPLEMENTATION

    result["setup_cal_s"] = setup_cal_s
    result["rss_mb"] = peak_rss_mb()
    result["implementation"] = IMPLEMENTATION
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
