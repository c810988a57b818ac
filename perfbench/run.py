"""The linfty benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload acceptance|series|gauge-sweep \
        --seed N --seconds S --trace 0|1

Every pass runs in a worker process (perfbench/worker.py) with one
thread.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced pass with --trace 1.  Times
are in reference seconds (calibration.py).  The line before it carries
the details (raw seconds, per-operation latencies of the series, pass
counts, and the stamp: source revision, Python version, kernel lane,
processor count, seed).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import calibration_s, to_reference
from tracer import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("acceptance", "series", "gauge-sweep")
SETUPS = {"acceptance": 5, "gauge-sweep": 5, "series": 3}
MIN_PASSES = 2  # cold workers per run, even when one outlasts --seconds
WORKER_TIMEOUT_S = 150  # a worker still running then is killed


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, seconds, mode):
    """Spawn one worker; returns (set-up seconds, result dict).  Set-up
    is timed from spawn to the worker's READY line."""
    cfg = json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                      "mode": mode, "root": str(ROOT)})
    # fixed string hashing, so that set iteration order (and with it the
    # work done) repeats from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), cfg],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT))
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # interrupted: stop the worker
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker ({mode}) exited with "
                          f"{proc.returncode}")
    return setup_s, json.loads(lines[-1])


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None below 11 samples."""
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        return None
    return xs[k - 1], 100.0 * k / len(xs), len(xs)


def latency(values):
    ms = [v * 1000.0 for v in values]
    out = {"n": len(ms), "p50_ms": statistics.median(ms) if ms else None}
    t = tail(ms)
    if t:
        out.update(tail_ms=t[0], tail_pct=round(t[1], 2))
    return out


def git_revision():
    """The commit at HEAD, or None where git or the history is missing
    (the benchmark also runs in checkouts without .git)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(seed, implementation):
    return {"git_sha": git_revision(), "python": platform.python_version(),
            "implementation": implementation, "nproc": os.cpu_count(),
            "seed": seed}


def spawn(workload, seed, seconds, mode, setups):
    """run_worker, calibrated before the spawn and (by the worker) just
    after its set-up; appends (reference, raw) set-up seconds to setups
    and returns the worker's result."""
    cal = calibration_s()
    setup_s, result = run_worker(workload, seed, seconds, mode)
    cal = (cal + result["setup_cal_s"]) / 2
    setups.append((to_reference(setup_s, cal), setup_s))
    return result


def measure(workload, seed, seconds):
    """End-to-end metrics, in reference seconds (see calibration.py).
    acceptance and gauge-sweep: fresh workers, each a cold then a warm
    pass, until the time is up.  series: one worker running the stream
    for the given time, after set-up-only workers."""
    setups, runs = [], []
    start = time.perf_counter()
    if workload == "series":
        for _ in range(SETUPS[workload] - 1):
            spawn(workload, seed, seconds, "setup", setups)
        runs.append(spawn(workload, seed, seconds, "measure", setups))
    else:
        while len(runs) < MIN_PASSES or time.perf_counter() - start < seconds:
            runs.append(spawn(workload, seed, seconds, "measure", setups))
        while len(setups) < SETUPS[workload]:
            spawn(workload, seed, seconds, "setup", setups)
    ops = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    if workload == "series":
        r = runs[0]
        wall, warm = r["block_ref_s"], r["replay_ref_s"]
        raw_wall = r["block_s"]
        compose_s, ch_s = sum(r["compose_ref_s"]), sum(r["ch_ref_s"])
        detail = {"blocks": len(wall), "compose": latency(r["compose_ref_s"]),
                  "ch_free": latency(r["ch_ref_s"]),
                  "compose_share": compose_s / (compose_s + ch_s),
                  "ops_per_s": ops / r["timed_s"]}
    else:
        wall = [r["pass_ref_s"][0] for r in runs]
        warm = [r["pass_ref_s"][1] for r in runs]
        raw_wall = [r["pass_s"][0] for r in runs]
        detail = {"passes": len(runs)}
    median = statistics.median
    detail.update(setups=len(setups), raw_setup_s=median(s for _, s in setups),
                  raw_wall_s=median(raw_wall),
                  cal_s=median(c for r in runs for c in r["cal_s"]))
    metrics = {
        "setup_s": (median(s for s, _ in setups), "s"),
        "wall_s": (median(wall), "s"),
        "warm_wall_s": (median(warm), "s"),
        "peak_rss_mb": (median(r["rss_mb"] for r in runs), "MB"),
    }
    return metrics, ops, failed, failures, detail, runs[0]["implementation"]


def trace(workload, seed, seconds):
    """Per-layer metrics from one traced pass, and the tracing overhead
    against an untraced pass (a separate cold worker, or for series the
    same blocks run untraced first), all in reference seconds."""
    if workload == "series":
        _, result = run_worker(workload, seed, seconds, "trace")
        untraced = result["untraced_ref_s"]
        ops, failed = result["ops"], result["failed"]
        failures = result["failures"]
    else:
        _, base = run_worker(workload, seed, seconds, "cold")
        _, result = run_worker(workload, seed, seconds, "trace")
        untraced = base["pass_ref_s"][0]
        ops = base["ops"] + result["ops"]
        failed = base["failed"] + result["failed"]
        failures = base["failures"] + result["failures"]
    values = dict(result["metrics"])
    values["trace.wall_s"] = result["traced_ref_s"]
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_ratio"] = result["traced_ref_s"] / untraced
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    detail = {"spans": result["spans"]}
    return metrics, ops, failed, failures, detail, result["implementation"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "linfty" / "__init__.py").is_file():
        print(f"linfty sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = trace if args.trace else measure
    try:
        metrics, ops, failed, failures, detail, impl = run(
            args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    detail.update(workload=args.workload, ops=ops, failed=failed,
                  ops_failed_ratio=failed / ops,
                  failures=failures[:5], stamp=stamp(args.seed, impl))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
