"""The run loop shared by every workload.

A workload module provides

* ``plan(seed, quick)``: the inputs and their reference answers, as plain
  data made by the benchmark alone;
* ``load()``: import the program and return its modules;
* ``prepare(mods, plan)``: the program's set-up (group tables, orbit sums);
* ``make_ops(plan, ctx)``: the timed operations, each a call into the public
  API and a check of its output against the plan's references.

`run` times ``load`` plus ``prepare`` several times from a fresh import and
reports the median as ``setup_s``.  It then runs whole rounds of the
operations until ``seconds`` have passed.  Only the calls are timed; the
checks run between them.

Times are calibrated.  On a shared host the same process can run tens of per
cent slower than its twin, and its speed changes within a second.  So a short
fixed pure-Python loop is timed right before and right after each call, and
the call's time is scaled by CAL_REF_US over the mean of the two: a figure
reads as microseconds on a process whose loop takes CAL_REF_US.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time

import layertrace

SETUPS = 3
ERROR_LINES = 5
CAL_REF_US = 190.0  # the calibration loop's median time on the reference host
CAL_SETUP_SAMPLES = 31  # calibration loops before and after each set-up


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind  # a label for error messages
        self.call = call  # () -> output
        self.check = check  # output -> None, or a description of what is wrong


def _calibration_loop():
    acc = {}
    for i in range(120):
        t = tuple(sorted([(i * 7919 + k * 31) % 101 for k in range(8)]))
        acc[t] = acc.get(t, 0) + 1
    return acc


def calibration_time(samples=1):
    """Median time of `samples` runs of the calibration loop."""
    clock = time.perf_counter
    times = []
    for _ in range(samples):
        t0 = clock()
        _calibration_loop()
        times.append(clock() - t0)
    return statistics.median(times)


def calibrated(raw, before, after):
    """A raw time at the reference speed, from calibration times around it."""
    return raw * CAL_REF_US * 1e-6 / ((before + after) / 2)


def stratified(rows, count, rng):
    """One row drawn from each of `count` equal runs of the ordered `rows`,
    or every row when there are no more rows than that."""
    if count >= len(rows):
        return list(rows)
    return [rows[rng.randrange(s * len(rows) // count, (s + 1) * len(rows) // count)]
            for s in range(count)]


def purge_program():
    """Forget every imported steintorus module, so the next import is fresh."""
    for name in [m for m in sys.modules if m.split(".")[0] == "steintorus"]:
        del sys.modules[name]
    gc.collect()


def run_rounds(ops, seconds, after_round=None):
    """Run whole rounds of `ops` until `seconds` have passed; latencies are
    calibrated."""
    clock = time.perf_counter
    latencies, problems, escaped = [], [], {}
    attempted = failed = rounds = 0
    start = clock()
    while True:
        for op in ops:
            attempted += 1
            before = calibration_time()
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # an escaped exception fails the op
                failed += 1
                name = f"{op.kind}: {type(exc).__name__}"
                escaped[name] = escaped.get(name, 0) + 1
                continue
            raw = clock() - t0
            latencies.append(calibrated(raw, before, calibration_time()))
            problem = op.check(out)
            if problem:
                problems.append(f"{op.kind}: {problem}")
        rounds += 1
        if after_round is not None:
            after_round(rounds)
        if clock() - start >= seconds:
            break
    return {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "escaped": escaped,
        "rounds": rounds,
    }


def ops_per_s(latencies):
    return len(latencies) / sum(latencies) if latencies else 0.0


def run(workload, plan, seed, seconds, traced, out_dir):
    """Run `plan` and return the result object that run.py prints."""
    if traced:
        result, metrics = _run_traced(workload, plan, seed, seconds, out_dir)
    else:
        result, metrics = _run_plain(workload, plan, seconds)
    for line in result["problems"][:ERROR_LINES]:
        print(f"check failed: {line}", file=sys.stderr)
    for name, count in sorted(result["escaped"].items()):
        print(f"escaped exception: {name} x{count}", file=sys.stderr)
    print(
        f"{result['rounds']} round(s), {result['attempted']} ops, "
        f"{result['failed']} failed, {len(result['problems'])} wrong",
        file=sys.stderr,
    )
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _run_plain(workload, plan, seconds):
    setup_times = []
    ctx = None
    for _ in range(SETUPS):
        ctx = None
        purge_program()
        before = calibration_time(CAL_SETUP_SAMPLES)
        t0 = time.perf_counter()
        ctx = workload.prepare(workload.load(), plan)
        raw = time.perf_counter() - t0
        setup_times.append(calibrated(raw, before, calibration_time(CAL_SETUP_SAMPLES)))
    ops = workload.make_ops(plan, ctx)
    gc.collect()
    result = run_rounds(ops, seconds)
    lat = sorted(result["latencies"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops_per_s(lat), "ops/s"),
        "op_p50_us": (statistics.median(lat) * 1e6, "us"),
        "op_p90_us": (statistics.quantiles(lat, n=10)[8] * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return result, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _run_traced(workload, plan, seed, seconds, out_dir):
    """One traced set-up, then rounds; the layer figures cover the set-up and
    the first round, so their counts repeat exactly for a seed."""
    mods = workload.load()
    tracer = layertrace.Tracer()
    tracer.install()
    ctx = workload.prepare(mods, plan)
    ops = workload.make_ops(plan, ctx)
    first = {}

    def after_round(rounds):
        if rounds == 1:
            first.update(tracer.snapshot())

    result = run_rounds(ops, seconds, after_round)
    layer = layertrace.layer_metrics(first)
    layer["traced.ops_per_s"] = (ops_per_s(result["latencies"]), "ops/s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.NAME}-seed{seed}.json")
    tracer.write(path, first, {k: v["value"] for k, v in metrics.items()})
    print(f"trace written to {path}", file=sys.stderr)
    return result, metrics

