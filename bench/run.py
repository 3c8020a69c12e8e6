"""Benchmark of hombench: theorem sweeps, desk-scale CLI verdicts, example search.

Usage, from the root of a checkout:

    python3 bench/run.py --workload theorem-sweep --seed 1 --seconds 30 --trace 0

The command imports hombench from the checkout's own ``src/`` (it exits with
code 2 and prints no result when that is missing), builds the workload's inputs
from the seed, and then runs rounds of a fixed amount of work until the time is
up. A reference kernel of exact rational and integer matrix products runs beside
every round; every reported time is converted to seconds at reference speed,
wall seconds x (NOMINAL_KERNEL_S / mean kernel seconds in this process).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the rounds alternate between
untraced and traced, and the metrics are the per-layer ones.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Typical in-process mean duration of reference_kernel() on the machine the
# reference figures in README.md were recorded on; a time reported at reference
# speed is what the work would have taken there at that speed.
NOMINAL_KERNEL_S = 0.0075
KERNEL_REPEATS = 3
KERNEL_EVERY_S = 0.5


def reference_kernel():
    """Exact matrix products with no hombench code: a chain of rational 6x6
    products and a chain of integer 14x14 products, both from fixed inputs."""
    n = 6
    q = [[Fraction(i + 2 * j + 1, i + j + 2) for j in range(n)] for i in range(n)]
    acc = q
    for _ in range(4):
        acc = [[sum(acc[i][t] * q[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    m = 14
    z = [[(3 * i + 5 * j) % 7 - 3 for j in range(m)] for i in range(m)]
    iacc = z
    for _ in range(6):
        iacc = [[sum(iacc[i][t] * z[t][j] for t in range(m)) for j in range(m)] for i in range(m)]
    return acc[0][0], iacc[0][0]


def time_kernel(samples):
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)


def import_program():
    """Import hombench from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hombench", "__init__.py")):
        sys.stderr.write("error: %s holds no hombench package; nothing to benchmark\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import hombench
    import hombench.cli
    origin = os.path.realpath(os.path.dirname(hombench.__file__))
    if origin != os.path.realpath(os.path.join(SRC, "hombench")):
        sys.stderr.write("error: hombench was imported from %s, not from %s\n" % (origin, SRC))
        sys.exit(2)
    return hombench


def load_workload(name):
    sys.path.insert(0, BENCH_DIR)
    import workloads
    return workloads.WORKLOADS[name]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hombench benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("theorem-sweep", "desk-scale", "search-scan"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args):
    hb = import_program()
    cls = load_workload(args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        workload = cls(hb, args.seed, workdir)
        setup_wall = time.perf_counter() - PROCESS_START
        return measure(hb, workload, args, setup_wall)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)


def measure(hb, workload, args, setup_wall):
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(hb)
        tracer.install()
    kernel = []
    plain_rounds, traced_rounds, traced = [], [], []
    first = None
    mismatched = 0
    rounds = 0
    steps = workload.steps()
    started = time.perf_counter()
    try:
        while True:
            durations = plain_rounds + traced_rounds
            elapsed = time.perf_counter() - started
            if durations and elapsed + statistics.median(durations) > args.seconds:
                if not args.trace or (plain_rounds and traced_rounds):
                    break
            recording = bool(args.trace) and rounds % 2 == 1
            if recording:
                tracer.reset()
            records, duration = run_round(steps, kernel, tracer if recording else None)
            if recording:
                traced.append(tracer.snapshot())
                if len(traced) == 1:
                    tracer.write_spans(os.path.join(
                        OUT_DIR, "trace-%s-seed%d.tsv" % (args.workload, args.seed)))
                traced_rounds.append(duration)
            else:
                plain_rounds.append(duration)
            if first is None:
                first = records
            elif records != first:
                mismatched += 1
            rounds += 1
        time_kernel(kernel)
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = workload.check(first)
    per_round = len(steps) if workload.verdicts_per_round is None else workload.verdicts_per_round
    attempted = per_round * rounds
    # Every round returns the first round's outputs, so a failed check of the
    # first round fails in every round; a round that differs fails whole.
    failed = min(per_round, len(problems)) * (rounds - mismatched) + mismatched * per_round
    # The kernel samples are spread through the measured window, so their mean
    # estimates the slowdown averaged over the time the rate divides by.
    scale = NOMINAL_KERNEL_S / statistics.fmean(kernel)
    round_wall = statistics.median(plain_rounds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rate = per_round * len(plain_rounds) / (sum(plain_rounds) * scale)

    for problem in problems:
        print("check failed: %s" % problem)
    if mismatched:
        print("check failed: %d round(s) returned different outputs" % mismatched)
    print("workload %s seed %d: %d round(s) of %d verdicts; kernel mean %.5f s, median "
          "%.5f s over %d samples, scale %.4f" % (
              args.workload, args.seed, rounds, per_round, statistics.fmean(kernel),
              statistics.median(kernel), len(kernel), scale))
    print("raw: setup %.4f s, median round %.4f s, %.4f verdicts/s (rounds %s)" % (
        setup_wall, round_wall, per_round * len(plain_rounds) / sum(plain_rounds),
        ", ".join("%.3f" % d for d in plain_rounds)))
    print("reference speed: setup %.4f s, median round %.4f s, %.4f verdicts/s" % (
        setup_wall * scale, round_wall * scale, rate))

    if args.trace:
        metrics = per_layer_metrics(traced, traced_rounds, plain_rounds, scale)
    else:
        metrics = {
            "setup_s": {"value": setup_wall * scale, "unit": "s"},
            "verdicts_per_s": {"value": rate, "unit": "verdicts/s"},
            "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
        }
    return {"correct": not problems and not mismatched, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_round(steps, kernel, tracer):
    """Run every step once. The reference kernel runs between steps whenever
    KERNEL_EVERY_S of step time has passed since its last run, so its samples
    cover the whole measured window; kernel time is not part of the round."""
    records = []
    duration = 0.0
    since_kernel = KERNEL_EVERY_S
    for step in steps:
        if since_kernel >= KERNEL_EVERY_S:
            time_kernel(kernel)
            since_kernel = 0.0
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        records.append(step())
        spent = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        duration += spent
        since_kernel += spent
    return records, duration


def per_layer_metrics(traced, traced_rounds, plain_rounds, scale):
    import tracer as tracing
    metrics = {}
    first = traced[0]
    for name in tracing.SPAN_NAMES:
        metrics[name + ".calls"] = {"value": first["calls"][name], "unit": "count"}
        metrics[name + ".self_s"] = {
            "value": statistics.median(t["self_s"][name] for t in traced) * scale, "unit": "s"}
    counts = first["counts"]
    for key in tracing.COUNTERS:
        metrics[key] = {"value": counts[key], "unit": "count"}
    candidates = counts["search.candidates"]
    metrics["search.accept_ratio"] = {
        "value": counts["search.accepted"] / candidates if candidates else 0.0, "unit": "ratio"}
    metrics["trace.overhead_s"] = {
        "value": (statistics.median(traced_rounds) - statistics.median(plain_rounds)) * scale,
        "unit": "s"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
