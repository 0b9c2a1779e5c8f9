"""nwfree benchmark: seeded, self-checking request workloads against the package.

    python3 perfbench/run.py --workload verify-fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads in turn

One client in one process sends each request only after the previous reply
returned and was checked (a closed loop, no extra threads).  Each workload
runs in its own fresh interpreter (worker.py), so caches and peak memory do
not carry over.  The amount of work is fixed by --seconds: it is the number
of whole request cycles that took that long on the reference machine, so
two commits are always measured on the same requests.  The reference
machine is a 2-vCPU Intel Xeon virtual machine whose host cores are shared
with other tenants; a fixed CPU loop there runs up to 1.9x slower at
times, changing many times a second and drifting over minutes.  So every
time metric is stated at the reference machine's speed: each measured
time is divided by the host's slowdown around it, read from calibration
bursts timed between requests (speed.py).  The text output also gives
each time metric as measured.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
run whose every second request is traced, and the tracing overhead against
the untraced requests between them.  The exit code is 0 only when every
reply was correct; a missing or broken program exits nonzero without a
result line.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402  (stdlib only; the program is imported by workers)
import layers  # noqa: E402
import speed  # noqa: E402

# Wall seconds per request cycle, checks included, on the reference machine.
CYCLE_SECONDS = {
    "verify-fresh": 3.3,
    "verify-hot": 3.3,
    "classify-ingest": 0.055,
    "evidence": 1.1,
}
DEADLINE_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

class BenchError(Exception):
    """The benchmark could not produce a result (program missing, crash, timeout)."""


def _run(cmd, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + cmd[2])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[2]} did not finish within the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def run_worker(workload, seed, cycles, trace, deadline):
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--cycles", str(cycles), "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, f"spans-{workload}.tsv.gz")]
    return json.loads(_run(cmd, deadline))


def quantile(sorted_values, p):
    """Linear interpolation between closest ranks, p in percent."""
    pos = p / 100 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest listed percentile with at least MIN_BEYOND samples above it."""
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= MIN_BEYOND:
            return p
    return 50.0


def end_to_end(raw):
    """Metrics at the reference speed, notes, and the same time metrics as measured."""
    samples = raw["speed_samples"]
    setup, _ = speed.scale(raw["setup_s"], samples)
    intervals = [(start, start + ns, ns) for start, ns in zip(raw["starts_ns"], raw["latencies_ns"])]
    scaled, factors = speed.scale(intervals, samples)
    n = len(scaled)
    p_tail = tail_percentile(n)

    def times(setup, lat):
        lat = sorted(lat)
        return {
            "setup_s": (statistics.median(setup), "s"),
            "throughput_rps": (n / (sum(lat) / 1e9), "1/s"),
            "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
            "latency_tail_ms": (quantile(lat, p_tail) / 1e6, "ms"),
        }

    metrics = times(setup, scaled)
    metrics["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    measured = times([s for _, _, s in raw["setup_s"]], raw["latencies_ns"])
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters importing "
                   "nwfree.specdsl, nwfree.verify and nwfree.irreducible, "
                   "spread over the run",
        "throughput_rps": "requests completed and checked per second of service time",
        "latency_p50_ms": f"median of {n} requests",
        "latency_tail_ms": f"p{p_tail:g} of {n} requests, {n - math.ceil(p_tail / 100 * n)} beyond",
        "peak_rss_mb": "peak resident memory of the workload's interpreter",
    }
    speed_note = (f"host ran at {statistics.median(factors):.3f}x the reference speed "
                  f"(median over requests, from {len(samples)} calibration bursts)")
    return metrics, notes, measured, speed_note


def describe(raw):
    return (f"workload {raw['workload']}, seed {raw['seed']}: closed loop, 1 client, "
            f"{raw['cycles']} cycles of {raw['warmup']} requests after a warm-up cycle")


def report_failures(raw):
    for line in raw["failures"]:
        print(f"  FAILED {line}")


def bench_untraced(workload, seed, cycles, deadline):
    raw = run_worker(workload, seed, cycles, 0, deadline)
    metrics, notes, measured, speed_note = end_to_end(raw)
    print(describe(raw))
    print(f"  times at the reference speed; {speed_note}")
    for name, (value, unit) in metrics.items():
        as_measured = f" (as measured {measured[name][0]:.4f})" if name in measured else ""
        print(f"  {name:<16} {value:12.4f} {unit:<4} {notes[name]}{as_measured}")
    error_rate = raw["failed"] / raw["attempted"]
    print(f"  {'error_rate':<16} {error_rate:12.4f} {'1':<4} "
          f"{raw['failed']} of {raw['attempted']} requests failed (warm-up included)")
    report_failures(raw)
    return metrics, raw["attempted"], raw["failed"]


def bench_traced(workload, seed, cycles, deadline):
    raw = run_worker(workload, seed, max(2, cycles), 1, deadline)
    values = raw["layers"]
    print(describe(raw) + ", every second request traced")
    metrics = {}
    for name, unit, _better, moves in layers.LAYER_METRICS:
        metrics[name] = (values[name], unit)
        print(f"  {name:<40} {values[name]:14.6g} {unit:<5} moves {moves}")
    print("  span self time, all spans (s):")
    for name, seconds in sorted(raw["span_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {name:<36} {seconds:10.4f}  calls {raw['span_calls'][name]}")
    print(f"  spans written to {os.path.relpath(raw['spans_file'], ROOT)}")
    report_failures(raw)
    return metrics, raw["attempted"], raw["failed"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "nwfree")):
        print(f"error: no nwfree package under {SRC}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    bench = bench_traced if args.trace else bench_untraced
    all_metrics, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            cycles = max(1, round(args.seconds / CYCLE_SECONDS[workload]))
            if len(workloads) > 1:
                deadline = time.monotonic() + DEADLINE_S
            metrics, n, bad = bench(workload, args.seed, cycles, deadline)
            attempted += n
            failed += bad
            prefix = "" if len(workloads) == 1 else workload + "/"
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
