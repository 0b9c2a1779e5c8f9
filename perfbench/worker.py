"""Run one workload in this interpreter and print its raw measurements as JSON.

run.py starts a fresh interpreter for this script per workload, so the
package's caches and the peak resident memory belong to one workload only.
The client is a closed loop: one request is sent after the previous reply
returned and was checked.  One unmeasured warm-up cycle runs first.

With --trace 1 every second measured request is traced: the timing
wrappers are bound for that request and its check only.  Which requests
those are alternates between cycles, so every slot of the cycle is served
both ways, in one process and interleaved in time, and the ratio of the
mean service times of the two halves is the tracing overhead.

Set-up time is the time a fresh interpreter takes to import the modules a
first request needs.  It is taken once here and, in untraced runs, in
SETUP_PROBES more fresh interpreters started between measured cycles, so
that the median spans the run rather than one moment of a shared host.

Between requests, at most speed.CALIBRATE_EVERY_NS apart, and around each
set-up probe the worker times a calibration burst; run.py uses these
samples to state every time at the reference machine's speed (speed.py).

    python3 perfbench/worker.py --workload evidence --seed 1 --cycles 3 --trace 0
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MAX_FAILURES_SHOWN = 5
SETUP_PROBES = 10

_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import nwfree.irreducible, nwfree.specdsl, nwfree.verify
print(repr(time.perf_counter() - start))
"""


def _import_program():
    """Import the package from this checkout's src/; (start_ns, end_ns, seconds)."""
    sys.path.insert(0, SRC)
    start = time.perf_counter_ns()
    import nwfree.irreducible  # noqa: F401
    import nwfree.specdsl  # noqa: F401
    import nwfree.verify  # noqa: F401
    end = time.perf_counter_ns()
    import nwfree

    if not os.path.abspath(nwfree.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nwfree was imported from {nwfree.__file__}, not from {SRC}")
    return start, end, (end - start) / 1e9


def _probe_setup():
    """Import time of the program in a fresh interpreter, outside any request.

    Returns (start_ns, end_ns, seconds): the interpreter's lifetime and the
    import time it measured.
    """
    start = time.perf_counter_ns()
    out = subprocess.run([sys.executable, "-I", "-c", _PROBE, SRC],
                         capture_output=True, text=True, check=True, timeout=60)
    return start, time.perf_counter_ns(), float(out.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, help="gzip TSV file for the spans")
    args = parser.parse_args(argv)

    setup = [_import_program()]
    sys.path.insert(0, HERE)
    import check
    import gen
    import service
    import speed

    speed_samples = [speed.sample()]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        t_request = tracer.name_id("bench.request")
        t_check = tracer.name_id("bench.check")

    generator = gen.Generator(args.workload, args.seed)
    attempted = failed = 0
    failures = []
    traced_wall_s = 0.0

    def serve_and_check(req, request_id, traced=False):
        """One request: returns its start and service time in ns, records a failure."""
        nonlocal attempted, failed, traced_wall_s
        attempted += 1
        if traced:
            tracer.attach()
            traced_start = time.perf_counter()
            tracer.request_id = request_id
            tracer.active = True
            span = tracer.open(t_request)
        start = time.perf_counter_ns()
        try:
            out = service.serve(req)
            why = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, why = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if traced:
            tracer.close(span)
            tracer.active = False
            span = tracer.open(t_check)
        if why is None:
            try:
                why = check.check(req, out)
            except Exception as exc:
                why = f"check raised {type(exc).__name__}: {exc}"
        if traced:
            tracer.close(span)
            traced_wall_s += time.perf_counter() - traced_start
            tracer.detach()
        if why is not None:
            failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                label = "warm-up" if request_id < 0 else f"request {request_id}"
                failures.append(f"{label} ({req.kind}): {why}")
        return start, elapsed

    for req in generator.cycle():
        serve_and_check(req, -1)

    probe_before = []  # cycle indices to take a set-up sample before
    if tracer is None:
        probe_before = [i * args.cycles // SETUP_PROBES for i in range(SETUP_PROBES)]
    latencies, starts = [], []
    service_ns = {False: [], True: []}  # per request, traced or not
    next_sample = 0
    for cycle in range(args.cycles):
        for _ in range(probe_before.count(cycle)):
            speed_samples.append(speed.sample())
            setup.append(_probe_setup())
            speed_samples.append(speed.sample())
        for slot, req in enumerate(generator.cycle()):
            if time.perf_counter_ns() >= next_sample:
                speed_samples.append(speed.sample())
                next_sample = speed_samples[-1][0] + speed.CALIBRATE_EVERY_NS
            traced = tracer is not None and (cycle + slot) % 2 == 1
            start, elapsed = serve_and_check(req, len(latencies), traced)
            starts.append(start)
            latencies.append(elapsed)
            service_ns[traced].append(elapsed)
    speed_samples.append(speed.sample())

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": args.cycles,
        "warmup": len(generator.slots),
        "setup_s": setup,
        "latencies_ns": latencies,
        "starts_ns": starts,
        "speed_samples": speed_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if tracer is not None:
        traced_ns, plain_ns = service_ns[True], service_ns[False]
        values, self_s, calls = tracer.summary(traced_wall_s, len(traced_ns))
        values["trace.overhead_ratio"] = (
            (sum(traced_ns) / len(traced_ns)) / (sum(plain_ns) / len(plain_ns)) - 1
        )
        result.update(layers=values, span_self_s=self_s, span_calls=calls)
        if args.spans_out:
            tracer.write(args.spans_out)
            result["spans_file"] = args.spans_out
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
