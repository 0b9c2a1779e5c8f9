"""The benchmark's own checks: generator determinism and checker sensitivity.

    python3 perfbench/selfcheck.py

- The generator gives byte-identical requests for one seed and different
  documents for another seed.
- The checker accepts the program's real replies and rejects each planted
  wrong answer.  Answers are planted in the checker's input, never in the
  program.
- Scaling to the reference speed divides a time by the host's slowdown
  around it and by nothing else.
- BENCHMARK.json lists the workloads and per-layer metrics the code has.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import service  # noqa: E402
import speed  # noqa: E402
from nwfree.classify import Rejected  # noqa: E402
from nwfree.exactpoly import Poly  # noqa: E402


def requests(workload, seed, cycles=2):
    g = gen.Generator(workload, seed)
    return [req for _ in range(cycles) for req in g.cycle()]


def check_determinism():
    for workload in gen.WORKLOADS:
        first, again = requests(workload, 7), requests(workload, 7)
        assert first == again, f"{workload}: seed 7 gave different requests on two draws"
        other = requests(workload, 8)
        assert [r.doc for r in first] != [r.doc for r in other], f"{workload}: seeds 7 and 8 agree"
    fresh = [r.doc for r in requests("verify-fresh", 7, cycles=3)]
    assert len(set(fresh)) == len(fresh), "verify-fresh repeated a document"
    hot = requests("verify-hot", 7, cycles=3)
    assert hot[: len(hot) // 3] * 3 == hot, "verify-hot did not reuse its pool"


def _plants(req, out, others):
    """Wrong answers for one correct reply, as (label, planted reply) pairs."""
    if req.kind == "verify":
        report = out["report"]
        yield "dropped entry", dict(out, report=dataclasses.replace(
            report, entries=report.entries[:-1]))
        flipped = "FAIL" if report.passed else "PASS"
        entries = tuple(dataclasses.replace(e, status=flipped) for e in report.entries)
        yield "flipped status", dict(out, report=dataclasses.replace(report, entries=entries))
    elif req.kind == "classify":
        if "anchor" in req.expect:
            yield "other anchor", dict(out, result=Rejected("central-k-x", "planted"))
        else:
            other = next(o for o in others if hasattr(o["result"], "spec")
                         and o["result"].spec != out["result"].spec)
            yield "other spec", dict(out, result=other["result"])
            if "iso" in req.expect:
                yield "iso flipped", dict(out, iso=not out["iso"])
    else:
        verdict = out["verdict"]
        yield "verdict flipped", dict(out, verdict=dataclasses.replace(
            verdict, irreducible=not verdict.irreducible))
        if "oracle" in out:
            if req.expect["oracle"] is True:
                yield "oracle missed", dict(out, oracle=False)
        elif "cert" in out:
            zero = Poly.zero(out["replay"].variables)
            yield "replay to zero", dict(out, replay=zero)
            yield "replay mismatch", dict(out, replay_ok=False)
        else:
            wit = out["witness"]
            checks = (dataclasses.replace(wit.closure_checks[0], contained=False),)
            yield "ideal not closed", dict(out, witness=dataclasses.replace(
                wit, closure_checks=checks + wit.closure_checks[1:]))


def check_checker():
    planted = 0
    for workload in ("verify-fresh", "classify-ingest", "evidence"):
        reqs = requests(workload, 3, cycles=1)
        outs = [service.serve(req) for req in reqs]
        for req, out in zip(reqs, outs):
            why = check.check(req, out)
            assert why is None, f"{workload}: correct reply rejected: {why}"
            for label, wrong in _plants(req, out, outs):
                assert check.check(req, wrong) is not None, f"{workload}: missed {label}"
                planted += 1
    return planted


def check_speed_scaling():
    ref, halo = speed.REFERENCE_NS, speed.HALO_NS
    slow = [(t, 2 * ref) for t in range(0, 10 * halo, halo // 4)]
    fast = [(t, ref // 2) for t in range(20 * halo, 30 * halo, halo // 4)]
    requests = [(3 * halo, 3 * halo + 1000, 100.0), (25 * halo, 25 * halo + 1000, 100.0),
                (14 * halo, 14 * halo + 1000, 100.0)]
    values, _ = speed.scale(requests, slow + fast)
    assert values[:2] == [50.0, 200.0], f"scaled {values[:2]}, expected [50.0, 200.0]"
    # far from every burst: the nearest one, the slow burst at 9.75 halos, sets the factor
    assert values[2] == 50.0, f"scaled {values[2]} with only distant bursts, expected 50.0"


def check_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    want = [{"name": n, "unit": u, "better": b} for n, u, b, _ in layers.LAYER_METRICS]
    assert spec["per_layer"] == want, "BENCHMARK.json per_layer differs from layers.py"


def main():
    check_determinism()
    print("generator: deterministic per seed, distinct across seeds")
    print(f"checker: accepted every real reply, rejected {check_checker()} planted wrong answers")
    check_speed_scaling()
    print("speed: times scale by the host's slowdown around them")
    check_benchmark_json()
    print("BENCHMARK.json: workloads and per-layer metrics match the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
