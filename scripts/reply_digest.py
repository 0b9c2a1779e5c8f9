"""Print one sha256 over the benchmark's replies, to check byte-identity.

For seeds 1-5 and each of the four perfbench workloads, it draws two
cycles of requests with perfbench/gen.py, serves each through
perfbench/service.py, and hashes the repr of every reply, or of the
exception a request raises, in order.  Two versions of the program that
print the same digest answer the benchmark's whole request mix byte for
byte alike.

    PYTHONPATH=src python3 scripts/reply_digest.py
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
import service  # noqa: E402

SEEDS = range(1, 6)
CYCLES = 2


def replies():
    """The repr of each reply, seed by seed and workload by workload."""
    for seed in SEEDS:
        for workload in gen.WORKLOADS:
            generator = gen.Generator(workload, seed)
            for _ in range(CYCLES):
                for request in generator.cycle():
                    try:
                        yield repr(service.serve(request))
                    except Exception as exc:  # a failed request is part of the output
                        yield f"raised {exc!r}"


def main() -> int:
    digest, count = hashlib.sha256(), 0
    for text in replies():
        digest.update(text.encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()}  {count} replies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
