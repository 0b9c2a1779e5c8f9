"""Verify the module axiom across a standard grid of specs.

Runs verify_module over representatives of every family and prints one
summary line per spec, or the full pair-by-pair report with --full.

    python3 scripts/run_families.py
    python3 scripts/run_families.py --window 2 --test-degree 3 --full
    python3 scripts/run_families.py --window 3 --test-degree 2
"""

import argparse
import sys
import time
from fractions import Fraction

from nwfree.exactpoly import Poly
from nwfree.modfam import (
    Vir00Spec,
    affvir,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    mtilde,
    mtilde_f,
)
from nwfree.verify import format_report, verify_module

S = Poly.var(("s",), "s")
W0 = Poly.var(("w0",), "w0")


def standard_grid(window=2):
    """The grid with every loop family built at `window` (at least 2)."""
    window = max(2, window)
    one = Poly.one(("s",))
    beta = {1: Fraction(5), -1: Fraction(7), 2: Fraction(1, 3), -2: Fraction(2)}
    fseq = {1: S * S, -1: S + S, 2: S, -2: one}
    for k in range(3, window + 1):
        beta.update({k: Fraction(1, k), -k: Fraction(k)})
        fseq.update({k: S * S + Poly.const(("s",), k), -k: Poly.const(("s",), k) * S})
    return [
        ("Mg0 g=2", mg0(Poly.const(("s",), Fraction(2)))),
        ("Mg0 g=s^2-s", mg0(S * S - S)),
        ("M0g g=s^2+1", m0g(S * S + one)),
        ("Mhb (1,0,1)", mhb(1, 0, 1)),
        ("Mhb (2,-1,3)", mhb(2, -1, 3)),
        ("Mbh (1,0,1)", mbh(1, 0, 1)),
        ("Mab (2,3)", mab(2, 3)),
        ("M0", m0()),
        ("MTilde a=2 over Mhb(1,0,1)", mtilde(mhb(1, 0, 1), Fraction(2), beta, window)),
        ("MTilde a=1/2 over Mg0(s)", mtilde(mg0(S), Fraction(1, 2), beta, window)),
        ("MTildeF", mtilde_f(fseq, window)),
        ("Vir00 lam=2 f=w0", Vir00Spec(2, W0)),
        ("Vir00 lam=1/3 f=w0^2-1", Vir00Spec(Fraction(1, 3), W0 * W0 - Poly.one(("w0",)))),
        ("AffVir a=2 lam=3 over Mhb(1,0,1)", affvir(mhb(1, 0, 1), 2, 3, window)),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--window", type=int, default=2)
    parser.add_argument("--test-degree", type=int, default=3)
    parser.add_argument("--full", action="store_true", help="print every pair entry")
    args = parser.parse_args(argv)

    failures = 0
    for name, spec in standard_grid(args.window):
        start = time.monotonic()
        report = verify_module(spec, window=args.window, test_degree=args.test_degree)
        elapsed = time.monotonic() - start
        status = "ok" if report.passed else "FAIL"
        print(
            f"{name:36s} {status:4s} checked={report.checked:5d} "
            f"skipped={report.skipped:4d} {elapsed:6.3f}s"
        )
        if args.full or not report.passed:
            print(format_report(report))
        if not report.passed:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
