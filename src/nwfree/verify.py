"""Mechanical check of the module axiom against the bracket tables.

For every unordered generator pair (x, y) inside a loop window and every
monomial v up to a test degree, the residual

    x.(y.v) - y.(x.v) - [x, y].v

must vanish identically.  Pairs whose bracket lands outside the spec's
own window cannot be evaluated and are recorded as skipped rather than
silently dropped.

Every module here acts by shift-then-multiply, x.v = shift_x(v) * x.1,
and the shifts are additive substitutions, hence ring homomorphisms that
commute with each other.  So x.(y.v) = (shift_x shift_y)(v) * shift_x(y.1)
* x.1, and the residual factors exactly as

    sum over shifts sigma of sigma(v) * R_sigma,

where R_(shift_x shift_y) collects shift_x(y.1)*x.1 - shift_y(x.1)*y.1
and each term c*z of [x, y] adds -c*z.1 into R_(shift_z).  The R_sigma
depend on the pair alone, so they are built once per pair; a pair whose
R_sigma all vanish passes on every monomial with no further arithmetic.
Terms are grouped by their own shift, so no grading of the bracket is
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .exactpoly import Poly, Shift, apply_shift, format_poly, monomials_upto
from .liealg import BasisSymbol, LieElement, bracket, format_symbol
from .modfam import (
    AnySpec,
    SpecInvalid,
    WindowExceeded,
    algebra_of,
    generators,
    module_variables,
    shift_of,
    value_on_one,
    _resolve_window,
)

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass(frozen=True)
class ReportEntry:
    x: BasisSymbol
    y: BasisSymbol
    test_poly: Poly
    residual: Poly
    status: str

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def skipped(self) -> bool:
        return self.status == SKIP


@dataclass(frozen=True)
class VerificationReport:
    algebra: str
    window: int
    test_degree: int
    entries: Tuple[ReportEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    @property
    def checked(self) -> int:
        return sum(1 for e in self.entries if e.status != SKIP)

    @property
    def skipped(self) -> int:
        return sum(1 for e in self.entries if e.status == SKIP)

    def failures(self) -> Tuple[ReportEntry, ...]:
        return tuple(e for e in self.entries if e.status == FAIL)


def _residual_parts(
    spec: AnySpec, algebra: str, x: BasisSymbol, y: BasisSymbol, br: LieElement, zero: Poly
) -> Tuple[Tuple[Shift, Poly], ...]:
    """The nonzero R_sigma of the pair (x, y), with their shifts sigma.

    Values on 1 are looked up in the order y, x, then the bracket terms,
    the order evaluating x.(y.v), y.(x.v) and [x, y].v first needs them,
    so a lookup error surfaces for the same symbol as there.
    """
    y1 = value_on_one(spec, y)
    x1 = value_on_one(spec, x)
    terms = [(shift_of(algebra, z), c, value_on_one(spec, z)) for z, c in br.terms]
    sx, sy = shift_of(algebra, x), shift_of(algebra, y)
    parts = {sx.compose(sy): apply_shift(sx, y1) * x1 - apply_shift(sy, x1) * y1}
    for sz, c, z1 in terms:
        parts[sz] = parts.get(sz, zero) - c * z1
    return tuple((shift, r) for shift, r in parts.items() if not r.is_zero())


def verify_module(spec: AnySpec, window: int = 3, test_degree: int = 3) -> VerificationReport:
    """Check the axiom over pairs within `window` and monomials up to `test_degree`.

    Each pair's residuals come from one per-pair factorization: the
    residual on v is the sum of sigma(v) * R_sigma over the pair's shifts
    sigma (see the module docstring).  This is exact because every action
    is shift-then-multiply, shifts are additive substitutions, and bracket
    terms are grouped by their own shift.  A pair whose values on 1 reach
    outside the spec's window is skipped on every monomial.

    Raises WindowExceeded only when the spec's own window is smaller
    than the requested one.
    """
    if not isinstance(window, int) or window < 1:
        raise SpecInvalid("window must be at least 1")
    if not isinstance(test_degree, int) or test_degree < 1:
        raise SpecInvalid("test degree must be at least 1")
    algebra = algebra_of(spec)
    gens = generators(spec, window)
    monos = monomials_upto(module_variables(spec), test_degree)
    zero = Poly.zero(module_variables(spec))
    entries = []
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            br = bracket(algebra, x, y)
            try:
                parts = _residual_parts(spec, algebra, x, y, br, zero)
            except WindowExceeded:
                entries.extend(ReportEntry(x, y, v, zero, SKIP) for v in monos)
                continue
            for v in monos:
                residual = zero
                for shift, r in parts:
                    residual = residual + apply_shift(shift, v) * r
                status = PASS if residual.is_zero() else FAIL
                entries.append(ReportEntry(x, y, v, residual, status))
    return VerificationReport(algebra, _resolve_window(spec, window), test_degree, tuple(entries))


def format_report(report: VerificationReport) -> str:
    lines = []
    for e in report.entries:
        lines.append(
            "PAIR {} {} POLY {} RESIDUAL {} {}".format(
                format_symbol(e.x, report.algebra),
                format_symbol(e.y, report.algebra),
                format_poly(e.test_poly),
                format_poly(e.residual),
                e.status,
            )
        )
    lines.append(
        "SUMMARY pass={} checked={} skipped={}".format(
            "true" if report.passed else "false", report.checked, report.skipped
        )
    )
    return "\n".join(lines)
