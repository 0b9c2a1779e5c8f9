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

Only the values on 1 depend on the spec.  Everything else is a plan,
cached by (algebra, generator tuple, test degree) in a bounded LRU cache
(MAX_PLANS): the zero polynomial, the test monomials, the generators and
bracket symbols, and per pair the pair's distinct shifts and its bracket
terms with the position of their shifts, so `bracket` runs only when a
plan is built; each symbol's own shift comes with its integer form, once
per request.  The key holds the generators rather than the window
because the generators of action data depend on its assignments.  Each
request then fills a table of its own integer forms,
`modfam._integer_form` (shift_x, and x.1 cleared to integers), as pairs
first need them (y, x, then the bracket terms, as evaluating through
`act` would), so each x.1 is computed afresh once and verifying a spec
leaves nothing behind; a WindowExceeded there marks every pair that
needs the value as skipped.  A pair's R_sigma are then formed on
integers: shift_x(y.1)*x.1 and shift_y(x.1)*y.1 are one `modfam._image`
each, as every generator image is, and `exactpoly._combine` sums them
with the terms -c*z.1 over one common denominator.  Each R_sigma is
zero-tested as an integer map, so a passing pair builds no polynomial; a
failing pair's residuals sum(sigma(v) * R_sigma) are formed with
`exactpoly._shift_mul`, and only a nonzero residual becomes a `Poly`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Tuple

from .exactpoly import (
    Poly,
    _combine,
    _from_integer_terms,
    _integer_terms,
    _shift_mul,
    format_poly,
    monomials_upto,
)
from .liealg import BasisSymbol, bracket, format_symbol
from .modfam import (
    MAX_WINDOW,
    MODULE_VARIABLES,
    AnySpec,
    SpecInvalid,
    WindowExceeded,
    algebra_of,
    generators,
    shift_of,
    _image,
    _integer_form,
    _resolve_window,
)

# Largest test degree: verify enumerates every monomial up to it.
MAX_TEST_DEGREE = 8

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass(frozen=True, slots=True)
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


# Plans kept at once.  A plan depends only on the algebra, the generator
# tuple and the test degree, so the keys are few: perfbench's verify slots
# use 7.  One plan at MAX_WINDOW and MAX_TEST_DEGREE (AffineVirasoroH4: 86
# generators, 3,655 pairs, 45 monomials) takes 0.17 MB (tracemalloc), so a
# full cache stays under 3 MB.
MAX_PLANS = 16

# Marks a value on 1 whose lookup raised WindowExceeded.
_OUTSIDE = object()


@functools.lru_cache(maxsize=MAX_PLANS)
def _plan(algebra: str, gens: Tuple[BasisSymbol, ...], test_degree: int) -> tuple:
    """Everything verify needs that does not depend on the values on 1.

    Returns (zero, monomials, symbols, brackets).  `symbols` lists the
    generators first, then the bracket terms outside them.  `brackets`
    holds, per generator pair (a, b) in report order, that is in the
    order of itertools.combinations over the generator positions, the
    pair's distinct shifts sigma (shift_a∘shift_b first), the positions
    in `symbols` of its bracket terms z, and per term c*z the position of
    shift_z among the pair's shifts and -c as (numerator, denominator).
    Equal shifts and entries are stored once, so a pair with a zero
    bracket costs one reference.
    """
    variables = MODULE_VARIABLES[algebra]
    shared: dict = {}

    def share(value):
        return shared.setdefault(value, value)

    position = {x: i for i, x in enumerate(gens)}
    symbols = list(gens)
    shifts = [share(shift_of(algebra, x)) for x in gens]
    brackets = []
    for a, b in combinations(range(len(gens)), 2):
        pair_shifts = [share(tuple(map(add, shifts[a], shifts[b])))]
        zs, terms = [], []
        for z, c in bracket(algebra, gens[a], gens[b]).terms:
            if z not in position:
                position[z] = len(symbols)
                symbols.append(z)
                shifts.append(share(shift_of(algebra, z)))
            sz = shifts[position[z]]
            if sz not in pair_shifts:
                pair_shifts.append(sz)
            zs.append(position[z])
            terms.append((pair_shifts.index(sz), -c.numerator, c.denominator))
        brackets.append(share((share(tuple(pair_shifts)), tuple(zs), tuple(terms))))
    monomials = tuple(monomials_upto(variables, test_degree))
    return Poly.zero(variables), monomials, tuple(symbols), tuple(brackets)


def verify_module(spec: AnySpec, window: int = 3, test_degree: int = 3) -> VerificationReport:
    """Check the axiom over pairs within `window` and monomials up to `test_degree`.

    Each pair's residuals come from one per-pair factorization: the
    residual on v is the sum of sigma(v) * R_sigma over the pair's shifts
    sigma (see the module docstring).  This is exact because every action
    is shift-then-multiply, shifts are additive substitutions, and bracket
    terms are grouped by their own shift.  A pair whose values on 1 reach
    outside the spec's window is skipped on every monomial.

    Raises WindowExceeded only when the spec's own window is smaller
    than the requested one, and SpecInvalid for a window or test degree
    outside 1..MAX_WINDOW or 1..MAX_TEST_DEGREE.
    """
    if not isinstance(window, int) or window < 1:
        raise SpecInvalid("window must be at least 1")
    if window > MAX_WINDOW:
        raise SpecInvalid(f"window exceeds the limit {MAX_WINDOW}")
    if not isinstance(test_degree, int) or test_degree < 1:
        raise SpecInvalid("test degree must be at least 1")
    if test_degree > MAX_TEST_DEGREE:
        raise SpecInvalid(f"test degree exceeds the limit {MAX_TEST_DEGREE}")
    algebra = algebra_of(spec)
    gens = tuple(generators(spec, window))
    zero, monos, symbols, brackets = _plan(algebra, gens, test_degree)
    # this request's integer forms (modfam._integer_form), filled on first use
    values = [None] * len(symbols)
    entries = []
    pairs = combinations(range(len(gens)), 2)
    for (a, b), (pair_shifts, zs, terms) in zip(pairs, brackets):
        x, y = symbols[a], symbols[b]
        for i in (b, a, *zs):
            if values[i] is None:
                try:
                    values[i] = _integer_form(spec, algebra, symbols[i])
                except WindowExceeded:
                    values[i] = _OUTSIDE
            if values[i] is _OUTSIDE:
                break
        if values[i] is _OUTSIDE:  # the loop stopped at a value outside the window
            entries.extend(ReportEntry(x, y, v, zero, SKIP) for v in monos)
            continue
        (_, x1, lx), (_, y1, ly) = values[a], values[b]
        parts = [[
            (1, lx * ly, _image(values, a, y1)),
            (-1, lx * ly, _image(values, b, x1)),
        ]]
        parts += [[] for _ in pair_shifts[1:]]
        for z, (k, num, den) in zip(zs, terms):
            _, z1, lz = values[z]
            parts[k].append((num, den * lz, z1))
        nonzero = [  # (sigma, R_sigma as integer map and denominator) where R_sigma != 0
            (shift, r, scale)
            for shift, (r, scale) in zip(pair_shifts, map(_combine, parts))
            if any(r.values())
        ]
        if not nonzero:
            entries.extend(ReportEntry(x, y, v, zero, PASS) for v in monos)
            continue
        for v in monos:
            v1, _ = _integer_terms(v)
            images = [(1, l, _shift_mul(v1, sh, r.items())) for sh, r, l in nonzero]
            residual, scale = _combine(images)
            if any(residual.values()):
                residual = _from_integer_terms(zero.variables, residual, scale)
                entries.append(ReportEntry(x, y, v, residual, FAIL))
            else:
                entries.append(ReportEntry(x, y, v, zero, PASS))
    return VerificationReport(algebra, _resolve_window(spec, window), test_degree, tuple(entries))


def format_report(report: VerificationReport) -> str:
    """One `PAIR x y POLY v RESIDUAL r STATUS` line per entry, then a summary.

    Each distinct symbol and polynomial is formatted once per report, so
    most lines join strings already built: a pair's head once per run of
    its entries, and a residual with its status (the shared zero of a
    PASS pair, say) once for every line that carries it.
    """
    symbol_text: dict = {}
    poly_text: dict = {}  # keyed by id: the report keeps every polynomial alive
    tail_text: dict = {}

    def symbol(x: BasisSymbol) -> str:
        text = symbol_text.get(x)
        if text is None:
            text = symbol_text[x] = format_symbol(x, report.algebra)
        return text

    def poly(v: Poly) -> str:
        text = poly_text.get(id(v))
        if text is None:
            text = poly_text[id(v)] = format_poly(v)
        return text

    lines = []
    x = y = head = None
    for e in report.entries:
        if e.x is not x or e.y is not y:
            x, y = e.x, e.y
            head = f"PAIR {symbol(x)} {symbol(y)} POLY "
        tail = tail_text.get((id(e.residual), e.status))
        if tail is None:
            tail = tail_text[id(e.residual), e.status] = f" RESIDUAL {poly(e.residual)} {e.status}"
        lines.append(head + poly(e.test_poly) + tail)
    lines.append(
        "SUMMARY pass={} checked={} skipped={}".format(
            "true" if report.passed else "false", report.checked, report.skipped
        )
    )
    return "\n".join(lines)
