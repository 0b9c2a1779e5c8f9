"""Mechanical check of the module axiom against the bracket tables.

For every unordered generator pair (x, y) inside a loop window and every
monomial v up to a test degree, the residual

    x.(y.v) - y.(x.v) - [x, y].v

must vanish identically.  Pairs whose bracket lands outside the spec's
own window cannot be evaluated and are recorded as skipped rather than
silently dropped.

Every module here acts by shift-then-multiply, x.v = shift_x(v) * x.1,
and the shifts are additive substitutions, hence ring automorphisms that
commute with each other.  Every bracket of the four algebras is graded by
the shifts: each term c*z of [x, y] has shift_z = shift_x shift_y =
sigma.  So x.(y.v) = sigma(v) * shift_x(y.1) * x.1, and the residual
factors exactly as sigma(v) * R with

    R = shift_x(y.1)*x.1 - shift_y(x.1)*y.1 - sum over terms c*z of c*z.1.

R depends on the pair alone, so it is built once per pair.  Since sigma
is an automorphism and the polynomial ring is a domain, a pair passes on
every monomial when R = 0 and fails on every monomial otherwise.

Only the values on 1 depend on the spec.  Everything else is a plan,
cached by (algebra, generator tuple, test degree) in a bounded LRU cache
(MAX_PLANS): the zero polynomial, the test monomials, and per pair its
shift sigma and its bracket terms, so `bracket` runs only when a plan is
built.  A term c*z keeps z's position among the generators, or z itself
when z lies outside the window.  Building a plan checks the grading: a
bracket term whose shift is not its pair's raises ValueError.

Each request reads its integer forms (shift_x, and x.1's numerators and
denominator) from the spec's own table, `modfam.spec_forms(spec)`: the
generators' forms by position, from a list filled as pairs first look
them up (y, x, then the bracket terms, as evaluating through `act`
would), and a term outside the window by symbol.  So each x.1 is computed
once per spec, and the table goes with the spec; a lookup that raises
WindowExceeded stores nothing and marks the pair as skipped, and a
missing value raises MalformedData for the first symbol looked up.  A
pair's R is one integer map: `exactpoly._shift_mul` adds
shift_x(y.1)*x.1 and -shift_y(x.1)*y.1 into it over the denominator of
x.1 times that of y.1, and
`exactpoly._combine` adds the terms -c*z.1, raising the map's
denominator only when a term's does not divide it.  A pair with x.1 = 0
or y.1 = 0 and no bracket terms passes at once.  R is zero-tested as an
integer map, so a passing pair builds no polynomial.

The report records the generators, one outcome per pair (positions of x
and y, status), and a failing pair's (sigma, R's nonzero integer terms,
denominator).  Its `entries` is an `exactpoly._Grid`, which builds each
`ReportEntry` only when it is read; a failing pair's residual on v,
sigma(v) * R, is one `exactpoly._shift_mul` then.
The counts come from the pairs.  `format_report` formats each generator,
test monomial and PASS or SKIP line tail once per report, writes a PASS
or SKIP pair as one joined block, and writes a FAIL line from the
integer map of sigma(v) * R through `exactpoly.format_terms`.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Tuple

from .exactpoly import (
    Poly,
    _Grid,
    _combine,
    _shift_mul,
    _term_key,
    format_poly,
    format_terms,
    monomials_upto,
)
from .liealg import BasisSymbol, bracket, format_symbol
from .modfam import (
    MAX_WINDOW,
    MODULE_VARIABLES,
    AnySpec,
    WindowExceeded,
    generators,
    integer_argument,
    shift_of,
    spec_forms,
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


class _Entries(_Grid):
    """The report entries of one verify run, an `exactpoly._Grid` with one
    row per generator pair in report order.

    Holds the generators and one outcome per pair, (position of x,
    position of y, status), and for a FAIL pair its (sigma, R's nonzero
    terms as (exponents, int), denominator of R).
    """

    __slots__ = ("_gens", "_outcomes", "_failures", "_monos", "_zero")

    def __init__(self, gens, outcomes, failures, monos, zero):
        self._gens = gens
        self._outcomes = outcomes  # [(i, j, status)] per pair (gens[i], gens[j])
        self._failures = failures  # {pair index: (sigma, R terms, denominator)} for FAIL pairs
        self._monos = monos
        self._zero = zero

    def _row_count(self) -> int:
        return len(self._outcomes)

    def _residual_map(self, pair: int, j: int) -> Tuple[dict, int]:
        """sigma(v) * R for FAIL pair `pair` on monomial j, never zero, as its
        integer map (zeros included) and denominator."""
        sigma, r, scale = self._failures[pair]
        v = dict(self._monos[j].numerators)  # a monic monomial
        return _shift_mul(v, sigma, r), scale

    def _item(self, pair: int, j: int) -> ReportEntry:
        xi, yi, status = self._outcomes[pair]
        residual = self._zero
        if status == FAIL:
            ints, scale = self._residual_map(pair, j)
            residual = Poly._trusted(self._zero.variables, ints.items(), scale)
        return ReportEntry(self._gens[xi], self._gens[yi], self._monos[j], residual, status)

    def _counts(self) -> Tuple[int, int, int]:
        n = len(self._monos)
        skipped = n * sum(status == SKIP for _, _, status in self._outcomes)
        return n * len(self._failures), len(self) - skipped, skipped


def _tally(entries) -> Tuple[int, int, int]:
    """(failed, checked, skipped) entry counts: from pair counts for a verify
    run's own entries, by reading every entry of any other sequence."""
    if type(entries) is _Entries:
        return entries._counts()
    statuses = [e.status for e in entries]
    skipped = statuses.count(SKIP)
    return statuses.count(FAIL), len(statuses) - skipped, skipped


@dataclass(frozen=True)
class VerificationReport:
    algebra: str
    window: int
    test_degree: int
    entries: Sequence[ReportEntry]

    @property
    def passed(self) -> bool:
        return _tally(self.entries)[0] == 0

    @property
    def checked(self) -> int:
        return _tally(self.entries)[1]

    @property
    def skipped(self) -> int:
        return _tally(self.entries)[2]


# Plans kept at once.  A plan depends only on the algebra, the generator
# tuple and the test degree, so the keys are few: perfbench's verify slots
# use 7.  One plan at MAX_WINDOW and MAX_TEST_DEGREE (AffineVirasoroH4: 86
# generators, 3,655 pairs, 45 monomials) takes 0.24 MB (tracemalloc, with
# the brackets already computed), so a full cache stays under 4 MB.
MAX_PLANS = 16


@functools.lru_cache(maxsize=MAX_PLANS)
def _plan(algebra: str, gens: Tuple[BasisSymbol, ...], test_degree: int) -> tuple:
    """Everything verify needs that does not depend on the values on 1.

    Returns (zero, monomials, brackets).  `brackets` holds, per generator
    pair (x, y) in report order, that is in the order of
    itertools.combinations over the generators, the pair's shift sigma =
    shift_x∘shift_y and per bracket term c*z the triple (where z is
    looked up, numerator of -c, denominator of c): z's position in
    `gens` when z is one of them, z itself when it lies outside the
    window.  Raises ValueError when a term's shift is not sigma, since
    verify relies on every bracket being graded.  Equal shifts and
    entries are stored once, so a pair with a zero bracket costs one
    reference.
    """
    variables = MODULE_VARIABLES[algebra]
    position = {x: k for k, x in enumerate(gens)}
    shared: dict = {}

    def share(value):
        return shared.setdefault(value, value)

    brackets = []
    for x, y in combinations(gens, 2):
        sigma = share(tuple(map(add, shift_of(algebra, x), shift_of(algebra, y))))
        terms = []
        for z, c in bracket(algebra, x, y).terms:
            if shift_of(algebra, z) != sigma:
                names = (format_symbol(u, algebra) for u in (x, y, z))
                raise ValueError("bracket [{}, {}] is not graded: its term {} "
                                 "is not on the pair's shift".format(*names))
            terms.append((position.get(z, z), -c.numerator, c.denominator))
        brackets.append(share((sigma, tuple(terms))))
    monomials = tuple(monomials_upto(variables, test_degree))
    return Poly.zero(variables), monomials, tuple(brackets)


def verify_module(spec: AnySpec, window: int = 3, test_degree: int = 3) -> VerificationReport:
    """Check the axiom over pairs within `window` and monomials up to `test_degree`.

    Each pair's residual on v is sigma(v) * R, one R per pair (see the
    module docstring).  This is exact because every action is
    shift-then-multiply, shifts are additive substitutions, and every
    bracket is graded.  A pair whose values on 1 reach outside the spec's
    window is skipped on every monomial.

    Raises WindowExceeded only when the spec's own window is smaller
    than the requested one, and SpecInvalid for a window or test degree
    that is no integer or lies outside 1..MAX_WINDOW or 1..MAX_TEST_DEGREE.
    """
    window = integer_argument(window, "window", 1, MAX_WINDOW)
    test_degree = integer_argument(test_degree, "test degree", 1, MAX_TEST_DEGREE)
    forms = spec_forms(spec)  # the spec's integer forms, filled on first use
    algebra = forms.algebra
    gens = tuple(generators(spec, window))
    zero, monos, brackets = _plan(algebra, gens, test_degree)
    gen_forms = [None] * len(gens)  # the generators' forms by position, filled on first use

    def look(k: int):
        form = gen_forms[k] = forms[gens[k]]
        return form

    outcomes, failures = [], {}
    for (i, j), (sigma, terms) in zip(combinations(range(len(gens)), 2), brackets):
        try:  # y, x, then the bracket terms: the order act would look them up in
            y_off, y1, ly = gen_forms[j] or look(j)
            x_off, x1, lx = gen_forms[i] or look(i)
            if terms:
                z_forms = [(gen_forms[z] or look(z)) if type(z) is int else forms[z]
                           for z, _, _ in terms]
        except WindowExceeded:
            outcomes.append((i, j, SKIP))
            continue
        r = {}  # R times `scale`, on integers
        if x1 and y1:
            _shift_mul(y1, x_off, x1.items(), r)
            _shift_mul(x1, y_off, y1.items(), r, -1)
        elif not terms:  # both products vanish and there is nothing to subtract
            outcomes.append((i, j, PASS))
            continue
        scale = lx * ly
        if terms:
            parts = [(num, den * lz, z1) for (_, z1, lz), (_, num, den) in zip(z_forms, terms)]
            r, scale = _combine(parts, r, scale)
        if any(r.values()):
            failures[len(outcomes)] = (sigma, tuple((e, n) for e, n in r.items() if n), scale)
            outcomes.append((i, j, FAIL))
        else:
            outcomes.append((i, j, PASS))
    entries = _Entries(gens, outcomes, failures, monos, zero)
    return VerificationReport(algebra, _resolve_window(spec, window), test_degree, entries)


def format_report(report: VerificationReport) -> str:
    """One `PAIR x y POLY v RESIDUAL r STATUS` line per entry, then a summary.

    For a verify run's own entries, each symbol and test monomial is
    formatted once per report, and so is the text after the head,
    `v RESIDUAL 0 STATUS` per monomial, for each of PASS and SKIP: such a
    pair is one joined block.  A FAIL pair's lines are written from the
    integer maps of its residuals sigma(v) * R through
    `exactpoly.format_terms`, with no polynomial built.  Any other
    sequence of entries is formatted entry by entry.
    """
    symbol_text: dict = {}

    def symbol(x: BasisSymbol) -> str:
        text = symbol_text.get(x)
        if text is None:
            text = symbol_text[x] = format_symbol(x, report.algebra)
        return text

    entries = report.entries
    if type(entries) is _Entries:
        variables = entries._zero.variables
        names = [format_symbol(x, report.algebra) for x in entries._gens]
        mono_text = [format_poly(v) for v in entries._monos]
        after = {status: [f"{m} RESIDUAL 0 {status}" for m in mono_text] for status in (PASS, SKIP)}
        lines = []
        for pair, (i, j, status) in enumerate(entries._outcomes):
            head = f"PAIR {names[i]} {names[j]} POLY "
            if status != FAIL:
                lines.append(head + ("\n" + head).join(after[status]))
                continue
            for k, m in enumerate(mono_text):
                ints, scale = entries._residual_map(pair, k)
                terms = sorted(((e, n) for e, n in ints.items() if n), key=_term_key, reverse=True)
                lines.append(f"{head}{m} RESIDUAL {format_terms(variables, terms, scale)} {FAIL}")
    else:
        lines = [
            f"PAIR {symbol(e.x)} {symbol(e.y)} POLY {format_poly(e.test_poly)} "
            f"RESIDUAL {format_poly(e.residual)} {e.status}"
            for e in entries
        ]
    failed, checked, skipped = _tally(entries)
    lines.append(
        "SUMMARY pass={} checked={} skipped={}".format(
            "false" if failed else "true", checked, skipped
        )
    )
    return "\n".join(lines)
