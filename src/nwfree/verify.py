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
every monomial when R = 0 and fails on every monomial otherwise.  With
the shift differences D_x(v) = shift_x(v) - v, the product x.1*y.1 that
both leading terms hold cancels exactly, so verify builds

    R = D_x(y.1)*x.1 - D_y(x.1)*y.1 - sum over terms c*z of c*z.1,

and D_x(y.1) is zero whenever x's shift moves no variable that y.1
uses, so its product is never built.  D_x(y.1) is the finite Taylor
series of y.1 at x's offsets, the sum over a != 0 of off^a * T_a(y.1):
where y.1 has no term of degree two or more in the variables x's shift
moves, it is its part of order one and needs no shift, and where every
term of y.1 that the shift moves has degree one, it is one constant.

Only the values on 1 depend on the spec, and with them each pair's
outcome, which the spec's own per-window outcome table keeps (below).
Everything else is a plan, cached by (algebra, window, test degree) in a
bounded LRU cache (MAX_PLANS): the generators, the bracket terms outside
the window, the zero polynomial, the test monomials, per pair its shift
sigma and its bracket terms, and per generator a bit mask of the
variables its shift moves, so neither `bracket` nor a symbol is built
per request.  A term c*z keeps z's position in the generators followed by
the outside terms.  Building a plan checks the grading: a bracket term
whose shift is not its pair's raises ValueError.

A run that finds no stored outcomes for its window (below) reads its
integer forms (shift_x, x.1's numerators and denominator) from the
spec's own table, `modfam.spec_forms(spec)`, once and before its pair
loop, into one list by position: the generators in canonical order, as
`actions_of` and `classify` read them, then the outside terms in the
order the pairs first meet them, with the mask of the variables each
generator's x.1 uses.  So each x.1 is computed once per spec, and the
table goes with the spec; a missing value raises MalformedData for the
first symbol in that order, and an outside term beyond the spec's own
window raises WindowExceeded once per such run, is read as None and
marks every pair that needs it as skipped.  Beside those masks the run
takes each generator's Taylor terms of x.1 once, `exactpoly._taylor_terms`.
A pair's R is one integer map over the denominator of x.1 times that of
y.1.  For each side where x.1 is nonzero and x's offset mask meets the
mask of y.1, `exactpoly._taylor_sum` takes D_x(y.1) from y.1's terms and
`exactpoly._mul` adds x.1*D_x(y.1) into the map (and -y.1*D_y(x.1) the
same way), a scaled add when D_x(y.1) is constant; a side whose shift
fixes the value makes no call.  The pair loop takes a Taylor shift only
for a difference whose part of order one still uses a moved variable,
whole, on dense rows (`exactpoly._taylor_sum`); no benchmark request
makes one.
Then `exactpoly._combine` adds the terms -c*z.1, raising the map's
denominator only when a term's does not divide it.  A pair with neither
side acting and no bracket terms passes at once.  R is zero-tested as an
integer map, so a passing pair builds no polynomial.

A pair's outcome depends on the spec and the window alone, not on the
test degree.  So the first run at a window that does not raise stores
the outcomes in the spec's form table, `modfam._Forms.outcomes`, keyed
by the resolved window: one letter per pair (P, F or S) in the order of
`combinations(range(len(gens)), 2)`, and a failing pair's form (sigma,
R's nonzero numerators, denominator), in the shape of a `modfam._Forms`
entry.  A later run at that window, at any test degree, checks its
arguments, takes its plan and builds a new report over them, with no
form read and no pair loop; the table holds at most MAX_WINDOW entries
and goes with the spec.  A window whose FAIL forms hold more than
MAX_OUTCOME_TERMS terms of R in all stores nothing, so each run there
runs its pair loop.  Nothing modifies the stored maps.  Beside each
stored window the table keeps a `_FailText`, empty until a report at the
window is formatted (below).

The report records the generators and those outcomes; a pair index
gives the positions of x and y.  Its `entries` is an `exactpoly._Grid`,
which builds each `ReportEntry` only when it is read; a failing pair's
residual on v, sigma(v) * R, is `modfam._image` of that form then.
The counts come from the pairs.  `format_report` writes a PASS or SKIP
pair as `PAIR x y POLY v RESIDUAL 0 STATUS` per test monomial, and a FAIL
line from the integer map of sigma(v) * R through `exactpoly.format_terms`.
All but the FAIL lines, the SUMMARY line included, depend on the plan and
the report's string of pair letters alone.  So the plan's `_PlanText`
keeps, per letter string, the text around its FAIL pairs, beside the
generator names and monomial texts written with the plan, and a report
whose letters the plan has met writes only its FAIL lines between the
kept pieces, looping over its FAIL pairs only.  A report finds that
table through its entries, not through its fields, and uses it only when
its algebra is the plan's.  The table keeps at most MAX_PLAN_TEXT
characters, counting each letter string and its pieces; a string whose
pieces would pass that is written and not kept.  It is dropped with its
plan, so the plan cache holds at most MAX_PLANS of them, and a pickle or
copy of a report carries the names and monomial texts and no pieces.

A FAIL line's residual text depends on the spec, but only through the
pair's form, and on the test monomial and the plan's variables: not on
the report's algebra, which names x and y.  So the spec's `_FailText` for
the window keeps, per FAIL pair, the residual texts written so far, one
per test monomial in `monomials_upto` order, ascending graded-lex: the
monomials up to a degree are a prefix of those up to the next, so a
higher test degree writes only its new monomials' residuals, and a
degree met before writes none.  The texts go with the spec, at most
MAX_FAIL_TEXT characters per spec; a pair's texts that would pass that
are written and not kept, and a window the outcome table does not store,
as a pickle or copy of a report, keeps none.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from operator import add
from typing import Tuple

from .exactpoly import (
    Poly,
    _Grid,
    _combine,
    _mul,
    _support,
    _taylor_sum,
    _taylor_terms,
    _term_key,
    format_poly,
    format_terms,
    monomials_upto,
)
from .liealg import BasisSymbol, bracket, format_symbol
from .modfam import (
    MODULE_VARIABLES,
    AnySpec,
    WindowExceeded,
    _image,
    integer_argument,
    shift_of,
    spec_forms,
    _resolve_window,
    _symbols,
)

# Largest test degree: verify enumerates every monomial up to it.
MAX_TEST_DEGREE = 8

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

# A pair's outcome as one letter in the outcome string a spec stores.
_PASS, _FAIL, _SKIP = "P", "F", "S"
_STATUS = {_PASS: PASS, _FAIL: FAIL, _SKIP: SKIP}


def _positions(pair: int, n: int) -> Tuple[int, int]:
    """(i, j), the `pair`-th item of `combinations(range(n), 2)`."""
    k = n * (n - 1) // 2 - 1 - pair  # the pair's index counted from the last
    i = n - 2 - (isqrt(8 * k + 1) - 1) // 2
    return i, pair - i * (2 * n - i - 1) // 2 + i + 1


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


# Characters of FAIL residual text kept per spec, over all its windows.  A
# bound, not a tuning knob: the document table's 32 specs keep at most 2 Mi
# of them.  The largest FAIL and SKIP test report (AffineVirasoroH4 at
# MAX_WINDOW and MAX_TEST_DEGREE, 54 FAIL pairs) keeps 39,699, while
# FAIL-heavy action data at window 1 and test degree 8 would keep 297k.
MAX_FAIL_TEXT = 1 << 16


class _FailText(dict):
    """The residual texts one spec keeps for its FAIL pairs at one stored
    window, in its form table (`modfam._Forms.fail_text`), so that a
    repeated report writes no residual.

    Per FAIL pair index it holds the text of sigma(v) * R on each test
    monomial v written so far, in `monomials_upto` order.  That order is
    ascending graded-lex, so the monomials up to one degree are a prefix of
    those up to the next, and one list, grown when a higher test degree
    asks for more, serves every degree.  A text depends on the pair's form
    and the plan's variables alone, not on the report's algebra.  `spent`
    is the spec's `_Forms.fail_size`, a one-item list shared by all its
    windows: the characters they keep in all, at most MAX_FAIL_TEXT.
    """

    __slots__ = ("spent",)

    def __init__(self, spent: list):
        super().__init__()
        self.spent = spent


class _Entries(_Grid):
    """The report entries of one verify run, an `exactpoly._Grid` with one
    row per generator pair in report order.

    Holds the generators and the spec's stored outcomes for the window: one
    letter per pair in the order of `combinations(range(len(gens)), 2)`,
    whose pair index gives the positions of x and y, and for a FAIL pair
    its form (sigma, R's nonzero numerators as {exponents: int},
    denominator of R), in pair order.  Both are shared with the spec's
    form table, so they are only read.  `_text` is the `_PlanText` of the
    plan the entries were built from, whose pieces `format_report` reads
    and adds to.  `_kept` is the spec's `_FailText` for the window, whose
    residual texts `format_report` reads and adds to, or None to keep
    nothing, as for a window the outcome table does not store; a pickle or
    copy keeps nothing.
    """

    __slots__ = ("_gens", "_outcomes", "_failures", "_monos", "_zero", "_text", "_kept")

    def __init__(self, gens, outcomes, failures, monos, zero, text, kept=None):
        self._gens = gens
        self._outcomes = outcomes  # a str: _PASS, _FAIL or _SKIP per pair (gens[i], gens[j])
        self._failures = failures  # {pair index: form of sigma and R} for FAIL pairs
        self._monos = monos
        self._zero = zero
        self._text = text
        self._kept = kept

    def __reduce__(self):
        return type(self), (self._gens, self._outcomes, self._failures, self._monos, self._zero,
                            self._text)

    def _row_count(self) -> int:
        return len(self._outcomes)

    def _residual_map(self, pair: int, j: int) -> Tuple[dict, int]:
        """sigma(v) * R for FAIL pair `pair` on monomial j, never zero, as its
        integer map (zeros included) and denominator."""
        form = self._failures[pair]
        return _image(form, dict(self._monos[j].numerators)), form[2]

    def _residual_texts(self, pair: int) -> list:
        """The text of sigma(v) * R for FAIL pair `pair` on each test monomial,
        maybe followed by more: those `_kept` holds, then the rest written
        from `_residual_map` through `exactpoly.format_terms` and kept while
        the spec's texts stay within MAX_FAIL_TEXT characters."""
        kept = self._kept
        texts = [] if kept is None else kept.get(pair, [])
        if len(texts) >= len(self._monos):
            return texts
        variables = self._zero.variables
        new = []
        for j in range(len(texts), len(self._monos)):
            ints, scale = self._residual_map(pair, j)
            terms = sorted(((e, n) for e, n in ints.items() if n), key=_term_key, reverse=True)
            new.append(format_terms(variables, terms, scale))
        texts = texts + new
        size = sum(map(len, new))
        if kept is not None and kept.spent[0] + size <= MAX_FAIL_TEXT:
            kept[pair] = texts
            kept.spent[0] += size
        return texts

    def _item(self, pair: int, j: int) -> ReportEntry:
        xi, yi = _positions(pair, len(self._gens))
        status = _STATUS[self._outcomes[pair]]
        residual = self._zero
        if status == FAIL:
            ints, scale = self._residual_map(pair, j)
            residual = Poly._trusted(self._zero.variables, ints.items(), scale)
        return ReportEntry(self._gens[xi], self._gens[yi], self._monos[j], residual, status)

    def _counts(self) -> Tuple[int, int, int]:
        n = len(self._monos)
        skipped = n * self._outcomes.count(_SKIP)
        return n * len(self._failures), len(self) - skipped, skipped


def _tally(entries) -> Tuple[int, int, int]:
    """(failed, checked, skipped) entry counts: from pair counts for a verify
    run's own entries, by reading every entry of any other sequence."""
    if type(entries) is _Entries:
        return entries._counts()
    statuses = [e.status for e in entries]
    skipped = statuses.count(SKIP)
    return statuses.count(FAIL), len(statuses) - skipped, skipped


def _summary(counts: Tuple[int, int, int]) -> str:
    """A report's last line, from its `_tally` counts."""
    failed, checked, skipped = counts
    return f"SUMMARY pass={'false' if failed else 'true'} checked={checked} skipped={skipped}"


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


# Characters of report text kept per plan: 16 plans keep at most 4 Mi of
# them, beside the plans' own 4 MB.  A bound, not a tuning knob: one plan
# at MAX_WINDOW and MAX_TEST_DEGREE would keep 6.8 M characters per string
# of pair letters.
MAX_PLAN_TEXT = 1 << 18


class _PlanText:
    """The text `format_report` keeps for one plan, so that a report on the
    plan writes only its FAIL lines once its string of pair letters is met.

    It holds the generator names and test monomial texts, written when
    `_plan` builds the plan, and per string of pair letters the plan has
    met, that report's text around its FAIL pairs: one piece before each
    FAIL pair and one after the last.  A piece is the `PAIR x y POLY v
    RESIDUAL 0 STATUS` lines of the PASS and SKIP pairs between two FAIL
    pairs, joined by newlines, and may be empty; the last piece ends with
    the SUMMARY line, which the letters fix too.  None of this depends on
    the values on 1: only on the algebra, which names the symbols, on the
    plan's generators and test monomials, and on the letters.  `size`
    counts the kept pieces and their keys, and a string whose pieces would
    take it past MAX_PLAN_TEXT is written and not kept.  A pickle or copy
    keeps the names and monomial texts and no pieces.
    """

    __slots__ = ("algebra", "names", "monos", "pieces", "size")

    def __init__(self, algebra: str, names, monos):
        self.algebra, self.names, self.monos = algebra, names, monos
        self.pieces, self.size = {}, 0  # letters -> their pieces; characters kept in all

    def __reduce__(self):
        return type(self), (self.algebra, self.names, self.monos)

    def _write(self, entries: _Entries) -> list:
        """The pieces of the entries' letters, kept while the bound allows."""
        letters = entries._outcomes
        tails = {c: [f"{m} RESIDUAL 0 {_STATUS[c]}" for m in self.monos] for c in (_PASS, _SKIP)}
        pieces, blocks = [], []  # blocks: one per PASS or SKIP pair since the last FAIL pair
        for (x, y), letter in zip(combinations(self.names, 2), letters):
            if letter == _FAIL:
                pieces.append("\n".join(blocks))
                blocks = []
            else:
                head = f"PAIR {x} {y} POLY "
                blocks.append(head + ("\n" + head).join(tails[letter]))
        blocks.append(_summary(entries._counts()))
        pieces.append("\n".join(blocks))
        size = len(letters) + sum(map(len, pieces))
        if self.size + size <= MAX_PLAN_TEXT:
            self.pieces[letters] = pieces
            self.size += size
        return pieces


# Plans kept at once.  A plan depends only on the algebra, the window and
# the test degree, so the keys are few: perfbench's verify slots use 7.
# One plan at MAX_WINDOW and MAX_TEST_DEGREE (AffineVirasoroH4: 86
# generators, 3,655 pairs, 45 monomials) takes 0.24 MB (tracemalloc, with
# the brackets already computed), so a full cache stays under 4 MB; the
# offset masks add one small int per generator, 86 at most.
MAX_PLANS = 16


@functools.lru_cache(maxsize=MAX_PLANS)
def _plan(algebra: str, window: int, test_degree: int) -> tuple:
    """Everything verify needs that does not depend on the values on 1.

    Returns (gens, outside, zero, monomials, brackets, offmasks, text).  `gens`
    is the tuple of the algebra's generators up to loop index `window`, in
    canonical order, and `outside` the bracket terms beyond it, in the
    order the pairs first meet them.  `brackets` holds, per generator
    pair (x, y) in report order, that is in the order of
    itertools.combinations over `gens`, the pair's shift sigma =
    shift_x∘shift_y and per bracket term c*z the triple (z's position in
    `gens + outside`, numerator of -c, denominator of c).  Raises
    ValueError when a term's shift is not sigma, since verify relies on
    every bracket being graded.  Equal shifts and entries are stored
    once, so a pair with a zero bracket costs one reference.  `offmasks`
    holds, per generator in `gens`, the bit mask of its nonzero offsets
    (bit k for the k-th module variable).  `text` is the plan's
    `_PlanText`, with the generator names and test monomial texts written
    here, at little cost beside the brackets, and no pieces until a report
    on the plan is formatted; it is dropped with the plan.
    """
    variables = MODULE_VARIABLES[algebra]
    gens = _symbols(algebra, window)
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
            terms.append((position.setdefault(z, len(position)), -c.numerator, c.denominator))
        brackets.append(share((sigma, tuple(terms))))
    outside = tuple(position)[len(gens):]
    monomials = tuple(monomials_upto(variables, test_degree))
    offmasks = tuple(_support([shift_of(algebra, x)]) for x in gens)
    names = [format_symbol(x, algebra) for x in gens]
    text = _PlanText(algebra, names, [format_poly(v) for v in monomials])
    return gens, outside, Poly.zero(variables), monomials, tuple(brackets), offmasks, text


# R terms, over all its FAIL pairs, that the outcome table keeps for one
# window; a window whose FAIL forms hold more stores nothing and runs its
# pair loop on every request.  A bound, not a tuning knob: the FAIL and SKIP
# test reports hold at most 54 terms and the benchmark's at most 4, while
# FAIL-heavy action data can hold tens of thousands.
MAX_OUTCOME_TERMS = 256


def _pair_outcomes(forms, gens, outside, brackets, offmasks) -> tuple:
    """(outcomes, failures) of every pair of a plan's generators on the spec
    whose `_Forms` table is `forms`: one letter per pair in plan order, and
    per FAIL pair index its form (sigma, R's nonzero numerators, den)."""
    read = [forms[x] for x in gens]  # every form by position, in `gens + outside`
    used = [_support(numerators) for _, numerators, _ in read]  # the variables each x.1 uses
    taylor = [_taylor_terms(numerators) for _, numerators, _ in read]  # each x.1's Taylor terms
    for z in outside:
        try:
            read.append(forms[z])
        except WindowExceeded:  # beyond the spec's own window: its pairs are skipped
            read.append(None)
    outcomes, failures = [], {}
    exponents: dict = {}  # each stored exponent tuple once, as FAIL forms share them
    for (i, j), (sigma, terms) in zip(combinations(range(len(gens)), 2), brackets):
        (x_off, x1, lx), (y_off, y1, ly) = read[i], read[j]
        if terms:
            z_forms = [read[z] for z, _, _ in terms]
            if None in z_forms:
                outcomes.append(_SKIP)
                continue
        r = {}  # R times `scale`, on integers
        if x1 and offmasks[i] & used[j]:  # shift_x moves y.1
            _mul(x1, _taylor_sum(taylor[j], x_off).items(), r)
        if y1 and offmasks[j] & used[i]:  # shift_y moves x.1
            _mul(y1, _taylor_sum(taylor[i], y_off).items(), r, -1)
        if not r and not terms:  # no side acts and there is nothing to subtract
            outcomes.append(_PASS)
            continue
        scale = lx * ly
        if terms:
            parts = [(num, den * lz, z1) for (_, z1, lz), (_, num, den) in zip(z_forms, terms)]
            r, scale = _combine(parts, r, scale)
        if any(r.values()):
            r = {exponents.setdefault(e, e): n for e, n in r.items() if n}
            failures[len(outcomes)] = (sigma, r, scale)  # a form, as `_image` unpacks it
            outcomes.append(_FAIL)
        else:
            outcomes.append(_PASS)
    return "".join(outcomes), failures


def verify_module(spec: AnySpec, window: int = 3, test_degree: int = 3) -> VerificationReport:
    """Check the axiom over pairs within `window` and monomials up to `test_degree`.

    Each pair's residual on v is sigma(v) * R, one R per pair, built from
    the shift differences of its values (see the module docstring).  This
    is exact because every action is shift-then-multiply, shifts are
    additive substitutions, and every bracket is graded.  A pair whose
    values on 1 reach outside the spec's window is skipped on every
    monomial.  The pair outcomes are stored in the spec's form table by
    window, so a later run at that window, at any test degree, reads them.

    Raises WindowExceeded only when the spec's own window is smaller
    than the requested one, and SpecInvalid for a window or test degree
    that is no integer or lies outside 1..MAX_WINDOW or 1..MAX_TEST_DEGREE.
    """
    window = _resolve_window(spec, window, 1)
    test_degree = integer_argument(test_degree, "test degree", 1, MAX_TEST_DEGREE)
    forms = spec_forms(spec)  # the spec's integer forms, filled on first use
    algebra = forms.algebra
    gens, outside, zero, monos, brackets, offmasks, text = _plan(algebra, window, test_degree)
    known = forms.outcomes.get(window)
    if known is None:  # a run that raises stores nothing
        known = _pair_outcomes(forms, gens, outside, brackets, offmasks)
        if sum(len(form[1]) for form in known[1].values()) <= MAX_OUTCOME_TERMS:
            forms.outcomes[window] = known
            forms.fail_text[window] = _FailText(forms.fail_size)
    entries = _Entries(gens, *known, monos, zero, text, forms.fail_text.get(window))
    return VerificationReport(algebra, window, test_degree, entries)


def format_report(report: VerificationReport) -> str:
    """One `PAIR x y POLY v RESIDUAL r STATUS` line per entry, then a summary.

    For a verify run's own entries, every line but a FAIL pair's, the
    summary included, depends on the plan and the string of pair letters
    alone.  So the `_PlanText` of the plan the entries were built from
    keeps, keyed by that string, the pieces of text around its FAIL pairs,
    at most MAX_PLAN_TEXT characters per plan; a report whose letters the
    plan has met looks them up and loops over its FAIL pairs only, writing
    their lines between the pieces, and an empty piece leaves no blank
    line.  The table lives in the plan, so at most MAX_PLANS of them are
    reachable from the plan cache.  A report whose algebra is not the
    plan's, as `dataclasses.replace` can make one, names its symbols by its
    own algebra in a table of its own, dropped after the call.  A FAIL
    pair's residual texts are read from the spec's `_FailText` for the
    window, and those it does not hold yet are written from the integer
    maps of sigma(v) * R through `exactpoly.format_terms`, with no
    polynomial built, and kept there while MAX_FAIL_TEXT allows; since a
    text does not depend on the algebra, a replaced report reads them too,
    under its own names.  Any other sequence of entries is formatted entry
    by entry.
    """
    entries = report.entries
    algebra = report.algebra
    if type(entries) is not _Entries:
        lines = [f"PAIR {format_symbol(e.x, algebra)} {format_symbol(e.y, algebra)} "
                 f"POLY {format_poly(e.test_poly)} RESIDUAL {format_poly(e.residual)} {e.status}"
                 for e in entries]
        return "\n".join([*lines, _summary(_tally(entries))])
    text = entries._text
    if text.algebra != algebra:
        text = _PlanText(algebra, [format_symbol(x, algebra) for x in entries._gens], text.monos)
    pieces = text.pieces.get(entries._outcomes) or text._write(entries)
    names = text.names
    lines = [pieces[0]]
    for pair, piece in zip(entries._failures, pieces[1:]):  # FAIL pairs, in pair order
        i, j = _positions(pair, len(names))
        head = f"PAIR {names[i]} {names[j]} POLY "
        residuals = entries._residual_texts(pair)
        lines += [f"{head}{m} RESIDUAL {r} {FAIL}" for m, r in zip(text.monos, residuals)]
        lines.append(piece)
    return "\n".join(filter(None, lines))  # an empty piece leaves no blank line
