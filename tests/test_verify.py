import copy
import dataclasses
import itertools
import pickle
import re
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    apply_shift_reference,
    assert_reads_as_tuple,
    corrupted_data,
    corrupted_fixtures,
    format_report_reference,
    fail_heavy_document,
    kept_characters,
    kept_residual_characters,
    pieces_reference,
    random_specs,
    sample_specs,
    verify_module_reference,
    with_assignment,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_scripts import _report_bytes, fail_and_skip_cases, load_script

import nwfree.exactpoly
import nwfree.modfam
import nwfree.verify
from nwfree.exactpoly import Poly, degree_in, monomials_upto
from nwfree.liealg import (
    AFF_VIR, AFFINE_H4, H4, VIR00, D, K, P, Q, R, S, bracket, format_symbol, sym,
)
from nwfree.modfam import (
    MAX_WINDOW,
    MODULE_VARIABLES,
    ActionData,
    MalformedData,
    SpecInvalid,
    Vir00Spec,
    WindowExceeded,
    act,
    actions_of,
    affvir,
    algebra_of,
    generators,
    mab,
    mbh,
    mg0,
    mhb,
    mtilde,
    mtilde_f,
    shift_of,
    spec_forms,
    value_on_one,
)
from nwfree.specdsl import parse_input
from nwfree.verify import (
    FAIL,
    MAX_OUTCOME_TERMS,
    MAX_PLAN_TEXT,
    MAX_TEST_DEGREE,
    PASS,
    SKIP,
    format_report,
    verify_module,
)

S_POLY = Poly.var(("s",), "s")


def entries_for(report, x, y):
    return [e for e in report.entries if (e.x, e.y) == (x, y)]


def test_h4_suite_shape_and_pass():
    report = verify_module(mhb(1, 0, 1), window=3, test_degree=3)
    assert report.passed
    assert len(report.entries) == 6 * 4
    assert report.checked == 24 and report.skipped == 0
    assert all(e.status == PASS for e in report.entries)
    assert report.window == 0


def test_affine_suite_passes_with_central_pair():
    spec = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    report = verify_module(spec, window=1, test_degree=2)
    assert report.passed
    central = entries_for(report, sym("p", 1), sym("q", -1))
    assert central and all(e.status == PASS for e in central)
    n = len([e for e in report.entries])
    gens = 4 * 3 + 2
    assert n == gens * (gens - 1) // 2 * 6


def test_corrupted_r_fails_on_pq():
    data = with_assignment(actions_of(mhb(1, 0, 1)), R, Poly.zero(("s",)))
    report = verify_module(data, window=1, test_degree=2)
    assert not report.passed
    bad = entries_for(report, P, Q)
    assert all(e.status == FAIL for e in bad)
    for e in bad:
        # residual is -a1*b*v once r.1 is zeroed
        assert e.residual == -e.test_poly


def test_determinism():
    spec = mtilde(mhb(2, -1, 3), Fraction(1, 2), {1: 1, -1: 2}, window=1)
    a = verify_module(spec, window=1, test_degree=2)
    b = verify_module(spec, window=1, test_degree=2)
    assert a == b
    assert format_report(a) == format_report(b)


def test_monotonicity():
    spec = mtilde(mg0(S_POLY), 2, {k: k for k in range(-2, 3)}, window=2)
    small = verify_module(spec, window=1, test_degree=1)
    large = verify_module(spec, window=2, test_degree=2)
    big = {(e.x, e.y, e.test_poly): e.residual for e in large.entries}
    assert small.passed and large.passed
    for e in small.entries:
        key = (e.x, e.y, e.test_poly)
        assert key in big and big[key] == e.residual


def test_skip_records_out_of_window_brackets():
    spec = mtilde(mhb(1, 0, 1), 2, {1: 1, -1: 0}, window=1)
    report = verify_module(spec, window=1, test_degree=1)
    assert report.passed
    skipped = entries_for(report, sym("p", 1), sym("q", 1))
    assert skipped and all(e.status == SKIP for e in skipped)
    assert report.skipped >= len(skipped)
    text = format_report(report)
    assert " SKIP" in text and "pass=true" in text
    assert f"skipped={report.skipped}" in text


def test_window_larger_than_spec_errors():
    spec = mtilde(mhb(1, 0, 1), 2, {1: 1, -1: 0}, window=1)
    with pytest.raises(WindowExceeded):
        verify_module(spec, window=2, test_degree=1)
    with pytest.raises(SpecInvalid):
        verify_module(spec, window=0, test_degree=1)
    for value, shown in ((1.5, "1.5"), ("x", "'x'")):
        with pytest.raises(SpecInvalid, match=f"^window must be an integer, got {shown}$"):
            verify_module(spec, window=value, test_degree=1)
        with pytest.raises(SpecInvalid, match=f"^test degree must be an integer, got {shown}$"):
            verify_module(spec, window=1, test_degree=value)


def test_vir00_inconsistent_mu_fails_on_d1_d2():
    lam = Fraction(2)
    spec = Vir00Spec(lam, Poly.var(("w0",), "w0"))
    data = actions_of(spec, window=3)
    d0 = Poly.var(("d0", "w0"), "d0")
    w0 = Poly.var(("d0", "w0"), "w0")
    one = Poly.one(("d0", "w0"))
    # d_2 rebuilt as if f were w0+1: breaks the forced mu pattern
    tampered = with_assignment(data, sym("dvir", 2), lam ** 2 * (d0 + 2 * (w0 + one)))
    report = verify_module(tampered, window=2, test_degree=1)
    assert not report.passed
    bad = entries_for(report, sym("dvir", 1), sym("dvir", 2))
    assert any(e.status == FAIL for e in bad)


@pytest.mark.parametrize("name,spec", sample_specs())
def test_corruption_sensitivity(name, spec):
    report = verify_module(corrupted_data(spec), window=1, test_degree=2)
    assert not report.passed, name
    assert any(e.status == FAIL for e in report.entries)


def test_report_format_lines():
    report = verify_module(mg0(2), window=1, test_degree=1)
    text = format_report(report)
    lines = text.splitlines()
    assert lines[-1].startswith("SUMMARY pass=true checked=")
    for line in lines[:-1]:
        parts = line.split(" ")
        assert parts[0] == "PAIR" and parts[3] == "POLY" and parts[5] == "RESIDUAL"
        assert parts[7] in (PASS, FAIL, SKIP)


def axiom_residual(spec, algebra, x, y, v):
    """The residual composed through `act`, the definition verify_module factors."""
    return (
        act(spec, x, act(spec, y, v))
        - act(spec, y, act(spec, x, v))
        - act(spec, bracket(algebra, x, y), v)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sample_specs()),
    st.booleans(),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
)
def test_factored_residuals_match_act_oracle(named, corrupt, window, test_degree):
    _, spec = named
    limit = spec.window
    window = min(window, limit) if limit else window
    if corrupt:
        spec = corrupted_data(spec, window)
    report = verify_module(spec, window=window, test_degree=test_degree)
    assert report.entries
    for e in report.entries:
        try:
            expected = axiom_residual(spec, report.algebra, e.x, e.y, e.test_poly)
        except WindowExceeded:
            assert e.status == SKIP and e.residual.is_zero()
            continue
        assert e.residual == expected
        assert e.status == (PASS if expected.is_zero() else FAIL)


# ------------------------------------------------ per-pair reference verify


def assert_matches_reference(spec, window, test_degree):
    want = verify_module_reference(spec, window, test_degree)
    got = verify_module(spec, window=window, test_degree=test_degree)
    assert got == want
    assert [repr(e) for e in got.entries] == [repr(e) for e in want.entries]
    assert format_report(got) == format_report_reference(want)
    return got


def window_two_specs():
    """Loop families at window 2, one per algebra with a window."""
    return [
        ("MTildeAlphaBeta-w2", mtilde(mg0(S_POLY), 2, {k: k for k in range(-2, 3)}, window=2)),
        ("MTildeF-w2", mtilde_f({1: S_POLY ** 2, -1: S_POLY, 2: S_POLY, -2: 3 * S_POLY}, window=2)),
        ("AffVir-w2", affvir(mbh(2, -1, 3), alpha=Fraction(1, 2), lam=3, window=2)),
        ("Vir00-f2", Vir00Spec(Fraction(1, 3), Poly.var(("w0",), "w0") ** 2)),
    ]


REFERENCE_SPECS = sample_specs() + window_two_specs()


@pytest.mark.parametrize("name,spec", REFERENCE_SPECS, ids=[n for n, _ in REFERENCE_SPECS])
def test_verify_matches_reference(name, spec):
    skipped = 0
    for window in (1, 2):
        limit = spec.window
        if limit and window > limit:
            with pytest.raises(WindowExceeded):
                verify_module_reference(spec, window, 1)
            with pytest.raises(WindowExceeded):
                verify_module(spec, window=window, test_degree=1)
            continue
        for test_degree in (1, 2, 3):
            for target in (spec, corrupted_data(spec, window)):
                report = assert_matches_reference(target, window, test_degree)
                skipped += report.skipped
    if name.startswith(("MTilde", "AffVir")):
        assert skipped, name  # brackets leaving the loop window are covered


def test_verify_matches_reference_on_corrupted_fixtures():
    failed = 0
    for _, data in corrupted_fixtures():
        report = assert_matches_reference(data, max(data.window, 1), 2)
        failed += not report.passed
    assert failed == len(corrupted_fixtures())


@settings(max_examples=60, deadline=None)
@given(
    random_specs(),
    st.booleans(),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
)
def test_verify_matches_reference_on_random_specs(spec, corrupt, window, test_degree):
    # every family at windows 1-2, and its action data with one slot bumped
    limit = spec.window
    window = min(window, limit) if limit else window
    target = corrupted_data(spec, window) if corrupt else spec
    want = verify_module_reference(target, window, test_degree)
    got = verify_module(target, window=window, test_degree=test_degree)
    assert got.entries == want.entries
    assert format_report(got) == format_report(want) == format_report_reference(want)


def rational_polys(variables):
    """Polynomials of up to three terms whose coefficient denominators all differ."""
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(variables))
    nums = st.integers(min_value=-9, max_value=9).filter(bool)
    dens = st.sampled_from([1, 2, 3, 5, 7, 12])
    term = st.tuples(exps, nums, dens)
    terms = st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[2])
    return terms.map(lambda ts: Poly(variables, [(e, Fraction(n, d)) for e, n, d in ts]))


@st.composite
def rational_action_data(draw, specs=REFERENCE_SPECS, central=None, min_window=1):
    """(window, action data of a reference spec with one value on 1 made rational).

    With `central` unset, k takes the value on half the draws of an algebra
    that has k; otherwise the symbol is drawn.  At window 2 the central
    cocycle (a^3-a)/12 of Vir00 and AffineVirasoroH4 is 1/2, so a nonzero
    k brings its denominator into the common denominator.
    """
    _, spec = draw(st.sampled_from(specs))
    window = draw(st.integers(min_value=min_window, max_value=spec.window or 2))
    data = actions_of(spec, window)
    symbols = [x for x, _ in data.assignments]
    if central is None:
        central = K in symbols and draw(st.booleans())
    symbol = K if central else draw(st.sampled_from(symbols))
    value = draw(rational_polys(MODULE_VARIABLES[data.algebra]))
    return window, with_assignment(data, symbol, value)


@settings(max_examples=60, deadline=None)
@given(rational_action_data(), st.integers(min_value=1, max_value=2))
def test_verify_matches_reference_on_rational_values(case, test_degree):
    window, data = case
    assert_matches_reference(data, window, test_degree)


def nonlinear_polys(variables):
    """Polynomials in s and d of degree up to 4, of up to four terms."""
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * len(variables)).filter(
        lambda e: sum(e) <= 4)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.lists(st.tuples(exps, coeff), min_size=1, max_size=4).map(
        lambda ts: Poly(variables, ts))


LOOP_SPECS = [(n, s) for n, s in REFERENCE_SPECS if algebra_of(s) in (AFFINE_H4, AFF_VIR)]


@st.composite
def nonlinear_pair_data(draw):
    """(window, action data of an AffineH4 or AffineVirasoroH4 reference spec
    at window 1 or 2 with p@1 and q@-1 made nonlinear): the shift of each,
    (-1, -1) and (1, 1), moves both variables of the other's value."""
    _, spec = draw(st.sampled_from(LOOP_SPECS))
    window = draw(st.integers(min_value=1, max_value=spec.window or 2))
    data = actions_of(spec, window)
    for symbol in (sym("p", 1), sym("q", -1)):
        data = with_assignment(data, symbol, draw(nonlinear_polys(MODULE_VARIABLES[data.algebra])))
    return window, data


@settings(max_examples=40, deadline=None)
@given(nonlinear_pair_data(), st.integers(min_value=1, max_value=2))
def test_nonlinear_values_on_both_sides_of_a_pair_verify_as_reference(case, test_degree):
    # the Taylor terms of order two and up, which no linear value reaches
    window, data = case
    assert_matches_reference(data, window, test_degree)


CENTRAL_SPECS = [
    (n, s) for n, s in REFERENCE_SPECS
    if algebra_of(s) in (VIR00, AFF_VIR) and s.window in (0, 2)
]


@settings(max_examples=20, deadline=None)
@given(rational_action_data(CENTRAL_SPECS, central=True, min_window=2))
def test_central_value_with_cocycle_denominator_fails_as_reference(case):
    window, data = case
    # two drawn terms can cancel, as 6/12 and -1/2 do; a zero k is no central value
    assume(not data.value(K).is_zero())
    report = assert_matches_reference(data, window, 2)
    assert not report.passed  # k acts by a nonzero value, which the brackets forbid


@contextmanager
def k_shifted():
    """Give k a nonzero shift in the plans verify builds, on a cleared plan cache.

    Every bracket here is graded by the shifts; with k moved off its shift,
    the brackets that hold k are not, which verify refuses.
    """

    def shift(algebra, symbol):
        offsets = shift_of(algebra, symbol)
        return (1,) + offsets[1:] if symbol == K else offsets

    nwfree.verify._plan.cache_clear()
    try:
        with mock.patch.object(nwfree.verify, "shift_of", shift):
            yield
    finally:
        nwfree.verify._plan.cache_clear()


def test_ungraded_bracket_is_refused_naming_its_pair():
    # [p@-1, q@1] = r - k is the first pair whose bracket holds k
    data = actions_of(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1))
    with k_shifted(), pytest.raises(ValueError, match=re.escape("[p@-1, q@1]")) as err:
        verify_module(data, window=1, test_degree=1)
    assert "term k" in str(err.value)


LOOPS = range(-MAX_WINDOW, MAX_WINDOW + 1)


@pytest.mark.parametrize(
    "spec, pairs",
    [
        (mhb(1, 0, 1), 6),
        (mtilde(mhb(1, 0, 1), 2, dict.fromkeys(LOOPS, 0), window=MAX_WINDOW), 2415),
        (Vir00Spec(Fraction(2), Poly.var(("w0",), "w0")), 595),
        (affvir(mhb(1, 0, 1), alpha=2, lam=3, window=MAX_WINDOW), 3655),
    ],
    ids=[H4, AFFINE_H4, VIR00, AFF_VIR],
)
def test_every_bracket_is_graded_at_max_window(spec, pairs):
    algebra = algebra_of(spec)
    gens, outside, _, _, brackets, offmasks, _ = nwfree.verify._plan.__wrapped__(algebra, MAX_WINDOW, 1)
    assert gens == tuple(generators(spec, MAX_WINDOW))
    assert len(brackets) == pairs
    # bit k of a generator's mask is set exactly when its shift moves variable k
    assert offmasks == tuple(sum(1 << k for k, off in enumerate(shift_of(algebra, x)) if off)
                             for x in gens)
    # every term is a position in gens + outside, and no symbol is in both
    assert not set(outside) & set(gens)
    assert all(z < len(gens) + len(outside) for _, terms in brackets for z, _, _ in terms)


def test_each_symbol_beyond_the_spec_window_raises_once_per_request():
    # at window 1 the pairs meet eight terms that a window-1 spec lacks,
    # p@±2, q@±2, r@±2 and s@±2, on 14 SKIP pairs
    spec = affvir(mhb(1, 0, 1), 2, 3, 1)
    int_form = nwfree.modfam._int_form  # the one entry every form table builds through
    raised = []

    def counted(owner, symbol):
        try:
            return int_form(owner, symbol)
        except WindowExceeded:
            raised.append(symbol)
            raise

    with mock.patch.object(nwfree.modfam, "_int_form", counted):
        report = verify_module(spec, 1, 1)
    assert len(raised) == len(set(raised)) == 8
    assert report.skipped == 14 * 3  # on the test monomials 1, s and d


def _affine_with_q1_on_d():
    # MTildeAlphaBeta data with q@1 = 2d: its FAIL pairs have one or both shifts acting
    data = actions_of(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0, 2: 1, -2: 3}, window=2))
    return with_assignment(data, sym("q", 1), 2 * Poly.var(("s", "d"), "d"))


def _affine_with_dense_p():
    # window-1 AffineH4 data with p = (s+d+1)^12, every other value s, k = 0 and d = d
    sd = ("s", "d")
    s_var, d_var = Poly.var(sd, "s"), Poly.var(sd, "d")
    values = {x: s_var for x in generators(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1))}
    values.update({P: (s_var + d_var + Poly.one(sd)) ** 12, K: Poly.zero(sd), D: d_var})
    return ActionData(AFFINE_H4, 1, tuple(values.items()))


# The shifts of the dense case: p.1 has terms of degree two and more in s and d,
# so each side that moves them takes one `_taylor_shift`, at its offsets, except
# p@-1 (-1, 1) and q@1 (1, -1), which fix s + d and so p.1; k.1 = 0 takes none.
_DENSE_SHIFTS = [(-1, -1), (1, 1), (1, 0), (0, 1), (0, -1), (0, 1), (0, -1)]


@pytest.mark.parametrize(
    "spec, window, in_verify",
    [
        (mhb(2, -1, 3), 1, []),
        (mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0, 2: 1, -2: 3}, window=2), 2, []),
        (_affine_with_q1_on_d(), 2, []),
        (affvir(mhb(1, 0, 1), 2, 3, 1), 1, []),
        (_affine_with_dense_p(), 1, _DENSE_SHIFTS),
    ],
    ids=["h4", "affine", "affine-failing", "affvir", "affine-dense"],
)
def test_shifts_run_only_where_an_offset_meets_a_used_variable(spec, window, in_verify):
    for x in generators(spec):  # fill the spec's forms first, with no verify outcome stored
        spec.on_one(x)
    taylor_sum, taylor_shift = nwfree.verify._taylor_sum, nwfree.exactpoly._taylor_shift
    calls = []  # per shift difference evaluated: is it nonzero?
    shifts = []  # every Taylor shift, of verify or of its report's lines

    def counted(terms, offsets):
        out = taylor_sum(terms, offsets)
        calls.append(out != {})
        return out

    def shifted(ints, offsets):
        shifts.append(offsets)
        return taylor_shift(ints, offsets)

    with mock.patch.object(nwfree.verify, "_taylor_sum", counted), \
            mock.patch.object(nwfree.modfam, "_taylor_shift", shifted), \
            mock.patch.object(nwfree.exactpoly, "_taylor_shift", shifted):
        report = verify_module(spec, window, 1)
        verify_shifts = list(shifts)
        format_report(report)
    # the pair loop takes a Taylor shift only for a difference whose part of
    # order one uses a moved variable; the report takes one per FAIL line
    assert verify_shifts == in_verify
    assert (shifts[len(in_verify):] == []) == report.passed
    # counted from the values alone: per pair with no term beyond the spec's
    # window and two nonzero values, each side whose shift moves a variable
    # the other value uses
    algebra = algebra_of(spec)
    variables = MODULE_VARIABLES[algebra]
    one = Poly.one(variables)

    def value(x):
        try:
            return act(spec, x, one)
        except WindowExceeded:
            return None

    moved, full_pairs = [], 0  # per acting side: does its shift move the value?
    for x, y in itertools.combinations(generators(spec, window), 2):
        if None in [value(z) for z, _ in bracket(algebra, x, y).terms]:
            continue
        vx, vy = value(x), value(y)
        if vx.is_zero() or vy.is_zero():
            continue
        full_pairs += 1
        for a, v in ((x, vy), (y, vx)):
            offsets = shift_of(algebra, a)
            if any(off and degree_in(v, name) > 0 for name, off in zip(variables, offsets)):
                moved.append(apply_shift_reference(offsets, v) != v)
    # each such side is one difference, nonzero where the shift moves the value:
    # no product takes one, and fewer sides act than pairs have two nonzero values
    assert calls == moved and len(moved) < full_pairs
    # only in the dense case does a shift that moves the value's variables fix it
    assert all(moved) == (in_verify == [])


@pytest.mark.parametrize(
    "spec, dropped, symbol",
    [
        (mhb(1, 0, 1), {R}, "r"),
        # r (r@0) comes before k in canonical order
        (mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1), {R, K}, "r"),
        # p comes before q in canonical order, though the first pair, (p, q), needs q first
        (mhb(1, 0, 1), {P, Q}, "p"),
    ],
    ids=["h4", "affine-two-terms", "h4-p-and-q"],
)
def test_missing_value_raises_as_reference(spec, dropped, symbol):
    data = actions_of(spec)
    kept = tuple((x, v) for x, v in data.assignments if x not in dropped)
    missing = ActionData(data.algebra, data.window, kept)
    errors = []
    for run in (verify_module_reference, verify_module):
        with pytest.raises(MalformedData) as err:
            run(missing, 1, 2)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == f"no assignment for {symbol}"


@pytest.mark.parametrize("name, spec", sample_specs(), ids=[n for n, _ in sample_specs()])
def test_data_missing_any_generator_of_the_window_raises(name, spec):
    data = actions_of(spec, 1)
    for x in generators(spec, 1):
        kept = tuple((y, v) for y, v in data.assignments if y != x)
        with pytest.raises(MalformedData) as err:
            verify_module(ActionData(data.algebra, data.window, kept), window=1, test_degree=1)
        # named as the algebra writes it: w, not s, in Vir00
        assert str(err.value) == f"no assignment for {format_symbol(x, data.algebra)}"


def test_data_missing_generators_names_the_first_in_canonical_order():
    # the generators are read in canonical order, p, q, r, s, before any pair
    prefixes = (({P: S_POLY}, "q"), ({P: S_POLY, Q: 1}, "r"), ({P: S_POLY, Q: 1, R: -1}, "s"))
    for kept, first in prefixes:
        with pytest.raises(MalformedData) as err:
            verify_module(ActionData(H4, 0, kept), window=1, test_degree=1)
        assert str(err.value) == f"no assignment for {first}"
    # p@-1, p@0, p@1 and q@-1 only: q@0 is the first generator left unassigned
    data = actions_of(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1))
    with pytest.raises(MalformedData) as err:
        verify_module(ActionData(AFFINE_H4, 1, data.assignments[:4]), window=1, test_degree=1)
    assert str(err.value) == "no assignment for q"  # q@0 prints as q


def test_warm_and_interleaved_plans_match_reference():
    nwfree.verify._plan.cache_clear()
    affine = [mtilde(mab(a, a + 1), a + 1, {1: a, -1: -a}, window=1) for a in (2, 3)]
    h4 = [mhb(1, 0, 1), mab(2, 3), actions_of(mbh(2, -1, 3))]
    for spec in (affine[0], affine[0], h4[0], affine[1], h4[1], h4[2]):
        assert_matches_reference(spec, 1, 2)
    assert_matches_reference(corrupted_data(affine[1], 1), 1, 2)
    info = nwfree.verify._plan.cache_info()
    assert info.misses == 2 and info.hits == 5  # one plan per shape, warm after


def test_verify_leaves_value_cache_unchanged():
    value_on_one.cache_clear()
    for a in range(1, 30):
        verify_module(mab(a, a + 1), window=1, test_degree=1)
        verify_module(mtilde(mab(a, 2), a + 1, {1: a, -1: 0}, window=1), window=1, test_degree=1)
    info = value_on_one.cache_info()
    assert info.currsize == 0 and info.hits == info.misses == 0


# ------------------------------------------------------ the entries view


def mixed_report():
    """(data, window, test_degree) whose report has FAIL and SKIP pairs."""
    spec = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    return with_assignment(actions_of(spec), sym("s", 1), S_POLY), 1, 2


def test_entries_view_reads_as_the_reference_tuple():
    data, window, test_degree = mixed_report()
    got = verify_module(data, window=window, test_degree=test_degree)
    want = verify_module_reference(data, window, test_degree)
    entries = want.entries
    fail_pairs = {(e.x, e.y) for e in entries if e.status == FAIL}
    assert {e.status for e in entries} == {PASS, FAIL, SKIP}
    assert all(e.status == FAIL for e in entries if (e.x, e.y) in fail_pairs)
    assert_reads_as_tuple(got.entries, entries)
    assert got == want and want == got
    assert hash(got) == hash(want) and repr(got) == repr(want)
    again = pickle.loads(pickle.dumps(got))
    assert again == want and hash(again) == hash(want)
    assert type(again.entries) is type(got.entries)
    assert format_report(again) == format_report(got) == format_report_reference(want)
    assert (got.passed, got.checked, got.skipped) == (want.passed, want.checked, want.skipped)


def test_counts_length_and_text_build_no_entry(monkeypatch):
    # perfbench/check.py reads len(entries) and passed on every verify reply
    data, window, test_degree = mixed_report()
    got = verify_module(data, window=window, test_degree=test_degree)
    want = verify_module_reference(data, window, test_degree)

    def unread(self, pair, j):
        raise AssertionError("an entry was built")

    monkeypatch.setattr(type(got.entries), "_item", unread)
    assert len(got.entries) == len(want.entries)
    assert (got.passed, got.checked, got.skipped) == (want.passed, want.checked, want.skipped)
    assert format_report(got) == format_report_reference(want)


def test_replaced_entries_are_counted_by_reading_them():
    # the two answers perfbench's selfcheck.py plants in a verify reply
    data, window, test_degree = mixed_report()
    for target in (data, mhb(1, 0, 1)):
        report = verify_module(target, window=window, test_degree=test_degree)
        assert report.entries[-1].status != SKIP
        dropped = dataclasses.replace(report, entries=report.entries[:-1])
        assert dropped.checked == report.checked - 1 and dropped.skipped == report.skipped
        flipped = FAIL if report.passed else PASS
        entries = tuple(dataclasses.replace(e, status=flipped) for e in report.entries)
        planted = dataclasses.replace(report, entries=entries)
        assert planted.passed != report.passed
        assert planted.checked == len(entries) and planted.skipped == 0
        assert format_report(planted) == format_report_reference(planted)


# ------------------------------------------------------ the outcome table


def test_an_outcome_table_hit_reads_as_a_fresh_spec():
    """The golden grid specs and the FAIL and SKIP cases behind
    verify_fail_report_digests.txt: once a run at another test degree has
    stored the window's outcomes, each hit gives the report text and entry
    reprs of a fresh copy, also after every entry has been read and
    formatted, runs no pair loop and leaves the stored outcomes as they were."""
    cases = [(name, spec, 2, 3) for name, spec in load_script("run_families").standard_grid(2)]
    cases += list(fail_and_skip_cases())
    assert len(cases) == 14 + 25
    for name, target, window, test_degree in cases:
        other = 1 if test_degree > 1 else 2
        want = _report_bytes(copy.copy(target), window, test_degree)
        want_other = _report_bytes(copy.copy(target), window, other)
        table = spec_forms(target).outcomes
        assert table == {}, name
        assert _report_bytes(target, window, other) == want_other, name
        assert len(table) == 1, name
        (stored,) = table.values()
        frozen = pickle.dumps(stored)
        with mock.patch.object(nwfree.verify, "_pair_outcomes", side_effect=AssertionError):
            for degree, expected in ((test_degree, want), (test_degree, want), (other, want_other)):
                assert _report_bytes(target, window, degree) == expected, name
        assert list(table.values()) == [stored] and pickle.dumps(stored) == frozen, name


def _raises_twice_storing_nothing(target, window, test_degree, error):
    table = dict(spec_forms(target).outcomes)
    messages = []
    for _ in range(2):
        with pytest.raises(error) as err:
            verify_module(target, window, test_degree)
        messages.append(str(err.value))
        assert spec_forms(target).outcomes == table
    assert messages[0] == messages[1]


def test_a_run_that_raises_stores_no_outcome():
    spec = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    data = actions_of(spec)
    partial = ActionData(AFFINE_H4, 1, data.assignments[:4])
    _raises_twice_storing_nothing(partial, 1, 1, MalformedData)  # after some forms are read
    assert spec_forms(partial).outcomes == {}
    faults = [
        (2, 1, WindowExceeded),
        (1, 0, SpecInvalid),
        (1, MAX_TEST_DEGREE + 1, SpecInvalid),
        (MAX_WINDOW + 1, 1, SpecInvalid),
        (1.5, 1, SpecInvalid),
    ]
    for target in (spec, data):
        for stored in (False, True):
            if stored:
                verify_module(target, 1, 2)
            for fault in faults:
                _raises_twice_storing_nothing(target, *fault)
            assert list(spec_forms(target).outcomes) == ([1] if stored else [])


@pytest.mark.parametrize(
    "spec, keys",
    [
        (mhb(1, 0, 1), [0]),  # H4 has no loop directions: every window resolves to 0
        (Vir00Spec(Fraction(2), Poly.var(("d0", "w0"), "w0")), list(range(1, MAX_WINDOW + 1))),
        (affvir(mhb(1, 0, 1), 2, 3, 3), [1, 2, 3]),
    ],
    ids=["h4", "vir00", "affvir"],
)
def test_the_outcome_table_keeps_one_entry_per_window(spec, keys):
    limit = spec.window or MAX_WINDOW  # 0 on H4 and None on Vir00, which take any window
    for _ in range(2):
        for window in range(1, limit + 1):
            for test_degree in (1, 2):
                verify_module(spec, window, test_degree)
    assert sorted(spec_forms(spec).outcomes) == keys


def test_a_window_past_the_outcome_bound_stores_nothing_and_verifies_twice():
    # at window 1 the FAIL forms hold 173 terms of R, at window 2 they hold 530
    data = copy.copy(parse_input(fail_heavy_document()))  # not the document table's
    table = spec_forms(data).outcomes
    for window, stored in ((1, True), (2, False)):
        want = format_report_reference(verify_module_reference(data, window, 1))
        loop = mock.patch.object(
            nwfree.verify, "_pair_outcomes", wraps=nwfree.verify._pair_outcomes
        )
        with loop as pairs:
            reports = [verify_module(data, window, 1) for _ in range(2)]
            assert [format_report(r) for r in reports] == [want, want]
        assert pairs.call_count == (1 if stored else 2)
        terms = sum(len(form[1]) for form in reports[0].entries._failures.values())
        assert (terms <= MAX_OUTCOME_TERMS) == stored and (window in table) == stored
    assert list(table) == [1]


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_start_with_an_empty_outcome_table(duplicate):
    data, window, test_degree = mixed_report()
    for target in (data, mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)):
        want = _report_bytes(target, window, test_degree)
        assert list(spec_forms(target).outcomes) == [window]
        twin = duplicate(target)
        assert twin == target and spec_forms(twin).outcomes == {}
        assert _report_bytes(twin, window, test_degree) == want
        assert list(spec_forms(twin).outcomes) == [window]


# ------------------------------------------------------ the plan's text table


def _one_plan_specs():
    """Three targets on the (AffineH4, 1, 2) plan, and a pair index whose
    letter is SKIP in the first (its bracket lands beyond window 1), PASS in
    the second (window 2) and FAIL in the third (q@1 = 2d)."""
    narrow = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    wide = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0, 2: 1, -2: 3}, window=2)
    broken = with_assignment(actions_of(wide), sym("q", 1), 2 * Poly.var(("s", "d"), "d"))
    return (narrow, wide, broken), 27


def _first_pair_fail_data():
    """Action data on the (AffineH4, 1, 2) plan whose letters start FFS:
    FAIL pairs at pair 0 and side by side, so its first pieces are empty."""
    return parse_input(
        "algebra = AffineH4\nwindow = 1\np@-1 = 1/2*s+1\np = s\np@1 = 2*s\nq@-1 = 1/2\n"
        "q = 1\nq@1 = 2\nr@-1 = -1/2\nr = -1\nr@1 = -2\ns@-1 = 1/2*s+3\ns = s\n"
        "s@1 = 2*s+5\nk = 0\nd = d\n"
    )


def assert_kept_as_reference(report):
    """The report's plan keeps, for its letters, the reference text's pieces."""
    text = report.entries._text
    want = pieces_reference(format_report_reference(report), len(text.monos))
    assert text.pieces[report.entries._outcomes] == want


def test_specs_on_one_plan_read_and_fill_its_blocks_as_reference():
    nwfree.verify._plan.cache_clear()
    specs, pair = _one_plan_specs()
    specs += (_first_pair_fail_data(),)
    texts = set()
    for k in (0, 1, 2, 0, 3, 2, 1, 3, 0, 1):
        report = assert_matches_reference(specs[k], 1, 2)
        assert report.entries._outcomes[pair] == "SPFS"[k]
        texts.add(id(report.entries._text))
    assert len(texts) == 1 and nwfree.verify._plan.cache_info().misses == 1
    text = report.entries._text
    # one entry per string of letters met, holding the reference text around its FAIL pairs
    reports = [verify_module(spec, 1, 2) for spec in specs]
    assert sorted(text.pieces) == sorted({r.entries._outcomes for r in reports})
    assert len(text.pieces) == len(specs)
    for r in reports:
        assert_kept_as_reference(r)
    assert text.size == kept_characters(text) <= MAX_PLAN_TEXT
    # the names and monomial texts were written with the plan
    assert text.names == [format_symbol(x, AFFINE_H4) for x in report.entries._gens]
    # a string met before is read, not written again
    with mock.patch.object(nwfree.verify._PlanText, "_write", side_effect=AssertionError):
        for r in reports:
            assert format_report(r) == format_report_reference(r)


def test_fail_pairs_first_and_side_by_side_leave_no_blank_line():
    nwfree.verify._plan.cache_clear()
    cases = [
        (_first_pair_fail_data(), 1, 2, "FFS"),
        (parse_input("algebra = H4\np = s^2+1\nq = s+2\nr = s^3\ns = 2*s+3\n"), 1, 3, "FFFFFP"),
    ]
    for target, window, test_degree, start in cases:
        for _ in range(2):
            report = assert_matches_reference(target, window, test_degree)
            assert report.entries._outcomes.startswith(start)
            assert_kept_as_reference(report)
        pieces = report.entries._text.pieces[report.entries._outcomes]
        assert pieces[0] == pieces[1] == ""
        assert "\n\n" not in format_report(report)


def test_a_report_with_every_pair_failing_formats_as_reference():
    # no verify run fails every pair (two generators of shift 0 that commute
    # always pass), so the last H4 pair borrows the first pair's FAIL form
    nwfree.verify._plan.cache_clear()
    data = parse_input("algebra = H4\np = s^2+1\nq = s+2\nr = s^3\ns = 2*s+3\n")
    entries = verify_module(data, 1, 3).entries
    assert entries._outcomes == "FFFFFP"
    failures = {**entries._failures, 5: entries._failures[0]}
    every = nwfree.verify._Entries(
        entries._gens, "FFFFFF", failures, entries._monos, entries._zero, entries._text
    )
    report = nwfree.verify.VerificationReport(H4, 1, 3, every)
    for _ in range(2):
        assert format_report(report) == format_report_reference(report)
    assert entries._text.pieces["FFFFFF"] == [""] * 6 + [
        f"SUMMARY pass=false checked={len(every)} skipped=0"
    ]
    nwfree.verify._plan.cache_clear()


def test_a_pickled_report_formats_from_a_table_of_its_own():
    for duplicate in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        nwfree.verify._plan.cache_clear()
        specs, _ = _one_plan_specs()
        report = verify_module(specs[2], 1, 2)
        want = format_report_reference(verify_module_reference(specs[2], 1, 2))
        assert format_report(report) == want
        live = report.entries._text
        kept = live.size
        again = duplicate(report)
        text = again.entries._text
        # the names and monomial texts come along; no piece does
        assert text is not live and (text.names, text.monos) == (live.names, live.monos)
        assert text.pieces == {} and text.size == 0
        assert format_report(again) == format_report(again) == want
        assert list(text.pieces) == [report.entries._outcomes]
        assert text.size == kept_characters(text) == kept and live.size == kept
        for spec in specs:  # the live plan's table is as it was
            assert_matches_reference(spec, 1, 2)


@pytest.mark.parametrize(
    "field, value",
    [("algebra", VIR00), ("algebra", AFF_VIR), ("window", 2), ("test_degree", 3)],
)
def test_a_replaced_report_leaves_the_plan_table_true(field, value):
    # the replaced report is formatted first, on a new plan, then true reports
    # on the plan it came from and on the plan its new fields name
    nwfree.verify._plan.cache_clear()
    target = mhb(2, -1, 3) if field == "algebra" else _one_plan_specs()[0][1]
    window, test_degree = 1, 2
    replaced = dataclasses.replace(verify_module(target, window, test_degree), **{field: value})
    assert format_report(replaced) == format_report_reference(replaced)
    if field == "algebra":  # a symbol prints by the report's algebra: s is w on Vir00
        assert (" w " in format_report(replaced)) == (value == VIR00)
    assert_matches_reference(target, window, test_degree)
    if field == "window":
        assert_matches_reference(target, value, test_degree)
    elif field == "test_degree":
        assert_matches_reference(target, window, value)


def test_a_plan_past_its_bound_writes_blocks_it_does_not_keep():
    # the bound is patched to the size of the first and third strings met, so
    # the second, which would pass it, is written and not kept, and the
    # third fills the table to its bound exactly
    specs, _ = _one_plan_specs()
    sizes = []
    for spec in specs:
        nwfree.verify._plan.cache_clear()
        format_report(verify_module(spec, 1, 2))
        sizes.append(kept_characters(verify_module(spec, 1, 2).entries._text))
    bound = sizes[0] + sizes[2]
    assert sizes[0] + sizes[1] > bound
    nwfree.verify._plan.cache_clear()
    try:
        with mock.patch.object(nwfree.verify, "MAX_PLAN_TEXT", bound):
            for spec in specs * 2:
                report = assert_matches_reference(spec, 1, 2)
                text = report.entries._text
                assert text.size == kept_characters(text) <= bound
    finally:
        nwfree.verify._plan.cache_clear()
    letters = [verify_module(spec, 1, 2).entries._outcomes for spec in specs]
    assert list(text.pieces) == [letters[0], letters[2]] and text.size == bound


# ------------------------------------------------------ the kept FAIL text


@contextmanager
def residual_maps_counted():
    """Count the residual maps `format_report` takes, as a list of their pairs."""
    calls = []
    original = nwfree.verify._Entries._residual_map

    def counted(self, pair, j):
        calls.append(pair)
        return original(self, pair, j)

    with mock.patch.object(nwfree.verify._Entries, "_residual_map", counted):
        yield calls


def no_residual_map():
    return mock.patch.object(
        nwfree.verify._Entries, "_residual_map", side_effect=AssertionError("a residual was written")
    )


def test_a_kept_fail_text_hit_reads_as_a_cold_spec():
    """Each FAIL and SKIP case, on one spec at a sequence of test degrees:
    every text is that of a copy formatted cold and of the reference, a
    degree met before writes no residual, and a higher one writes exactly
    its new monomials' residuals of each FAIL pair."""
    for name, target, window, test_degree in fail_and_skip_cases():
        variables = MODULE_VARIABLES[algebra_of(target)]
        want = {}
        for degree in {test_degree, MAX_TEST_DEGREE, 1}:
            cold = verify_module(copy.copy(target), window, degree)
            want[degree] = format_report_reference(cold)
            assert format_report(cold) == want[degree], name
        fails = len(cold.entries._failures)
        orders = [(test_degree, test_degree), (test_degree, MAX_TEST_DEGREE, test_degree, 1),
                  (1, MAX_TEST_DEGREE)]
        for order in orders:
            spec, met = copy.copy(target), 0
            for degree in order:
                report = verify_module(spec, window, degree)
                if degree <= met:
                    with no_residual_map():
                        assert format_report(report) == want[degree], (name, order)
                    continue
                with residual_maps_counted() as calls:
                    assert format_report(report) == want[degree], (name, order)
                known = len(monomials_upto(variables, met)) if met else 0
                new = len(monomials_upto(variables, degree)) - known
                assert len(calls) == new * fails, (name, order)
                met = degree
            forms = spec_forms(spec)
            assert forms.fail_size == [kept_residual_characters(forms)]
            assert len(forms.fail_text) == 1 and forms.fail_text.keys() == forms.outcomes.keys()


def test_a_replaced_report_prints_its_own_names_over_kept_residuals():
    # H4 action data whose FAIL pairs name every symbol; s prints as w on Vir00
    data = parse_input("algebra = H4\np = s^2+1\nq = s+2\nr = s^3\ns = 2*s+3\n")
    report = verify_module(data, 1, 3)
    own = format_report(report)
    for algebra in (VIR00, AFF_VIR):
        replaced = dataclasses.replace(report, algebra=algebra)
        want = format_report_reference(replaced)
        with no_residual_map():
            got = format_report(replaced)
        assert got == want
        residuals = [line.split(" RESIDUAL ")[1] for line in got.split("\n")[:-1]]
        assert residuals == [line.split(" RESIDUAL ")[1] for line in own.split("\n")[:-1]]
    assert " w " in format_report(dataclasses.replace(report, algebra=VIR00))
    assert format_report(report) == own


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_report_formats_alike_and_adds_no_kept_text(duplicate):
    data, window, test_degree = mixed_report()
    report = verify_module(data, window, test_degree)
    forms = spec_forms(data)
    want = format_report_reference(report)

    def kept():
        return {w: {pair: list(texts) for pair, texts in t.items()} for w, t in forms.fail_text.items()}

    if duplicate is not copy.copy:  # a copy.copy shares the report's entries
        early = duplicate(report)
        assert early.entries._kept is None
        assert format_report(early) == want and kept() == {window: {}} and forms.fail_size == [0]
    assert format_report(report) == want
    live = kept()
    assert live[window] and forms.fail_size == [kept_residual_characters(forms)]
    again = duplicate(report)
    assert format_report(again) == format_report(again) == want
    assert kept() == live and forms.fail_size == [kept_residual_characters(forms)]


def test_fail_text_past_its_bound_is_written_and_not_kept():
    # the bound is patched to the size of the first FAIL pair's texts at test
    # degree 2, so the later pairs' texts, and the first pair's at degree 3,
    # would pass it: they are written and not kept
    data, window, _ = mixed_report()
    cold = copy.copy(data)
    format_report(verify_module(cold, window, 2))
    (first, texts), *others = spec_forms(cold).fail_text[window].items()
    assert others
    bound = sum(map(len, texts))
    spec = copy.copy(data)
    with mock.patch.object(nwfree.verify, "MAX_FAIL_TEXT", bound):
        for degree in (2, 3, 2):
            report = verify_module(spec, window, degree)
            assert format_report(report) == format_report_reference(report)
    forms = spec_forms(spec)
    assert forms.fail_text == {window: {first: texts}} and forms.fail_size == [bound]
    # a window past MAX_OUTCOME_TERMS stores no outcomes and keeps no text
    heavy = copy.copy(parse_input(fail_heavy_document()))  # not the document table's
    for _ in range(2):
        report = verify_module(heavy, 2, 1)
        assert report.entries._kept is None
        format_report(report)
    assert spec_forms(heavy).fail_text == {} and spec_forms(heavy).fail_size == [0]
