from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import helpers
import pytest
from helpers import (
    corrupted_data,
    corrupted_fixtures,
    format_report_reference,
    sample_specs,
    verify_module_reference,
    with_assignment,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import nwfree.modfam
import nwfree.verify
from nwfree.exactpoly import Poly
from nwfree.liealg import AFF_VIR, H4, VIR00, D, K, P, Q, R, S, bracket, sym
from nwfree.modfam import (
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
    mab,
    mbh,
    mg0,
    mhb,
    mtilde,
    mtilde_f,
    shift_of,
    spec_window,
    value_on_one,
)
from nwfree.verify import FAIL, PASS, SKIP, format_report, verify_module

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
    limit = spec_window(spec)
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
        limit = spec_window(spec)
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
    window = draw(st.integers(min_value=min_window, max_value=spec_window(spec) or 2))
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


CENTRAL_SPECS = [
    (n, s) for n, s in REFERENCE_SPECS
    if algebra_of(s) in (VIR00, AFF_VIR) and spec_window(s) in (0, 2)
]


@settings(max_examples=20, deadline=None)
@given(rational_action_data(CENTRAL_SPECS, central=True, min_window=2))
def test_central_value_with_cocycle_denominator_fails_as_reference(case):
    window, data = case
    report = assert_matches_reference(data, window, 2)
    assert not report.passed  # k acts by a nonzero value, which the brackets forbid


@contextmanager
def k_shifted():
    """Give k a nonzero shift, in verify and in the reference, for a fresh plan.

    Every bracket here is graded, so each pair has one shift sigma.  Moving
    k off the shift of the pairs whose bracket holds it splits off a
    second R_sigma that holds k's term alone.  verify reads the bracket
    terms' shifts from its plan and the generators' own shifts from
    `modfam._integer_form`, so both modules' `shift_of` are patched.
    """

    def shift(algebra, symbol):
        offsets = shift_of(algebra, symbol)
        return (1,) + offsets[1:] if symbol == K else offsets

    nwfree.verify._plan.cache_clear()
    try:
        with mock.patch.object(nwfree.verify, "shift_of", shift), \
                mock.patch.object(nwfree.modfam, "shift_of", shift), \
                mock.patch.object(helpers, "shift_of", shift):
            yield
    finally:
        nwfree.verify._plan.cache_clear()


K_SPECS = [(n, s) for n, s in REFERENCE_SPECS if algebra_of(s) != H4]


@settings(max_examples=20, deadline=None)
@given(rational_action_data(K_SPECS, central=True))
def test_only_a_second_shift_part_fails_as_reference(case):
    window, data = case
    with k_shifted():
        kept = with_assignment(data, K, Poly.zero(MODULE_VARIABLES[data.algebra]))
        assert assert_matches_reference(kept, window, 2).passed  # leading R_sigma all zero
        report = assert_matches_reference(data, window, 2)
    assert not report.passed


@pytest.mark.parametrize(
    "spec, dropped, symbol",
    [
        (mhb(1, 0, 1), {R}, "r"),
        # [p@-1, q@1] = r + k is the first pair to need either; r comes first
        (mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1), {R, K}, "r"),
    ],
    ids=["h4", "affine-two-terms"],
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
