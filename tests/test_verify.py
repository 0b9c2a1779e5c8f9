from fractions import Fraction

import pytest
from helpers import corrupted_data, sample_specs
from hypothesis import given, settings
from hypothesis import strategies as st

from nwfree.exactpoly import Poly
from nwfree.liealg import D, K, P, Q, R, S, bracket, sym
from nwfree.modfam import (
    SpecInvalid,
    Vir00Spec,
    WindowExceeded,
    act,
    actions_of,
    mg0,
    mhb,
    mtilde,
    spec_window,
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
    data = actions_of(mhb(1, 0, 1)).with_assignment(R, Poly.zero(("s",)))
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
    tampered = data.with_assignment(sym("dvir", 2), lam ** 2 * (d0 + 2 * (w0 + one)))
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
