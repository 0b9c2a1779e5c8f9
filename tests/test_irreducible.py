"""Verdicts, reduction chains, witness ideals, and the orbit oracle."""

import dataclasses
import math
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import nwfree.exactpoly
import nwfree.irreducible
import nwfree.modfam

from nwfree.exactpoly import (
    NEG_INF,
    Poly,
    change_variables,
    degree_in,
    monomials_upto,
    reduce_mod_univariate,
)
from nwfree.irreducible import (
    ChainOp,
    IrreducibilityCertificate,
    NotIrreducible,
    NotReducible,
    SeedZero,
    apply_chain_op,
    decide,
    format_certificate,
    format_witness,
    orbit_oracle,
    rational_root,
    reduction_chain,
    witness,
)
from nwfree.liealg import AFF_VIR, AFFINE_H4, VIR00, SymbolNotInAlgebra, sym
from nwfree.modfam import (
    SpecInvalid,
    WindowExceeded,
    act,
    algebra_of,
    generators,
    Vir00Spec,
    affvir,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    module_variables,
    mtilde,
    mtilde_f,
)

from helpers import (
    S,
    W0,
    apply_chain_op_reference,
    int_digit_limit_lifted,
    orbit_oracle_dense_reference,
    orbit_oracle_reference,
    rational_root_reference,
    sample_specs,
    witness_reference,
)

SD = ("s", "d")


def zero_beta(window):
    return {k: 0 for k in range(-window, window + 1)}


# ---------------------------------------------------------------- decide


def test_constant_g_is_irreducible():
    verdict = decide(mg0(2))
    assert verdict.irreducible
    assert verdict.label == "Irreducible"
    assert not verdict.derived


def test_positive_degree_g_is_reducible():
    verdict = decide(mg0(S ** 2 - S))
    assert not verdict.irreducible
    assert verdict.label == "Reducible"
    assert not verdict.derived


def test_affine_mab_lift_is_irreducible():
    spec = mtilde(mab(3, 1), 2, zero_beta(2), window=2)
    verdict = decide(spec)
    assert verdict.irreducible
    assert not verdict.derived


@pytest.mark.parametrize(
    "spec, expect",
    [
        (mhb(1, 0, 1), True),
        (mbh(2, -1, 3), True),
        (mab(2, 3), True),
        (m0g(S), False),
        (m0g(7), True),
        (m0(), False),
    ],
)
def test_h4_verdicts(spec, expect):
    assert decide(spec).irreducible is expect


def test_affine_lift_follows_base_g():
    const = mtilde(mg0(5), 2, {1: 3, -1: 0, 0: 0}, window=1)
    assert decide(const).irreducible
    growing = mtilde(mg0(S), 2, {1: 3, -1: 0, 0: 0}, window=1)
    assert not decide(growing).irreducible


def test_derived_verdicts_are_flagged():
    assert decide(mtilde_f({1: S, -1: S}, window=1)).derived
    assert decide(Vir00Spec(2, W0)).derived
    assert decide(affvir(mhb(1, 0, 1), alpha=2, lam=3, window=1)).derived
    base_zero = mtilde(m0(), 2, {1: 1, -1: 0, 0: 0}, window=1)
    assert decide(base_zero).derived
    assert not decide(base_zero).irreducible


def test_affvir_verdict_tracks_its_base():
    assert decide(affvir(mab(2, 3), alpha=2, lam=3, window=1)).irreducible
    assert not decide(affvir(mg0(S ** 2 + Poly.one(("s",))), 2, 3, window=1)).irreducible


def test_decide_rejects_non_specs():
    with pytest.raises(SpecInvalid):
        decide(42)


# ------------------------------------------------------- reduction chains


def test_mg0_chain_from_square_seed():
    cert = reduction_chain(mg0(2), S ** 2)
    results = [poly for _, poly in cert.chain]
    minus_two_s_plus_one = -(S + S) + Poly.one(("s",))
    assert results == [minus_two_s_plus_one, Poly.const(("s",), 2)]
    assert cert.final == Poly.const(("s",), 2)


def test_mhb_chain_is_one_step():
    cert = reduction_chain(mhb(1, 0, 1), S)
    assert [poly for _, poly in cert.chain] == [Poly.one(("s",))]


def test_constant_seed_gives_empty_chain():
    cert = reduction_chain(mab(2, 3), Poly.const(("s",), 7))
    assert cert.chain == ()
    assert cert.final == Poly.const(("s",), 7)


def test_zero_seed_is_rejected():
    with pytest.raises(SeedZero):
        reduction_chain(mg0(1), Poly.zero(("s",)))


def test_reducible_spec_has_no_chain():
    with pytest.raises(NotIrreducible):
        reduction_chain(mg0(S), S)


def test_affine_chain_runs_d_stage_first():
    spec = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0, 0: 0}, window=1)
    seed = Poly.var(SD, "s") * Poly.var(SD, "d")
    cert = reduction_chain(spec, seed)
    results = [poly for _, poly in cert.chain]
    minus_s_minus_one = -(Poly.var(SD, "s") + Poly.one(SD))
    assert results == [minus_s_minus_one, -Poly.one(SD)]
    # d-degree is gone after the first step
    assert degree_in(results[0], "d") == 0


def test_affvir_chain_reduces_d_powers():
    spec = affvir(mhb(1, 0, 1), alpha=2, lam=3, window=1)
    d = Poly.var(SD, "d")
    cert = reduction_chain(spec, d ** 2)
    results = [poly for _, poly in cert.chain]
    assert results == [-(d + d) + Poly.one(SD), Poly.const(SD, 2)]


def chain_replays(spec, cert):
    current = cert.seed
    for op, recorded in cert.chain:
        current = apply_chain_op(spec, op, current)
        assert current == recorded
    return current


@pytest.mark.parametrize(
    "spec",
    [
        mg0(3),
        m0g(Fraction(1, 2)),
        mhb(2, -1, 3),
        mbh(1, 0, 1),
        mab(2, 3),
        mtilde(mab(2, 3), Fraction(1, 2), {1: 4, -1: 1, 0: 0, 2: 0, -2: 0}, window=2),
        affvir(mbh(2, -1, 3), alpha=2, lam=3, window=1),
    ],
)
def test_chain_replay_and_strict_descent(spec):
    variables = module_variables(spec)
    for seed in monomials_upto(variables, 3):
        if seed.is_constant():
            continue
        cert = reduction_chain(spec, seed)
        final = chain_replays(spec, cert)
        assert final.is_constant() and not final.is_zero()
        # strict descent, stage by stage: d-degree falls while present, then s-degree
        trail = [cert.seed] + [poly for _, poly in cert.chain]
        for before, after in zip(trail, trail[1:]):
            if degree_in(before, "d") not in (NEG_INF, 0):
                assert degree_in(after, "d") < degree_in(before, "d")
            else:
                assert after.total_degree() < before.total_degree()


# every family, and the irreducible ones with rational parameters
CHAIN_SPECS = [spec for _, spec in sample_specs()] + [
    mg0(Fraction(-3, 2)),
    m0g(3),
    mhb(Fraction(1, 2), 3, Fraction(-2, 3)),
    mbh(2, Fraction(-1, 3), 3),
    mab(Fraction(2, 3), -5),
    mtilde(mab(2, 3), Fraction(1, 2), {1: 4, -1: 1, 0: 0, 2: 0, -2: 0}, window=2),
    mtilde(mbh(Fraction(3, 2), -1, 3), -3, {1: Fraction(1, 2), -1: 7, 0: 0}, window=1),
    affvir(mbh(2, -1, 3), alpha=2, lam=3, window=1),
    affvir(mab(Fraction(1, 2), 3), alpha=Fraction(-2, 3), lam=Fraction(5, 4), window=2),
]


def _chain_ops(spec):
    """The operators reduction_chain uses on spec, d-stage ones included."""
    if not decide(spec).irreducible:
        return []
    variables = module_variables(spec)
    seed = Poly.var(variables, variables[0]) * Poly.var(variables, variables[-1]) ** 2
    return list(dict.fromkeys(op for op, _ in reduction_chain(spec, seed).chain))


_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def chain_cases(draw):
    spec = draw(st.sampled_from(CHAIN_SPECS))
    variables = module_variables(spec)
    n = len(variables)
    v = draw(st.one_of(
        st.just(Poly.zero(variables)),
        _fractions.map(lambda c: Poly.const(variables, c)),
        st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), _fractions), max_size=5)
        .map(lambda ts: Poly(variables, ts)),
    ))
    # in-window generators, one outside every window, and one outside every algebra
    symbols = st.sampled_from(generators(spec) + [None, sym("p", 9), sym("dvir", 0)])
    ops = [st.lists(st.tuples(_fractions, symbols), min_size=1, max_size=4)
           .map(lambda parts: ChainOp(tuple(parts)))]
    chain_ops = _chain_ops(spec)
    if chain_ops:
        ops.append(st.sampled_from(chain_ops))
    return spec, draw(st.one_of(*ops)), v


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (WindowExceeded, SymbolNotInAlgebra) as err:
        return type(err)


@settings(max_examples=300, deadline=None)
@given(chain_cases())
def test_apply_chain_op_matches_act_reference(case):
    spec, op, v = case
    got = _outcome(apply_chain_op, spec, op, v)
    assert got == _outcome(apply_chain_op_reference, spec, op, v)
    if isinstance(got, Poly):
        assert got == Poly(got.variables, got.terms)


def test_chain_ops_cover_the_d_stage():
    # d-stage operators pair a loop-1 generator with its loop-0 companion, no identity
    affine = [spec for spec in CHAIN_SPECS
              if algebra_of(spec) in (AFFINE_H4, AFF_VIR) and decide(spec).irreducible]
    assert {algebra_of(spec) for spec in affine} == {AFFINE_H4, AFF_VIR}
    for spec in affine:
        assert any(len(op.parts) == 2 and None not in [x for _, x in op.parts]
                   for op in _chain_ops(spec))


def test_chain_op_checks_every_symbol_even_on_zero():
    spec = mtilde(mab(2, 3), 2, {1: 0, -1: 0, 0: 0}, window=1)
    zero = Poly.zero(SD)
    # outside the window: nothing to evaluate on 0, an error on anything else
    outside = ChainOp(((Fraction(1), sym("p", 5)),))
    assert apply_chain_op(spec, outside, zero) == zero
    with pytest.raises(WindowExceeded):
        apply_chain_op(spec, outside, Poly.one(SD))
    # outside the algebra: an error even on 0
    with pytest.raises(SymbolNotInAlgebra):
        apply_chain_op(spec, ChainOp(((Fraction(1), sym("dvir", 0)),)), zero)


def test_certificate_text_takes_coefficients_past_the_digit_limit():
    big = Fraction(int("7" * 540) ** 9, 3)  # 4,861 digits over 3
    op = ChainOp(((-big, sym("p", 1)), (1 / big, sym("p", 0)), (big, None)))
    cert = IrreducibilityCertificate(Poly.const(("s",), big), ())
    text = op.describe(AFFINE_H4), format_certificate(cert)
    with int_digit_limit_lifted():
        assert text == (f"{-big}*p@1+{1 / big}*p+{big}*id", f"SEED {big}\nSUMMARY constant={big}")


# ---------------------------------------------------------------- witness


def test_witness_prefers_rational_root_factor():
    wit = witness(mg0(S ** 2 - S))
    assert wit.ideal_generator == S
    assert wit.all_contained


def test_witness_falls_back_to_g_itself():
    g = S ** 2 + Poly.one(("s",))
    wit = witness(mg0(g))
    assert wit.ideal_generator == g
    assert wit.all_contained


def test_witness_for_m0_is_s():
    wit = witness(m0())
    assert wit.ideal_generator == S
    assert wit.all_contained


def test_witness_uses_fractional_root():
    two_s_minus_one = S + S - Poly.one(("s",))
    g = two_s_minus_one * (S ** 2 + Poly.one(("s",)))
    wit = witness(mg0(g))
    assert wit.ideal_generator == S - Poly.const(("s",), Fraction(1, 2))
    assert wit.all_contained


def test_witness_for_vir00_is_w0():
    wit = witness(Vir00Spec(2, W0))
    assert wit.ideal_generator == Poly.var(("d0", "w0"), "w0")
    assert wit.all_contained


def test_witness_for_affine_and_affvir_lifts():
    lifted = mtilde(mg0(S ** 2 - S), 2, {1: 5, -1: 0, 0: 0}, window=1)
    wit = witness(lifted)
    assert wit.ideal_generator == change_variables(S, SD)
    assert wit.all_contained

    vir_lift = affvir(mg0(S ** 2 + Poly.one(("s",))), alpha=2, lam=3, window=1)
    wit2 = witness(vir_lift)
    assert wit2.ideal_generator == change_variables(S ** 2 + Poly.one(("s",)), SD)
    assert wit2.all_contained


def test_witness_for_mtilde_f():
    wit = witness(mtilde_f({1: S ** 2, -1: S + Poly.const(("s",), 2)}, window=1))
    assert wit.ideal_generator == change_variables(S, SD)
    assert wit.all_contained


def test_irreducible_spec_has_no_witness():
    with pytest.raises(NotReducible):
        witness(mab(2, 3))


def test_witness_checks_are_exact_division_results():
    wit = witness(mg0(S ** 2 - S))
    for check in wit.closure_checks:
        remainder = reduce_mod_univariate(check.image, wit.ideal_generator, "s")
        assert remainder.is_zero() is check.contained


def test_rational_root_helper():
    assert rational_root(S ** 2 - S, "s") == 0
    assert rational_root(S - Poly.const(("s",), 3), "s") == 3
    assert rational_root(S ** 2 + Poly.one(("s",)), "s") is None
    two_s_minus_one = S + S - Poly.one(("s",))
    assert rational_root(two_s_minus_one, "s") == Fraction(1, 2)


def _product(factors):
    out = Poly.one(("s",))
    for f in factors:
        out = out * f
    return out


_linear = st.builds(lambda a, b: Poly(("s",), {(1,): a, (0,): b}),
                    st.integers(min_value=1, max_value=12), st.integers(min_value=-12, max_value=12))
_cofactor = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5).filter(
    lambda cs: cs[-1] != 0
).map(lambda cs: Poly(("s",), {(k,): c for k, c in enumerate(cs)}))


@st.composite
def integer_polys(draw):
    """Integer polynomials in s of degree 1 to 4, often with (repeated) rational roots."""
    factors = draw(st.lists(_linear, max_size=3))
    if factors and draw(st.booleans()):
        factors.append(factors[0])  # a repeated root
    room = 4 - len(factors)
    if room and (not factors or draw(st.booleans())):
        cofactor = draw(_cofactor)
        if cofactor.total_degree() <= room:
            factors.append(cofactor)
    g = _product(factors)
    if g.is_constant():
        g = g * draw(_linear)
    return g


@settings(max_examples=300, deadline=None)
@given(integer_polys(), st.sampled_from([1, -1, Fraction(1, 6), Fraction(-5, 4)]))
def test_rational_root_matches_reference(g, scale):
    # the least root by (|p|, q, p < 0), as the divisor enumeration finds it first
    g = scale * g
    assert rational_root(g, "s") == rational_root_reference(g, "s")


def test_rational_root_time_follows_bit_size(small_ranges):
    # the divisor enumeration would build ranges of 10^12 entries here
    huge = Poly.const(("s",), 10 ** 12)
    assert rational_root(S ** 2 + huge, "s") is None
    assert rational_root((huge * S - Poly.one(("s",))) * (S ** 2 + Poly.one(("s",))), "s") == (
        Fraction(1, 10 ** 12)
    )
    assert rational_root((S - huge) * (S + huge), "s") == 10 ** 12
    wit = witness(mg0(S ** 2 + huge))
    assert wit.ideal_generator == S ** 2 + huge
    assert wit.all_contained


def _least(roots):
    return min(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def _square_free_calls(monkeypatch):
    calls = []
    square_free = nwfree.irreducible._square_free
    monkeypatch.setattr(
        nwfree.irreducible, "_square_free", lambda f: calls.append(f) or square_free(f)
    )
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_rational_root_of_dense_degree_64_with_100_digit_coefficients(small_ranges, seed):
    # planted linear factors times h^2 + 1, which has no real root; h has
    # 50-digit coefficients, so g is dense with coefficients of about 100 digits
    rng = random.Random(seed)
    signs = (-1, 1)
    h = Poly(("s",), {
        (k,): rng.choice(signs) * rng.randint(10 ** 49, 10 ** 50) for k in range(32)
    })
    planted = [
        Fraction(rng.choice(signs) * rng.randint(1, 999), rng.randint(1, 999)) for _ in range(2)
    ]
    g = h * h + Poly.one(("s",))
    for root in planted:
        g = g * (Poly(("s",), {(1,): root.denominator, (0,): -root.numerator}))
    assert g.total_degree() == 64 and len(g.terms) == 65
    assert max(len(str(abs(c.numerator))) for _, c in g.terms) >= 100
    assert rational_root(g, "s") == _least(planted)
    assert rational_root(h * h + Poly.one(("s",)), "s") is None


def test_rational_root_takes_a_repeated_root_through_the_square_free_part(monkeypatch):
    calls = _square_free_calls(monkeypatch)
    one = Poly.one(("s",))
    seven_s_minus_three = Poly(("s",), {(1,): 7, (0,): -3})
    g = seven_s_minus_three ** 2 * (S ** 2 + one) ** 2
    assert rational_root(g, "s") == Fraction(3, 7)
    assert len(calls) == 1
    assert rational_root(seven_s_minus_three ** 3 * (S + one) ** 2, "s") == -1


def test_rational_root_skips_primes_dividing_the_leading_coefficient(small_ranges):
    primorial = math.prod(p for p in range(2, 100) if all(p % d for d in range(2, p)))
    lead_s = Poly(("s",), {(1,): primorial})
    three = Poly.const(("s",), 3)
    # 101 is the first prime not dividing the leading coefficient
    assert rational_root((lead_s - Poly.const(("s",), 101)) * (S ** 2 + three), "s") == (
        Fraction(101, primorial)
    )
    lead = Poly.const(("s",), primorial)
    assert rational_root(lead * (S - Poly.const(("s",), 2)) * (S + three), "s") == 2
    assert rational_root(lead_s * S + Poly.one(("s",)), "s") is None


def test_rational_root_of_square_free_g_with_a_repeated_root_mod_2(monkeypatch):
    # s^2 - 5 = (s + 1)^2 mod 2, yet it is square-free: the next prime decides
    calls = _square_free_calls(monkeypatch)
    five = Poly.const(("s",), 5)
    assert rational_root(S ** 2 - five, "s") is None
    three_s_plus_one = Poly(("s",), {(1,): 3, (0,): 1})
    assert rational_root((S ** 2 - five) * three_s_plus_one, "s") == Fraction(-1, 3)
    assert calls == []


def test_rational_root_keeps_a_square_free_g_after_eight_repeated_primes(monkeypatch):
    # 9699690 is the product of the first eight primes, so s^2 - 9699690 and
    # s^2 - 9699690^2 have the repeated root 0 modulo each of them; both are
    # square-free, so _square_free hands f back unchanged
    kept = []
    square_free = nwfree.irreducible._square_free
    monkeypatch.setattr(
        nwfree.irreducible, "_square_free", lambda f: kept.append(square_free(f) is f) or f
    )
    primorial = 9699690
    assert math.prod(p for p in range(2, 20) if all(p % d for d in range(2, p))) == primorial
    assert rational_root(S ** 2 - Poly.const(("s",), primorial), "s") is None
    assert rational_root(S ** 2 - Poly.const(("s",), primorial ** 2), "s") == primorial
    assert kept == [True, True]


def test_rational_root_of_a_constant_is_none():
    assert rational_root(Poly.const(("s",), 7), "s") is None
    assert rational_root(Poly.const(("s",), Fraction(-2, 3)), "s") is None


_witness_g = st.builds(
    lambda factors, c: Poly.const(("s",), c) * _product(factors),
    st.lists(st.one_of(_linear, _cofactor.filter(lambda f: f.total_degree() <= 2)),
             min_size=1, max_size=2),
    st.sampled_from([1, -2, Fraction(1, 3)]),
).filter(lambda g: not g.is_constant())
_reducible_bases = st.one_of(_witness_g.map(mg0), _witness_g.map(m0g), st.just(m0()))
_witness_specs = st.one_of(
    _reducible_bases,
    st.builds(lambda base, alpha, b1, b2: mtilde(base, alpha, {1: b1, -1: b2}, 1),
              _reducible_bases, st.integers(-3, 3).filter(bool), st.integers(-3, 3),
              st.integers(-3, 3)),
    st.sampled_from([spec for _, spec in sample_specs() if not decide(spec).irreducible]),
)


def _loop_beta(window):
    return {k: k for k in range(-window, window + 1)}


_QUARTER = S ** 2 - Poly.const(("s",), Fraction(1, 4))
# large shifts: the closure images multiply by (d + 8) and (d - 8)
_WIDE_WITNESS_SPECS = (
    mtilde(mg0(_QUARTER), 3, _loop_beta(2), window=2),
    mtilde(mg0(_QUARTER), 3, _loop_beta(8), window=8),
    affvir(m0g(_QUARTER), alpha=3, lam=2, window=2),
)


@settings(max_examples=60, deadline=None)
@given(_witness_specs)
@example(_WIDE_WITNESS_SPECS[0])
@example(_WIDE_WITNESS_SPECS[1])
@example(_WIDE_WITNESS_SPECS[2])
def test_witness_matches_reference(spec):
    wit, expected = witness(spec), witness_reference(spec)
    assert wit == expected
    alg = algebra_of(spec)
    assert format_witness(wit, alg) == format_witness(expected, alg)


def test_witness_shifts_no_test_monomial(monkeypatch):
    # each closure image is the previous one times (v + offset): the only
    # polynomial shifted is the ideal generator, at most once per generator
    # (products, as in modfam._value_on_one, call the kernel with no shift)
    shifted = []
    real = nwfree.exactpoly._taylor_shift

    def recording(ints, offsets):
        if any(offsets):
            shifted.append(dict(ints))
        return real(ints, offsets)

    monkeypatch.setattr(nwfree.exactpoly, "_taylor_shift", recording)
    for spec in _WIDE_WITNESS_SPECS + (mg0(S ** 2 - S), Vir00Spec(Fraction(2), W0)):
        shifted.clear()
        wit = witness(spec)
        ideal = dict(wit.ideal_generator.terms)
        common = lcm(*[c.denominator for c in ideal.values()])
        ideal_ints = {e: int(c * common) for e, c in ideal.items()}
        assert len(wit.closure_checks) > len(generators(spec)) >= len(shifted) > 0
        assert all(ints == ideal_ints for ints in shifted), spec


def _unkept_ideal_witness():
    # an ideal the generators do not keep: R_x is not in it, so each image is reduced
    spec = mab(2, 3)
    ideal = S - Poly.one(("s",))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nwfree.irreducible, "decide", lambda spec: decide(mg0(S)))
        mp.setattr(nwfree.irreducible, "_witness_generator", lambda spec: (ideal, "s"))
        return spec, ideal, witness(spec)


def test_witness_falls_back_to_per_check_reduction():
    spec, ideal, wit = _unkept_ideal_witness()
    statuses = {check.contained for check in wit.closure_checks}
    assert statuses == {True, False}
    for check in wit.closure_checks:
        assert check.image == act(spec, check.generator, ideal * check.test_poly)
        remainder = reduce_mod_univariate(check.image, ideal, "s")
        assert remainder.is_zero() is check.contained


@pytest.mark.parametrize("kept", [True, False])
def test_closure_checks_view_reads_as_its_tuple(kept):
    if kept:
        spec = _WIDE_WITNESS_SPECS[0]
        wit = witness(spec)
    else:
        spec, _, wit = _unkept_ideal_witness()
    alg = algebra_of(spec)
    view = wit.closure_checks
    checks = tuple(view)
    assert wit.all_contained is kept
    n = len(checks)
    assert len(view) == n == len(generators(spec)) * len(monomials_upto(module_variables(spec), 4))
    assert all(type(c.image) is Poly for c in checks)
    assert {c.contained for c in checks} == ({True} if kept else {True, False})
    helpers.assert_reads_as_tuple(view, checks)
    plain = dataclasses.replace(wit, closure_checks=checks)
    assert wit == plain and plain == wit and hash(wit) == hash(plain) and repr(wit) == repr(plain)
    assert pickle.loads(pickle.dumps(wit)) == plain
    assert plain.all_contained is kept
    text = format_witness(wit, alg)
    assert format_witness(plain, alg) == text
    assert format_witness(pickle.loads(pickle.dumps(wit)), alg) == text
    # perfbench selfcheck.py's planted answer: the first check flipped, the rest a slice
    first = (dataclasses.replace(view[0], contained=False),)
    planted = dataclasses.replace(wit, closure_checks=first + view[1:])
    assert type(planted.closure_checks) is tuple and not planted.all_contained
    lines, planted_lines = text.splitlines(), format_witness(planted, alg).splitlines()
    assert planted_lines[1] == lines[1].rsplit(" ", 1)[0] + " FAIL"
    assert planted_lines[2:-1] == lines[2:-1]
    assert planted_lines[-1] == f"SUMMARY pass=false checked={n}"


def test_witness_count_flags_and_text_build_no_check(monkeypatch):
    # perfbench/check.py reads all_contained and len(closure_checks) on every witness
    witnesses = [(witness(_WIDE_WITNESS_SPECS[0]), True), (_unkept_ideal_witness()[2], False)]
    plain = [dataclasses.replace(wit, closure_checks=tuple(wit.closure_checks))
             for wit, _ in witnesses]

    def unread(self, x, j):
        raise AssertionError("a closure check was built")

    monkeypatch.setattr(type(witnesses[0][0].closure_checks), "_item", unread)
    for (wit, kept), want in zip(witnesses, plain):
        assert len(wit.closure_checks) == len(want.closure_checks)
        assert wit.all_contained is kept
        assert format_witness(wit) == format_witness(want)


def test_witness_builds_no_poly_per_closure_image(monkeypatch):
    # 70 generators on 15 test monomials: at most 6 Poly results per generator,
    # not one per image, from the witness and its text together
    spec = _WIDE_WITNESS_SPECS[1]
    gens = len(generators(spec))
    trusted = Poly._trusted
    built = []

    def counted(variables, pairs, den=1):
        value = trusted(variables, pairs, den)
        built.append(value)
        return value

    monkeypatch.setattr(Poly, "_trusted", staticmethod(counted))
    wit = witness(spec)
    text = format_witness(wit, AFFINE_H4)
    assert gens == 70 and len(wit.closure_checks) == 1050
    assert text.endswith("\nSUMMARY pass=true checked=1050")
    assert len(built) <= 6 * gens
    before = len(built)
    assert wit.all_contained
    assert len(built) == before  # the flags are read as stored
    wit.closure_checks[-1]
    assert len(built) == before + 1  # one image, built on read


# ----------------------------------------------------------- orbit oracle


def test_oracle_reaches_one_for_free_action():
    assert orbit_oracle(mg0(1), S ** 3, 3, 5) is True


def test_oracle_stays_inside_ideal():
    assert orbit_oracle(mg0(S), S, 4, 6) is False


def test_oracle_on_mab():
    assert orbit_oracle(mab(2, 3), S ** 2, 3, 5) is True


def test_oracle_guards():
    with pytest.raises(SeedZero):
        orbit_oracle(mg0(1), Poly.zero(("s",)), 3, 5)
    with pytest.raises(SpecInvalid):
        orbit_oracle(mg0(1), S, 4, 3)
    with pytest.raises(SpecInvalid):
        orbit_oracle(mg0(1), S ** 3, 2, 5)
    # a degree bound that is no integer is refused, before any comparison
    for value, shown in ((1.5, "1.5"), ("a", "'a'")):
        with pytest.raises(SpecInvalid, match=f"^max degree must be an integer, got {shown}$"):
            orbit_oracle(mg0(1), S, value, 3)
        with pytest.raises(SpecInvalid, match=f"^cap degree must be an integer, got {shown}$"):
            orbit_oracle(mg0(1), S, 1, value)


def test_oracle_agrees_with_decide_on_samples():
    for name, spec in sample_specs():
        verdict = decide(spec)
        if verdict.irreducible:
            for seed in monomials_upto(module_variables(spec), 2):
                if seed.is_zero():
                    continue
                assert orbit_oracle(spec, seed, 2, 5) is True, (name, str(seed))
        else:
            assert witness(spec).all_contained, name


def test_oracle_false_from_witness_ideal_seed():
    spec = mg0(S ** 2 - S)
    seed = witness(spec).ideal_generator
    assert orbit_oracle(spec, seed, 3, 6) is False


def recorded_oracle(spec, seed, max_degree, cap):
    """orbit_oracle's answer plus the vectors it reduces, in order: the seed,
    then each image it takes from `_image`, which it does as it pops it."""
    variables = module_variables(spec)
    reduced = [change_variables(seed, variables)]
    real = nwfree.irreducible._image

    def recording(form, ints):
        image = real(form, ints)
        reduced.append(Poly(variables, image))
        return image

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nwfree.irreducible, "_image", recording)
        answer = orbit_oracle(spec, seed, max_degree, cap)
    return answer, reduced


def assert_same_up_to_scalars(vectors, expected):
    assert len(vectors) == len(expected)
    for v, w in zip(vectors, expected):
        assert v == (v.terms[0][1] / w.terms[0][1]) * w


def assert_oracle_matches_reference(spec, seed, max_degree, cap,
                                    references=(orbit_oracle_reference,)):
    answer, reduced = recorded_oracle(spec, seed, max_degree, cap)
    constant = (0,) * len(module_variables(spec))
    for reference in references:
        steps = []  # (vector reduced, leading exponents of its pivot or None)
        assert answer is reference(spec, seed, max_degree, cap, record=steps)
        leads = [lead for _, lead in steps]
        if answer:
            # the full closure goes on; the oracle stops where 1 is reached
            steps = steps[:leads.index(constant) + 1]
        # the same vectors, each up to a nonzero scalar, in the same order:
        # elimination step for step
        assert_same_up_to_scalars(reduced, [v for v, _ in steps])
    return answer


def test_oracle_stops_at_the_constant_pivot():
    # an AffineVirasoroH4 oracle request as the evidence workload draws it
    spec = affvir(mab(2, 3), alpha=2, lam=3, window=1)
    s, d = Poly.var(SD, "s"), Poly.var(SD, "d")
    seed = s * s * d + 2 * s - d
    answer, reduced = recorded_oracle(spec, seed, 3, 5)
    steps = []
    acts = []  # every image the reference computes
    real = helpers.act

    def counting(spec_, x, v):
        acts.append(x)
        return real(spec_, x, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpers, "act", counting)
        assert answer is orbit_oracle_reference(spec, seed, 3, 5, record=steps) is True
    leads = [lead for _, lead in steps]
    at_constant = leads.index((0, 0))
    # the oracle's last reduced vector forms the constant pivot, so no pivot
    # forms after it, while the full closure forms more
    assert len(reduced) == at_constant + 1
    assert any(lead is not None for lead in leads[at_constant + 1:])
    # the seed plus one vector per image it takes
    assert len(reduced) - 1 < len(acts)


def test_oracle_matches_reference_on_samples():
    answers = set()
    references = (orbit_oracle_reference, orbit_oracle_dense_reference)
    for name, spec in sample_specs():
        variables = module_variables(spec)
        seeds = [monomials_upto(variables, 2)[-1]]
        if not decide(spec).irreducible:
            seeds.append(witness(spec).ideal_generator)
        for seed in seeds:
            answers.add(assert_oracle_matches_reference(spec, seed, 2, 4, references))
    assert answers == {True, False}


_small = st.integers(min_value=-3, max_value=3)
_nonzero = _small.filter(bool)
_g = st.lists(_small, min_size=1, max_size=3).filter(any).map(
    lambda cs: sum((c * S ** k for k, c in enumerate(cs)), Poly.zero(("s",)))
)
_h4_specs = st.one_of(
    _g.map(mg0),
    _g.map(m0g),
    st.builds(mhb, _nonzero, _small, _nonzero),
    st.builds(mbh, _nonzero, _small, _nonzero),
    st.builds(mab, _nonzero, _nonzero),
    st.just(m0()),
)
_spec_kinds = (
    _h4_specs,
    st.builds(lambda base, alpha, b1, b2: mtilde(base, alpha, {1: b1, -1: b2}, 1),
              _h4_specs, _nonzero, _small, _small),
    st.sampled_from([spec for _, spec in sample_specs()]),
)


@st.composite
def oracle_cases(draw):
    # sampled_from over the kinds, not one_of, so each kind is drawn about as often
    spec = draw(draw(st.sampled_from(_spec_kinds)))
    variables = module_variables(spec)
    monos = monomials_upto(variables, 2)
    coeffs = draw(st.lists(_small, min_size=len(monos), max_size=len(monos)).filter(any))
    seed = sum((c * m for c, m in zip(coeffs, monos)), Poly.zero(variables))
    if draw(st.booleans()) and not decide(spec).irreducible:
        # a seed inside the witness ideal, whose orbit never reaches 1
        seed = witness(spec).ideal_generator * draw(st.sampled_from(monos[:3]))
    max_degree = seed.total_degree() + draw(st.integers(min_value=0, max_value=1))
    cap = max_degree + draw(st.integers(min_value=0, max_value=2))
    return spec, seed, max_degree, cap


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_oracle_matches_reference_on_random_specs(case):
    assert_oracle_matches_reference(*case)


# ----------------------------------------------------------- serialization


def test_certificate_serialization():
    cert = reduction_chain(mg0(2), S ** 2)
    text = format_certificate(cert)
    lines = text.splitlines()
    assert lines[0] == "SEED s^2"
    assert lines[1] == "STEP 1/2*p-1*id POLY -2*s+1"
    assert lines[2] == "STEP 1/2*p-1*id POLY 2"
    assert lines[3] == "SUMMARY constant=2"


def test_witness_serialization():
    wit = witness(m0())
    text = format_witness(wit)
    lines = text.splitlines()
    assert lines[0] == "IDEAL s"
    assert all(line.startswith("CLOSURE ") for line in lines[1:-1])
    assert lines[-1] == f"SUMMARY pass=true checked={len(wit.closure_checks)}"


def test_vir00_witness_serialization_uses_w_alias():
    wit = witness(Vir00Spec(2, W0))
    text = format_witness(wit, VIR00)
    assert "CLOSURE w@1 " in text
    assert "CLOSURE dvir@1 " in text


# ------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.fractions(max_denominator=6), min_size=1, max_size=4
    ),
    constant=st.fractions(max_denominator=6).filter(lambda c: c != 0),
)
def test_chain_final_constant_is_never_zero(coeffs, constant):
    spec = mhb(1, 0, constant)
    seed = Poly.zero(("s",))
    for power, coeff in enumerate(coeffs):
        seed = seed + Poly.monomial(("s",), (power,), coeff)
    if seed.is_zero():
        return
    cert = reduction_chain(spec, seed)
    assert cert.final.is_constant()
    assert not cert.final.is_zero()
    chain_replays(spec, cert)


@settings(max_examples=25, deadline=None)
@given(
    root=st.integers(min_value=-4, max_value=4),
    extra=st.integers(min_value=1, max_value=3),
)
def test_witness_ideal_always_closes(root, extra):
    g = (S - Poly.const(("s",), root)) * (S ** extra + Poly.one(("s",)))
    wit = witness(mg0(g))
    assert wit.all_contained
    assert degree_in(wit.ideal_generator, "s") >= 1
