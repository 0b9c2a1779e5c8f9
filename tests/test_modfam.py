import copy
import dataclasses
import gc
import pickle
import weakref
from fractions import Fraction
from math import gcd
from typing import get_args
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nwfree.modfam
from nwfree import InputError
from nwfree.exactpoly import Poly, VariableMismatch, change_variables
from nwfree.classify import classify
from nwfree.irreducible import (
    apply_chain_op,
    decide,
    format_certificate,
    format_witness,
    orbit_oracle,
    reduction_chain,
    witness,
)
from nwfree.liealg import (
    AFF_VIR,
    AFFINE_H4,
    ALGEBRA_KINDS,
    H4,
    KIND_RANK,
    VIR00,
    D,
    K,
    LieElement,
    P,
    Q,
    R,
    S,
    SymbolNotInAlgebra,
    bracket,
    check_in_algebra,
    format_symbol,
    sym,
)
from nwfree.modfam import (
    MAX_CACHED_VALUES,
    MAX_WINDOW,
    ActionData,
    AffVirSpec,
    AffineSpec,
    ConstraintViolation,
    H4Family,
    MalformedData,
    SpecInvalid,
    Vir00Spec,
    WindowExceeded,
    act,
    actions_of,
    affvir,
    algebra_of,
    generators,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    mtilde,
    module_variables,
    mtilde_f,
    shift_of,
    spec_forms,
    value_on_one,
)
from nwfree.specdsl import DslSyntaxError, format_actions, format_spec, parse_actions, parse_spec
from nwfree.verify import format_report, verify_module

from helpers import (
    act_reference,
    h4_specs,
    random_specs,
    sample_specs,
    shift_of_reference,
    with_assignment,
)

S_POLY = Poly.var(("s",), "s")
ONE_S = Poly.one(("s",))


def sd(text_terms):
    # tiny builder: dict {(es,ed): coeff} over (s, d)
    return Poly(("s", "d"), {k: Fraction(v) for k, v in text_terms.items()})


def test_mhb_generator_values():
    fam = mhb(1, 0, 1)
    assert act(fam, P, ONE_S) == S_POLY
    assert act(fam, Q, ONE_S) == ONE_S
    assert act(fam, R, ONE_S) == Poly.const(("s",), -1)
    assert act(fam, S, ONE_S) == S_POLY


def test_mg0_kills_q():
    fam = mg0(Poly(("s",), {(2,): 1}))
    assert act(fam, Q, S_POLY ** 5).is_zero()
    assert act(fam, R, S_POLY ** 2).is_zero()


def test_mhb_pq_commutator_matches_r():
    fam = mhb(1, 0, 1)
    v = ONE_S
    got = act(fam, P, act(fam, Q, v)) - act(fam, Q, act(fam, P, v))
    assert got == Poly.const(("s",), -1)
    assert got == act(fam, R, v)


def _pqr(fam):
    """(p.1, q.1, r.1) of an H4 family, read through `on_one`."""
    return tuple(fam.on_one(x) for x in (P, Q, R))


def test_base_values_table():
    zero = Poly.zero(("s",))
    assert _pqr(mg0(2)) == (Poly.const(("s",), 2), zero, zero)
    p1, q1, r1 = _pqr(mbh(2, -1, 3))
    assert p1 == Poly.const(("s",), 3)
    assert q1 == 2 * S_POLY - ONE_S
    assert r1 == Poly.const(("s",), -6)
    assert _pqr(m0()) == (zero, zero, zero)


def test_base_values_are_kept_beside_the_fields():
    zero, g, h = Poly.zero(("s",)), S_POLY ** 2 - S_POLY, 2 * S_POLY - ONE_S
    expected = [  # (p.1, q.1, r.1) from each family's definition
        (mg0(g), (g, zero, 0)),
        (m0g(g), (zero, g, 0)),
        (mhb(2, -1, 3), (h, 3 * ONE_S, -6)),
        (mbh(2, -1, 3), (3 * ONE_S, h, -6)),
        (mab(2, 3), (2 * ONE_S, 3 * ONE_S, 0)),
        (m0(), (zero, zero, 0)),
    ]
    for fam, (p1, q1, r1) in expected:
        values = (p1, q1, Poly.const(("s",), r1))
        twin = dataclasses.replace(fam)
        text = repr(fam)
        assert fam == twin and hash(fam) == hash(twin)  # neither evaluated
        assert _pqr(fam) == values
        # k and d lie outside H4: no variant falls through to a parameter, and
        # on_one refuses both as every request path does
        for x in (K, D):
            with pytest.raises(SymbolNotInAlgebra, match=f"^{x.kind} is not a basis symbol of H4$"):
                fam.on_one(x)
        forms = spec_forms(fam)
        # (shift, numerators, den): three fields, the value's own after the shift
        assert [forms[x] for x in (P, Q, R)] == [
            (shift_of(H4, x), dict(v.numerators), v.den) for x, v in zip((P, Q, R), values)]
        assert forms[P] is spec_forms(fam)[P]  # built once per object
        assert fam == twin and hash(fam) == hash(twin)  # one table filled
        assert repr(fam) == repr(twin) == text
        assert dataclasses.replace(fam) == fam
        for copy in (pickle.loads(pickle.dumps(fam)), pickle.loads(pickle.dumps(twin))):
            assert copy == fam and hash(copy) == hash(fam) and repr(copy) == text
            assert _pqr(copy) == values
        assert _pqr(twin) == values
    assert [f.name for f in dataclasses.fields(H4Family)] == ["variant", "g", "a1", "a2", "a", "b"]


@pytest.fixture
def affine_demo():
    return mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)


def test_affine_s_loop_action(affine_demo):
    v = sd({(1, 0): Fraction(1, 2)})
    got = act(affine_demo, sym("s", 1), v)
    assert got == sd({(2, 0): 1, (1, 0): Fraction(5, 2)})


def test_affine_k_annihilates(affine_demo):
    v = sd({(3, 2): 1})
    assert act(affine_demo, K, v).is_zero()
    assert act(affine_demo, D, v) == sd({(3, 3): 1})
    assert act(affine_demo, LieElement.basis(K, 5), v).is_zero()


def test_affine_sp_commutator_realizes_bracket(affine_demo):
    one = Poly.one(("s", "d"))
    x, y = sym("s", 1), sym("p", -1)
    got = act(affine_demo, x, act(affine_demo, y, one)) - act(
        affine_demo, y, act(affine_demo, x, one)
    )
    assert got == sd({(1, 0): 1})
    assert got == act(affine_demo, bracket(AFFINE_H4, x, y), one)


def test_act_on_lie_element_is_linear(affine_demo):
    v = sd({(2, 1): 1, (0, 0): Fraction(1, 3)})
    parts = ((sym("p", 1), Fraction(2)), (sym("s", -1), Fraction(-1, 2)), (D, Fraction(3)), (K, 7))
    expected = Poly.zero(("s", "d"))
    for symbol, c in parts:
        expected = expected + c * act(affine_demo, symbol, v)
    assert act(affine_demo, LieElement(parts), v) == expected
    assert act(affine_demo, LieElement(()), v).is_zero()


def test_affine_window_rejected(affine_demo):
    with pytest.raises(WindowExceeded):
        act(affine_demo, sym("p", 2), Poly.one(("s", "d")))
    # the zero vector needs no value on 1, so no window is consulted
    assert act(affine_demo, sym("p", 2), Poly.zero(("s", "d"))).is_zero()
    assert act(affine_demo, sym("p", 2), Poly.zero(("s",))) == Poly.zero(("s", "d"))


def _on_one_reference(spec, symbol):
    """x.1 by Poly arithmetic, written from the formulas of the `int_form`
    docstrings; WindowExceeded for a loop index past an affine window."""
    kind, n = symbol.kind, symbol.loop_index
    if isinstance(spec, H4Family):
        s, zero = Poly.var(("s",), "s"), Poly.zero(("s",))
        values = {"s": s, "p": zero, "q": zero, "r": zero}
        if spec.variant in ("Mg0", "M0g"):  # g for p or q
            values["p" if spec.variant == "Mg0" else "q"] = spec.g
        elif spec.variant in ("Mhb", "Mbh"):  # h = a1 s + a2 and b, and r by -a1 b
            h, b = spec.a1 * s + Poly.const(("s",), spec.a2), Poly.const(("s",), spec.b)
            values["p"], values["q"] = (h, b) if spec.variant == "Mhb" else (b, h)
            values["r"] = Poly.const(("s",), -spec.a1 * spec.b)
        elif spec.variant == "Mab":
            values["p"], values["q"] = Poly.const(("s",), spec.a), Poly.const(("s",), spec.b)
        return values[kind]
    if isinstance(spec, AffVirSpec):
        if kind != "dvir":
            return _on_one_reference(spec.base, symbol)
        sd_vars = ("s", "d")  # alpha^n (d + n lambda), inside the window or not
        mu = Poly.const(sd_vars, n * spec.lambda_shift)
        return spec.base.alpha ** n * (Poly.var(sd_vars, "d") + mu)
    if isinstance(spec, Vir00Spec):
        variables = ("d0", "w0")
        if kind == "k":
            return Poly.zero(variables)
        if kind == "s":  # w_n: lambda^n w0
            return spec.lam ** n * Poly.var(variables, "w0")
        f = change_variables(spec.fpoly, variables)  # dvir_n: lambda^n (d0 + n f)
        return spec.lam ** n * (Poly.var(variables, "d0") + n * f)
    sd_vars = ("s", "d")
    if kind == "d":
        return Poly.var(sd_vars, "d")
    if abs(n) > spec.window:
        raise WindowExceeded(f"{kind}@{n} outside window {spec.window}")
    if kind == "k" or (spec.variant == "MTildeF" and kind != "s"):
        return Poly.zero(sd_vars)
    if spec.variant == "MTildeF":  # s at loop n acts by f_n
        return change_variables(dict(spec.fseq)[n], sd_vars)
    if kind == "s":  # alpha^n s + beta_n
        return spec.alpha ** n * Poly.var(sd_vars, "s") + Poly.const(sd_vars, dict(spec.beta)[n])
    return spec.alpha ** n * change_variables(_on_one_reference(spec.base, sym(kind)), sd_vars)


@settings(deadline=None)
@given(
    h4_specs(("Mg0", "M0g", "Mhb", "Mbh", "Mab", "M0")),
    st.fractions(min_value=-40, max_value=40, max_denominator=30).filter(bool),
    st.integers(min_value=1, max_value=MAX_WINDOW),
    st.data(),
)
def test_alpha_beta_values_on_one_match_the_poly_formula(base, alpha, window, data):
    # on_one scales the base's loop-0 values by alpha^n on integers
    beta = {k: data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=12))
            for k in range(-window, window + 1) if k}
    spec = mtilde(base, alpha, beta, window)
    for x in generators(spec):
        got = spec.on_one(x)
        assert got == _on_one_reference(spec, x)
        assert Poly(got.variables, got.numerators, got.den) == got  # canonical
    assert set(spec_forms(base)) == {P, Q, R}  # p, q and r read the base's table
    with pytest.raises(WindowExceeded, match=f"^p@{window + 1} outside window {window}$"):
        spec.on_one(sym("p", window + 1))


def _assert_reduced(form):
    """An integer form in canonical reduced form: no zero numerator, den > 0
    and gcd(den, *numerators) == 1, so zero is ({}, 1)."""
    ints, den = form
    assert type(ints) is dict and type(den) is int and den > 0
    assert 0 not in ints.values()
    assert gcd(den, *ints.values()) == 1


def _assert_forms_match(spec, symbols):
    for x in symbols:
        expected = _on_one_reference(spec, x)
        form = spec.int_form(x)
        _assert_reduced(form)
        assert form == (dict(expected.numerators), expected.den), (spec, x)
        assert spec_forms(spec)[x][1:3] == form  # the table stores the form itself
        assert spec.on_one(x) == expected


@settings(deadline=None)
@given(random_specs())
def test_each_int_form_is_the_reduced_form_of_its_value(spec):
    """Every spec's integer form of x.1, for every generator in its window,
    is the numerators and denominator of the value the formulas give."""
    _assert_forms_match(spec, generators(spec))
    data = actions_of(spec)
    for x in generators(data):  # action data gives its values' forms
        assert data.int_form(x) == spec.int_form(x)


@settings(deadline=None)
@given(random_specs())
def test_every_value_on_one_reads_the_spec_table(spec):
    """actions_of fills the spec's form table with three-field entries,
    (shift, numerators, den), and a second actions_of and every on_one
    read the table without computing x.1 again."""
    data = actions_of(spec)
    forms = spec_forms(spec)
    for x in generators(spec):
        assert len(forms[x]) == 3
        assert forms[x] == (shift_of(spec.algebra, x), *spec.int_form(x))
    calls = []
    int_form = nwfree.modfam._int_form
    with mock.patch.object(nwfree.modfam, "_int_form",
                           lambda owner, x: calls.append(x) or int_form(owner, x)):
        assert actions_of(spec) == data
        for x in generators(spec):
            assert spec.on_one(x) == data.value(x)
    assert calls == []


def test_vir00_forms_at_negative_loops_with_negative_lambda():
    spec = Vir00Spec(Fraction(-3, 2), Poly(("w0",), {(2,): Fraction(1, 3), (0,): -2}))
    loops = range(-5, 6)
    _assert_forms_match(spec, [sym(kind, n) for kind in ("s", "dvir") for n in loops])
    # dvir_-3 = (-3/2)^-3 (d0 - 3 f) = -8/27 d0 + 8/27 w0^2 - 16/9
    assert spec.int_form(sym("dvir", -3)) == ({(1, 0): -8, (0, 2): 8, (0, 0): -48}, 27)


def test_affvir_dvir_forms_reach_outside_the_window():
    spec = affvir(mhb(2, -1, 3), Fraction(-7, 3), Fraction(5, 4), 1)
    outside = [sym("dvir", n) for n in (-5, -2, 2, 5)]
    _assert_forms_match(spec, outside)
    assert spec.int_form(sym("dvir", 0)) == ({(0, 1): 1}, 1)  # d, and no zero entry
    with pytest.raises(WindowExceeded, match="^p@2 outside window 1$"):
        spec.int_form(sym("p", 2))


@pytest.mark.parametrize("window", [1, 3])
def test_int_form_beyond_an_affine_window_raises(window):
    loops = range(-window, window + 1)
    specs = [
        mtilde(mhb(2, -1, 3), Fraction(-7, 3), {k: Fraction(k, 5) for k in loops}, window),
        mtilde_f({k: k * S_POLY for k in loops if k}, window),
    ]
    for spec in specs:
        for data in (spec, actions_of(spec)):
            forms = spec_forms(data)
            for kind in ("p", "q", "r", "s"):
                x = sym(kind, window + 1)
                message = f"^{kind}@{window + 1} outside window {window}$"
                with pytest.raises(WindowExceeded, match=message):
                    data.int_form(x)
                with pytest.raises(WindowExceeded, match=message):
                    forms[x]
                assert x not in forms  # a lookup that raises stores nothing


def test_action_data_forms_look_each_symbol_up_once():
    class Counting(dict):
        lookups = 0

        def get(self, key, default=None):
            Counting.lookups += 1
            return super().get(key, default)

        def __getitem__(self, key):
            Counting.lookups += 1
            return super().__getitem__(key)

        def __contains__(self, key):
            Counting.lookups += 1
            return super().__contains__(key)

    data = actions_of(mtilde(mab(1, 1), 2, {1: 0, -1: 0}, window=1))
    object.__setattr__(data, "_index", Counting(data._index))
    incomplete = ActionData(data.algebra, data.window, data.assignments[1:])
    object.__setattr__(incomplete, "_index", Counting(incomplete._index))
    missing = data.assignments[0][0]
    for d, symbol, error in [
        (data, P, None),
        (incomplete, missing, MalformedData),
        (data, sym("p", 2), WindowExceeded),
    ]:
        for read in (d.int_form, d.on_one):
            before = Counting.lookups
            if error is None:
                read(symbol)
            else:
                with pytest.raises(error):
                    read(symbol)
            assert Counting.lookups - before == 1


def test_mtilde_f_values():
    spec = mtilde_f({1: S_POLY ** 2, -1: 7}, window=1)
    one = Poly.one(("s", "d"))
    assert act(spec, sym("p", 1), one).is_zero()
    assert act(spec, sym("p", 1), sd({(2, 1): 3, (0, 0): 1})).is_zero()
    assert act(spec, K, sd({(1, 1): 1})).is_zero()
    assert act(spec, sym("s", 0), one) == sd({(1, 0): 1})
    assert act(spec, sym("s", 1), one) == sd({(2, 0): 1})
    # sigma shows up once the argument involves d
    v = sd({(0, 1): 1})
    assert act(spec, sym("s", 1), v) == sd({(2, 1): 1, (2, 0): -1})


def test_vir00_actions():
    spec = Vir00Spec(Fraction(2), Poly.var(("w0",), "w0"))
    one = Poly.one(("d0", "w0"))
    d0 = Poly.var(("d0", "w0"), "d0")
    w0 = Poly.var(("d0", "w0"), "w0")
    assert act(spec, sym("dvir", 1), one) == 2 * (d0 + w0)
    v = d0 * w0 + w0
    assert act(spec, sym("s", 0), v) == w0 * v
    assert act(spec, K, v).is_zero()


def test_vir00_dw_commutator():
    spec = Vir00Spec(Fraction(2), Poly.var(("w0",), "w0"))
    one = Poly.one(("d0", "w0"))
    w0 = Poly.var(("d0", "w0"), "w0")
    d1, wm1 = sym("dvir", 1), sym("s", -1)
    got = act(spec, d1, act(spec, wm1, one)) - act(
        spec, wm1, act(spec, d1, one)
    )
    assert got == -w0
    assert got == act(spec, LieElement.basis(sym("s", 0), -1), one)


def test_affvir_actions():
    spec = affvir(mhb(1, 0, 1), alpha=2, lam=3, window=2)
    one = Poly.one(("s", "d"))
    assert act(spec, sym("dvir", 1), one) == sd({(0, 1): 2, (0, 0): 6})
    v = sd({(1, 1): 1})
    assert act(spec, sym("dvir", 0), v) == sd({(1, 2): 1})


def test_affvir_dd_commutator():
    spec = affvir(mhb(1, 0, 1), alpha=2, lam=3, window=2)
    one = Poly.one(("s", "d"))
    d1, dm1 = sym("dvir", 1), sym("dvir", -1)
    got = act(spec, d1, act(spec, dm1, one)) - act(
        spec, dm1, act(spec, d1, one)
    )
    assert got == sd({(0, 1): -2})


def test_affvir_loop_generators_scale():
    spec = affvir(mab(2, 3), alpha=2, lam=1, window=2)
    one = Poly.one(("s", "d"))
    assert act(spec, sym("p", 1), one) == sd({(0, 0): 4})
    assert act(spec, sym("s", 1), one) == sd({(1, 0): 2})


def test_spec_validation_errors():
    with pytest.raises(SpecInvalid):
        mg0(0)
    with pytest.raises(SpecInvalid):
        mhb(0, 1, 1)
    with pytest.raises(SpecInvalid):
        mhb(1, 0, 0)
    with pytest.raises(SpecInvalid):
        mab(0, 1)
    with pytest.raises(SpecInvalid):
        mtilde(mhb(1, 0, 1), 0, {1: 1, -1: 0}, window=1)
    with pytest.raises(SpecInvalid, match="beta.0"):
        mtilde(mhb(1, 0, 1), 2, {0: 1, 1: 0, -1: 0}, window=1)
    with pytest.raises(SpecInvalid, match="missing"):
        mtilde(mhb(1, 0, 1), 2, {1: 1}, window=1)
    with pytest.raises(SpecInvalid, match="outside"):
        mtilde(mhb(1, 0, 1), 2, {1: 1, -1: 0, 5: 2}, window=1)
    with pytest.raises(SpecInvalid, match="f.0"):
        mtilde_f({0: S_POLY + ONE_S, 1: 0, -1: 0}, window=1)
    with pytest.raises(SpecInvalid):
        Vir00Spec(Fraction(0), Poly.var(("w0",), "w0"))
    with pytest.raises(SpecInvalid, match="vanish"):
        AffVirSpec(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1), Fraction(1))
    with pytest.raises(SpecInvalid):
        H4Family("Mg0", g=S_POLY, a1=Fraction(1))


NOT_A_SPEC = object()

CONSTRUCTOR_FAULTS = [  # (case, build, exception class, message)
    ("unknown-h4-family", lambda: H4Family("Mxx"), SpecInvalid, "unknown H4 family 'Mxx'"),
    ("unknown-affine-family", lambda: AffineSpec("Bad", 1), SpecInvalid,
     "unknown affine family 'Bad'"),
    ("alpha-beta-without-base",
     lambda: AffineSpec("MTildeAlphaBeta", 1, alpha=1, beta={1: 0, -1: 0}),
     SpecInvalid, "MTildeAlphaBeta needs a base H4 family"),
    ("alpha-beta-with-fseq",
     lambda: AffineSpec("MTildeAlphaBeta", 1, alpha=1, base=mab(1, 1), beta={1: 0, -1: 0},
                        fseq={1: S_POLY}),
     SpecInvalid, "f.<k> entries belong to MTildeF only"),
    ("mtilde-f-with-alpha",
     lambda: AffineSpec("MTildeF", 1, alpha=1, fseq={1: S_POLY, -1: S_POLY}),
     SpecInvalid, "MTildeF takes only window and f.<k> entries"),
    ("affvir-over-mtilde-f", lambda: AffVirSpec(mtilde_f({1: S_POLY, -1: S_POLY}, 1), 1),
     SpecInvalid, "affine-Virasoro base must be an MTildeAlphaBeta spec"),
    ("data-unknown-algebra", lambda: ActionData("Nope", 0, ()), MalformedData,
     "unknown algebra 'Nope'"),
    ("data-negative-window", lambda: ActionData(H4, -1, ()), MalformedData,
     "window must be at least 0"),
    ("data-h4-window", lambda: ActionData(H4, 1, ()), MalformedData,  # no loop directions
     "window exceeds the limit 0"),
    ("data-key-not-a-symbol", lambda: ActionData(H4, 0, {"p": 1}), MalformedData,
     "assignment key 'p' is not a generator"),
    # action-data values take the one coercion of spec parameters, `_poly_in`
    ("data-value-in-wrong-ring", lambda: ActionData(H4, 0, {P: Poly.var(("d",), "d")}),
     MalformedData, "p must be a polynomial in ('s',)"),
    ("data-value-not-rational", lambda: ActionData(H4, 0, {P: "x"}), MalformedData,
     "p must be rational, got 'x'"),
    ("data-value-none", lambda: ActionData(H4, 0, {P: None}), MalformedData,
     "p must be rational, got None"),
    ("algebra-of-non-spec", lambda: algebra_of(NOT_A_SPEC), SpecInvalid,
     f"not a module spec: {NOT_A_SPEC!r}"),
    ("mhb-a1", lambda: mhb("x", 0, 1), SpecInvalid, "a1 must be rational, got 'x'"),
    ("mbh-a2", lambda: mbh(1, "x", 1), SpecInvalid, "a2 must be rational, got 'x'"),
    ("mab-a-missing", lambda: mab(None, 1), SpecInvalid, "Mab takes exactly ['a', 'b'], got ['b']"),
    ("mtilde-alpha", lambda: mtilde(mab(1, 1), "q", {}, 1), SpecInvalid,
     "alpha must be rational, got 'q'"),
    ("mg0-in-d", lambda: mg0(Poly.var(("d",), "d")), SpecInvalid,
     "g must be a polynomial in ('s',)"),
    ("duplicate-beta-pair", lambda: mtilde(mhb(1, 0, 1), 2, [(1, 0), (1, 2), (-1, 0)], 1),
     SpecInvalid, "duplicate beta.1"),
    ("affvir-lambda", lambda: affvir(mab(1, 1), 2, "z", 1), SpecInvalid,
     "lambda must be rational, got 'z'"),
    ("affvir-str-window", lambda: affvir(mab(1, 1), 2, 3, "2"), SpecInvalid,
     "window must be an integer, got '2'"),
    ("affvir-float-window", lambda: affvir(mab(1, 1), 2, 3, 1.5), SpecInvalid,
     "window must be an integer, got 1.5"),
    ("mtilde-beta-key", lambda: mtilde(mab(1, 1), 2, {"a": 1, -1: 0}, 1), SpecInvalid,
     "beta index 'a' is not an integer"),
    ("mtilde-f-str-key", lambda: mtilde_f({"a": 1, -1: 0}, 1), SpecInvalid,
     "f index 'a' is not an integer"),
    ("mtilde-f-float-key", lambda: mtilde_f({1.7: S_POLY, -1: S_POLY}, 1), SpecInvalid,
     "f index 1.7 is not an integer"),
    ("mab-infinite", lambda: mab(float("inf"), 1), SpecInvalid, "a must be rational, got inf"),
    # two faults: each H4 parameter is coerced and checked in turn, in H4_PARAMS order
    ("mab-zero-a-then-bad-b", lambda: mab(0, "x"), SpecInvalid, "a != 0 and b != 0 are required"),
    ("mhb-bad-a2-then-zero-b", lambda: mhb(1, "x", 0), SpecInvalid, "a2 must be rational, got 'x'"),
]


@pytest.mark.parametrize(
    "build, error, message",
    [case[1:] for case in CONSTRUCTOR_FAULTS],
    ids=[case[0] for case in CONSTRUCTOR_FAULTS],
)
def test_constructor_faults_raise_their_class_and_message(build, error, message):
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


VIR = Vir00Spec(Fraction(2), Poly.var(("w0",), "w0"))

# Every entry point that reads a loop window: (read a window, its error
# class, the lowest window it takes).  Documents write the window on line 2.
WINDOW_READERS = [
    ("mtilde", lambda w: mtilde(mab(1, 1), 2, {}, w), SpecInvalid, 1),
    ("mtilde_f", lambda w: mtilde_f({}, w), SpecInvalid, 1),
    ("affvir", lambda w: affvir(mab(1, 1), 2, 3, w), SpecInvalid, 1),
    ("AffineSpec", lambda w: AffineSpec("MTildeF", w), SpecInvalid, 1),
    ("ActionData", lambda w: ActionData(AFFINE_H4, w, ()), MalformedData, 0),
    ("verify_module", lambda w: verify_module(mtilde_f({1: 0, -1: 0}, 1), w, 1), SpecInvalid, 1),
    ("generators", lambda w: generators(VIR, w), SpecInvalid, 0),
    ("generators-h4", lambda w: generators(mab(1, 1), w), SpecInvalid, 0),
    ("actions_of", lambda w: actions_of(VIR, w), SpecInvalid, 0),
    ("actions_of-h4", lambda w: actions_of(mab(1, 1), w), SpecInvalid, 0),
    ("actions_of-data", lambda w: actions_of(actions_of(VIR, 1), w), SpecInvalid, 0),
    ("spec-document", lambda w: parse_spec(f"algebra = AffineH4\nwindow = {w!r}\nfamily = MTildeF\n"),
     ConstraintViolation, 1),
    ("action-document", lambda w: parse_actions(f"algebra = AffineH4\nwindow = {w!r}\n"),
     ConstraintViolation, 0),
]


@pytest.mark.parametrize("window", [1.5, "2", -1, 0, MAX_WINDOW + 1],
                         ids=["float", "str", "negative", "zero", "above-limit"])
@pytest.mark.parametrize("read, error, low", [case[1:] for case in WINDOW_READERS],
                         ids=[case[0] for case in WINDOW_READERS])
def test_every_window_reader_applies_one_rule(read, error, low, window):
    """One message per fault and each caller's class; a document reports
    the rule's error at the window's value, and text that is no integer as
    a syntax error there."""
    if window == low == 0:
        read(window)
        return
    document = error is ConstraintViolation
    if not isinstance(window, int):
        if document:
            error, message = DslSyntaxError, "window must be an integer"
        else:
            message = f"window must be an integer, got {window!r}"
    elif window < low:
        message = f"window must be at least {low}"
    else:
        message = f"window exceeds the limit {MAX_WINDOW}"
    with pytest.raises(InputError) as info:
        read(window)
    assert type(info.value) is error
    assert info.value.message == message
    if document:
        assert (info.value.line, info.value.col) == (2, 10)


def test_a_window_above_the_limit_builds_no_value(monkeypatch):
    """generators and actions_of read a Vir00 window before any x.1, and
    actions_of reads each x.1 through the spec's form table, once."""
    calls = []
    int_form = nwfree.modfam._int_form
    monkeypatch.setattr(nwfree.modfam, "_int_form",
                        lambda spec, x: calls.append(x) or int_form(spec, x))
    spec = Vir00Spec(Fraction(2), Poly.var(("w0",), "w0"))  # its table starts empty
    for read in (generators, actions_of):
        with pytest.raises(SpecInvalid, match=f"^window exceeds the limit {MAX_WINDOW}$"):
            read(spec, 4000)
    assert calls == []
    first = actions_of(spec, 1)
    assert first.window == 1 and len(calls) == 7  # w, dvir at -1..1, and k
    assert actions_of(spec, 1) == first and len(calls) == 7  # the table answers


def test_constructor_functions_build_what_the_classes_build():
    """The constructor functions pass their arguments to the class, which
    coerces them once: the specs compare, hash, repr and pickle alike."""
    half = Fraction(1, 2)
    base = H4Family("Mab", a=half, b=Fraction(2))
    beta = ((-1, Fraction(0)), (0, Fraction(0)), (1, Fraction(0)))
    inner = AffineSpec("MTildeAlphaBeta", 1, alpha=Fraction(3), base=base, beta=beta)
    pairs = [
        (mhb("1/2", 0, 2), H4Family("Mhb", a1=half, a2=Fraction(0), b=Fraction(2))),
        (mbh(0.5, "-1", 2), H4Family("Mbh", a1=half, a2=Fraction(-1), b=Fraction(2))),
        (mab(half, 2), H4Family("Mab", a=half, b=Fraction(2))),
        (mtilde(mab("1/2", 2), "3", {1: 0, -1: 0}, 1), inner),
        (affvir(mab("1/2", 2), 3, "1/3", 1), AffVirSpec(inner, Fraction(1, 3))),
    ]
    for built, expected in pairs:
        assert built == expected and hash(built) == hash(expected)
        assert repr(built) == repr(expected)
        copy = pickle.loads(pickle.dumps(built))
        assert copy == expected and repr(copy) == repr(expected)
    assert mhb("1/2", 0, 2).a1 == half and type(mhb(1, 0, 2).a2) is Fraction


def test_every_spec_states_its_algebra_and_window():
    inner = mtilde(mab(1, 1), 2, {k: 0 for k in (-2, -1, 1, 2)}, 2)
    cases = [
        (mab(1, 1), H4, 0),
        (inner, AFFINE_H4, 2),
        (Vir00Spec(Fraction(2), Poly.zero(("w0",))), VIR00, None),
        (AffVirSpec(inner, Fraction(1)), AFF_VIR, 2),
        (actions_of(inner, 1), AFFINE_H4, 1),
    ]
    for spec, algebra, window in cases:
        assert algebra_of(spec) == spec.algebra == algebra
        assert spec.window == window
    spec_types = get_args(nwfree.modfam.AnySpec)
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in spec_types}
    assert [type(spec) for spec, _, _ in cases] == list(spec_types)
    assert fields == {
        "H4Family": ["variant", "g", "a1", "a2", "a", "b"],
        "AffineSpec": ["variant", "window", "alpha", "base", "beta", "fseq"],
        "Vir00Spec": ["lam", "fpoly"],
        "AffVirSpec": ["base", "lambda_shift"],
        "ActionData": ["algebra", "window", "assignments"],
    }


def test_membership_errors():
    with pytest.raises(SymbolNotInAlgebra):
        act(mg0(1), sym("p", 1), ONE_S)
    with pytest.raises(SymbolNotInAlgebra):
        act(mg0(1), K, ONE_S)
    with pytest.raises(SymbolNotInAlgebra):
        act(Vir00Spec(Fraction(1), Poly.zero(("w0",))), P, Poly.one(("d0", "w0")))


@pytest.mark.parametrize("spec, symbol", [
    (Vir00Spec(Fraction(-3, 2), Poly.var(("w0",), "w0")), P),  # no longer read as dvir
    (Vir00Spec(Fraction(-3, 2), Poly.var(("w0",), "w0")), sym("q", 3)),
    (affvir(mhb(1, 0, 1), 2, 3, 1), D),  # AffineVirasoroH4 has no d
    (mhb(1, 0, 1), K),
    (mtilde(mab(1, 1), 2, {1: 0, -1: 0}, 1), sym("dvir")),
    (actions_of(mab(1, 1)), D),
])
def test_on_one_refuses_a_symbol_outside_the_algebra(spec, symbol):
    message = f"^{format_symbol(symbol)} is not a basis symbol of {spec.algebra}$"
    with pytest.raises(SymbolNotInAlgebra, match=message):
        spec.on_one(symbol)
    with pytest.raises(SymbolNotInAlgebra, match=message):
        value_on_one(spec, symbol)
    with pytest.raises(SymbolNotInAlgebra, match=message):
        act(spec, symbol, Poly.one(module_variables(spec)))


def test_generators_ordering_and_window():
    spec = mtilde(m0(), 1, {1: 0, -1: 0}, window=1)
    gens = generators(spec)
    assert gens[0] == sym("p", -1)
    assert gens[-2:] == [K, D]
    assert len(gens) == 4 * 3 + 2
    assert generators(spec, window=1) == gens
    with pytest.raises(WindowExceeded):
        generators(spec, window=2)
    assert generators(mg0(1), window=3) == [P, Q, R, S]


@pytest.mark.parametrize("name, spec", sample_specs(), ids=[n for n, _ in sample_specs()])
def test_generators_gives_a_new_list_of_the_one_generator_list(name, spec):
    window = nwfree.modfam._resolve_window(spec, None)
    table = nwfree.modfam._symbols(spec.algebra, window)
    assert type(table) is tuple and nwfree.modfam._symbols(spec.algebra, window) is table
    first = generators(spec)
    assert first == list(table)
    first.reverse()
    first.append(None)
    second = generators(spec)
    assert type(second) is list and second is not first
    assert second == list(table) == list(nwfree.modfam._symbols(spec.algebra, window))


# bracket terms reach loop index 2 * MAX_WINDOW
TERM_LOOPS = range(-2 * MAX_WINDOW, 2 * MAX_WINDOW + 1)


@pytest.mark.parametrize("algebra", [H4, AFFINE_H4, VIR00, AFF_VIR])
def test_shift_of_matches_the_ladder_it_replaced(algebra):
    members = 0
    for kind in KIND_RANK:
        for n in TERM_LOOPS if kind not in ("k", "d") else (0,):
            x = sym(kind, n)
            try:
                check_in_algebra(algebra, x)
            except SymbolNotInAlgebra:
                continue
            members += 1
            assert shift_of(algebra, x) == shift_of_reference(algebra, x), x
    looped, fixed = ALGEBRA_KINDS[algebra]
    assert members == len(looped) * len(TERM_LOOPS) + len(fixed)


@pytest.mark.parametrize("name, spec", sample_specs(), ids=[n for n, _ in sample_specs()])
def test_action_data_has_the_generators_of_its_spec(name, spec):
    limit = spec.window
    windows = range(1, MAX_WINDOW + 1) if not limit else range(1, limit + 1)
    for w in windows:
        data = actions_of(spec, w)
        assert generators(data) == generators(spec, w), w
        assert generators(data, w) == generators(spec, w), w


def test_actions_of_round_trip_evaluation():
    spec = mtilde(mhb(1, 2, 3), Fraction(1, 2), {1: 5, -1: 1}, window=1)
    data = actions_of(spec)
    assert data.algebra == AFFINE_H4
    assert data.window == 1
    one = Poly.one(("s", "d"))
    for x in generators(spec):
        assert act(data, x, one) == act(spec, x, one)
    v = sd({(2, 1): 1, (0, 0): 3})
    for x in generators(spec):
        assert act(data, x, v) == act(spec, x, v)


# every family at window 2, so windows 0-2 each hold a loop family's generators
_WINDOW_2_SPECS = [
    *(spec for name, spec in sample_specs() if name in ("Mg0", "M0g", "Mhb", "Mbh", "Mab", "M0", "Vir00")),
    mtilde(mhb(1, 0, 1), Fraction(-7, 3), {-2: 1, -1: Fraction(1, 2), 1: 5, 2: 0}, window=2),
    mtilde_f({-2: S_POLY, -1: S_POLY + Poly.const(("s",), 2), 1: S_POLY ** 2, 2: S_POLY * 3}, window=2),
    affvir(mhb(1, 0, 1), alpha=2, lam=3, window=2),
]


@pytest.mark.parametrize("spec, window", [
    *((spec, w) for spec in _WINDOW_2_SPECS for w in range(3)),
    (affvir(mab(2, 3), alpha=Fraction(-1, 2), lam=Fraction(5, 3), window=8), 8),
])
def test_actions_of_gives_the_data_of_the_checking_constructor(spec, window):
    data = actions_of(spec, window)
    items = tuple((x, spec.on_one(x)) for x in generators(spec, window))
    checked = ActionData(spec.algebra, window if spec.algebra != H4 else 0, items)
    assert data == checked
    assert data.assignments == checked.assignments
    assert data._index == checked._index and type(data.window) is int


@pytest.mark.parametrize("name, spec", sample_specs(), ids=[n for n, _ in sample_specs()])
def test_actions_of_reads_the_window_of_action_data(name, spec):
    # action data goes through the one window rule like every other spec
    data = actions_of(spec, 1)
    copy = actions_of(data)
    assert copy == data and copy is not data
    with pytest.raises(SpecInvalid, match=r"^window must be an integer, got 1\.5$"):
        actions_of(data, 1.5)
    with pytest.raises(SpecInvalid, match=f"^window exceeds the limit {MAX_WINDOW}$"):
        actions_of(data, 99)
    if data.algebra == H4:  # no loop directions: every window collapses to 0
        assert actions_of(data, 2) == data
        return
    with pytest.raises(WindowExceeded, match="^window 2 exceeds the spec's window 1$"):
        actions_of(data, 2)
    smaller = actions_of(data, 0)  # restricted to loop index 0
    assert smaller == actions_of(spec, 0)
    assert smaller.window == 0 and {x.loop_index for x, _ in smaller.assignments} == {0}


def test_actions_of_incomplete_data_names_the_first_missing_generator():
    with pytest.raises(MalformedData, match="^no assignment for q$"):
        actions_of(ActionData(H4, 0, [(P, 1)]))
    data = actions_of(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1))
    kept = tuple((x, v) for x, v in data.assignments if x not in (sym("q", 1), R))
    with pytest.raises(MalformedData, match="^no assignment for q@1$"):  # canonical order
        actions_of(ActionData(AFFINE_H4, 1, kept))


def test_action_data_lookup_errors():
    data = actions_of(mtilde(mab(1, 1), 2, {1: 0, -1: 0}, window=1))
    with pytest.raises(WindowExceeded):
        act(data, sym("p", 2), Poly.one(("s", "d")))
    incomplete = ActionData(AFFINE_H4, 1, {sym("s", 0): S_POLY})
    with pytest.raises(MalformedData):
        act(incomplete, sym("p", 0), Poly.one(("s", "d")))


def _scanned(data, symbol):
    return [value for key, value in data.assignments if key == symbol]


@pytest.mark.parametrize(
    "spec", [mhb(1, 0, 1), mtilde(mab(1, 1), 2, {1: 0, -1: 0}, window=1)], ids=["h4", "affine"]
)
def test_action_data_lookups_agree_with_a_scan(spec):
    data = actions_of(spec)
    incomplete = ActionData(data.algebra, data.window, data.assignments[1:])
    for d in (data, incomplete):
        for symbol in [*generators(spec), sym("p", data.window + 1)]:
            found = _scanned(d, symbol)
            assert d.has(symbol) == bool(found)
            if found:
                assert d.value(symbol) is found[0]
            else:
                with pytest.raises(KeyError):
                    d.value(symbol)


def test_action_data_index_stays_out_of_equality_and_replace():
    data = actions_of(mtilde(mab(1, 1), 2, {1: 0, -1: 0}, window=1))
    twin = ActionData(data.algebra, data.window, dict(reversed(data.assignments)))
    assert twin == data
    assert hash(twin) == hash(data)
    assert repr(twin) == repr(data)
    assert [f.name for f in dataclasses.fields(ActionData)] == ["algebra", "window", "assignments"]
    one = Poly.one(("s", "d"))
    bumped = dataclasses.replace(data, assignments=[(k, v + one) for k, v in data.assignments])
    assert bumped != data
    for key, value in data.assignments:
        assert bumped.value(key) == value + one
        assert bumped.has(key)


def test_with_assignment_replaces():
    data = actions_of(mhb(1, 0, 1))
    bumped = with_assignment(data, R, Poly.zero(("s",)))
    assert value_on_one(bumped, R).is_zero()
    assert value_on_one(bumped, P) == value_on_one(data, P)


def test_value_cache_is_bounded_and_keeps_request_hits():
    # every generator value of the widest spec, base included, fits at once
    widest = affvir(mhb(1, 0, 1), 2, 3, MAX_WINDOW)
    assert MAX_CACHED_VALUES >= 4 * 2 * len(generators(widest))
    value_on_one.cache_clear()
    for a in range(1, MAX_CACHED_VALUES + 50):
        value_on_one(mab(a, 1), P)
    info = value_on_one.cache_info()
    assert info.maxsize == MAX_CACHED_VALUES
    assert info.currsize == MAX_CACHED_VALUES
    spec = mhb(1, 0, 1)
    value_on_one(spec, P)
    value_on_one(spec, P)
    assert value_on_one.cache_info().hits == info.hits + 1


def test_no_entry_point_touches_the_value_cache():
    value_on_one.cache_clear()
    for _, spec in sample_specs():
        variables = module_variables(spec)
        seed = sum((Poly.var(variables, v) for v in variables), Poly.one(variables)) ** 2
        for x in generators(spec):
            act(spec, x, seed)
        actions_of(spec)
        verify_module(spec, 1, 2)
        if decide(spec).irreducible:
            cert = reduction_chain(spec, seed)
            value = cert.seed
            for op, recorded in cert.chain:
                value = apply_chain_op(spec, op, value)
                assert value == recorded
        else:
            witness(spec)
        orbit_oracle(spec, seed, 2, 3)
    info = value_on_one.cache_info()
    assert info.hits == info.misses == info.currsize == 0


def test_each_value_on_one_is_computed_once_per_spec(monkeypatch):
    # Every spec owns one form table, so over the whole request list no
    # (spec, symbol) pair is computed twice, and each request returns what
    # it returns on a freshly built equal spec, whose table starts empty.
    calls = []  # (spec, symbol) per value computed, lookups that raise left out
    real = nwfree.modfam._int_form  # the one entry every form table builds through

    def counting(spec, x):
        value = real(spec, x)
        calls.append((spec, x))
        return value

    monkeypatch.setattr(nwfree.modfam, "_int_form", counting)
    h4 = mbh(2, -1, 3)  # q.1 is not constant, so the chain acts with p
    affine = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    virasoro = affvir(mab(2, 3), 2, 3, window=1)
    reducible = mtilde(mg0(S_POLY ** 2 - S_POLY), 2, {1: 5, -1: 0}, window=1)

    def cubed(spec):
        variables = module_variables(spec)
        return sum((Poly.var(variables, v) for v in variables), Poly.one(variables)) ** 3

    def replayed(spec):
        cert = reduction_chain(spec, cubed(spec))
        current = cert.seed
        for op, _ in cert.chain:
            current = apply_chain_op(spec, op, current)
        return cert, current

    requests = [
        (h4, replayed),
        (affine, replayed),
        (virasoro, replayed),
        (affine, lambda spec: orbit_oracle(spec, cubed(spec), 3, 4)),
        (reducible, witness),
        (h4, lambda spec: verify_module(spec, 1, 3)),
        # pairs whose bracket leaves the window are skipped
        (affine, lambda spec: verify_module(spec, 1, 2)),
        (virasoro, lambda spec: verify_module(spec, 1, 2)),
        (h4, lambda spec: [act(spec, x, cubed(spec)) for x in generators(spec)]),
    ]
    fresh_specs = []  # kept alive, so no two specs here share an id
    for spec, run in requests:
        got = run(spec)
        fresh = parse_spec(format_spec(spec))
        assert fresh == spec and fresh is not spec
        fresh_specs.append(fresh)
        assert run(fresh) == got, spec
    computed = [(id(spec), x) for spec, x in calls]
    assert len(computed) == len(set(computed))

    def h4_base(spec):  # the H4 family whose table an affine spec's p, q and r read
        return spec if isinstance(spec, H4Family) else h4_base(spec.base)

    specs = [spec for spec, _ in requests] + fresh_specs
    assert {id(s) for s in specs} | {id(h4_base(s)) for s in specs} == {
        id(spec) for spec, _ in calls
    }


def _entry_point_texts(target):
    """The text of every entry point on a spec or its action data, in order."""
    variables = module_variables(target)
    seed = sum((Poly.var(variables, v) for v in variables), Poly.one(variables)) ** 2
    texts = [format_report(verify_module(target, 1, 2)), repr(orbit_oracle(target, seed, 2, 3))]
    texts += [repr(act(target, x, seed)) for x in generators(target)]
    if isinstance(target, ActionData):
        try:
            texts.append(repr(classify(target)))
        except MalformedData as exc:  # Vir00 and affine-Virasoro data
            texts.append(str(exc))
        return texts
    alg = algebra_of(target)
    if decide(target).irreducible:
        cert = reduction_chain(target, seed)
        texts.append(format_certificate(cert, alg))
        current = cert.seed
        for op, _ in cert.chain:
            current = apply_chain_op(target, op, current)
            texts.append(repr(current))
    else:
        wit = witness(target)
        texts += [format_witness(wit, alg), repr(wit)]
    texts.append(repr(actions_of(target)))
    return texts


@pytest.mark.parametrize("name", [n for n, _ in sample_specs()])
def test_a_spec_shares_its_form_table_safely(name):
    # Run twice on one spec object, and on its action data, every entry point
    # reads the forms the first run stored; a reader that changed a shared
    # map would make the second run differ from a fresh parse.
    spec = dict(sample_specs())[name]
    fresh = parse_spec(format_spec(spec))
    want = _entry_point_texts(fresh)
    data = actions_of(spec)
    want_data = _entry_point_texts(parse_actions(format_actions(data)))
    for _ in range(2):
        assert _entry_point_texts(spec) == want
        assert _entry_point_texts(data) == want_data
    # a used spec still pickles, copies and compares as its fields do
    for target in (spec, data):
        for copied in (pickle.loads(pickle.dumps(target)), copy.deepcopy(target),
                       copy.copy(target)):
            assert copied == target and hash(copied) == hash(target)
            assert repr(copied) == repr(target)
            assert "_forms" not in vars(copied)
    assert _entry_point_texts(copy.deepcopy(spec)) == want
    assert _entry_point_texts(pickle.loads(pickle.dumps(data))) == want_data


def test_a_used_spec_is_freed_with_its_last_reference():
    # The table holds only a weak reference to its spec, so no cycle keeps a
    # used spec, or its action data, alive until a collection.
    gc.disable()
    try:
        for name, _ in sample_specs():
            spec = dict(sample_specs())[name]
            data = actions_of(spec)
            _entry_point_texts(spec)
            _entry_point_texts(data)
            assert vars(spec)["_forms"] and vars(data)["_forms"]
            refs = [weakref.ref(spec), weakref.ref(data)]
            del spec, data
            assert [ref() for ref in refs] == [None, None], name
    finally:
        gc.enable()


def test_a_zero_value_on_one_multiplies_nothing(monkeypatch):
    factors = []
    real = nwfree.modfam._mul

    def recording(ints, factor):
        factor = list(factor)
        factors.append(len(factor))
        return real(ints, factor)

    monkeypatch.setattr(nwfree.modfam, "_mul", recording)
    fseq = {1: S_POLY ** 2, -1: S_POLY + 2 * ONE_S}
    for spec in (mg0(S_POLY ** 2 - S_POLY), m0g(5), m0(), mtilde_f(fseq, window=1)):
        data = actions_of(spec)
        assert any(value.is_zero() for _, value in data.assignments)
        assert verify_module(spec, 1, 2).passed
        variables = module_variables(spec)
        v = Poly.var(variables, "s") + Poly.one(variables)
        for x in generators(spec):
            assert act(spec, x, v) == act_reference(spec, x, v)
    assert factors and min(factors) > 0


def test_vir00_data_window_defaults_to_two():
    data = actions_of(Vir00Spec(Fraction(3), Poly.one(("w0",))))
    assert data.window == 2
    assert data.has(sym("dvir", -2)) and data.has(sym("s", 2)) and data.has(K)


def test_vir00_data_names_its_commuting_generators_w():
    data = actions_of(Vir00Spec(Fraction(3), Poly.one(("w0",))), 1)
    one = Poly.one(("d0", "w0"))
    with pytest.raises(WindowExceeded, match=r"^w@2 outside window 1$"):
        act(data, sym("s", 2), one)
    with pytest.raises(MalformedData, match=r"^w@2 lies outside window 1$"):
        ActionData(VIR00, 1, {sym("s", 2): 0})
    with pytest.raises(MalformedData, match=r"^duplicate assignment for w@1$"):
        ActionData(VIR00, 1, [(sym("s", 1), 0), (sym("s", 1), 1)])
    partial = ActionData(VIR00, 1, [a for a in data.assignments if a[0] != sym("s")])
    with pytest.raises(MalformedData, match=r"^no assignment for w$"):
        act(partial, sym("s"), one)
    # the same symbols in AffineVirasoroH4 data are s
    with pytest.raises(MalformedData, match=r"^s@2 lies outside window 1$"):
        ActionData(AFF_VIR, 1, {sym("s", 2): 0})


coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def poly_st(variables, max_degree=3):
    count = len(variables)
    exps = st.tuples(*(st.integers(min_value=0, max_value=max_degree),) * count)
    return st.dictionaries(exps, coeffs, max_size=4).map(lambda d: Poly(variables, d))


@settings(max_examples=40, deadline=None)
@given(poly_st(("s", "d")), poly_st(("s", "d")), coeffs)
def test_linearity(u, v, c):
    spec = mtilde(mhb(2, -1, 3), Fraction(1, 2), {1: 5, -1: 1}, window=1)
    for x in (sym("p", 1), sym("s", -1), D):
        assert act(spec, x, u + c * v) == act(spec, x, u) + c * act(spec, x, v)


@settings(max_examples=30, deadline=None)
@given(poly_st(("s",)))
def test_freeness_anchor_h4(v):
    assert act(mab(2, 3), S, v) == S_POLY * v


@settings(max_examples=30, deadline=None)
@given(poly_st(("s", "d")))
def test_freeness_anchor_affine(v):
    spec = mtilde(mg0(S_POLY), 3, {1: 1, -1: 2}, window=1)
    assert act(spec, D, v) == Poly.var(("s", "d"), "d") * v


@settings(max_examples=30, deadline=None)
@given(poly_st(("d0", "w0")))
def test_freeness_anchor_vir00(v):
    spec = Vir00Spec(Fraction(5), Poly.var(("w0",), "w0") ** 2)
    assert act(spec, sym("dvir", 0), v) == Poly.var(("d0", "w0"), "d0") * v
    assert act(spec, sym("s", 0), v) == Poly.var(("d0", "w0"), "w0") * v


def test_loop_scaling_property():
    spec = mtilde(mbh(1, 1, 2), Fraction(3, 2), {k: k for k in range(-2, 3)}, window=2)
    one = Poly.one(("s", "d"))
    for kind in ("p", "q", "r"):
        base = act(spec, sym(kind, 0), one)
        for k in range(-2, 3):
            assert act(spec, sym(kind, k), one) == Fraction(3, 2) ** k * base


def test_r_acts_by_constant():
    for fam in (mg0(S_POLY ** 2), m0g(5), mhb(1, 0, 1), mbh(2, -1, 3), mab(2, 3), m0()):
        got = act(fam, R, S_POLY ** 3 + ONE_S)
        r1 = fam.on_one(R)
        assert r1.is_constant()
        assert got == r1 * (S_POLY ** 3 + ONE_S)
        if fam.variant in ("Mg0", "M0g", "Mab", "M0"):
            assert r1.is_zero()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (WindowExceeded, SymbolNotInAlgebra, VariableMismatch) as err:
        return type(err)


_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def act_cases(draw):
    spec = draw(st.sampled_from([spec for _, spec in sample_specs()]))
    variables = module_variables(spec)
    n = len(variables)
    v = draw(st.one_of(
        st.just(Poly.zero(variables)),
        _fractions.map(lambda c: Poly.const(variables, c)),
        st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), _fractions), max_size=5)
        .map(lambda ts: Poly(variables, ts)),
        # a vector in variables of no module of this spec
        st.just(Poly.var(("x",), "x")),
    ))
    # in-window generators, one outside every window (Vir00 has none), and
    # one outside every algebra
    symbols = st.sampled_from(generators(spec) + [sym("s", 9), sym("p", 9), sym("dvir", 0)])
    x = draw(st.one_of(
        symbols,
        st.lists(st.tuples(symbols, _fractions), max_size=4).map(LieElement),
    ))
    return spec, x, v


@settings(max_examples=400, deadline=None)
@given(act_cases())
def test_act_matches_shift_then_multiply_reference(case):
    spec, x, v = case
    got = _outcome(act, spec, x, v)
    assert got == _outcome(act_reference, spec, x, v)
    if isinstance(got, Poly):
        assert got.variables == module_variables(spec)
        assert got == Poly(got.variables, got.terms)
