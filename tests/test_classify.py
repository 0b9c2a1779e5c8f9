import itertools
from fractions import Fraction

import pytest
from helpers import (
    SD_D,
    SD_S,
    affine_data,
    classify_affine_reference,
    classify_h4_reference,
    corrupted_fixtures,
    h4_data,
    h4_specs,
    loop_specs,
    random_specs,
    sample_specs,
    with_assignment,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nwfree.classify import (
    Classified,
    Rejected,
    UnsupportedIso,
    UnsupportedTwist,
    WindowMismatch,
    classify,
    classify_affine,
    classify_h4,
    iso_check,
    twist,
)
from nwfree.exactpoly import Poly, exponents_upto, monomials_upto, negate_var
from nwfree.liealg import AFFINE_H4, H4, D, K, P, Q, R, S, VIR00, LieElement, eta, sym
from nwfree.modfam import (
    MODULE_VARIABLES,
    ActionData,
    MalformedData,
    Vir00Spec,
    act,
    actions_of,
    algebra_of,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    mtilde,
    mtilde_f,
)
from nwfree.verify import verify_module

S_POLY = Poly.var(("s",), "s")
ONE = Poly.one(("s",))
MTF = mtilde_f({1: S_POLY ** 2, -1: S_POLY + 2 * ONE}, window=1)


def test_classify_h4_mhb_example():
    data = h4_data(S_POLY + 2 * ONE, 3, -3)
    got = classify_h4(data)
    assert got == Classified(mhb(1, 2, 3))


def test_classify_h4_zero_module():
    assert classify_h4(h4_data(0, 0, 0)) == Classified(m0())


def test_classify_h4_degree_rejection():
    got = classify_h4(h4_data(S_POLY ** 2, 1, 0))
    assert isinstance(got, Rejected)
    assert got.anchor == "degree-dichotomy"
    assert "(2, 0)" in got.reason


def test_classify_h4_all_families_round_trip():
    fams = [
        mg0(2),
        mg0(S_POLY ** 2 - S_POLY),
        m0g(S_POLY ** 2 + ONE),
        mhb(1, 0, 1),
        mhb(2, -1, 3),
        mbh(Fraction(1, 2), 5, Fraction(-2, 3)),
        mab(2, 3),
        m0(),
    ]
    for fam in fams:
        assert classify(actions_of(fam)) == Classified(fam)


def test_classify_dispatch_and_malformed():
    with pytest.raises(MalformedData):
        classify(actions_of(Vir00Spec(Fraction(2), Poly.var(("w0",), "w0"))))
    with pytest.raises(MalformedData):
        classify_h4(ActionData(H4, 0, {P: S_POLY, Q: ONE, R: 0}))  # no s slot
    bad_s = ActionData(H4, 0, {P: 0, Q: 0, R: 0, S: S_POLY + ONE})
    with pytest.raises(MalformedData):
        classify_h4(bad_s)
    with pytest.raises(MalformedData):
        classify_affine(actions_of(mg0(1)))
    demo = actions_of(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1))
    with pytest.raises(MalformedData, match="^classify_h4 needs H4 data$"):
        classify_h4(demo)
    with pytest.raises(MalformedData, match="^d must act as multiplication by d$"):
        classify_affine(with_assignment(demo, D, SD_S))


def test_window_zero_affine_data_is_malformed():
    zero = Poly.zero(("s", "d"))
    one = Poly.one(("s", "d"))
    data = ActionData(AFFINE_H4, 0, {P: one, Q: one, R: zero, S: SD_S, K: zero, D: SD_D})
    with pytest.raises(MalformedData, match="^window must be a positive integer$"):
        classify(data)  # alpha would be read from f_1
    all_zero = with_assignment(with_assignment(data, P, zero), Q, zero)
    with pytest.raises(ValueError, match="^window must be at least 1$"):
        classify(all_zero)  # MTildeF rejects the window itself


def test_classify_affine_round_trip_example():
    spec = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    assert classify_affine(actions_of(spec)) == Classified(spec)


def test_classify_affine_window_two_round_trip():
    spec = mtilde(mbh(2, -1, 3), Fraction(1, 2), {2: 1, 1: 5, -1: 0, -2: Fraction(2, 7)}, window=2)
    assert classify(actions_of(spec)) == Classified(spec)


def test_classify_mtilde_f_round_trip():
    # p = q = r = 0 skips the s-degree check: f_k of any s-degree is M~_F
    assert classify(actions_of(MTF)) == Classified(MTF)
    spec = mtilde_f({2: S_POLY ** 3 - S_POLY, 1: 0, -1: ONE, -2: 2 * S_POLY ** 2}, window=2)
    assert classify(actions_of(spec)) == Classified(spec)


def test_zero_base_canonicalizes_to_mtilde_f():
    spec = mtilde(m0(), 2, {1: 5, -1: 0}, window=1)
    got = classify(actions_of(spec))
    assert isinstance(got, Classified)
    expected = mtilde_f(
        {1: 2 * S_POLY + 5 * ONE, -1: Fraction(1, 2) * S_POLY}, window=1
    )
    assert got.spec == expected


def test_classify_affine_deg_d_rejection():
    spec = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    data = with_assignment(actions_of(spec), sym("s", 1), SD_S * Poly.var(("s", "d"), "d"))
    got = classify_affine(data)
    assert isinstance(got, Rejected) and got.anchor == "deg-d-f"
    assert "f_1" in got.reason


def test_classify_affine_alpha_inverse_rejection():
    data = affine_data(
        p={-1: Fraction(1, 2) * SD_S, 0: SD_S, 1: 2 * SD_S},
        q={},
        r={},
        f={-1: 3 * SD_S, 0: SD_S, 1: 2 * SD_S},
    )
    got = classify_affine(data)
    assert isinstance(got, Rejected) and got.anchor == "alpha-power"
    assert "f_-1" in got.reason


def test_classify_affine_f0_side_condition():
    # f_0 = s+1 breaks no axiom, only the normalization, so no soundness fixture
    spec = mtilde(mab(1, 2), 3, {1: 0, -1: 1}, window=1)
    data = with_assignment(actions_of(spec), sym("s", 0), SD_S + Poly.one(("s", "d")))
    got = classify_affine(data)
    assert isinstance(got, Rejected) and got.anchor == "f0-side-condition"
    data = with_assignment(actions_of(MTF), sym("s", 0), SD_S + Poly.one(("s", "d")))
    assert classify_affine(data) == Rejected("f0-side-condition", "f_0 = s+1 must equal s")


def more_rejections():
    """(anchor, data) pairs past corrupted_fixtures(), which the verify goldens
    digest: the p = q = r = 0 path's checks, a zero alpha, a base rejection
    passed on as it is, and alpha-power and loop-scaling at loop -1 for
    alpha = -7/3.  Each also fails verify."""
    mtf_data = actions_of(MTF)
    demo_data = actions_of(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1))
    half = Fraction(1, 2)
    # alpha^-1 = -3/7, so p@-1 = -3*s+3 and f_-1 = -3/7*s-2
    seven_data = actions_of(mtilde(mhb(7, -7, 3), Fraction(-7, 3), {1: half, -1: -2}, window=1))
    sd_one = Poly.one(("s", "d"))
    return [
        ("deg-d-f", with_assignment(mtf_data, sym("s", 1), SD_S * SD_D)),
        ("central-k", with_assignment(mtf_data, K, 1)),
        ("alpha-nonzero", with_assignment(demo_data, sym("s", 1), 5 * Poly.one(("s", "d")))),
        (
            "degree-dichotomy",
            affine_data(
                p={-1: half * SD_S ** 2, 0: SD_S ** 2, 1: 2 * SD_S ** 2},
                q={-1: half, 0: 1, 1: 2},
                r={},
                f={-1: half * SD_S, 0: SD_S, 1: 2 * SD_S},
            ),
        ),
        ("alpha-power", with_assignment(seven_data, sym("s", -1), Fraction(3, 7) * SD_S - 2 * sd_one)),
        # the numerators of alpha^-1 * p.1 over another denominator
        ("loop-scaling", with_assignment(seven_data, sym("p", -1), Fraction(1, 5) * (3 * sd_one - 3 * SD_S))),
    ]


REJECTIONS = corrupted_fixtures() + more_rejections()
# The reason of each rejection, in the order of REJECTIONS, as the checks
# on Poly and Fraction arithmetic wrote it
REJECTION_REASONS = [
    "r.1 = s is not a constant",
    "r.1 = 1 must vanish when p.1 or q.1 is zero",
    "degree pair (2, 0) is not (0,0), (1,0) or (0,1)",
    "r.1 = 3 but [p,q] forces -3",
    "f_1 = s*d depends on d",
    "f_1 = s^2 has s-degree above 1",
    "s-coefficient of f_-1 is 3, expected alpha^-1 = 1/2",
    "p at loop 1 is not alpha^1 times its loop-0 value",
    "k.1 = 1 must be 0",
    "p.1 = d depends on d",
    "f_1 = s*d depends on d",
    "k.1 = 1 must be 0",
    "the s-coefficient of f_1 must be invertible",
    "degree pair (2, 0) is not (0,0), (1,0) or (0,1)",
    "s-coefficient of f_-1 is 3/7, expected alpha^-1 = -3/7",
    "p at loop -1 is not alpha^-1 times its loop-0 value",
]


@pytest.mark.parametrize("anchor,data,reason", [
    pytest.param(anchor, data, reason, id=f"{anchor}-data{i}")
    for i, ((anchor, data), reason) in enumerate(zip(REJECTIONS, REJECTION_REASONS, strict=True))
])
def test_rejection_anchors(anchor, data, reason):
    assert classify(data) == Rejected(anchor, reason)


@pytest.mark.parametrize("anchor,data", REJECTIONS)
def test_rejection_soundness(anchor, data):
    # every rejected datum really does break the module axiom somewhere
    report = verify_module(data, window=1, test_degree=2)
    assert not report.passed, anchor


def test_twist_images():
    assert twist(mg0(S_POLY ** 2 + S_POLY)) == m0g(S_POLY ** 2 - S_POLY)
    assert twist(mg0(5 * ONE)) == m0g(5)
    assert twist(mhb(1, 0, 2)) == mbh(-1, 0, -2)
    for fam in (m0g(1), mbh(1, 0, 1), mab(2, 3), m0()):
        with pytest.raises(UnsupportedTwist):
            twist(fam)
    # specs of the other algebras have no recorded image either
    for _, spec in sample_specs()[6:]:
        with pytest.raises(UnsupportedTwist):
            twist(spec)


@pytest.mark.parametrize("spec", [
    mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1),
    Vir00Spec(Fraction(3), Poly.one(("w0",))),
], ids=["affine", "vir00"])
def test_twist_refusal_names_the_spec_class(spec):
    name = type(spec).__name__
    with pytest.raises(UnsupportedTwist, match=f"^no twist image recorded for {name}$"):
        twist(spec)


def assert_twist_intertwines(fam):
    """y acts on twist(x) as eta(y) acts on x, through s -> -s."""
    target = twist(fam)
    for y in (P, Q, R, S):
        twisted = eta(LieElement.basis(y))
        for v in monomials_upto(("s",), 4):
            lhs = act(target, y, v)
            rhs = negate_var(act(fam, twisted, negate_var(v, "s")), "s")
            assert lhs == rhs, (fam, y)


@pytest.mark.parametrize(
    "fam", [mg0(S_POLY ** 2 + S_POLY), mg0(5 * ONE), mhb(1, 0, 2), mhb(2, -1, 3)]
)
def test_twist_intertwines_actions(fam):
    assert_twist_intertwines(fam)


@settings(deadline=None)
@given(h4_specs(("Mg0", "Mhb")))
def test_twist_intertwines_actions_on_drawn_specs(fam):
    assert_twist_intertwines(fam)
    assert verify_module(twist(fam), test_degree=3).passed


def test_iso_check_criteria():
    base = mhb(1, 1, 2)
    beta = {2: 5, 1: 0, -1: 0, -2: 0}
    a = mtilde(base, 2, beta, window=2)
    assert iso_check(a, mtilde(base, 2, dict(beta), window=2))
    b2 = dict(beta)
    b2[2] = 6
    assert not iso_check(a, mtilde(base, 2, b2, window=2))
    assert not iso_check(a, mtilde(mhb(1, 1, 3), 2, beta, window=2))
    assert not iso_check(a, mtilde(base, Fraction(1, 2), beta, window=2))
    with pytest.raises(WindowMismatch):
        iso_check(a, mtilde(base, 2, {1: 0, -1: 0}, window=1))
    with pytest.raises(UnsupportedIso):
        iso_check(a, mtilde_f({2: 0, 1: 0, -1: 0, -2: 0}, window=2))
    with pytest.raises(UnsupportedIso):
        iso_check(mhb(1, 0, 1), a)


def test_iso_check_is_equivalence():
    specs = [
        mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1),
        mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1),
        mtilde(mhb(1, 0, 1), 2, {1: 6, -1: 0}, window=1),
        mtilde(mab(2, 3), 2, {1: 5, -1: 0}, window=1),
        mtilde(mab(2, 3), Fraction(1, 2), {1: 0, -1: 0}, window=1),
    ]
    for x in specs:
        assert iso_check(x, x)
    for x, y in itertools.product(specs, specs):
        assert iso_check(x, y) == iso_check(y, x)
    for x, y, z in itertools.product(specs, specs, specs):
        if iso_check(x, y) and iso_check(y, z):
            assert iso_check(x, z)


def test_classified_spec_regenerates_data():
    fixtures = [
        actions_of(mhb(1, 2, 3)),
        actions_of(mtilde(m0g(S_POLY), 3, {1: 1, -1: 2}, window=1)),
    ]
    for data in fixtures:
        got = classify(data)
        assert isinstance(got, Classified)
        assert actions_of(got.spec, data.window) == data


@settings(deadline=None)
@given(random_specs().filter(lambda spec: algebra_of(spec) in (H4, AFFINE_H4)))
def test_classify_recovers_every_drawn_h4_and_affine_spec(spec):
    assert classify(actions_of(spec)) == Classified(spec)


# ------------------------------------------- the classification, both ways

CARTAN = (S, D)  # s, which is s@0 in AffineH4, and d must act as their variables
_SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=7)
_H4_AND_AFFINE = random_specs().filter(lambda spec: algebra_of(spec) in (H4, AFFINE_H4))


def perturbed(data, symbol, delta):
    """(symbol, delta, data with delta added to the value on 1 of symbol)."""
    return symbol, delta, with_assignment(data, symbol, data.value(symbol) + delta)


@st.composite
def perturbed_data(draw, cartan):
    """`perturbed` on the action data of a drawn H4 or AffineH4 spec, with
    delta a nonempty sum of at most two terms of degree at most 2, on a
    Cartan element when `cartan` holds and on any other generator
    otherwise."""
    data = actions_of(draw(_H4_AND_AFFINE))
    symbol = draw(st.sampled_from([x for x, _ in data.assignments if (x in CARTAN) == cartan]))
    variables = MODULE_VARIABLES[data.algebra]
    exponents = st.sampled_from(exponents_upto(len(variables), 2))
    terms = draw(st.dictionaries(exponents, _SMALL, min_size=1, max_size=2))
    return perturbed(data, symbol, Poly(variables, terms.items()))


@settings(deadline=None)
@given(perturbed_data(cartan=False))
# two cases few draws reach: f_-1 off alpha^-1 alone, which only the
# alpha-power check refuses, and p.1 = s+1, which is Mhb(1, 1, 1) again
@example(perturbed(actions_of(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, 1)), sym("s", -1), SD_S))
@example(perturbed(actions_of(mhb(1, 0, 1)), P, ONE))
def test_classify_accepts_exactly_the_data_that_passes_verify(case):
    # every family is a module, and every module in the window is a family;
    # a pair's residual does not depend on v, so test degree 1 decides
    _, _, data = case
    passed = verify_module(data, max(data.window, 1), 1).passed
    assert isinstance(classify(data), Classified) == passed


@settings(deadline=None)
@given(perturbed_data(cartan=True))
def test_a_cartan_value_off_its_variable_is_refused(case):
    symbol, delta, data = case
    assume(not delta.is_zero())
    if data.algebra == AFFINE_H4 and symbol == S:  # s@0 is f_0, read as an anchor
        got = classify(data)
        assert isinstance(got, Rejected)
        assert got.anchor in ("deg-d-f", "deg-s-f", "f0-side-condition")
        if delta.is_constant():
            assert got.anchor == "f0-side-condition"
        return
    with pytest.raises(MalformedData, match=f"^{symbol.kind} must act as multiplication by"):
        classify(data)


# ------------------------------------------- against the Poly and Fraction checks

@st.composite
def perturbed_loop_data(draw):
    """The action data of a drawn `loop_specs` spec with one value changed
    in one of three ways: a coefficient changed on the same exponents, an
    extra term added to the correctly scaled value, or an f_k's
    s-coefficient or constant changed."""
    data = actions_of(draw(loop_specs()))
    w = data.window
    way = draw(st.sampled_from(("coefficient", "extra-term", "f")))
    variables = MODULE_VARIABLES[AFFINE_H4]
    if way == "f":
        symbol = sym("s", draw(st.integers(-w, w)))
        exps = draw(st.sampled_from([(1, 0), (0, 0)]))
        delta = Poly.monomial(variables, exps, draw(_SMALL.filter(bool)))
        return with_assignment(data, symbol, data.value(symbol) + delta)
    symbols = [sym(kind, k) for kind in "pqrs" for k in range(-w, w + 1)]
    if way == "coefficient":
        symbol = draw(st.sampled_from([x for x in symbols if not data.value(x).is_zero()]))
        terms = dict(data.value(symbol).terms)
        exps = draw(st.sampled_from(sorted(terms)))
        terms[exps] = draw(_SMALL.filter(lambda c: c and c != terms[exps]))
        return with_assignment(data, symbol, Poly(variables, terms))
    symbol = draw(st.sampled_from(symbols))
    value = data.value(symbol)
    used = {e for e, _ in value.numerators}
    exps = draw(st.sampled_from([e for e in exponents_upto(2, 2) if e not in used]))
    delta = Poly.monomial(variables, exps, draw(_SMALL.filter(bool)))
    return with_assignment(data, symbol, value + delta)


@settings(deadline=None)
@given(perturbed_loop_data())
def test_classify_affine_matches_the_reference(data):
    assert classify(data) == classify_affine_reference(data)


@settings(deadline=None)
@given(perturbed_data(cartan=False).filter(lambda case: case[2].algebra == H4))
def test_classify_h4_matches_the_reference(case):
    _, _, data = case
    assert classify(data) == classify_h4_reference(data)
