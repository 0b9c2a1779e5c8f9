from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nwfree.exactpoly import (
    NEG_INF,
    Poly,
    Shift,
    VariableMismatch,
    apply_shift,
    change_variables,
    coefficient_in,
    degree_in,
    format_poly,
    monomials_upto,
    negate_var,
    reduce_mod_univariate,
)

S = ("s",)
SD = ("s", "d")

TAU = Shift.of(s=-1)
TAU_INV = Shift.of(s=1)
SIGMA = Shift.of(d=-1)


def p_s(text_terms):
    return Poly(S, text_terms)


def test_add_cancellation():
    a = Poly(S, {(2,): 1, (0,): 1})  # s^2 + 1
    b = Poly(S, {(2,): -1})  # -s^2
    assert a + b == Poly.const(S, 1)


def test_add_collects():
    assert Poly(S, {(1,): 2}) + Poly(S, {(1,): 3}) == Poly(S, {(1,): 5})


def test_add_mixed_bivariate():
    sd = Poly(SD, {(1, 1): 1})
    s = Poly(SD, {(1, 0): 1})
    assert sd + s == Poly(SD, {(1, 1): 1, (1, 0): 1})


def test_add_variable_mismatch():
    with pytest.raises(VariableMismatch):
        Poly.one(S) + Poly.one(SD)


def test_mul_difference_of_squares():
    a = Poly(S, {(1,): 1, (0,): -1})
    b = Poly(S, {(1,): 1, (0,): 1})
    assert a * b == Poly(S, {(2,): 1, (0,): -1})


def test_mul_zero_annihilates():
    z = Poly.zero(SD)
    x = Poly(SD, {(3, 0): 1, (0, 1): 1})
    assert z * x == z


def test_mul_rational_coefficients():
    # (1/2 s)(2s + 5) = s^2 + 5/2 s
    a = Poly(S, {(1,): Fraction(1, 2)})
    b = Poly(S, {(1,): 2, (0,): 5})
    assert a * b == Poly(S, {(2,): 1, (1,): Fraction(5, 2)})


def test_shift_tau_on_square():
    # tau: s -> s - 1 sends s^2 to s^2 - 2s + 1
    assert apply_shift(TAU, Poly(S, {(2,): 1})) == Poly(S, {(2,): 1, (1,): -2, (0,): 1})


def test_shift_sigma_on_product():
    # sigma: d -> d - 1 sends s*d to s*d - s
    assert apply_shift(SIGMA, Poly(SD, {(1, 1): 1})) == Poly(SD, {(1, 1): 1, (1, 0): -1})


def test_shift_combined_offsets():
    # tau^-1 sigma^3 on s + d gives (s+1) + (d-3) = s + d - 2
    sh = Shift.of(s=1, d=-3)
    x = Poly(SD, {(1, 0): 1, (0, 1): 1})
    assert apply_shift(sh, x) == Poly(SD, {(1, 0): 1, (0, 1): 1, (0, 0): -2})


def test_shift_absent_variable_rejected():
    with pytest.raises(VariableMismatch):
        apply_shift(SIGMA, Poly.one(S))


def test_negate_var_examples():
    assert negate_var(Poly(S, {(2,): 1, (1,): 1}), "s") == Poly(S, {(2,): 1, (1,): -1})
    assert negate_var(Poly.const(S, 7), "s") == Poly.const(S, 7)
    assert negate_var(Poly(SD, {(1, 1): 1}), "s") == Poly(SD, {(1, 1): -1})


def test_degree_in_examples():
    x = Poly(SD, {(2, 1): 1, (1, 0): 1})  # s^2 d + s
    assert degree_in(x, "s") == 2
    assert degree_in(Poly(SD, {(2, 0): 1}), "d") == 0
    assert degree_in(Poly.zero(S), "s") is NEG_INF


def test_format_and_canonical_order():
    x = Poly(SD, {(2, 0): Fraction(1, 2), (1, 1): -3, (0, 0): 7})
    assert format_poly(x) == "1/2*s^2-3*s*d+7"
    assert format_poly(Poly.zero(S)) == "0"
    assert format_poly(Poly(S, {(1,): -2, (0,): 1})) == "-2*s+1"


def test_monomials_upto_counts():
    assert len(monomials_upto(S, 3)) == 4
    assert len(monomials_upto(SD, 3)) == 10
    assert monomials_upto(S, 1) == [Poly.one(S), Poly.var(S, "s")]


def test_change_variables_embed_and_restrict():
    g = Poly(S, {(2,): 1, (0,): -1})
    wide = change_variables(g, SD)
    assert wide == Poly(SD, {(2, 0): 1, (0, 0): -1})
    assert change_variables(wide, S) == g
    with pytest.raises(VariableMismatch):
        change_variables(Poly(SD, {(0, 1): 1}), S)


def test_coefficient_in():
    x = Poly(SD, {(1, 2): 3, (1, 0): -1, (0, 0): 5})
    assert coefficient_in(x, "s", 1) == Poly(SD, {(0, 2): 3, (0, 0): -1})
    assert coefficient_in(x, "s", 0) == Poly(SD, {(0, 0): 5})


def test_reduce_mod_univariate():
    # s^2 - s is divisible by s; s^2 + 1 is not
    s = Poly.var(S, "s")
    assert reduce_mod_univariate(Poly(S, {(2,): 1, (1,): -1}), s, "s").is_zero()
    rem = reduce_mod_univariate(Poly(S, {(2,): 1, (0,): 1}), s, "s")
    assert rem == Poly.const(S, 1)
    # and in the bivariate ring with a quadratic generator
    g = Poly(SD, {(2, 0): 1, (0, 0): 1})
    x = Poly(SD, {(2, 1): 1, (0, 1): 1})  # (s^2+1) * d
    assert reduce_mod_univariate(x, g, "s").is_zero()


# -- property tests -----------------------------------------------------

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def poly_st(variables, max_degree=8, max_terms=6):
    n = len(variables)
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_degree)] * n))
    term = st.tuples(exps, fractions_st)
    return st.lists(term, max_size=max_terms).map(lambda ts: Poly(variables, ts))


@settings(max_examples=120, deadline=None)
@given(poly_st(S))
def test_degree_drop_under_tau(x):
    # deg(tau(x) - x) = deg(x) - 1 for every non-constant univariate x
    if x.is_constant():
        assert (apply_shift(TAU, x) - x).is_zero()
    else:
        assert degree_in(apply_shift(TAU, x) - x, "s") == degree_in(x, "s") - 1


@settings(max_examples=80, deadline=None)
@given(
    poly_st(SD, max_degree=5),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_shift_composition(x, a, b, c, d):
    u = Shift.of(s=a, d=b)
    v = Shift.of(s=c, d=d)
    assert apply_shift(u, apply_shift(v, x)) == apply_shift(u.compose(v), x)
    assert u.compose(v) == Shift.of(s=a + c, d=b + d)


@settings(max_examples=80, deadline=None)
@given(poly_st(SD, max_degree=5))
def test_tau_sigma_commute(x):
    tau = Shift.of(s=-1)
    sigma = Shift.of(d=-1)
    assert apply_shift(tau, apply_shift(sigma, x)) == apply_shift(sigma, apply_shift(tau, x))


@settings(max_examples=80, deadline=None)
@given(poly_st(SD, max_degree=6))
def test_negate_is_involution(x):
    assert negate_var(negate_var(x, "s"), "s") == x
    assert negate_var(negate_var(x, "d"), "d") == x


@settings(max_examples=60, deadline=None)
@given(poly_st(SD, max_degree=4, max_terms=4),
       poly_st(SD, max_degree=4, max_terms=4),
       poly_st(SD, max_degree=4, max_terms=4))
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def _assert_canonical(r):
    # what the validating constructor would build, and canonical in itself
    assert r == Poly(r.variables, r.terms)
    assert all(type(c) is Fraction and c != 0 for _, c in r.terms)
    keys = [(sum(e), e) for e, _ in r.terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))


def _poly_pair(variables):
    small = poly_st(variables, max_degree=4, max_terms=5)
    return st.tuples(small, small)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([S, SD]).flatmap(_poly_pair), fractions_st,
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_internal_results_are_canonical(pair, c, a, b):
    u, v = pair
    shift = Shift.of(s=a) if u.variables == S else Shift.of(s=a, d=b)
    for r in (u + v, u - v, u - u, u + (-u), u * v, u * c, c * u, u * 0, -u,
              apply_shift(shift, u)):
        _assert_canonical(r)


@settings(max_examples=60, deadline=None)
@given(poly_st(S, max_degree=6))
def test_format_parse_free_of_spaces(x):
    assert " " not in format_poly(x)


def test_identity_shift_is_identity():
    x = Poly(SD, {(2, 1): 1})
    assert apply_shift(Shift.of(s=0, d=0), x) == x
    assert Shift.of(s=0).is_identity()
