import pickle
from fractions import Fraction
from math import gcd, lcm
from operator import add
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nwfree.exactpoly
from nwfree.exactpoly import (
    NEG_INF,
    Poly,
    VariableMismatch,
    apply_shift,
    change_variables,
    coefficient_in,
    degree_in,
    format_poly,
    format_rational,
    monomials_upto,
    negate_var,
    reduce_mod_univariate,
    MAX_MONOMIAL_TEXTS,
    _combine,
    _difference_in,
    _monomial_text,
    _mul,
    _taylor_shift,
    _taylor_sum,
    _taylor_terms,
)
from nwfree.specdsl import parse_poly

from helpers import (
    apply_shift_reference,
    format_poly_reference,
    format_rational_reference,
    int_digit_limit_lifted,
    poly_mul_reference,
    reduce_mod_univariate_reference,
)

S = ("s",)
SD = ("s", "d")

# shifts are offset vectors in the polynomial's variable order
TAU = (-1,)  # s -> s - 1 on Q[s]
SIGMA = (0, -1)  # d -> d - 1 on Q[s, d]


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
    sh = (1, -3)
    x = Poly(SD, {(1, 0): 1, (0, 1): 1})
    assert apply_shift(sh, x) == Poly(SD, {(1, 0): 1, (0, 1): 1, (0, 0): -2})


def test_shift_absent_variable_rejected():
    # a shift of Q[s, d] touches d, absent from Q[s]; a shift must fit the variables
    with pytest.raises(VariableMismatch):
        apply_shift(SIGMA, Poly.one(S))
    with pytest.raises(VariableMismatch):
        apply_shift(TAU, Poly.zero(SD))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Poly(S, {(1, 2): 1}), VariableMismatch,
         "exponent vector (1, 2) does not fit variables ('s',)"),
        (lambda: Poly(S, {(-1,): 1}), ValueError, "exponents must be non-negative integers: (-1,)"),
        (lambda: Poly.var(S, "s").constant_value(), ValueError, "s is not constant"),
        (lambda: Poly.var(S, "s") ** -1, ValueError, "only non-negative integer powers"),
        (lambda: negate_var(Poly.var(S, "s"), "d"), VariableMismatch, "'d' is absent from ('s',)"),
    ],
    ids=["wide-exponent", "negative-exponent", "constant-value-of-s", "negative-power",
         "negate-absent-variable"],
)
def test_public_error_paths_raise_their_class_and_message(build, error, message):
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


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


def test_change_variables_keeps_or_remaps():
    x = Poly(SD, {(2, 1): 3, (0, 2): Fraction(1, 2), (1, 0): -1})
    assert change_variables(x, SD) is x
    swapped = change_variables(x, ("d", "s"))
    assert swapped == Poly(("d", "s"), {(1, 2): 3, (2, 0): Fraction(1, 2), (0, 1): -1})
    _assert_canonical(swapped)
    assert change_variables(swapped, SD) == x
    with pytest.raises(VariableMismatch, match="duplicate variable"):
        change_variables(Poly.var(S, "s"), ("s", "s"))


def test_coefficient_in():
    x = Poly(SD, {(1, 2): 3, (1, 0): -1, (0, 0): 5})
    assert coefficient_in(x, "s", 1) == Poly(SD, {(0, 2): 3, (0, 0): -1})
    assert coefficient_in(x, "s", 0) == Poly(SD, {(0, 0): 5})
    assert coefficient_in(Poly.var(S, "s"), "d", 1) == Poly.zero(S)  # d absent from Q[s]


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
    # shifts compose by adding their offset vectors
    assert apply_shift((a, b), apply_shift((c, d), x)) == apply_shift((a + c, b + d), x)


@settings(max_examples=80, deadline=None)
@given(poly_st(SD, max_degree=5))
def test_tau_sigma_commute(x):
    tau = (-1, 0)
    assert apply_shift(tau, apply_shift(SIGMA, x)) == apply_shift(SIGMA, apply_shift(tau, x))


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
    # what the validating constructor would build, and canonical in itself:
    # nonzero int numerators in descending grlex over den > 0 sharing no factor
    assert r == Poly(r.variables, r.terms) == Poly(r.variables, r.numerators, r.den)
    numerators = [n for _, n in r.numerators]
    assert all(type(n) is int and n != 0 for n in numerators)
    keys = [(sum(e), e) for e, _ in r.numerators]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert type(r.den) is int and r.den > 0 and gcd(r.den, *numerators) == 1
    assert r.den == 1 or numerators  # the zero polynomial has den 1
    assert all(type(c) is Fraction and c != 0 for _, c in r.terms)


def _poly_pair(variables):
    small = poly_st(variables, max_degree=4, max_terms=5)
    return st.tuples(small, small)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([S, SD]).flatmap(_poly_pair), fractions_st,
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_internal_results_are_canonical(pair, c, a, b):
    u, v = pair
    shift = (a,) if u.variables == S else (a, b)
    var = u.variables[-1]
    for r in (u + v, u - v, u - u, u + (-u), u * v, u * c, c * u, u * 0, -u,
              apply_shift(shift, u), negate_var(u, var), coefficient_in(u, var, 1),
              change_variables(u, ("d0",) + u.variables)):
        _assert_canonical(r)


def test_equal_values_built_differently_are_identical():
    s = Poly.var(S, "s")
    half = Fraction(1, 2)
    values = [Poly(S, {(1,): half}), s * half, (s * 6) * Fraction(1, 12)]
    for value in values:
        _assert_canonical(value)
        assert (value.numerators, value.den) == ((((1,), 1),), 2)
        assert pickle.loads(pickle.dumps(value)) == value
    assert len(set(values)) == 1
    assert len({hash(v) for v in values}) == 1
    assert len({repr(v) for v in values}) == 1
    assert len({pickle.dumps(v) for v in values}) == 1
    assert repr(values[0]) == "Poly(variables=('s',), terms=(((1,), Fraction(1, 2)),))"


def test_the_constructor_divides_its_terms_by_a_positive_integer_den():
    half_s = Poly(S, {(1,): Fraction(1, 2)})
    assert Poly(S, {(1,): 3}, 6) == Poly(S, half_s.numerators, half_s.den) == half_s
    assert Poly(S, {(1,): Fraction(3, 2), (0,): 1}, 3) == Poly(S, {(1,): Fraction(1, 2),
                                                                  (0,): Fraction(1, 3)})
    for bad in (0, -1, 1.5, Fraction(1, 2)):
        with pytest.raises(ValueError, match="^den must be a positive integer"):
            Poly(S, {(1,): 1}, bad)


# numerators over mixed denominators, so the common denominator varies
mixed_fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-60, max_value=60),
    st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12]),
)


def _shift_case(variables):
    n = len(variables)
    term = st.tuples(st.tuples(*[st.integers(min_value=0, max_value=7)] * n), mixed_fractions_st)
    poly = st.lists(term, max_size=7).map(lambda ts: Poly(variables, ts))
    offsets = st.tuples(*[st.integers(min_value=-3, max_value=3)] * n)
    return st.tuples(poly, offsets, offsets)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_shift_case))
def test_apply_shift_matches_binomial_reference(case):
    x, a, b = case
    shifted = apply_shift(b, x)
    assert shifted == apply_shift_reference(b, x)
    _assert_canonical(shifted)
    assert apply_shift(a, shifted) == apply_shift(tuple(map(add, a, b)), x)


def _integer_shift_case(variables):
    n = len(variables)
    exps = st.tuples(*[st.integers(min_value=0, max_value=7)] * n)
    ints = st.dictionaries(exps, st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=7)
    offsets = st.tuples(*[st.integers(min_value=-5, max_value=5)] * n)
    return st.tuples(st.just(variables), ints, offsets)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_integer_shift_case))
def test_taylor_shift_kernel_matches_binomial_reference(case):
    # the integer kernel shared by apply_shift and the orbit oracle
    variables, ints, offs = case
    before = dict(ints)
    shifted = _taylor_shift(ints, offs)
    assert ints == before
    assert all(type(n) is int for n in shifted.values())
    assert Poly(variables, shifted) == apply_shift_reference(offs, Poly(variables, ints))


def _unused_variable_shift_case(variables):
    # terms that leave a drawn set of variables out, shifted on those too
    n = len(variables)
    unused = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)

    def case(absent):
        used = st.integers(min_value=0, max_value=6)
        exps = st.tuples(*[st.just(0) if i in absent else used for i in range(n)])
        nonzero = st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool)
        ints = st.dictionaries(exps, nonzero, max_size=5)
        offsets = st.tuples(*[st.integers(min_value=-4, max_value=4)] * n)
        return st.tuples(st.just(variables), ints, offsets)

    return unused.flatmap(case)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_unused_variable_shift_case))
def test_taylor_shift_skips_unused_variables_as_reference(case):
    # offsets on variables that no term uses change nothing; an empty map stays empty
    variables, ints, offs = case
    before = dict(ints)
    shifted = _taylor_shift(ints, offs)
    assert ints == before
    assert all(type(n) is int and n for n in shifted.values())
    assert Poly(variables, shifted) == apply_shift_reference(offs, Poly(variables, ints))
    if not ints:
        assert shifted == {} and shifted is not ints


# (s+d+1)^12 as an integer map: dense, with 91 terms
_DENSE = dict(((Poly.var(SD, "s") + Poly.var(SD, "d") + Poly.one(SD)) ** 12).numerators)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(
    lambda v: st.one_of(_integer_shift_case(v), _unused_variable_shift_case(v))))
@example((SD, {(1, 0): 3, (0, 0): -2}, (0, 4)))  # the offset falls only on d, which is unused
@example((SD, {(0, 0): 7}, (-1, 3)))  # a constant has no Taylor terms
@example((SD, {}, (2, -1)))  # nor has zero
@example((SD, {(1, 0): 1, (0, 1): -1}, (1, 1)))  # s - d: the moves cancel
@example((SD, _DENSE, (1, -1)))  # (s+d+1)^12 under (1, -1): s + d is fixed, so is the value
@example((SD, _DENSE, (-1, 0)))  # a nonzero part of order two: the difference is shifted whole
def test_shift_difference_is_the_shift_minus_its_input(case):
    # verify's kernels: shift(x) - x from x's Taylor terms, built once and
    # summed for any offsets; empty when no offset moves a variable of x
    variables, ints, offs = case
    before = dict(ints)
    terms = _taylor_terms(ints)
    assert ints == before and terms[2] is ints  # kept by reference, not copied
    diff = _taylor_sum(terms, offs)
    assert all(type(n) is int and n for n in diff.values())
    x = Poly(variables, ints)
    assert Poly(variables, diff) == apply_shift_reference(offs, x) - x
    if x.is_constant():
        assert terms[1] == () and diff == {}
    if not any(off and degree_in(x, v) > 0 for v, off in zip(variables, offs)):
        assert diff == {}
    # the terms are only read: a second sum, at the negated offsets, is the
    # difference of the inverse shift
    back = _taylor_sum(terms, tuple(-off for off in offs))
    assert Poly(variables, back) == apply_shift_reference(tuple(-off for off in offs), x) - x


@st.composite
def _difference_case(draw):
    # maps in 1-3 variables, some terms without the differenced variable, so
    # rows of degree 0 and constants come up, and an offset from -8 to 8
    n = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=6)] * n)
    ints = draw(st.dictionaries(exps, st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=7))
    return n, ints, draw(st.integers(min_value=0, max_value=n - 1)), draw(st.integers(-8, 8))


@settings(max_examples=300, deadline=None)
@given(_difference_case())
@example((2, {}, 0, 3))  # the empty map
@example((2, {(0, 0): 7}, 1, -2))  # a constant
@example((2, {(0, 2): 5, (0, 0): -1, (3, 0): 4}, 0, 2))  # two rows of degree 0 in s, one of 3
@example((3, {(1, 0, 2): 3, (0, 4, 1): -2}, 2, 5))  # the middle of three variables
@example((1, {(2,): 3, (1,): 0}, 0, 0))  # no offset, and a zero entry in the input
@example((1, {(4,): 1}, 0, -8))  # s^4 under s -> s - 8: every lower power comes up
def test_difference_in_one_variable_is_the_shift_minus_its_input(case):
    # a reduction-chain step's kernel: shift(v) - v in one variable, on dense rows
    n, ints, i, off = case
    before = dict(ints)
    diff = _difference_in(ints, i, off)
    assert ints == before
    shifted = _taylor_shift(ints, tuple(off if k == i else 0 for k in range(n)))
    want = {exps: shifted.get(exps, 0) - ints.get(exps, 0) for exps in {*shifted, *ints}}
    assert diff == {exps: m for exps, m in want.items() if m}
    assert all(type(m) is int for m in diff.values())
    if n == 1:  # one variable: in descending order, as a Poly keeps its terms
        assert list(diff) == sorted(diff, reverse=True)


@settings(max_examples=60, deadline=None)
@given(poly_st(S, max_degree=6))
def test_format_parse_free_of_spaces(x):
    assert " " not in format_poly(x)


# +-1, signed 30-digit numerators and non-unit denominators, exactly as drawn
text_coefficients_st = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-1, 2)]),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
              st.integers(min_value=2, max_value=10 ** 6)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


def _text_case(variables):
    exps = st.tuples(*[st.integers(min_value=0, max_value=9)] * len(variables))
    terms = st.lists(st.tuples(exps, text_coefficients_st), max_size=8)
    return terms.map(lambda ts: Poly(variables, ts))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_text_case))
def test_format_poly_matches_reference(x):
    assert format_poly(x) == format_poly_reference(x)


def test_format_poly_reference_cases():
    for variables in (S, SD, ("d0", "w0")):
        zero = (0,) * len(variables)
        top = (3,) + (1,) * (len(variables) - 1)
        for x in (
            Poly.zero(variables),
            Poly.one(variables),
            Poly.const(variables, -1),
            Poly.const(variables, Fraction(-7, 3)),
            Poly(variables, {top: -1, zero: 1}),
            Poly(variables, {top: Fraction(10 ** 30 + 1, 7), zero: -(10 ** 30)}),
        ):
            assert format_poly(x) == format_poly_reference(x)
    assert format_poly(Poly(SD, {(1, 2): -1, (0, 0): Fraction(1, 2)})) == "-s*d^2+1/2"


# ints around the 640-digit pieces, and past the interpreter's 4,300-digit str() limit
LONG_INTS = [10 ** 640 - 1, 10 ** 640, 10 ** 640 + 1, 7 * 10 ** 1280 + 3, 10 ** 4300,
             int("7" * 540) ** 8, int("9" * 1000) ** 9 + 1]


def test_long_coefficients_format_as_with_the_limit_lifted():
    polys, rationals = [], []
    for n in LONG_INTS:
        for c in (Fraction(n), Fraction(-n), Fraction(n, 10 ** 700 + 3), Fraction(1, -n)):
            rationals.append(c)
            for variables in (S, SD):
                zero = (0,) * len(variables)
                top = (2,) + (1,) * (len(variables) - 1)
                polys += [Poly(variables, {top: c, zero: -c}), Poly(variables, {top: 1, zero: c})]
    texts = [format_poly(x) for x in polys]
    rational_texts = [format_rational(c) for c in rationals]
    with int_digit_limit_lifted():
        assert texts == [format_poly_reference(x) for x in polys]
        assert rational_texts == [str(c) for c in rationals]


@settings(max_examples=200, deadline=None)
@given(text_coefficients_st)
def test_format_rational_is_str(c):
    assert format_rational(c) == str(c)


# (k, offset) reads as 10^k + offset, or as offset alone for k = 0: small
# ints, and ints on both sides of the 640-digit pieces and of the
# interpreter's 4,300-digit str() limit.  Drawn as pairs, since hypothesis
# cannot repr an int past that limit.
_SIZES = st.tuples(st.sampled_from([0, 640, 1280, 4300, 4301]), st.integers(-3, 12))


@settings(max_examples=200, deadline=None)
@given(num=_SIZES, den=_SIZES, sign=st.sampled_from([1, -1]))
@example(num=(0, 0), den=(0, 1), sign=1)
@example(num=(0, 1), den=(0, 1), sign=1)
@example(num=(0, 1), den=(0, 1), sign=-1)
@example(num=(4300, 1), den=(640, 7), sign=-1)
@example(num=(640, -1), den=(4301, 3), sign=1)
def test_format_rational_writes_as_the_reference(num, den, sign):
    (k, a), (m, b) = num, den
    n, d = (10 ** k + a if k else a), (10 ** m + b if m else b)
    assume(d != 0)
    c = Fraction(sign * n, d)
    assert format_rational(c) == format_rational_reference(c)


def test_monomial_text_table_stays_bounded():
    # more distinct monomials than the table holds, over all three variable sets
    seen = set()
    degree = 0
    while len(seen) <= 2 * MAX_MONOMIAL_TEXTS:
        cases = [(S, (degree,))]
        for variables in (SD, ("d0", "w0")):
            cases += [(variables, (degree - k, k)) for k in range(degree + 1)]
        for variables, exps in cases:
            x = Poly(variables, {exps: -3})
            assert format_poly(x) == format_poly_reference(x)
            seen.add((variables, exps))
        degree += 1
    info = _monomial_text.cache_info()
    assert 0 < info.currsize <= info.maxsize == MAX_MONOMIAL_TEXTS


def test_identity_shift_is_identity():
    x = Poly(SD, {(2, 1): 1})
    assert apply_shift((0, 0), x) is x
    assert _taylor_shift({(2, 1): 5}, (0, 0)) == {(2, 1): 5}


def _operand(variables):
    # zero, a constant, or a general polynomial with Fraction coefficients
    n = len(variables)
    return st.one_of(
        st.just(Poly.zero(variables)),
        mixed_fractions_st.map(lambda c: Poly.const(variables, c)),
        st.lists(st.tuples(st.tuples(*[st.integers(min_value=0, max_value=5)] * n),
                           mixed_fractions_st), max_size=6).map(lambda ts: Poly(variables, ts)),
    )


def _product_case(variables):
    offsets = st.tuples(*[st.integers(min_value=-3, max_value=3)] * len(variables))
    return st.tuples(_operand(variables), _operand(variables), offsets)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_product_case))
def test_mul_matches_double_loop_reference(case):
    x, w, _ = case
    product = x * w
    assert product == poly_mul_reference(x, w)
    _assert_canonical(product)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_product_case))
def test_shift_mul_matches_shift_then_reference_product(case):
    x, w, sh = case
    product = _mul(_taylor_shift(dict(x.numerators), sh), w.numerators)
    assert all(type(n) is int for n in product.values())
    product = Poly._trusted(x.variables, product.items(), x.den * w.den)
    assert product == poly_mul_reference(apply_shift(sh, x), w)
    _assert_canonical(product)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_product_case))
def test_products_take_no_shift(case):
    # a product, a power and the reader's products and powers multiply
    # without calling the shift kernel, not even with zero offsets
    x, w, _ = case
    calls = []
    real = nwfree.exactpoly._taylor_shift

    def recording(ints, offsets):
        calls.append(offsets)
        return real(ints, offsets)

    with mock.patch.object(nwfree.exactpoly, "_taylor_shift", recording):
        assert x * w == poly_mul_reference(x, w)
        assert x ** 3 == poly_mul_reference(poly_mul_reference(x, x), x)
        value = parse_poly("(s+d+1)^3*(s-1)", SD)
    s, d = Poly.var(SD, "s"), Poly.var(SD, "d")
    assert value == (s + d + Poly.one(SD)) ** 3 * (s - Poly.one(SD))
    assert calls == []


def test_products_reject_mismatched_variables():
    for x, w in ((Poly.one(S), Poly.one(SD)), (Poly.zero(SD), Poly.var(S, "s")),
                 (Poly.one(SD), Poly.one(("d0", "w0")))):
        with pytest.raises(VariableMismatch):
            x * w


def _combination_case(variables):
    # (num, den, integer image) parts: empty and all-zero images included
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * len(variables))
    image = st.dictionaries(exps, st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=5)
    den = st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 35])
    part = st.tuples(st.integers(min_value=-50, max_value=50), den, image)
    return st.lists(part, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([S, SD]).flatmap(_combination_case), st.booleans())
def test_combine_matches_fraction_sum(parts, cancel):
    if cancel:  # each part against its negation: everything cancels
        parts = parts + [(-num, den, image) for num, den, image in parts]
    before = [dict(image) for _, _, image in parts]
    total, common = _combine(parts)
    assert [image for _, _, image in parts] == before
    assert common == lcm(*[den for _, den, _ in parts])
    assert all(type(n) is int for n in total.values())
    want: dict = {}
    for num, den, image in parts:
        for exps, n in image.items():
            want[exps] = want.get(exps, 0) + Fraction(num, den) * n
    assert {e: Fraction(n, common) for e, n in total.items() if n} == {
        e: c for e, c in want.items() if c
    }
    if cancel:
        assert not any(total.values())


def _running_combination_case(variables):
    # parts as above, and a running integer map over its own denominator
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * len(variables))
    running = st.dictionaries(exps, st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=5)
    return st.tuples(_combination_case(variables), running, st.sampled_from([1, 2, 6, 35]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([S, SD]).flatmap(_running_combination_case))
def test_combine_adds_into_a_running_map(case):
    # total / den plus the parts; total is scaled in place only when den must grow
    parts, running, den = case
    fresh, common = _combine(parts)
    total = dict(running)
    out, scale = _combine(parts, total, den)
    assert out is total and scale == lcm(den, common)
    assert all(type(n) is int for n in out.values())
    want = {e: Fraction(n, den) for e, n in running.items()}
    for e, n in fresh.items():
        want[e] = want.get(e, 0) + Fraction(n, common)
    got = {e: Fraction(n, scale) for e, n in out.items() if n}
    assert got == {e: c for e, c in want.items() if c}
    assert _combine([], dict(running), den) == (running, den)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_product_case),
       st.integers(min_value=-3, max_value=3))
def test_shift_mul_adds_scaled_product_into_a_map(case, scale):
    # out + scale * shift(ints) * factor, on integer polynomials
    x, w, sh = case
    variables, ints, factor = x.variables, dict(x.numerators), w.numerators
    out = {e: 7 * n for e, n in factor}
    before = Poly(variables, out)
    assert _mul(_taylor_shift(ints, sh), factor, out, scale) is out
    assert ints == dict(x.numerators)
    product = poly_mul_reference(apply_shift(sh, Poly(variables, ints)), Poly(variables, factor))
    assert Poly(variables, out) == before + scale * product


def _one_term_factor_case(variables):
    # an integer map, a shift with a nonzero offset, a nonzero coefficient and
    # a non-constant exponent vector for the second factor
    n = len(variables)
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    ints = st.dictionaries(exps, st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool),
                           min_size=1, max_size=6)
    offsets = st.tuples(*[st.integers(min_value=-3, max_value=3)] * n).filter(any)
    coeff = st.integers(min_value=-10 ** 4, max_value=10 ** 4).filter(bool)
    return st.tuples(st.just(variables), ints, offsets, coeff, exps.filter(any))


@given(st.sampled_from([S, SD, ("d0", "w0")]).flatmap(_one_term_factor_case))
@settings(deadline=None)
def test_shift_mul_one_term_factors_match_the_general_product(case):
    # A constant factor scales the shifted map; a non-constant one takes the
    # general loop.  Both add -shift(ints) * factor into `out` as the
    # reference product does, leave `ints` as it was, and keep entries that
    # cancel as 0.
    variables, ints, sh, coeff, exps = case
    zeros = (0,) * len(variables)
    for factor in (((zeros, coeff),), ((exps, coeff),)):
        product = poly_mul_reference(apply_shift_reference(sh, Poly(variables, ints)),
                                     Poly(variables, factor))
        before = dict(ints)
        # a running map, and the product itself, which -1 times it cancels
        running = {e: 3 * c for e, c in ints.items()}
        cancelling = dict(product.numerators)
        for out in (running, cancelling):
            start = Poly(variables, out)
            assert _mul(_taylor_shift(ints, sh), factor, out, -1) is out
            assert ints == before
            assert all(type(n) is int for n in out.values())
            assert Poly(variables, out) == start - product
        assert set(cancelling) == set(dict(product.numerators)) and not any(cancelling.values())
        shifted = _taylor_shift(ints, sh)
        assert _mul(shifted, factor) == {e: -n for e, n in _mul(shifted, factor, {}, -1).items()}


def _division_case(variables):
    # x with rational coefficients; w univariate in var, by its coefficients
    # lowest power first, over var alone or over x's variables
    exps = st.tuples(*[st.integers(min_value=0, max_value=5)] * len(variables))
    terms = st.lists(st.tuples(exps, mixed_fractions_st), max_size=8)
    x = terms.map(lambda ts: Poly(variables, ts))
    lower = st.lists(mixed_fractions_st, max_size=3)
    lead = mixed_fractions_st.filter(bool)
    return st.tuples(x, st.sampled_from(variables), lower, lead, st.booleans())


def _univariate(variables, var, coeffs):
    i = variables.index(var)
    return Poly(variables, {tuple(k if j == i else 0 for j in range(len(variables))): c
                            for k, c in enumerate(coeffs)})


_CUBIC = Poly(SD, {(3, 1): Fraction(5, 6), (2, 2): -7, (0, 1): 3, (0, 0): 1})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([S, SD]).flatmap(_division_case))
@example((_CUBIC, "s", [Fraction(2), Fraction(0), Fraction(1, 2)], Fraction(-3, 4), False))
@example((_CUBIC, "s", [], Fraction(-7, 2), True))  # a constant w
@example((_CUBIC, "d", [Fraction(1), Fraction(-2), Fraction(4)], Fraction(-9), True))
@example((Poly(S, {(1,): -3, (0,): 1}), "s", [Fraction(1), Fraction(0)], Fraction(-2), False))
def test_reduce_mod_univariate_matches_long_division(case):
    x, var, lower, lead, own = case
    w = _univariate((var,) if own else x.variables, var, lower + [lead])
    got = reduce_mod_univariate(x, w, var)
    assert got == reduce_mod_univariate_reference(x, w, var)
    _assert_canonical(got)
    if degree_in(x, var) < degree_in(w, var) > 0:
        assert got is x  # nothing to eliminate
    assert degree_in(got, var) < max(degree_in(w, var), 1)


def test_reduce_mod_univariate_rejects_what_it_cannot_divide_by():
    x = Poly(SD, {(2, 1): 1})
    for w, message in ((Poly.zero(SD), "division by the zero polynomial"),
                       (Poly(SD, {(1, 1): 1}), "s\\*d is not univariate in 's'")):
        for divide in (reduce_mod_univariate, reduce_mod_univariate_reference):
            with pytest.raises(ValueError, match=message):
                divide(x, w, "s")


def test_combine_single_and_empty():
    assert _combine([(3, 4, {(1,): 2, (0,): -5})]) == ({(1,): 6, (0,): -15}, 4)
    assert _combine([(1, 6, {})]) == ({}, 6)
    assert _combine([]) == ({}, 1)


scalar_st = st.one_of(
    st.just(0),
    st.integers(max_value=-1),
    st.fractions(),
    st.just(True),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(), S, SD, ("d0", "w0")]), scalar_st, st.data())
def test_one_term_builders_match_validating_construction(variables, value, data):
    # the builders go through Poly._trusted; Poly(...) validates and merges
    zeros = (0,) * len(variables)
    pairs = [
        (Poly.zero(list(variables)), Poly(variables, {})),
        (Poly.one(list(variables)), Poly(variables, {zeros: 1})),
        (Poly.const(list(variables), value), Poly(variables, {zeros: value})),
    ]
    if variables:
        name = data.draw(st.sampled_from(variables))
        exps = tuple(int(v == name) for v in variables)
        pairs.append((Poly.var(list(variables), name), Poly(variables, {exps: 1})))
    for built, checked in pairs:
        assert built.variables == checked.variables
        assert built.terms == checked.terms
        assert all(type(c) is Fraction for _, c in built.terms)
        assert repr(built) == repr(checked)
        assert hash(built) == hash(checked)


def test_one_term_builders_keep_their_argument_checks():
    for build in (Poly.zero, Poly.one, lambda v: Poly.const(v, 2), lambda v: Poly.var(v, "s")):
        with pytest.raises(VariableMismatch, match="duplicate variable"):
            build(("s", "d", "s"))
    with pytest.raises(VariableMismatch, match="'d' is not among"):
        Poly.var(S, "d")
    for bad in ("1", 1.0):
        with pytest.raises(TypeError):
            Poly.const(SD, bad)
