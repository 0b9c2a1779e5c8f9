import itertools
from fractions import Fraction

import pytest

from nwfree.liealg import (
    AFF_VIR,
    AFFINE_H4,
    H4,
    KIND_RANK,
    VIR00,
    BasisSymbol,
    D,
    K,
    LieElement,
    P,
    Q,
    R,
    S,
    SymbolNotInAlgebra,
    bilinear_form,
    bracket,
    check_in_algebra,
    eta,
    format_symbol,
    parse_symbol,
    sym,
)


def lie(symbol, coeff=1):
    return LieElement.basis(symbol, coeff)


def test_h4_pq_is_r():
    assert bracket(H4, lie(P), lie(Q)) == lie(R)
    assert bracket(H4, lie(S), lie(P)) == lie(P)
    assert bracket(H4, lie(S), lie(Q)) == lie(Q, -1)
    assert bracket(H4, lie(R), lie(P)).is_zero()


def test_affine_central_pair():
    # [p(x)t, q(x)t^-1] = r + k since (p,q) = 1
    got = bracket(AFFINE_H4, lie(sym("p", 1)), lie(sym("q", -1)))
    assert got == LieElement({R: Fraction(1), K: Fraction(1)})


def test_affine_form_only_pair():
    # [s(x)t^m, r(x)t^-m] has no H4 part but does hit the form (r,s) = 1
    got = bracket(AFFINE_H4, lie(sym("s", 2)), lie(sym("r", -2)))
    assert got == LieElement({K: Fraction(2)})


def test_affine_derivation_grades():
    assert bracket(AFFINE_H4, lie(D), lie(sym("q", 3))) == lie(sym("q", 3), 3)
    assert bracket(AFFINE_H4, lie(sym("q", 3)), lie(D)) == lie(sym("q", 3), -3)
    assert bracket(AFFINE_H4, lie(D), lie(K)).is_zero()


def test_virasoro_cocycle():
    # [d_2, d_-2] = -4 d_0 + (1/2) k
    got = bracket(AFF_VIR, lie(sym("dvir", 2)), lie(sym("dvir", -2)))
    assert got == LieElement({sym("dvir", 0): Fraction(-4), K: Fraction(1, 2)})
    # m = 1 has vanishing cocycle
    got = bracket(VIR00, lie(sym("dvir", 1)), lie(sym("dvir", -1)))
    assert got == LieElement({sym("dvir", 0): Fraction(-2)})


def test_vir00_dw_bracket():
    # [d_n, W_m] = m W_{n+m}
    got = bracket(VIR00, lie(sym("dvir", 1)), lie(sym("s", -1)))
    assert got == lie(sym("s", 0), -1)
    assert bracket(VIR00, lie(sym("s", 2)), lie(sym("s", -2))).is_zero()


def test_affvir_mixes_loops():
    # [d_m, h(x)t^n] = n h(x)t^(m+n)
    got = bracket(AFF_VIR, lie(sym("dvir", 2)), lie(sym("p", -1)))
    assert got == lie(sym("p", 1), -1)
    got = bracket(AFF_VIR, lie(sym("p", 1)), lie(sym("q", -1)))
    assert got == LieElement({R: Fraction(1), K: Fraction(1)})


def test_membership_errors():
    with pytest.raises(SymbolNotInAlgebra):
        bracket(H4, lie(sym("p", 1)), lie(Q))
    with pytest.raises(SymbolNotInAlgebra):
        bracket(VIR00, lie(P), lie(sym("dvir", 1)))
    with pytest.raises(SymbolNotInAlgebra):
        bracket(AFF_VIR, lie(D), lie(sym("dvir", 1)))
    with pytest.raises(SymbolNotInAlgebra):
        check_in_algebra(AFFINE_H4, sym("dvir", 1))
    with pytest.raises(SymbolNotInAlgebra, match="^unknown basis kind 'x'$"):
        sym("x")
    with pytest.raises(ValueError, match="^loop index must be an integer$"):
        sym("p", 1.0)
    for index in (1.5, "1"):
        with pytest.raises(SymbolNotInAlgebra, match="^loop index must be an integer$"):
            sym("p", index)
    for kind in ("k", "d"):
        with pytest.raises(SymbolNotInAlgebra, match=f"^{kind} carries loop index 0$"):
            sym(kind, 1)


def test_bilinear_form_table():
    assert bilinear_form(P, Q) == 1
    assert bilinear_form(Q, P) == 1
    assert bilinear_form(P, P) == 0
    assert bilinear_form(S, R) == 1
    assert bilinear_form(sym("p", 3), sym("q", -3)) == 1  # loop indices ignored
    with pytest.raises(SymbolNotInAlgebra):
        bilinear_form(K, P)


def test_eta_map():
    assert eta(lie(P)) == lie(Q, -1)
    assert eta(lie(Q)) == lie(P)
    assert eta(lie(R)) == lie(R)
    assert eta(lie(S)) == lie(S, -1)
    with pytest.raises(SymbolNotInAlgebra):
        eta(lie(K))


def _generators(alg, window):
    loops = range(-window, window + 1)
    if alg == H4:
        return [P, Q, R, S]
    if alg == AFFINE_H4:
        return [sym(k, i) for k in ("p", "q", "r", "s") for i in loops] + [K, D]
    if alg == VIR00:
        return [sym("dvir", i) for i in loops] + [sym("s", i) for i in loops] + [K]
    return (
        [sym(k, i) for k in ("p", "q", "r", "s") for i in loops]
        + [sym("dvir", i) for i in loops]
        + [K]
    )


@pytest.mark.parametrize("alg", [H4, AFFINE_H4, VIR00, AFF_VIR])
def test_membership_is_the_generator_listing(alg):
    members = set(_generators(alg, 4))
    for kind in KIND_RANK:
        for n in range(-4, 5) if kind not in ("k", "d") else (0,):
            x = sym(kind, n)
            if x in members:
                check_in_algebra(alg, x)
            else:
                with pytest.raises(SymbolNotInAlgebra):
                    check_in_algebra(alg, x)


@pytest.mark.parametrize("alg", [H4, AFFINE_H4, VIR00, AFF_VIR])
def test_antisymmetry(alg):
    gens = _generators(alg, 4)
    for x, y in itertools.product(gens, gens):
        assert bracket(alg, lie(x), lie(y)) == -bracket(alg, lie(y), lie(x))


@pytest.mark.parametrize("alg", [H4, AFFINE_H4, VIR00, AFF_VIR])
def test_jacobi_identity_window2(alg):
    gens = _generators(alg, 2)
    for x, y, z in itertools.product(gens, repeat=3):
        total = (
            bracket(alg, lie(x), bracket(alg, lie(y), lie(z)))
            + bracket(alg, lie(y), bracket(alg, lie(z), lie(x)))
            + bracket(alg, lie(z), bracket(alg, lie(x), lie(y)))
        )
        assert total.is_zero(), (x, y, z)


@pytest.mark.parametrize("alg", [AFFINE_H4, VIR00, AFF_VIR])
def test_centrality_of_k(alg):
    for x in _generators(alg, 3):
        assert bracket(alg, lie(K), lie(x)).is_zero()


def test_eta_is_automorphism_and_order_four():
    gens = [P, Q, R, S]
    for x, y in itertools.product(gens, gens):
        assert eta(bracket(H4, lie(x), lie(y))) == bracket(H4, eta(lie(x)), eta(lie(y)))
    for x in gens:
        e = lie(x)
        for _ in range(4):
            e = eta(e)
        assert e == lie(x)


def test_form_invariance_loop_level_zero():
    # ([x,y], z) + (y, [x,z]) = 0 over all H4 basis triples
    gens = [P, Q, R, S]

    def form_elem(e, z):
        return sum((c * bilinear_form(s, z) for s, c in e.terms), Fraction(0))

    for x, y, z in itertools.product(gens, repeat=3):
        lhs = form_elem(bracket(H4, lie(x), lie(y)), z)
        rhs = form_elem(bracket(H4, lie(x), lie(z)), y)
        assert lhs + rhs == 0


def test_symbol_text_round_trip():
    cases = [
        (sym("p", 2), None, "p@2"),
        (sym("dvir", -1), None, "dvir@-1"),
        (K, None, "k"),
        (D, None, "d"),
        (P, None, "p"),
        (sym("s", 1), VIR00, "w@1"),
        (sym("s", 0), VIR00, "w"),
    ]
    for symbol, alg, text in cases:
        assert format_symbol(symbol, alg) == text
        assert parse_symbol(text) == symbol
    with pytest.raises(SymbolNotInAlgebra):
        parse_symbol("z@1")
    with pytest.raises(SymbolNotInAlgebra):
        parse_symbol("p@x")
