"""End-to-end acceptance checks for the whole pipeline.

Each test here exercises a documented guarantee on a fixed grid of module
specs: axiom verification, classification round trips, irreducibility
verdicts with replayable evidence, twist intertwining, corruption
sensitivity, and the document parser plus CLI contract.
"""

import random
from fractions import Fraction

import pytest

from helpers import corrupted_data, corrupted_fixtures, sample_specs
from nwfree.classify import Classified, Rejected, classify, twist
from nwfree.exactpoly import Poly, monomials_upto, negate_var
from nwfree.irreducible import (
    apply_chain_op,
    decide,
    orbit_oracle,
    reduction_chain,
    witness,
)
from nwfree.liealg import eta, sym
from nwfree.modfam import (
    ConstraintViolation,
    Vir00Spec,
    act,
    actions_of,
    affvir,
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
)
from nwfree.specdsl import (
    DslSyntaxError,
    format_spec,
    main,
    parse_spec,
)
from nwfree.verify import FAIL, PASS, verify_module

S = Poly.var(("s",), "s")
ONE = Poly.one(("s",))
W0 = Poly.var(("w0",), "w0")
ONE_V = Poly.one(("d0", "w0"))


def _c(value) -> Poly:
    return Poly.const(("s",), Fraction(value))


H4_GRID = {
    "Mg0": [mg0(_c(1)), mg0(_c(2)), mg0(S), mg0(S * S - S), mg0(S * S + ONE)],
    "M0g": [m0g(_c(1)), m0g(_c(2)), m0g(S), m0g(S * S - S), m0g(S * S + ONE)],
    "Mhb": [mhb(1, 0, 1), mhb(2, -1, 3)],
    "Mbh": [mbh(1, 0, 1), mbh(2, -1, 3)],
    "Mab": [mab(2, 3)],
    "M0": [m0()],
}


# --- module axioms -------------------------------------------------------

# verify_module multiplies polynomials twice per generator pair to build the
# pair's residual R, then once per test monomial of a failing pair.  The four
# algebras are graded, so the terms of a pair involve a single shift sigma.  Composing act per test monomial instead multiplies
# once per act call whose value on 1 is nonzero, up to five times per
# monomial, which breaks the bound on every family below except M0.
SHIFTS_PER_PAIR = 1


@pytest.fixture
def products(monkeypatch):
    """A one-element list counting calls of Poly.__mul__ (polynomial products)."""
    calls = [0]
    multiply = Poly.__mul__

    def counted(self, other):
        calls[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    return calls


def _verify_within_product_bound(products, spec, window, test_degree):
    n = len(generators(spec, window))
    monomials = len(monomials_upto(module_variables(spec), test_degree))
    bound = n * (n - 1) // 2 * (monomials * SHIFTS_PER_PAIR + 2)
    products[0] = 0
    report = verify_module(spec, window=window, test_degree=test_degree)
    assert products[0] <= bound, (spec, products[0], bound)
    return report


@pytest.mark.parametrize("family", sorted(H4_GRID))
def test_h4_axioms_zero_residual(family, products):
    for spec in H4_GRID[family]:
        report = _verify_within_product_bound(products, spec, window=3, test_degree=4)
        assert report.passed
        assert report.checked > 0
        for entry in report.entries:
            assert entry.status == PASS
            assert entry.residual.is_zero()


def test_affine_axioms_with_central_pairs(products):
    beta = {
        1: Fraction(5),
        -1: Fraction(7),
        2: Fraction(1, 3),
        -2: Fraction(2),
        3: Fraction(-1),
        -3: Fraction(4),
    }
    bases = [
        mg0(S * S - S),
        m0g(S * S + ONE),
        mhb(1, 0, 1),
        mbh(2, -1, 3),
        mab(2, 3),
        m0(),
    ]
    central = [
        (sym("p", 1), sym("q", -1)),
        (sym("p", 2), sym("q", -2)),
    ]
    for base in bases:
        for alpha in (Fraction(2), Fraction(1, 2)):
            spec = mtilde(base, alpha, beta, window=3)
            report = _verify_within_product_bound(products, spec, window=3, test_degree=3)
            assert report.passed
            entries = {(e.x, e.y): e for e in report.entries}
            for pair in central:
                # the k term of the cocycle must land on a zero action
                assert entries[pair].status == PASS

    fseq = {
        1: S * S + ONE,
        -1: S + S,
        2: S,
        -2: S * S - _c(3),
        3: _c(Fraction(1, 2)),
        -3: S + ONE,
    }
    report = _verify_within_product_bound(products, mtilde_f(fseq, window=3), 3, 3)
    assert report.passed


def test_vir00_axioms_and_level_pair():
    for spec in (Vir00Spec(2, W0), Vir00Spec(Fraction(1, 3), W0 * W0 - Poly.one(("w0",)))):
        report = verify_module(spec, window=3, test_degree=2)
        assert report.passed
        entries = {(e.x, e.y): e for e in report.entries}
        pair = (sym("dvir", -2), sym("dvir", 2))
        assert pair in entries
        assert entries[pair].status == PASS
        assert entries[pair].residual.is_zero()


def test_affvir_mixed_pairs_pass():
    spec = affvir(mhb(1, 0, 1), alpha=2, lam=3, window=2)
    report = verify_module(spec, window=2, test_degree=2)
    assert report.passed
    loop_kinds = ("p", "q", "r", "s")
    mixed = [
        e
        for e in report.entries
        if (e.x.kind == "dvir" and e.y.kind in loop_kinds)
        or (e.y.kind == "dvir" and e.x.kind in loop_kinds)
    ]
    assert any(e.status == PASS for e in mixed)
    assert all(e.status != FAIL for e in mixed)


# --- classification ------------------------------------------------------


def _random_g(rng: random.Random, max_degree: int = 3) -> Poly:
    degree = rng.randint(0, max_degree)
    lead = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
    poly = Poly.monomial(("s",), (degree,), lead)
    for k in range(degree):
        coeff = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        if coeff:
            poly = poly + Poly.monomial(("s",), (k,), coeff)
    return poly


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([1, 2, 3, 5, -1, -2]), rng.choice([1, 2, 3]))


def _random_spec(rng: random.Random, family: str):
    if family == "Mg0":
        return mg0(_random_g(rng))
    if family == "M0g":
        return m0g(_random_g(rng))
    if family == "Mhb":
        return mhb(_nonzero(rng), Fraction(rng.randint(-3, 3)), _nonzero(rng))
    if family == "Mbh":
        return mbh(_nonzero(rng), Fraction(rng.randint(-3, 3)), _nonzero(rng))
    if family == "Mab":
        return mab(_nonzero(rng), _nonzero(rng))
    if family == "M0":
        return m0()
    if family == "MTildeAlphaBeta":
        # an M0 base would round-trip to MTildeF, so draw the other bases
        base = _random_spec(rng, rng.choice(["Mg0", "M0g", "Mhb", "Mbh", "Mab"]))
        window = rng.randint(1, 2)
        beta = {}
        for k in range(-window, window + 1):
            if k:
                beta[k] = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        return mtilde(base, _nonzero(rng), beta, window)
    if family == "MTildeF":
        window = rng.randint(1, 2)
        fseq = {}
        for k in range(-window, window + 1):
            if k:
                fseq[k] = Poly.zero(("s",)) if rng.random() < 0.2 else _random_g(rng, 2)
        return mtilde_f(fseq, window)
    raise AssertionError(family)


def test_classification_round_trips_and_rejections():
    rng = random.Random(8161)
    families = ["Mg0", "M0g", "Mhb", "Mbh", "Mab", "M0", "MTildeAlphaBeta", "MTildeF"]
    picks = families * 2 + [rng.choice(families) for _ in range(4)]
    assert len(picks) == 20
    for family in picks:
        spec = _random_spec(rng, family)
        result = classify(actions_of(spec, None))
        assert isinstance(result, Classified), (family, result)
        assert result.spec == spec
        assert result == Classified(spec)

    fixtures = corrupted_fixtures()
    assert len(fixtures) == 10
    for anchor, data in fixtures:
        result = classify(data)
        assert isinstance(result, Rejected), anchor
        assert result.anchor == anchor


# --- irreducibility ------------------------------------------------------


def _expected_irreducible(family: str, spec) -> bool:
    if family in ("Mhb", "Mbh", "Mab"):
        return True
    if family == "M0":
        return False
    return spec.g.is_constant()


def test_irreducibility_verdicts_with_evidence():
    for family in sorted(H4_GRID):
        for spec in H4_GRID[family]:
            verdict = decide(spec)
            assert verdict.irreducible is _expected_irreducible(family, spec)
            if verdict.irreducible:
                for seed in monomials_upto(("s",), 3):
                    cert = reduction_chain(spec, seed)
                    current = seed
                    for op, recorded in cert.chain:
                        current = apply_chain_op(spec, op, current)
                        assert current == recorded
                    assert cert.final == current
                    assert cert.final.is_constant()
                    assert not cert.final.is_zero()
                    assert orbit_oracle(spec, seed, max_degree=3, cap_degree=6)
            else:
                wit = witness(spec)
                assert wit.all_contained
                assert wit.closure_checks


# --- twist ---------------------------------------------------------------


def test_twist_intertwines_under_s_negation():
    cases = [
        (mg0(S * S + S), m0g(S * S - S)),
        (mg0(_c(5)), m0g(_c(5))),
        (mhb(1, 0, 2), mbh(-1, 0, -2)),
    ]
    for spec, expected_target in cases:
        target = twist(spec)
        assert target == expected_target
        for kind in ("p", "q", "r", "s"):
            x = sym(kind)
            for v in monomials_upto(("s",), 4):
                left = negate_var(act(spec, eta(x), v), "s")
                right = act(target, x, negate_var(v, "s"))
                assert left == right, (kind, v)


# --- corruption sensitivity ----------------------------------------------


def test_every_family_detects_scalar_corruption():
    for name, spec in sample_specs():
        data = corrupted_data(spec)
        window = 3 if data.window == 0 else min(2, data.window)
        report = verify_module(data, window=window, test_degree=2)
        assert not report.passed, name
        assert any(e.status == FAIL for e in report.entries), name


# --- parser and CLI ------------------------------------------------------


def _golden_specs():
    return [
        mg0(_c(1)),
        mg0(_c(2)),
        mg0(S),
        mg0(S * S - S),
        mg0(S * S + ONE),
        m0g(_c(5)),
        m0g(S * S + S),
        mhb(1, 0, 1),
        mhb(2, -1, 3),
        mbh(1, 0, 1),
        mbh(2, -1, 3),
        mab(2, 3),
        m0(),
        mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, 1),
        mtilde(mg0(S), Fraction(1, 2), {1: 1, -1: 2}, 1),
        mtilde(mab(2, 3), 2, {1: 0, -1: Fraction(1, 3), 2: 2, -2: 0}, 2),
        mtilde(m0(), 2, {1: 1, -1: 1}, 1),
        mtilde_f({1: S * S, -1: S + _c(2)}, 1),
        mtilde_f({1: Poly.zero(("s",)), -1: S + S}, 1),
        mtilde_f({1: S, -1: S, 2: _c(1), -2: S * S}, 2),
        Vir00Spec(2, W0),
        Vir00Spec(Fraction(1, 3), W0 * W0 - Poly.one(("w0",))),
        Vir00Spec(-1, W0 + Poly.const(("w0",), Fraction(5))),
        affvir(mhb(1, 0, 1), 2, 3, 1),
        affvir(mab(2, 3), Fraction(1, 2), -2, 1),
    ]


MALFORMED_DOCS = [
    ("algebra = H4\nfamily = Mg0\ng = s^^2\n", 3),
    ("algebra = H4\nfamily = Mhb\na1 = 0\na2 = 0\nb = 1\n", 3),
    (
        "algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mab\na = 2\nb = 3\n"
        "alpha = 2\nbeta.0 = 1\nbeta.1 = 0\nbeta.-1 = 0\nwindow = 1\n",
        7,
    ),
    (
        "algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mab\na = 2\nb = 3\n"
        "alpha = 2\nbeta.5 = 1\nbeta.1 = 0\nbeta.-1 = 0\nwindow = 1\n",
        7,
    ),
    (
        "algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mab\na = 2\nb = 3\n"
        "alpha = 2\nbeta.1 = 0\nbeta.-1 = 0\nwindow = 2\n",
        9,
    ),
    ("algebra = AffineH4\nfamily = MTildeF\nwindow = 1\nf.0 = s+1\nf.1 = s\nf.-1 = 0\n", 4),
    ("algebra = H4\nfamily = Mxy\ng = s\n", 2),
    ("algebra = H4\nfamily = MTildeF\nwindow = 1\nf.1 = s\nf.-1 = 0\n", 1),
    ("algebra = H4\nfamily = Mhb\na1 = 1\na1 = 2\na2 = 0\nb = 1\n", 4),
    (
        "algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mab\na = 2\nb = 3\n"
        "alpha = 0\nbeta.1 = 0\nbeta.-1 = 0\nwindow = 1\n",
        6,
    ),
]


def test_golden_documents_round_trip(tmp_path):
    specs = _golden_specs()
    assert len(specs) == 25
    for index, spec in enumerate(specs):
        text = format_spec(spec)
        parsed = parse_spec(text)
        assert parsed == spec
        assert format_spec(parsed) == text
        path = tmp_path / f"golden_{index}.nw"
        path.write_text(text)
        assert main(["verify", str(path), "--test-degree", "2"]) == 0


def test_malformed_documents_are_positioned(tmp_path, capsys):
    assert len(MALFORMED_DOCS) == 10
    for index, (text, line) in enumerate(MALFORMED_DOCS):
        with pytest.raises((DslSyntaxError, ConstraintViolation)) as info:
            parse_spec(text)
        err = info.value
        assert getattr(err, "line", None) == line, (index, err)
        path = tmp_path / f"bad_{index}.nw"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"line {line}" in captured.err


def test_cli_exit_codes_follow_contract(tmp_path, capsys):
    good = tmp_path / "good.nw"
    good.write_text(format_spec(mhb(1, 0, 1)))
    assert main(["verify", str(good)]) == 0
    capsys.readouterr()

    bad_data = tmp_path / "bad_data.nw"
    bad_data.write_text("algebra = H4\nwindow = 0\np = 1\nq = s\nr = 1\ns = s\n")
    assert main(["verify", str(bad_data)]) == 1
    capsys.readouterr()

    assert main(["verify", str(tmp_path / "missing.nw")]) == 2
    capsys.readouterr()
