"""Grammar, document parsing, formatting round trips, and the CLI."""

from fractions import Fraction

import pytest

from nwfree.exactpoly import Poly
from nwfree.liealg import H4, SymbolNotInAlgebra, parse_symbol, sym
from nwfree.modfam import (
    MAX_WINDOW,
    ActionData,
    ConstraintViolation,
    MalformedData,
    SpecInvalid,
    Vir00Spec,
    actions_of,
    affvir,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    mtilde,
    mtilde_f,
)
from nwfree.specdsl import (
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_NESTING,
    MAX_TERM_PAIRS,
    MAX_TERM_WORK,
    DslSyntaxError,
    UnknownVariable,
    format_actions,
    format_spec,
    main,
    parse_actions,
    parse_input,
    parse_poly,
    parse_rational,
    parse_spec,
)
from nwfree.irreducible import MAX_CAP_DEGREE, orbit_oracle
from nwfree.verify import MAX_TEST_DEGREE, verify_module

from helpers import S, W0, corrupted_data, sample_specs

SD = ("s", "d")

MHB_DOC = """\
algebra = H4
family = Mhb
a1 = 1
a2 = 0
b = 1
"""

MTAB_DOC = """\
algebra = AffineH4
family = MTildeAlphaBeta
base = Mhb
a1 = 1
a2 = 0
b = 1
alpha = 2
beta.1 = 5
beta.-1 = 0
window = 1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- grammar


def test_three_term_polynomial():
    got = parse_poly("1/2*s^2 - 3*s*d + 7")
    expect = (
        Poly.monomial(SD, (2, 0), Fraction(1, 2))
        + Poly.monomial(SD, (1, 1), -3)
        + Poly.const(SD, 7)
    )
    assert got == expect


def test_product_expands():
    assert parse_poly("s*(s-1)") == S ** 2 - S


def test_double_caret_is_positioned():
    with pytest.raises(DslSyntaxError) as err:
        parse_poly("s^^2")
    assert (err.value.line, err.value.col) == (1, 3)


def test_unknown_variable_is_positioned():
    with pytest.raises(UnknownVariable) as err:
        parse_poly("2*x + 1")
    assert (err.value.line, err.value.col) == (1, 3)


def test_explicit_variable_set_restricts():
    with pytest.raises(UnknownVariable):
        parse_poly("d", ("s",))


def test_unary_minus_and_powers():
    assert parse_poly("-s^2", ("s",)) == -(S ** 2)
    assert parse_poly("(-s)^2", ("s",)) == S ** 2


def test_grammar_error_positions():
    with pytest.raises(DslSyntaxError):
        parse_poly("")
    with pytest.raises(DslSyntaxError) as err:
        parse_poly("2^-1")
    assert err.value.col == 3
    with pytest.raises(DslSyntaxError):
        parse_poly("1/0")
    with pytest.raises(DslSyntaxError):
        parse_poly("s s")
    with pytest.raises(DslSyntaxError):
        parse_poly("(s+1")
    with pytest.raises(DslSyntaxError) as err:
        parse_poly("s?", ("s",))
    assert err.value.col == 2


def test_position_offsets_carry_through():
    with pytest.raises(DslSyntaxError) as err:
        parse_poly("s^^2", ("s",), line=7, col=11)
    assert (err.value.line, err.value.col) == (7, 13)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    with pytest.raises(DslSyntaxError):
        parse_rational("s", 2, 5)


# ----------------------------------------------------------- spec documents


def test_parse_mhb_document():
    assert parse_spec(MHB_DOC) == mhb(1, 0, 1)


def test_parse_mtab_document():
    assert parse_spec(MTAB_DOC) == mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)


def test_comments_and_blank_lines_are_ignored():
    doc = "# header\nalgebra = H4\n\nfamily = Mg0  # inline\ng = s^2\n"
    assert parse_spec(doc) == mg0(S ** 2)


def test_zero_a1_violation_is_positioned():
    doc = MHB_DOC.replace("a1 = 1", "a1 = 0")
    with pytest.raises(ConstraintViolation) as err:
        parse_spec(doc)
    assert err.value.message.startswith("a1 != 0")
    assert err.value.line == 3


def test_nonzero_beta0_is_positioned():
    doc = MTAB_DOC.replace("beta.1 = 5", "beta.1 = 5\nbeta.0 = 1")
    with pytest.raises(ConstraintViolation) as err:
        parse_spec(doc)
    assert err.value.message == "beta.0 must be 0"
    assert err.value.line == 9


def test_beta_outside_window_is_positioned():
    doc = MTAB_DOC.replace("beta.1 = 5", "beta.1 = 5\nbeta.5 = 1")
    with pytest.raises(ConstraintViolation) as err:
        parse_spec(doc)
    assert "beta.5" in err.value.message
    assert err.value.line == 9


def test_missing_beta_inside_window_points_at_window():
    doc = MTAB_DOC.replace("window = 1", "window = 2")
    with pytest.raises(ConstraintViolation) as err:
        parse_spec(doc)
    assert "missing inside window" in err.value.message
    assert err.value.line == 10


def test_unknown_and_missing_keys():
    with pytest.raises(ConstraintViolation) as err:
        parse_spec(MHB_DOC + "color = red\n")
    assert "color" in err.value.message
    assert err.value.line == 6

    with pytest.raises(ConstraintViolation) as err:
        parse_spec("algebra = H4\nfamily = Mhb\na1 = 1\na2 = 0\n")
    assert "requires b" in err.value.message


def test_family_algebra_mismatch():
    with pytest.raises(ConstraintViolation) as err:
        parse_spec("algebra = H4\nfamily = MTildeF\nwindow = 1\nf.1 = s\nf.-1 = s\n")
    assert "belongs to algebra AffineH4" in err.value.message
    assert err.value.line == 1


def test_unknown_family_and_duplicate_key():
    with pytest.raises(ConstraintViolation):
        parse_spec("algebra = H4\nfamily = Mxy\n")
    with pytest.raises(DslSyntaxError) as err:
        parse_spec(MHB_DOC + "a1 = 2\n")
    assert "duplicate" in err.value.message


MTF_DOC = """\
algebra = AffineH4
family = MTildeF
f.1 = s
f.-1 = s
window = 1
"""


@pytest.mark.parametrize(
    "doc, line, col, message",
    [
        (MTAB_DOC.replace("beta.1 = 5", "beta.1 = 5\nbeta.01 = 7"), 9, 1,
         "duplicate loop index beta.1"),
        # the later line is reported, not the later key in sorted order
        (MTAB_DOC.replace("beta.1 = 5", "beta.01 = 7\n  beta.1 = 5"), 9, 3,
         "duplicate loop index beta.1"),
        (MTF_DOC.replace("f.1 = s", "f.-0 = s\nf.1 = s\nf.0 = s"), 5, 1,
         "duplicate loop index f.0"),
        # a malformed index is still reported first
        (MTAB_DOC.replace("beta.1 = 5", "beta.1 = 5\nbeta.01 = 7\nbeta.x = 1"), 10, 1,
         "beta.x needs an integer index"),
    ],
    ids=["beta-1-01", "beta-01-1", "f-0-minus-0", "bad-index-first"],
)
def test_duplicate_loop_index_is_reported_at_the_later_key(doc, line, col, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_spec(doc)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


@pytest.mark.parametrize(
    "doc, line, col, message",
    [
        ("algebra = H4\np = s\nq = 1\nr = -1\ns = s\np@0 = 2*s\n", 6, 1,
         "duplicate assignment for p"),
        ("algebra = H4\np@0 = 2*s\nq = 1\nr = -1\ns = s\n p = s\n", 6, 2,
         "duplicate assignment for p"),
        ("algebra = AffineH4\nwindow = 1\nq@1 = 2\nq@-0 = 1\nq@01 = 3\n", 5, 1,
         "duplicate assignment for q@1"),
    ],
    ids=["p-then-p0", "p0-then-p", "affine-q-01"],
)
def test_duplicate_generator_is_reported_at_the_later_key(doc, line, col, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_actions(doc)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


def test_f0_side_condition_in_document():
    doc = "algebra = AffineH4\nfamily = MTildeF\nf.0 = s+1\nf.1 = s\nf.-1 = s\nwindow = 1\n"
    with pytest.raises(ConstraintViolation) as err:
        parse_spec(doc)
    assert err.value.message == "f.0 must be s"
    assert err.value.line == 3


def test_vir00_document():
    doc = "algebra = Vir00\nfamily = MLambdaF\nlambda = 2\nfpoly = w0^2-1\n"
    assert parse_spec(doc) == Vir00Spec(2, W0 ** 2 - Poly.one(("w0",)))


def test_vir00_fpoly_rejects_s():
    doc = "algebra = Vir00\nfamily = MLambdaF\nlambda = 2\nfpoly = s\n"
    with pytest.raises(UnknownVariable) as err:
        parse_spec(doc)
    assert err.value.line == 4


def test_spec_round_trips():
    for name, spec in sample_specs():
        text = format_spec(spec)
        again = parse_spec(text)
        assert again == spec, name
        assert format_spec(again) == text, name


def test_format_spec_writes_h4_parameters_in_document_order():
    h4 = "algebra = H4\nfamily = "
    assert format_spec(mhb(1, 0, 1)) == MHB_DOC
    assert format_spec(mbh(2, -1, 3)) == h4 + "Mbh\na1 = 2\na2 = -1\nb = 3\n"
    assert format_spec(mab(2, Fraction(-3, 4))) == h4 + "Mab\na = 2\nb = -3/4\n"
    assert format_spec(mg0(S ** 2 - S)) == h4 + "Mg0\ng = s^2-s\n"
    assert format_spec(m0g(5)) == h4 + "M0g\ng = 5\n"
    assert format_spec(m0()) == h4 + "M0\n"
    assert format_spec(mtilde(mab(2, 3), 2, {1: 5, -1: 0}, window=1)) == (
        "algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mab\na = 2\nb = 3\n"
        "alpha = 2\nbeta.-1 = 0\nbeta.0 = 0\nbeta.1 = 5\nwindow = 1\n"
    )


# --------------------------------------------------------- action documents


def test_actions_round_trips():
    for name, spec in sample_specs():
        data = actions_of(spec, None)
        text = format_actions(data)
        assert parse_actions(text) == data, name
    # format_actions writes (s+d+1)^64 as 2,145 single terms, monomials in
    # s, d of degree at most 64, whose products and powers multiply at most
    # 95,810 term pairs, within the term-work limit
    data = parse_actions("algebra = AffineH4\nwindow = 0\np@0 = (s+d+1)^64\nq@0 = (s-d)^24\n")
    assert len(data.value(sym("p", 0)).terms) == 2145
    assert parse_actions(format_actions(data)) == data


def test_h4_actions_default_window():
    doc = "algebra = H4\np = s+2\nq = 3\nr = -3\ns = s\n"
    data = parse_actions(doc)
    assert data.algebra == H4
    assert data.window == 0


def test_affine_actions_require_window():
    with pytest.raises(ConstraintViolation):
        parse_actions("algebra = AffineH4\np = s\n")


def test_unknown_generator_is_positioned():
    with pytest.raises(DslSyntaxError) as err:
        parse_actions("algebra = H4\nz@1 = s\n")
    assert err.value.line == 2


def test_action_value_variables_follow_algebra():
    with pytest.raises(UnknownVariable):
        parse_actions("algebra = H4\np = d\nq = 0\nr = 0\ns = s\n")


def test_parse_input_dispatch():
    assert parse_input(MHB_DOC) == mhb(1, 0, 1)
    got = parse_input("algebra = H4\np = 1\nq = 0\nr = 0\ns = s\n")
    assert got.algebra == H4


# --------------------------------------------------------------------- CLI


def test_cli_verify_spec_passes(tmp_path, capsys):
    path = write(tmp_path, "mhb.spec", MHB_DOC)
    code = main(["verify", path, "--window", "3", "--test-degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SUMMARY pass=true" in out


def test_cli_verify_affine_defaults_to_spec_window(tmp_path, capsys):
    path = write(tmp_path, "aff.spec", MTAB_DOC)
    code = main(["verify", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "SUMMARY pass=true" in out


def test_cli_rejects_power_above_degree_limit(tmp_path, capsys):
    assert parse_poly(f"s^{MAX_DEGREE}") == S ** MAX_DEGREE
    with pytest.raises(DslSyntaxError) as err:
        parse_poly("(s^2)^40")
    assert err.value.col == 7
    path = write(tmp_path, "big.spec", "algebra = H4\nfamily = Mg0\ng = s^100000000\n")
    assert main(["twist", path]) == 2
    assert "line 3, col 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "poly, where",
    [
        ("s^\u00b2", "line 3, col 7: unexpected character"),
        ("s+" + "7" * 5000, "line 3, col 7: numeral of 5000 digits"),
    ],
    ids=["superscript-digit", "long-numeral"],
)
def test_cli_rejects_non_ascii_digits_and_long_numerals(tmp_path, capsys, poly, where):
    path = write(tmp_path, "g.spec", f"algebra = H4\nfamily = Mg0\ng = {poly}\n")
    assert main(["twist", path]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, where",
    [
        (MHB_DOC.replace("a1 = 1", "a1 = \u0663"), "line 3, col 6: expected a rational number"),
        (MHB_DOC.replace("b = 1", "b = 1_0"), "line 5, col 5: expected a rational number"),
        (MTAB_DOC.replace("alpha = 2", "alpha = \uff12"), "line 7, col 9: expected a rational"),
        (MTAB_DOC.replace("beta.1 = 5", "beta.1 = 1/\u0665"), "line 8, col 10: expected a rational"),
        (MTAB_DOC.replace("window = 1", "window = 0_1"), "line 10, col 10: window must be an"),
        (MTAB_DOC.replace("window = 1", "window = \u0661"), "line 10, col 10: window must be an"),
        ("algebra = AffineH4\nwindow = \u0661\n", "line 2, col 10: window must be an integer"),
    ],
    ids=["arabic-a1", "underscore-b", "fullwidth-alpha", "arabic-denominator",
         "underscore-window", "arabic-window", "action-window"],
)
def test_cli_rejects_non_ascii_rationals_and_windows(tmp_path, capsys, doc, where):
    assert main(["verify", write(tmp_path, "doc", doc)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, where",
    [
        (MTAB_DOC.replace("beta.1 = 5", "beta.\u0661 = 5"),
         "line 8, col 1: beta.\u0661 needs an integer index"),
        (MTAB_DOC.replace("beta.1 = 5", "beta.1_0 = 5"),
         "line 8, col 1: beta.1_0 needs an integer index"),
        ("algebra = AffineH4\nwindow = 1\np@\u0661 = 2\n",
         "line 3, col 1: bad loop index in 'p@\u0661'"),
        ("algebra = AffineH4\nwindow = 1\np@ 1 = 2\n", "line 3, col 1: bad loop index in 'p@ 1'"),
    ],
    ids=["arabic-beta", "underscore-beta", "arabic-action", "space-action"],
)
def test_cli_rejects_non_ascii_loop_indices(tmp_path, capsys, doc, where):
    assert main(["verify", write(tmp_path, "doc", doc)]) == 2
    assert where in capsys.readouterr().err


def test_ascii_loop_indices_still_parse():
    assert parse_symbol("p@-12") == sym("p", -12)
    assert parse_symbol("dvir@3") == sym("dvir", 3)
    for bad in ("p@+1", "p@1 0", "p@\uff11", "p@1.0"):
        with pytest.raises(SymbolNotInAlgebra):
            parse_symbol(bad)


def test_ascii_rationals_still_parse():
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("+2") == Fraction(2)
    with pytest.raises(DslSyntaxError):
        parse_rational("\u0663")
    with pytest.raises(DslSyntaxError):
        parse_rational("1_000")


def test_numeral_at_the_digit_limit_parses():
    assert parse_poly("9" * MAX_DIGITS) == Poly.const((), int("9" * MAX_DIGITS))


def _g_doc(g):
    return f"algebra = H4\nfamily = Mg0\ng = {g}\n"


def _product(factor, count):
    return "*".join([factor] * count)


NINES = "9" * (MAX_DIGITS // 2)
# pairwise coprime 1000-digit denominators: the sum's passes 4,300 digits
SIX_FRACTIONS = "+".join(f"1/{10 ** 999 + k}" for k in (1, 3, 5, 7, 9, 13))


@pytest.mark.parametrize(
    "g, col, message",
    [
        # the value starts at col 5; the (MAX_NESTING + 1)-th `(` or `-` is reported
        ("(" * 600 + "s" + ")" * 600, 105, "nesting exceeds the limit 100"),
        ("-" * 1000 + "s", 105, "nesting exceeds the limit 100"),
        ("-(" * 51 + "s" + ")" * 51, 105, "nesting exceeds the limit 100"),
        ("(-" * 51 + "s" + ")" * 51, 105, "nesting exceeds the limit 100"),
        # the 64th `*` of 65 factors (s+1): each factor and its `*` take 6 columns
        (_product("(s+1)", 1600), 5 + 6 * 64 - 1, "product exceeds the degree limit 64"),
        ("s^32*s^33", 9, "product exceeds the degree limit 64"),
        (NINES + "*" + NINES + "9", 5 + len(NINES), "product exceeds the digit limit 1000"),
        (f"1/{NINES}*1/{NINES}9", 7 + len(NINES), "product exceeds the digit limit 1000"),
        ("((2^64)^64)^64", 12, "power exceeds the digit limit 1000"),
        (f"({'9' * 100})^11", 107, "power exceeds the digit limit 1000"),
        # the degree check on a power keeps its message and its position, the exponent
        ("(s^2)^40", 11, "power ^40 exceeds the degree limit 64"),
        # each `1/N` takes 1002 columns; the first `+` already passes the limit
        (SIX_FRACTIONS, 5 + 1002, "sum exceeds the digit limit 1000"),
        ("-" + "9" * MAX_DIGITS + "-1", 6 + MAX_DIGITS, "sum exceeds the digit limit 1000"),
        # (s+1)^64 multiplies 4,160 term pairs and each `*1` then 65, so the
        # 3,013th `*` passes the limit
        ("(s+1)^64" + "*1" * 4000, 13 + 2 * 3012, "polynomial exceeds the term-work limit 200000"),
    ],
    ids=["parentheses", "unary-minus", "minus-parenthesis", "parenthesis-minus",
         "long-product", "product-degree", "product-numerator", "product-denominator",
         "nested-constant-powers", "power-numerator", "power-degree", "sum-denominator",
         "difference-numerator", "term-work"],
)
def test_cli_rejects_deep_nesting_and_unbounded_products(tmp_path, capsys, g, col, message):
    assert main(["verify", write(tmp_path, "g.spec", _g_doc(g))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line 3, col {col}: {message}\n"


def test_nesting_products_and_powers_at_their_limits_parse():
    s = ("s",)
    assert MAX_NESTING == 100
    assert parse_poly("(" * MAX_NESTING + "s" + ")" * MAX_NESTING, s) == S
    assert parse_poly("-" * MAX_NESTING + "s", s) == S
    assert parse_poly("-(" * 50 + "s" + ")" * 50, s) == S
    assert parse_poly(_product("(s+1)", MAX_DEGREE), s) == (S + Poly.one(s)) ** MAX_DEGREE
    # (10^500 - 1)^2 has exactly MAX_DIGITS digits
    square = parse_poly(NINES + "*" + NINES)
    assert square == Poly.const((), int(NINES) ** 2)
    assert len(str(square.constant_value())) == MAX_DIGITS
    assert parse_poly(f"({'9' * 100})^10") == Poly.const((), int("9" * 100) ** 10)
    assert parse_poly("(1/3)^64*(1/3)^64") == Poly.const((), Fraction(1, 3 ** 128))
    # sums: 10^1000 - 1 and (10^500 - 1)(10^500 - 2) have exactly MAX_DIGITS digits
    top = parse_poly("9" * (MAX_DIGITS - 1) + "8+1").constant_value()
    assert top == 10 ** MAX_DIGITS - 1
    low = parse_poly(f"1/{NINES}+1/{NINES[1:]}8").constant_value()
    assert low == Fraction(1, 10 ** 500 - 1) + Fraction(1, 10 ** 500 - 2)
    assert len(str(low.denominator)) == MAX_DIGITS


# (c*s+c*d+c)^32 has 561 terms, (c*s+c*d)^32 has 33; c has 15 digits
C15 = "123456789012345"
WIDE = f"({C15}*s+{C15}*d+{C15})^32"
NARROW = f"({C15}*s+{C15}*d)^32"


def test_products_past_the_term_pair_limit_exit_2_at_their_sign(tmp_path, capsys):
    assert 33 * 561 <= MAX_TERM_PAIRS < 561 * 561
    for g, sign, message in [
        (f"{WIDE}*{WIDE}", f"{WIDE}*", "product exceeds the term-pair limit"),
        (f"({WIDE})^2", f"({WIDE})^", "power exceeds the term-pair limit"),
    ]:
        doc = f"algebra = AffineH4\nwindow = 0\np@0 = {g}\n"
        assert main(["verify", write(tmp_path, "wide.actions", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # the value starts at col 7
        assert err == f"error: line 3, col {6 + len(sign)}: {message} {MAX_TERM_PAIRS}\n"
    # one term fewer on either side stays under the limit
    sd = ("s", "d")
    narrow_by_wide = parse_poly(NARROW, sd) * parse_poly(WIDE, sd)
    assert parse_poly(f"{NARROW}*{WIDE}", sd) == narrow_by_wide
    assert parse_poly(f"{WIDE}*{NARROW}", sd) == narrow_by_wide


def test_the_term_work_limit_counts_the_multiplications_of_one_value():
    assert MAX_TERM_WORK == 200000
    # (s+d+1)^64 multiplies 3 * C(66, 3) = 137,280 term pairs in its power
    # and each `*1` then 2,145, so 29 steps fit and the 30th does not
    base = parse_poly("(s+d+1)^64", SD)
    assert len(base.terms) == 2145
    assert parse_poly("(s+d+1)^64" + "*1" * 29, SD) == base
    with pytest.raises(DslSyntaxError) as err:
        parse_poly("(s+d+1)^64" + "*1" * 1000, SD)
    assert (err.value.line, err.value.col) == (1, 11 + 2 * 29)
    assert err.value.message == "polynomial exceeds the term-work limit 200000"
    # a sum merges its terms into one table and is not counted
    assert parse_poly("(s+d+1)^64" + "+0" * 1000 + "-s^64+s^64", SD) == base
    # the costliest power within the degree and term-pair limits, 163,680 pairs
    assert len(parse_poly("(s+d+d0+1)^30").terms) == 5456
    # the limit is per value: each line of a document starts afresh;
    # (s+d+1)^32 multiplies 17,952 pairs and each `*1` then 561
    line = "(s+d+1)^32" + "*1" * 324
    doc = f"algebra = AffineH4\nwindow = 0\np@0 = {line}\nq@0 = {line}\n"
    assert parse_actions(doc).value(sym("p", 0)) == parse_poly("(s+d+1)^32", SD)
    with pytest.raises(DslSyntaxError) as err:
        parse_poly(line + "*1", SD)
    assert err.value.col == len(line) + 1


@pytest.mark.parametrize(
    "doc, line, col, message",
    [
        ("algebra = H4\nq = 1\np@ = s\nr = -1\ns = s\n", 3, 1, "bad loop index in 'p@'"),
        ("algebra = AffineH4\nwindow = 1\n  k@ = 0\n", 3, 3, "bad loop index in 'k@'"),
    ],
    ids=["p-at", "k-at"],
)
def test_empty_loop_index_is_reported_at_the_key(doc, line, col, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_actions(doc)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)
    for text in ("p@", "k@", "dvir@"):
        with pytest.raises(SymbolNotInAlgebra):
            parse_symbol(text)


HUGE = 10 ** 12


@pytest.mark.parametrize(
    "doc, args, where",
    [
        (MTAB_DOC.replace("window = 1", f"window = {HUGE}"), [], "line 10, col 10:"),
        (f"algebra = AffineH4\nwindow = {HUGE}\n", [], "line 2, col 10:"),
        (MTAB_DOC, ["--window", str(HUGE)], "error: window exceeds"),
        ("algebra = Vir00\nfamily = MLambdaF\nlambda = 2\nfpoly = w0\n",
         ["--window", str(HUGE)], "error: window exceeds"),
        (MHB_DOC, ["--test-degree", str(HUGE)], "error: test degree exceeds"),
    ],
    ids=["spec-window", "action-window", "verify-window", "vir00-window", "test-degree"],
)
def test_cli_rejects_window_and_test_degree_above_limits(
    tmp_path, capsys, small_ranges, doc, args, where
):
    # every check runs before a table over the window or the degree is built
    assert main(["verify", write(tmp_path, "big.doc", doc), *args]) == 2
    err = capsys.readouterr().err
    assert where in err and "exceeds the limit" in err


def test_cli_rejects_cap_degree_above_limit(tmp_path, capsys, small_ranges):
    # the limit is checked before the oracle builds a column
    path = write(tmp_path, "mab.spec", "algebra = H4\nfamily = Mab\na = 2\nb = 3\n")
    args = ["irreducible", path, "--seed-poly", "s", "--max-degree", "1"]
    assert main([*args, "--cap-degree", str(HUGE)]) == 2
    out, err = capsys.readouterr()
    assert "error: cap degree exceeds the limit" in err
    assert out == ""  # nothing is printed before the oracle flags are checked
    assert main([*args, "--cap-degree", str(MAX_CAP_DEGREE)]) == 0
    assert "ORACLE reachable=true" in capsys.readouterr().out


def test_cap_degree_limit_is_inclusive(small_ranges):
    assert MAX_CAP_DEGREE >= 6  # every cap used in tests, scripts and the benchmark
    assert orbit_oracle(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, 1), Poly.var(SD, "s"), 1,
                        MAX_CAP_DEGREE) is True
    with pytest.raises(SpecInvalid):
        orbit_oracle(mhb(1, 0, 1), S, 1, MAX_CAP_DEGREE + 1)


def test_window_and_test_degree_limits_are_inclusive(small_ranges):
    assert mtilde(mhb(1, 0, 1), 2, {k: 0 for k in range(-MAX_WINDOW, MAX_WINDOW + 1)},
                  MAX_WINDOW).window == MAX_WINDOW
    with pytest.raises(SpecInvalid):
        mtilde(mhb(1, 0, 1), 2, {}, MAX_WINDOW + 1)
    with pytest.raises(SpecInvalid):
        affvir(mhb(1, 0, 1), 2, 3, HUGE)
    with pytest.raises(MalformedData):
        ActionData("AffineH4", HUGE, {})
    vir = Vir00Spec(Fraction(2), W0)
    assert verify_module(vir, window=MAX_WINDOW, test_degree=1).passed
    assert verify_module(mhb(1, 0, 1), window=1, test_degree=MAX_TEST_DEGREE).passed
    with pytest.raises(SpecInvalid):
        verify_module(vir, window=MAX_WINDOW + 1, test_degree=1)
    with pytest.raises(SpecInvalid):
        verify_module(vir, window=1, test_degree=MAX_TEST_DEGREE + 1)


def test_cli_verify_detects_corruption(tmp_path, capsys):
    data = corrupted_data(mhb(1, 0, 1))
    path = write(tmp_path, "bad.acts", format_actions(data))
    code = main(["verify", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "SUMMARY pass=false" in out
    assert " FAIL" in out


def test_cli_classify_rejects_degree_two(tmp_path, capsys):
    doc = "algebra = H4\np = s^2\nq = 1\nr = 0\ns = s\n"
    code = main(["classify", write(tmp_path, "deg2.acts", doc)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("REJECTED degree-dichotomy")
    assert "(2, 0)" in out


def test_cli_classify_emits_spec_document(tmp_path, capsys):
    spec = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    data = actions_of(spec, None)
    code = main(["classify", write(tmp_path, "good.acts", format_actions(data))])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_spec(out) == spec


def test_cli_classify_needs_action_data(tmp_path, capsys):
    code = main(["classify", write(tmp_path, "m.spec", MHB_DOC)])
    assert code == 2
    assert "action data" in capsys.readouterr().err


def test_cli_irreducible_certificate(tmp_path, capsys):
    doc = "algebra = H4\nfamily = Mg0\ng = 2\n"
    path = write(tmp_path, "mg0.spec", doc)
    code = main(["irreducible", path, "--seed-poly", "s^2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERDICT Irreducible family=Mg0 derived=false" in out
    assert "STEP 1/2*p-1*id POLY -2*s+1" in out
    assert "SUMMARY constant=2" in out


def test_cli_irreducible_witness(tmp_path, capsys):
    doc = "algebra = H4\nfamily = Mg0\ng = s^2-s\n"
    code = main(["irreducible", write(tmp_path, "red.spec", doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERDICT Reducible" in out
    assert out.splitlines()[1] == "IDEAL s"
    assert "SUMMARY pass=true" in out


def test_cli_prints_nothing_before_exit_two(tmp_path, capsys):
    # the verdict is known before the chain fails on the zero seed
    path = write(tmp_path, "mab.spec", "algebra = H4\nfamily = Mab\na = 2\nb = 3\n")
    assert main(["irreducible", path, "--seed-poly", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the zero vector generates nothing\n"


@pytest.mark.parametrize(
    "seed, message",
    [
        ("d", "--seed-poly, col 1: unknown variable 'd'"),
        ("s +", "--seed-poly, col 4: unexpected end of polynomial"),
        ("s\n+ x", "--seed-poly, line 2, col 3: unknown variable 'x'"),
    ],
    ids=["unknown-variable", "unfinished", "second-line"],
)
def test_cli_seed_poly_errors_name_the_option(tmp_path, capsys, seed, message):
    # the position lies in the option's text, not in the document
    path = write(tmp_path, "mab.spec", "algebra = H4\nfamily = Mab\na = 2\nb = 3\n")
    assert main(["irreducible", path, "--seed-poly", seed]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_cli_irreducible_oracle(tmp_path, capsys):
    doc = "algebra = H4\nfamily = Mg0\ng = 1\n"
    path = write(tmp_path, "one.spec", doc)
    code = main(
        ["irreducible", path, "--seed-poly", "s^3", "--max-degree", "3", "--cap-degree", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ORACLE reachable=true" in out


def test_cli_oracle_needs_all_three_flags(tmp_path, capsys):
    doc = "algebra = H4\nfamily = Mg0\ng = 1\n"
    path = write(tmp_path, "one.spec", doc)
    code = main(["irreducible", path, "--max-degree", "3"])
    assert code == 2


def test_cli_twist(tmp_path, capsys):
    doc = "algebra = H4\nfamily = Mg0\ng = s^2+s\n"
    code = main(["twist", write(tmp_path, "t.spec", doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "family = M0g" in out
    assert "g = s^2-s" in out


def test_cli_iso_differs_in_beta(tmp_path, capsys):
    a = format_spec(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0, 2: 5, -2: 0}, window=2))
    b = format_spec(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0, 2: 6, -2: 0}, window=2))
    code = main(["iso", write(tmp_path, "a.spec", a), write(tmp_path, "b.spec", b)])
    assert code == 1
    assert "ISO false" in capsys.readouterr().out


def test_cli_iso_equal_specs(tmp_path, capsys):
    a = format_spec(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1))
    code = main(["iso", write(tmp_path, "a.spec", a), write(tmp_path, "b.spec", a)])
    assert code == 0
    assert "ISO true" in capsys.readouterr().out


def test_cli_malformed_document_exits_two(tmp_path, capsys):
    doc = MHB_DOC.replace("a1 = 1", "a1 = 0")
    code = main(["verify", write(tmp_path, "bad.spec", doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: line 3" in captured.err


def test_cli_missing_file_exits_two(capsys):
    code = main(["verify", "/no/such/file.spec"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_window_overflow_exits_two(tmp_path, capsys):
    path = write(tmp_path, "w.spec", MTAB_DOC)
    code = main(["verify", path, "--window", "5"])
    assert code == 2


def test_cli_reports_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "m.spec", MHB_DOC)
    main(["verify", path])
    first = capsys.readouterr().out
    main(["verify", path])
    second = capsys.readouterr().out
    assert first == second
