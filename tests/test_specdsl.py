"""Grammar, document parsing, formatting round trips, and the CLI."""

from fractions import Fraction

import pytest

from nwfree.exactpoly import Poly
from nwfree.liealg import H4
from nwfree.modfam import (
    ConstraintViolation,
    Vir00Spec,
    actions_of,
    affvir,
    mg0,
    mhb,
    mtilde,
    mtilde_f,
)
from nwfree.specdsl import (
    MAX_DEGREE,
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


# --------------------------------------------------------- action documents


def test_actions_round_trips():
    for name, spec in sample_specs():
        data = actions_of(spec, None)
        text = format_actions(data)
        assert parse_actions(text) == data, name


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
