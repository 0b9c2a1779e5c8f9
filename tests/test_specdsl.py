"""Grammar, document parsing, formatting round trips, and the CLI."""

import hashlib
import importlib
import inspect
import itertools
import math
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nwfree
from nwfree import InputError
from nwfree.classify import classify
from nwfree.exactpoly import MAX_MONOMIAL_TEXTS, Poly, VariableMismatch, format_poly
from nwfree.liealg import H4, BasisSymbol, SymbolNotInAlgebra, format_symbol, parse_symbol, sym
from nwfree.modfam import (
    MAX_WINDOW,
    ActionData,
    AffineSpec,
    ConstraintViolation,
    MalformedData,
    SpecInvalid,
    Vir00Spec,
    act,
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
    MAX_DENOMINATOR_DIGITS,
    MAX_DIGITS,
    MAX_DOCUMENT_TEXT_LENGTH,
    MAX_DOCUMENT_TEXTS,
    MAX_NESTING,
    MAX_SYMBOL_TEXTS,
    MAX_TERM_WORK,
    MAX_VALUE_TEXT_LENGTH,
    MAX_VALUE_TEXTS,
    DslSyntaxError,
    UnknownVariable,
    _monomial,
    _Token,
    _document,
    _read_document,
    _read_sum,
    _symbol,
    _tokenize,
    _load,
    _value,
    format_actions,
    format_spec,
    main,
    parse_actions,
    parse_input,
    parse_poly,
    parse_rational,
    parse_spec,
)
from nwfree.irreducible import MAX_CAP_DEGREE, orbit_oracle, witness
from nwfree.verify import MAX_TEST_DEGREE, verify_module

from helpers import (
    S,
    W0,
    corrupted_data,
    format_poly_reference,
    int_digit_limit_lifted,
    parse_poly_reference,
    random_specs,
    read_document_reference,
    sample_specs,
    tokenize_reference,
)

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

MTF_DOC = """\
algebra = AffineH4
family = MTildeF
f.1 = s
f.-1 = s
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


@pytest.mark.parametrize(
    "doc,message,line,col",
    [
        # a constructor error points at the first word of its message that is
        # a taken key: `b` here, the zero one
        ("algebra = H4\nfamily = Mab\nb = 0\na = 2\n", "b != 0 is required", 3, 1),
        ("algebra = H4\nfamily = Mab\nb = 0\na = 0\n", "a != 0 and b != 0 are required", 4, 1),
        # a loop key is also taken under its canonical name: `beta.0` is beta.00's line
        (MTAB_DOC + "beta.00 = 1\n", "beta.0 must be 0", 11, 1),
        (MTAB_DOC + "beta.02 = 1\n", "beta.2 lies outside the window", 11, 1),
        (MTF_DOC + "f.00 = 2*s\n", "f.0 must be s", 6, 1),
        (MTF_DOC + "f.003 = s\n", "f.3 lies outside the window", 6, 1),
        ("algebra = H4\n  family\n", "expected `key = value`", 2, 3),
        ("algebra = H4\n = Mab\n", "missing key before '='", 2, 1),
        (MTAB_DOC.replace("base = Mhb", "base = Mxy"), "unknown base family Mxy", 3, 8),
        ("algebra = H4\na = 1\n", "family key is required", 1, 1),
        ("algebra = H4\nfamily = Mg0\ng = 1/s\n", "expected an integer denominator after '/'", 3, 7),
        ("algebra = H4\nfamily = Mg0\ng = s+*2\n", "unexpected '*'", 3, 7),
        ("algebra = H4\nfamily =\n", "missing value for family", 2, 9),
        (MTAB_DOC + "color = red\n", "key color is not used by family MTildeAlphaBeta", 11, 1),
        # int() takes a leading `+`; a window does not
        (MTAB_DOC.replace("window = 1", "window = +1"), "window must be an integer", 10, 10),
        # the window is read before the loop keys, so its absence comes first
        (MTAB_DOC.replace("window = 1", "beta.x = 1"),
         "family MTildeAlphaBeta requires window", 2, 1),
        (MTF_DOC.replace("window = 1", "f.y = s"), "family MTildeF requires window", 2, 1),
        # a base is built as soon as its parameters are read, before alpha
        (MTAB_DOC.replace("base = Mhb\na1 = 1\na2 = 0\nb = 1", "base = Mab\na = 1\nb = 0")
         .replace("alpha = 2", "alpha = x"), "b != 0 is required", 5, 1),
    ],
)
def test_document_faults_are_positioned(doc, message, line, col):
    with pytest.raises((DslSyntaxError, ConstraintViolation)) as err:
        parse_spec(doc)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


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


def test_the_earlier_of_two_malformed_loop_indices_is_reported():
    # keys are walked in line order, not in sorted order, which puts beta.a first
    doc = MTAB_DOC.replace("beta.1 = 5\nbeta.-1 = 0", "beta.z = 5\nbeta.a = 0")
    with pytest.raises(DslSyntaxError) as err:
        parse_spec(doc)
    assert (err.value.line, err.value.col, err.value.message) == (8, 1, "beta.z needs an integer index")


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


def _document_outcome(read, text):
    """The entries `read` gives, or the (type, message, line, col) of its error."""
    try:
        return read(text)
    except DslSyntaxError as exc:
        return type(exc), exc.message, exc.line, exc.col


# pieces of document lines: keys and values, `=`s, `#` comments, and
# ASCII and Unicode whitespace, which `str.strip` and `splitlines` both read
_LINE_PIECES = st.sampled_from(
    ["p", "q@1", "algebra", "2*s", "x y", "=", "==", "#", "# a = b", " ", "\t",
     "\u3000", "\u00a0", "\u2003", "\x0b", "\u2028"]
)


@settings(deadline=None)
@given(lines=st.lists(st.lists(_LINE_PIECES, max_size=7).map("".join), max_size=6),
       newline=st.sampled_from(["\n", "\r\n", "\u2029"]))
@example(lines=["a ==", "b = 1"], newline="\n")  # the value `=` starts at the `=` itself
@example(lines=["a = = =", "b = 1"], newline="\n")
@example(lines=["p = s", "\u3000q\u3000=\u3000=s # c"], newline="\n")
@example(lines=["# only a comment", "  ", "\u3000", "p = s"], newline="\r\n")
@example(lines=["p = s", "  = 1"], newline="\n")  # an empty key
@example(lines=["p = s", " q = # 1"], newline="\n")  # an empty value
@example(lines=["p = s", "\u2003q"], newline="\n")  # no `=`
def test_read_document_matches_the_reference(lines, newline):
    text = newline.join(lines)
    got = _document_outcome(_read_document, text)
    assert got == _document_outcome(read_document_reference, text)


def test_a_bad_key_fails_at_its_own_position_in_every_document():
    """The symbol table keeps no error: the same bad key raises in each
    document at that document's line and column, and a key one algebra
    takes is refused in another."""
    body = "p = s\nq = 1\nr = -1\ns = s\n"
    cases = [
        ("algebra = H4\n" + body + "p@x = 1\n", "bad loop index in 'p@x'", 6, 1),
        ("algebra = H4\n\n  p@x = 1 # again\n" + body, "bad loop index in 'p@x'", 3, 3),
        ("algebra = H4\n" + body.replace("s = s", "w = s"), "unknown basis symbol 'w'", 5, 1),
        ("algebra = H4\n" + body + " w\t= s\n", "unknown basis symbol 'w'", 6, 2),
    ]
    vir = "algebra = Vir00\nwindow = 0\nw = w0\ndvir = d0\nk = 0\n"
    for _ in range(2):
        assert parse_actions(vir).has(sym("s"))  # `w` is s in Vir00
        for doc, message, line, col in cases:
            with pytest.raises(DslSyntaxError) as err:
                parse_actions(doc)
            assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


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


@settings(max_examples=500, deadline=None)
@given(random_specs())
def test_random_specs_round_trip_through_their_documents(spec):
    text = format_spec(spec)
    assert parse_spec(text) == spec
    assert format_spec(parse_spec(text)) == text
    # beta.0 and f.0 are forced: every affine document writes one, and parses without it
    forced = [line for line in text.splitlines() if line.startswith(("beta.0 =", "f.0 ="))]
    assert len(forced) == isinstance(spec, AffineSpec)
    for line in forced:
        assert parse_spec(text.replace(line + "\n", "")) == spec


def test_bool_windows_become_ints_and_round_trip():
    """A window goes through operator.index, so a bool window is stored as
    its int and its document parses back to an equal value."""
    cases = [
        (mtilde(mab(1, 1), 2, {1: 0, -1: 0}, True), "1", format_spec, parse_spec),
        (mtilde_f({1: S, -1: S}, True), "1", format_spec, parse_spec),
        (affvir(mab(1, 1), 2, 3, True), "1", format_spec, parse_spec),
        (ActionData(H4, False, ()), "0", format_actions, parse_actions),
    ]
    for spec, window, write, read in cases:
        assert repr(spec.window) == window
        text = write(spec)
        assert f"window = {window}" in text.splitlines()
        assert read(text) == spec


def test_bool_loop_indices_become_ints_and_round_trip():
    """A loop index goes through operator.index too, so action data keyed
    by `p@True` formats as the data keyed by `p@1` does and parses back."""
    assert repr(sym("p", True)) == repr(sym("p", 1))
    assert type(sym("q", False).loop_index) is int
    data = actions_of(mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1))
    as_bools = ActionData(data.algebra, data.window, {
        sym(x.kind, bool(x.loop_index)) if x.loop_index in (0, 1) else x: value
        for x, value in data.assignments
    })
    assert repr(as_bools) == repr(data)
    text = format_actions(as_bools)
    assert text == format_actions(data)
    assert parse_actions(text) == data


def test_format_spec_refuses_action_data():
    with pytest.raises(SpecInvalid, match="^cannot format a ActionData$"):
        format_spec(actions_of(mhb(1, 0, 1)))


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


def test_format_spec_writes_rationals_past_the_digit_limit():
    # a 5,001-digit numerator is more than str() takes by default
    big = Fraction(10 ** 5000 + 7, 3)
    with int_digit_limit_lifted():
        b, nb = str(big), str(-big)
    h4 = "algebra = H4\nfamily = "
    assert format_spec(mhb(big, -big, 1)) == h4 + f"Mhb\na1 = {b}\na2 = {nb}\nb = 1\n"
    assert format_spec(mab(1, big)) == h4 + f"Mab\na = 1\nb = {b}\n"
    assert format_spec(mtilde(mab(big, 1), big, {1: big, -1: -big}, window=1)) == (
        f"algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mab\na = {b}\nb = 1\n"
        f"alpha = {b}\nbeta.-1 = {nb}\nbeta.0 = 0\nbeta.1 = {b}\nwindow = 1\n"
    )
    assert format_spec(Vir00Spec(big, W0)) == (
        f"algebra = Vir00\nfamily = MLambdaF\nlambda = {b}\nfpoly = w0\n"
    )
    assert format_spec(affvir(mab(1, 1), big, -big, 1)) == (
        "algebra = AffineVirasoroH4\nfamily = MTildeLambda\nbase = Mab\na = 1\nb = 1\n"
        f"alpha = {b}\nlambda = {nb}\nwindow = 1\n"
    )


GOLDEN_OUTCOMES = Path(__file__).resolve().parent / "golden" / "spec_document_outcomes.txt"

# What the sweep below writes into documents: every key and value a spec
# document may hold, and a few that none may.
_SWEEP_KEYS = (
    "algebra", "family", "base", "g", "a1", "a2", "a", "b", "alpha", "lambda", "fpoly",
    "window", "beta.0", "beta.1", "beta.-1", "beta.2", "beta.01", "beta.x", "f.0", "f.1",
    "f.-1", "f.-2", "f.", "color",
)
_SWEEP_VALUES = (
    "0", "1", "-1", "2", "-1/2", "3/4", "1/0", "9", "-2", "x", "s", "2*s", "s+1", "s^2-1",
    "w0", "w0^2", "d", "1e3", "H4", "AffineH4", "Vir00", "AffineVirasoroH4", "Mg0", "M0g",
    "Mhb", "Mbh", "Mab", "M0", "MTildeAlphaBeta", "MTildeF", "MLambdaF", "MTildeLambda",
)


def _mutated_document(rng: random.Random, text: str) -> str:
    """`text` after one to three dropped, retyped, inserted, repeated or
    shuffled lines."""
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 2, 3))):
        how = rng.choice(
            ("drop", "drop", "key", "value", "value", "value", "insert", "repeat", "shuffle")
        )
        at = rng.randrange(len(lines)) if lines else 0
        if how == "drop" and lines:
            del lines[at]
        elif how in ("key", "value") and lines and "=" in lines[at]:
            key, value = (part.strip() for part in lines[at].split("=", 1))
            if how == "key":
                key = rng.choice(_SWEEP_KEYS)
            else:
                value = rng.choice(_SWEEP_VALUES)
            lines[at] = f"{key} = {value}"
        elif how == "insert":
            lines.insert(at, f"{rng.choice(_SWEEP_KEYS)} = {rng.choice(_SWEEP_VALUES)}")
        elif how == "repeat" and lines:
            lines.insert(rng.randrange(len(lines) + 1), lines[at])
        elif how == "shuffle":
            rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def spec_document_outcomes():
    """One `sha256  family index` line per mutated document: the digest of
    its outcome, the error's class, message, line and col, or the text
    format_spec writes for the spec it parses to."""
    rng = random.Random(2406)
    lines = []
    for name, spec in sample_specs():
        text = format_spec(spec)
        for index in range(200):
            doc = _mutated_document(rng, text)
            try:
                outcome = format_spec(parse_spec(doc))
            except InputError as exc:
                outcome = f"{type(exc).__name__}|{exc.message}|{exc.line}|{exc.col}"
            lines.append(f"{hashlib.sha256(outcome.encode()).hexdigest()}  {name} {index}\n")
    return "".join(lines)


def test_mutated_spec_documents_match_golden_outcomes():
    # every error and every re-formatted text, byte for byte; regenerate with
    # PYTHONPATH=src python3 tests/test_specdsl.py > tests/golden/spec_document_outcomes.txt
    assert spec_document_outcomes() == GOLDEN_OUTCOMES.read_text(encoding="utf-8")


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


def test_importing_the_modules_leaves_argparse_to_the_cli():
    # only `main` builds a parser, so an import that serves no command skips argparse
    src = Path(nwfree.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import nwfree.irreducible, nwfree.specdsl, nwfree.verify; "
            "print('argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "False\n"


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


@pytest.mark.parametrize(
    "doc, where",
    [
        (b"algebra = H4\nfamily = Mab\na = \xff\nb = 3\n",
         "line 3, col 5: invalid UTF-8 byte 0xff"),
        # columns count characters, line breaks are those the parser splits on
        ("algebra = H4\r\nfamily = Mab\r\na = \u00e9".encode() + b"\xe2\x82\r\nb = 3\r\n",
         "line 3, col 6: invalid UTF-8 byte 0xe2"),
        (b"algebra = H4\nfamily = Mab\n\x80", "line 3, col 1: invalid UTF-8 byte 0x80"),
    ],
    ids=["latin-1", "truncated-after-crlf", "line-start"],
)
def test_cli_rejects_invalid_utf8_at_the_bad_byte(tmp_path, capsys, doc, where):
    bad = tmp_path / "bad.spec"
    bad.write_bytes(doc)
    good = write(tmp_path, "good.spec", MTAB_DOC)
    for argv in (["verify", str(bad)], ["classify", str(bad)], ["irreducible", str(bad)],
                 ["twist", str(bad)], ["iso", str(bad), good], ["iso", good, str(bad)]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {where}\n", argv


# pieces of scanner input: ASCII and other digits, letters, every operator,
# line breaks the scanner counts as plain whitespace, and numerals at and
# past the digit limit
_SCANNER_PIECES = st.sampled_from(
    ["0", "7", "42", "\u0663", "\u00b2", "\uff12", "s", "d0", "w0", "x", "\u00e9", "_",
     "+", "-", "*", "^", "(", ")", "/", " ", "\t", "\r", "\n", "\x85", "\u2028", "@", "#",
     "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1)]
)


def _scan(tokenize, text, line, col):
    """What `tokenize` returns, then the (type, message, line, col) of its error."""
    try:
        return tokenize(text, line, col), None
    except DslSyntaxError as exc:
        return None, (type(exc), exc.message, exc.line, exc.col)


@settings(max_examples=300, deadline=None)
@given(
    text=st.lists(_SCANNER_PIECES, max_size=12).map("".join),
    line=st.integers(min_value=1, max_value=50),
    col=st.integers(min_value=1, max_value=50),
)
@example(text="s^\u00b2", line=1, col=1)
@example(text="2\u0663", line=1, col=1)
@example(text="s\u0663+\uff12", line=1, col=1)
@example(text="\u00e9_1 + _", line=1, col=1)
@example(text="s\x85\u2028\r\n\t+ 1", line=3, col=5)
@example(text="1 @ 2", line=1, col=1)
@example(text="s # d", line=1, col=1)
@example(text="1+" + "9" * (MAX_DIGITS + 1), line=2, col=7)
@example(text="", line=4, col=9)
def test_scanner_matches_the_reference(text, line, col):
    tokens, error = _scan(_tokenize, text, line, col)
    reference, reference_error = _scan(tokenize_reference, text, line, col)
    assert error == reference_error
    if reference is not None:
        reference_tokens, end_line, end_col = reference
        *scanned, end = tokens
        assert scanned == reference_tokens
        assert end == _Token("end", "", end_line, end_col)


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


LONG = "9" * (MAX_DIGITS + 1)


@pytest.mark.parametrize(
    "doc, where, value",
    [
        (MHB_DOC.replace("a1 = 1", "a1 = 1e9999999"), "line 3, col 6", "1e9999999"),
        (MHB_DOC.replace("a1 = 1", "a1 = 1.5"), "line 3, col 6", "1.5"),
        (MHB_DOC.replace("b = 1", "b = 1e3"), "line 5, col 5", "1e3"),
        (MHB_DOC.replace("b = 1", "b = .5"), "line 5, col 5", ".5"),
        (MHB_DOC.replace("b = 1", "b = 1/0"), "line 5, col 5", "1/0"),
        (MHB_DOC.replace("b = 1", "b = 1 / 2"), "line 5, col 5", "1 / 2"),
        (MHB_DOC.replace("b = 1", f"b = {LONG}"), "line 5, col 5", LONG),
        (MHB_DOC.replace("b = 1", f"b = 1/{LONG}"), "line 5, col 5", f"1/{LONG}"),
        (MTAB_DOC.replace("beta.1 = 5", "beta.1 = 2.5e1"), "line 8, col 10", "2.5e1"),
    ],
    ids=["huge-exponent", "decimal", "exponent", "leading-point", "zero-denominator",
         "spaced-slash", "long-numerator", "long-denominator", "beta-exponent"],
)
def test_cli_rational_parameters_follow_the_grammar(tmp_path, capsys, doc, where, value):
    path = write(tmp_path, "doc.spec", doc)
    for command in ("verify", "twist"):
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {where}: expected a rational number, got {value!r}\n")


def test_rationals_at_the_digit_limit_parse():
    top = "9" * MAX_DIGITS
    assert parse_rational(f"-{top}/{top}") == -1
    assert parse_rational(f"+{top}/7") == Fraction(int(top), 7)
    assert parse_rational("007/0010") == Fraction(7, 10)


@pytest.mark.parametrize(
    "doc, missing",
    [
        ("algebra = H4\np = s\n", "q"),
        ("algebra = H4\np = s\nq = 1\nr = -1\n", "s"),
        ("algebra = AffineH4\nwindow = 1\np@-1 = 0\np = 0\np@1 = 0\n", "q@-1"),
        ("algebra = Vir00\nwindow = 1\ndvir@-1 = d0\ndvir = d0\ndvir@1 = d0\n"
         "w@-1 = w0\nw@1 = w0\nk = 0\n", "w"),
    ],
    ids=["h4-only-p", "h4-without-s", "affine-only-p", "vir00-without-w"],
)
def test_cli_action_data_must_assign_every_generator(tmp_path, capsys, doc, missing):
    assert main(["verify", write(tmp_path, "doc.actions", doc)]) == 2
    assert capsys.readouterr() == ("", f"error: no assignment for {missing}\n")


def test_cli_vir00_data_outside_its_window_names_w(tmp_path, capsys):
    doc = "algebra = Vir00\nwindow = 1\nw@2 = w0\n"
    assert main(["verify", write(tmp_path, "doc.actions", doc)]) == 2
    assert capsys.readouterr() == ("", "error: line 3, col 1: w@2 lies outside window 1\n")


@pytest.mark.parametrize(
    "doc, where",
    [
        ("algebra = AffineH4\nwindow = 1\np@2 = s\n", "line 3, col 1: p@2 lies outside window 1"),
        ("algebra = AffineH4\nwindow = 1\nq = 0\n  p@-2 = (\n",
         "line 4, col 3: p@-2 lies outside window 1"),
        ("algebra = AffineH4\nwindow = -1\n",
         "line 2, col 10: window must be at least 0"),
        ("algebra = Vir00\nwindow =  -3 # none\nk = 0\n",
         "line 2, col 11: window must be at least 0"),
        # H4 has no loop directions
        ("algebra = H4\nwindow = 2\np = s\n", "line 2, col 10: window exceeds the limit 0"),
    ],
    ids=["outside", "outside-before-its-value", "negative-window", "negative-vir00-window",
         "h4-window"],
)
def test_cli_action_data_window_faults_are_positioned(tmp_path, capsys, doc, where):
    # a loop index outside the window at its key, a negative window at its value
    for command in ("verify", "classify"):
        assert main([command, write(tmp_path, "doc.actions", doc)]) == 2
        assert capsys.readouterr() == ("", f"error: {where}\n"), command


@pytest.mark.parametrize(
    "doc, missing",
    [
        ("algebra = H4\np = s\n", "q"),
        ("algebra = H4\np = s\nq = 1\nr = -1\n", "s"),
        ("algebra = AffineH4\nwindow = 1\np@-1 = 0\np = 0\np@1 = 0\n", "q@-1"),
        ("algebra = H4\nr = -1\ns = s\n", "p"),
    ],
    ids=["h4-only-p", "h4-without-s", "affine-only-p", "h4-only-r-and-s"],
)
def test_cli_classify_and_verify_name_a_missing_generator_alike(tmp_path, capsys, doc, missing):
    path = write(tmp_path, "doc.actions", doc)
    for command in ("verify", "classify"):
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: no assignment for {missing}\n"), command


def test_cli_witness_prints_coefficients_past_the_digit_limit(tmp_path, capsys):
    # alpha^8 has 4,320 digits, more than str() takes by default; the witness
    # closure images carry alpha^-8 at p@8 and alpha^8 at p@-8
    loops = range(-8, 9)
    doc = ("algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mg0\ng = s\n"
           f"alpha = {'7' * 540}\n" + "".join(f"beta.{k} = 0\n" for k in loops) + "window = 8\n")
    assert main(["irreducible", write(tmp_path, "alpha.spec", doc)]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and lines[-1] == "SUMMARY pass=true checked=1050"
    wit = witness(parse_spec(doc))
    with int_digit_limit_lifted():
        want = [f"IDEAL {format_poly_reference(wit.ideal_generator)}"] + [
            f"CLOSURE {format_symbol(c.generator)} POLY {format_poly_reference(c.test_poly)} "
            f"IMAGE {format_poly_reference(c.image)} PASS"
            for c in wit.closure_checks
        ]
        assert max(len(str(n)) for c in wit.closure_checks for _, n in c.image.terms) > 4300
    assert lines[1:-1] == want


def _alpha_power_doc():
    # alpha is the 600-digit s-coefficient of f_1; f_-8 = s, so alpha^-8, whose
    # denominator has 4,800 digits, is the first expected power that fails
    lines = ["algebra = AffineH4", "window = 8", "p = 1"]
    lines += [f"{kind}@{k} = 0" for kind in "pqr" for k in range(-8, 9) if (kind, k) != ("p", 0)]
    lines += [f"s@{k} = {'7' * 600 + '*s' if k == 1 else 's'}" for k in range(-8, 9)]
    return "\n".join(lines + ["k = 0", "d = d"]) + "\n"


def test_cli_classify_rejects_an_alpha_power_past_the_digit_limit(tmp_path, capsys):
    assert main(["classify", write(tmp_path, "alpha.actions", _alpha_power_doc())]) == 1
    out, err = capsys.readouterr()
    with int_digit_limit_lifted():
        denominator = str(int("7" * 600) ** 8)
    assert err == ""
    assert out == (
        "REJECTED alpha-power: s-coefficient of f_-8 is 1, "
        f"expected alpha^-8 = 1/{denominator}\n"
    )


@pytest.mark.parametrize("command", ["irreducible", "twist", "iso"])
def test_cli_refuses_action_data_where_a_family_spec_is_needed(tmp_path, capsys, command):
    data = write(tmp_path, "doc.actions", format_actions(actions_of(mhb(1, 0, 1))))
    spec = write(tmp_path, "doc.spec", MTAB_DOC)
    argv = [command, data] + ([spec] if command == "iso" else [])
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {command} needs a family spec document, not action data\n"
    )
    if command == "iso":  # the right-hand document is checked too
        assert main([command, spec, data]) == 2
        assert capsys.readouterr().err == (
            "error: iso needs a family spec document, not action data\n"
        )


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


# the denominators of SIX_FRACTIONS, one per monomial: 1/N1+1/N2*s+...+1/N6*s^5
SIX_DENOMINATORS = [10 ** 999 + k for k in (1, 3, 5, 7, 9, 13)]
SIX_MONOMIALS = [f"1/{n}" + ("" if i == 0 else "*s" if i == 1 else f"*s^{i}")
                 for i, n in enumerate(SIX_DENOMINATORS)]


def test_coprime_denominators_on_distinct_monomials_parse_and_print_back():
    # the digit limit holds each coefficient in lowest terms, not the
    # common denominator, which here has about 6,000 digits
    value = parse_poly("+".join(SIX_MONOMIALS), ("s",))
    assert value.den == math.prod(SIX_DENOMINATORS)
    assert value.terms == tuple(((i,), Fraction(1, n)) for i, n in enumerate(SIX_DENOMINATORS))[::-1]
    assert format_poly(value) == "+".join(reversed(SIX_MONOMIALS))


def _coprime(count, digits):
    """The first `count` pairwise coprime ints 10^(digits-1) + k, k = 1, 2, ..."""
    found = []
    k = 1
    while len(found) < count:
        n = 10 ** (digits - 1) + k
        if all(math.gcd(n, m) == 1 for m in found):
            found.append(n)
        k += 1
    return found


def test_a_common_denominator_past_its_limit_exits_2_at_its_sign():
    assert MAX_DENOMINATOR_DIGITS == 10 * MAX_DIGITS
    # ten coprime 1000-digit denominators on ten monomials fit; an eleventh does not
    terms = [f"1/{n}*s^{i}" for i, n in enumerate(_coprime(11, MAX_DIGITS))]
    assert parse_poly("+".join(terms[:10])).den >= 10 ** (10 * (MAX_DIGITS - 1))
    with pytest.raises(DslSyntaxError) as err:
        parse_poly("+".join(terms))
    assert err.value.message == "sum exceeds the denominator limit 10000"
    assert err.value.col == len("+".join(terms[:10])) + 1
    # 11 by 11 products 1/(a_i b_j) on distinct monomials: each coefficient
    # has 999 digits, their common denominator about 11,000
    halves = _coprime(22, MAX_DIGITS // 2)
    a, b = halves[::2], halves[1::2]
    left = "+".join(f"1/{n}*s^{i}" for i, n in enumerate(a))
    right = "+".join(f"1/{n}*d^{j}" for j, n in enumerate(b))
    with pytest.raises(DslSyntaxError) as err:
        parse_poly(f"({left})*({right})")
    assert err.value.message == "product exceeds the denominator limit 10000"
    assert err.value.col == len(left) + 3


def _count_trusted(monkeypatch):
    """The list of every `Poly` that `Poly._trusted` builds from now on."""
    trusted = Poly._trusted
    built = []

    def counted(*args):
        built.append(trusted(*args))
        return built[-1]

    monkeypatch.setattr(Poly, "_trusted", staticmethod(counted))
    return built


def test_a_long_sum_merges_its_terms_in_place(monkeypatch):
    base = parse_poly("(s+d+1)^64", SD)
    built = _count_trusted(monkeypatch)
    assert parse_poly("(s+d+1)^64" + "+0" * 1000, SD) == base
    # the one Poly of the whole value; a new value per sign would be 1,000 more
    assert built == [base]


# (c*s+c*d+c)^32 has 561 terms, (c*s+c*d)^32 has 33; c has 15 digits
C15 = "123456789012345"
WIDE = f"({C15}*s+{C15}*d+{C15})^32"
NARROW = f"({C15}*s+{C15}*d)^32"


def test_products_past_the_term_pair_limit_exit_2_at_their_sign(tmp_path, capsys):
    assert 33 * 561 <= MAX_TERM_WORK < 561 * 561
    for g, sign in [(f"{WIDE}*{WIDE}", f"{WIDE}*"), (f"({WIDE})^2", f"({WIDE})^")]:
        doc = f"algebra = AffineH4\nwindow = 0\np@0 = {g}\n"
        assert main(["verify", write(tmp_path, "wide.actions", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # the value starts at col 7
        assert err == (
            f"error: line 3, col {6 + len(sign)}: "
            f"polynomial exceeds the term-work limit {MAX_TERM_WORK}\n"
        )
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
    # the costliest power of s+d+d0+1 within the limits, 4 * C(34, 4) = 185,504 pairs
    assert len(parse_poly("(s+d+d0+1)^31").terms) == 5984
    # the limit is per value: each line of a document starts afresh;
    # (s+d+1)^32 multiplies 17,952 pairs and each `*1` then 561
    line = "(s+d+1)^32" + "*1" * 324
    doc = f"algebra = AffineH4\nwindow = 0\np@0 = {line}\nq@0 = {line}\n"
    assert parse_actions(doc).value(sym("p", 0)) == parse_poly("(s+d+1)^32", SD)
    with pytest.raises(DslSyntaxError) as err:
        parse_poly(line + "*1", SD)
    assert err.value.col == len(line) + 1


def _written_out(count):
    """A sum of `count` distinct monomials c*s^a*d^b, lowest degrees first."""
    exps = [(a, n - a) for n in range(MAX_DEGREE + 1) for a in range(n + 1)][:count]
    return "+".join(f"{a + 2 * b + 1}*s^{a}*d^{b}" for a, b in exps)


COPRIME = _coprime(11, MAX_DIGITS)
N0 = COPRIME[0]
# each 1 in lowest terms, but a denominator of N0^10 or N0^11, past the
# limit, if atoms or products went unreduced
UNIT_POWERS = [f"({N0}/{N0})^11", f"({N0}*1/{N0})^10", f"({N0}*1/{N0})^11"]
# 11, but a common denominator N1*...*N11, past the limit, if atoms went unreduced
UNIT_SUM = "+".join(f"{n}/{n}" for n in COPRIME)
# ten and eleven coprime 1000-digit denominators on distinct monomials
COPRIME_SUMS = ["(" + "+".join(f"1/{n}*s^{i}" for i, n in enumerate(COPRIME[:k])) + ")"
                for k in (10, 11)]
# 450 by 445 terms pass the term-work limit at the `*`, before multiplying;
# a sum that cancels to 1 before a `*` multiplies 1 by 561 terms
WIDE_PRODUCT = f"({_written_out(450)})*({_written_out(445)})"
CANCELLED_PRODUCT = f"({_written_out(400)}+1-({_written_out(400)}))*({_written_out(561)})"

# pieces of the grammar next to its limits, each a whole factor
_EDGE_PIECES = [
    # numerals at the digit limit, and products and sums that reach or pass it
    "9" * MAX_DIGITS, "9" * (MAX_DIGITS - 1) + "8", NINES, "1" + "0" * (MAX_DIGITS - 1),
    "9" * (MAX_DIGITS + 1), f"1/{NINES}", f"{NINES}/{NINES}9",
    # coprime 1000-digit denominators, and fractions that reduce to 1 only by the gcd
    f"1/{N0}", f"-1/{COPRIME[1]}", f"{N0}/{N0}", f"({N0}*1/{N0})",
    *UNIT_POWERS, UNIT_SUM, "(" + "+".join(SIX_MONOMIALS) + ")", *COPRIME_SUMS,
    # powers and products at the degree limit
    "s^64", "s^65", "(s+1)^64", "(d-1)^63", "(2)^64", "s^32*s^32", "s^32*s^33",
    WIDE_PRODUCT, CANCELLED_PRODUCT,
    # nesting at the limit, counted over parentheses and unary minus
    "(" * MAX_NESTING + "s" + ")" * MAX_NESTING, "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
    "-" * (MAX_NESTING - 1) + "d", "-(" * 50 + "1" + ")" * 50,
]
_SMALL_ATOMS = ["0", "1", "2", "7", "12", "1/2", "4/6", "0/3", "3/1", "-1", "1/0", "1/",
                "s", "d", "d0", "w0", "x", "", "(", ")", "^2"]
_EXPONENTS = ["0", "1", "2", "3", "10", "11", "32", "33", "63", "64", "65", "s", ""]


def _grammar_texts():
    """Texts of the polynomial grammar, and near misses, built from small atoms
    and `_EDGE_PIECES` by sums, products, powers, parentheses and signs."""
    leaves = st.one_of(st.sampled_from(_SMALL_ATOMS), st.sampled_from(_EDGE_PIECES))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "*-", "+-", "--"]), inner).map("".join),
            inner.map(lambda t: f"({t})"),
            inner.map(lambda t: f"-{t}"),
            st.tuples(inner, st.sampled_from(_EXPONENTS)).map(lambda p: f"({p[0]})^{p[1]}"),
        )

    return st.recursive(leaves, extend, max_leaves=5)


_VARIABLE_SETS = [("s",), SD, ("d", "s"), ("d0", "w0"), ("s", "d", "d0", "w0"), ()]
# small coefficients, and numerals at and past the digit limit
_COEFFICIENTS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.sampled_from([Fraction(10 ** MAX_DIGITS - 1), Fraction(10 ** MAX_DIGITS),
                     Fraction(-1, N0), Fraction(7, COPRIME[1])]),
)
_MUTATIONS = "0123456789+-*^/() sdwx²"


@st.composite
def _canonical_texts(draw):
    """`format_poly` of a polynomial over one of `_VARIABLE_SETS`, as the
    one-pass reader takes it, or with one character inserted, dropped or
    replaced.  Degrees reach past MAX_DEGREE."""
    variables = draw(st.sampled_from(_VARIABLE_SETS))
    exponent = st.one_of(st.integers(0, 3), st.sampled_from([32, 33, 63, 64, 65]))
    terms = draw(st.dictionaries(st.tuples(*[exponent] * len(variables)), _COEFFICIENTS,
                                 max_size=5))
    text = format_poly(Poly(variables, terms))
    how = draw(st.sampled_from(["keep", "insert", "drop", "replace"]))
    if how == "keep":
        return text
    at = draw(st.integers(0, len(text) - (how != "insert")))
    new = "" if how == "drop" else draw(st.sampled_from(_MUTATIONS))
    return text[:at] + new + text[at + (how != "insert"):]


def _parse_outcome(parse, text, variables, line, col):
    """The value `parse` returns, or the (type, message, line, col) of its error."""
    try:
        value = parse(text, variables, line, col)
    except DslSyntaxError as exc:
        return type(exc), exc.message, exc.line, exc.col
    assert type(value) is Poly
    return value


# canonical-looking texts the one-pass reader leaves to the full reader
_DECLINED = [
    "+3", "3-", "s*s", "s^0", "s^65", f"2*s^{MAX_DEGREE}*s", f"0*s^{MAX_DEGREE}*s^{MAX_DEGREE}",
    "1/0*s", "1" * (MAX_DIGITS + 1) + "*s", "1/" + "1" * (MAX_DIGITS + 1) + "*s", "2 *s", "x",
    # repeats of one monomial, whose work passes MAX_TERM_WORK in the full reader
    "+".join([f"s^{MAX_DEGREE}"] * (MAX_TERM_WORK // MAX_DEGREE + 75)),
    # eleven coprime 1000-digit denominators on distinct monomials, as format_terms writes them
    "+".join(f"1/{n}" + ("" if i == 0 else "*s" if i == 1 else f"*s^{i}") for i, n in enumerate(COPRIME)),
    # a merged coefficient past the digit limit, which the full reader refuses
    "9" * MAX_DIGITS + "*s+s",
    # 3,076 repeats of a term of 64 work in `^` exponents and 2 in `*`s, past
    # MAX_TERM_WORK only once every `*` counts (over distinct monomials, see
    # test_the_one_pass_reader_charges_distinct_monomials_as_the_full_reader)
    "+".join(["2*s^32*d^32"] * 3076),
    # a repeated monomial, which the full reader merges
    "s+s", "1/2*s^2-1/3*s^2+d", "-d+s+d",
]


def _declined_examples(test):
    """`test` with an example of each text of `_DECLINED`, over s and d."""
    for text in _DECLINED:
        test = example(text=text, variables=SD, line=2, col=3)(test)
    return test


# monomial spellings, each with whether the one-pass reader takes it: the
# monomial table must decline what the per-factor loop declines
_MONOMIAL_SPELLINGS = [
    ("s^01", False), ("s^1", True), ("s*s", False), ("d*s", True), ("s^65", False),
    ("2*", False), ("*s", False), ("s**d", False),
]


def _monomial_examples(test):
    """`test` with an example of each text of `_MONOMIAL_SPELLINGS`, over s and d."""
    for text, _ in _MONOMIAL_SPELLINGS:
        test = example(text=text, variables=SD, line=2, col=3)(test)
    return test


@settings(deadline=None)
@given(
    text=st.one_of(_grammar_texts(), _canonical_texts()),
    variables=st.sampled_from([None, *_VARIABLE_SETS]),
    line=st.integers(min_value=1, max_value=9),
    col=st.integers(min_value=1, max_value=9),
)
@example(text="-s+2*-d", variables=SD, line=1, col=1)
@example(text=UNIT_POWERS[2], variables=None, line=1, col=1)
@example(text=UNIT_SUM, variables=("s",), line=2, col=5)
@example(text=f"{COPRIME_SUMS[1]}-{COPRIME_SUMS[0]}", variables=None, line=1, col=1)
@example(text=WIDE_PRODUCT, variables=SD, line=1, col=7)
@example(text=CANCELLED_PRODUCT, variables=SD, line=1, col=7)
@example(text="1/2*s-1/3*d+2/3*s-d", variables=SD, line=1, col=1)  # merged coefficients
@example(text="s*", variables=("s", ""), line=1, col=1)  # names the tokenizer splits
@example(text="a\u0301", variables=("s", "a\u0301"), line=1, col=1)
@_declined_examples
@_monomial_examples
def test_parse_poly_matches_the_reference(text, variables, line, col):
    got = _parse_outcome(parse_poly, text, variables, line, col)
    want = _parse_outcome(parse_poly_reference, text, variables, line, col)
    assert got == want and repr(got) == repr(want)  # terms in one order, sorted or not


@pytest.mark.parametrize("text, ordered", [
    ("-1/3*s^2*d+9*s-3", True), ("s^2+s*d+d^2+s+d+1", True), ("2*s", True), ("0", True),
    ("1+s", False), ("d+s", False), ("s*d+s^2", False), ("s-s^2+1", False), ("3-1/2*d*s^2", False),
])
def test_the_sum_reader_sorts_only_terms_out_of_order(monkeypatch, text, ordered):
    """Terms read in descending graded-lex order skip the sort, and any
    other order comes out sorted, as the full reader sorts it."""
    trusted = Poly._trusted
    seen = []

    def watched(variables, pairs, den=1, ordered=False):
        seen.append(ordered)
        return trusted(variables, pairs, den, ordered)

    monkeypatch.setattr(Poly, "_trusted", staticmethod(watched))
    value = _read_sum(text, SD)
    assert seen == [ordered]
    want = parse_poly_reference(text, SD)
    assert value == want and repr(value) == repr(want)


@pytest.mark.parametrize("text", _DECLINED, ids=range(len(_DECLINED)))
def test_the_one_pass_reader_leaves_what_it_cannot_prove_to_the_full_reader(text):
    assert _read_sum(text, SD) is None


def _distinct_monomials(count):
    """`count` distinct monomials 2*s^a*d^b*d0^c*w0^e of degree 64, each
    exponent at least 2, so each charges 68 work: 64 for its `^` exponents,
    three for the `*`s between its factors and one for its coefficient's."""
    exps = ((a, b, c, MAX_DEGREE - a - b - c) for a in range(2, 59)
            for b in range(2, 61 - a) for c in range(2, 63 - a - b))
    return "+".join(f"2*s^{a}*d^{b}*d0^{c}*w0^{e}" for a, b, c, e in itertools.islice(exps, count))


@pytest.mark.parametrize("count", [MAX_TERM_WORK // 68, MAX_TERM_WORK // 68 + 1])
def test_the_one_pass_reader_charges_distinct_monomials_as_the_full_reader(count):
    # over two variables, distinct monomials never reach MAX_TERM_WORK
    variables = ("s", "d", "d0", "w0")
    text = _distinct_monomials(count)
    assert (_read_sum(text, variables) is not None) == (68 * count <= MAX_TERM_WORK)
    got = _parse_outcome(parse_poly, text, variables, 1, 1)
    assert got == _parse_outcome(parse_poly_reference, text, variables, 1, 1)


@pytest.mark.parametrize("text, taken", _MONOMIAL_SPELLINGS, ids=range(len(_MONOMIAL_SPELLINGS)))
def test_the_monomial_table_reads_as_the_per_factor_loop(text, taken):
    for _ in range(2):  # the second read finds the first's monomials in the table
        for spelling in (text, f"3/2*{text}", f"1-{text}"):
            value = _read_sum(spelling, SD)
            assert (value is not None) == taken
            if taken:
                assert value == parse_poly_reference(spelling, SD)


def test_the_reader_tables_stay_within_their_bounds():
    for k in range(MAX_SYMBOL_TEXTS + 10):  # each key a distinct text, read and then refused
        with pytest.raises(ConstraintViolation, match=f"^q@{k + 2} lies outside window 1$"):
            parse_actions(f"algebra = AffineH4\nwindow = 1\nq@{k + 2} = 1\n")
    texts = [text for a in range(1, 33) for b in range(1, 33)
             for text in (f"s^{a}*d^{b}", f"d^{b}*s^{a}")]
    assert len(texts) > MAX_MONOMIAL_TEXTS
    for text in texts:
        assert _read_sum(text, SD) == parse_poly_reference(text, SD)
    assert _symbol.cache_info().currsize == MAX_SYMBOL_TEXTS
    assert _monomial.cache_info().currsize == MAX_MONOMIAL_TEXTS
    values = [f"{k}*s+1" for k in range(MAX_VALUE_TEXTS + 10)]
    for text in values:
        assert parse_poly(text, SD) == parse_poly_reference(text, SD)
    assert _value.cache_info().currsize == MAX_VALUE_TEXTS


def test_the_value_table_shares_each_poly_and_keeps_no_error():
    """A value text read twice gives the one `Poly`; a text the sum reader
    declines, or a longer one, is not kept, and a bad text raises at its
    own line and column in every document."""
    _value.cache_clear()
    first = parse_actions("algebra = H4\np = 2*s-1\nq = 1\nr = -1\ns = s\n")
    again = parse_actions("algebra = AffineH4\nwindow = 0\np@0 = 2*s-1\nq = 1\nr = -1\ns = s\nk = 0\nd = d\n")
    assert again.value(sym("p")).variables == SD  # one text over other variables: another Poly
    assert first.value(sym("p")).variables == ("s",)
    twin = parse_actions("algebra = H4\nq = 1\np = 2*s-1\nr = -1\n s = s\n")
    assert twin == first
    assert all(twin.value(x) is first.value(x) for x, _ in first.assignments)
    kept = _value.cache_info().currsize
    assert kept == 10  # 2*s-1, 1, -1 and s over (s,), and over (s, d) with 0 and d
    long = "+".join(f"{k}*s^{k}" for k in range(1, 12))
    assert len(long) > MAX_VALUE_TEXT_LENGTH
    assert parse_poly(long, ("s",)) == parse_poly_reference(long, ("s",))
    for bad, at in (("1/0*s", 2), ("s^65", 2), ("+3", 0), ("2*s^64*s", 6)):
        for lead, line in (("", 2), ("\n\n", 4)):
            doc = f"algebra = H4\n{lead}q = 1\np =  {bad}\nr = -1\ns = s\n"
            with pytest.raises(DslSyntaxError) as err:
                parse_actions(doc)
            assert (err.value.line, err.value.col) == (line + 1, 6 + at)
    assert _value.cache_info().currsize == kept


def _first_primes(count):
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def _ci_diagnostic_documents():
    """(name, document bytes, whether it reads) of every document a CI step
    runs for its diagnostic, as that step writes it."""
    c15 = "123456789012345"
    factor = f"({c15}*s+{c15}*d+{c15})^32"
    monomials = [(a, t - a) for t in range(65) for a in range(t + 1)]
    primes = " + ".join(f"1/{p}*s^{a}*d^{b}" if a and b else f"1/{p}"
                        for p, (a, b) in zip(_first_primes(3000), monomials * 2))
    spelled = [
        "algebra = AffineH4   # each spelling below reads as format_actions writes it",
        "window=1", "p@-1 = 1/2*s", "p@0 =s", "p@01= 2*s^1  # p@1", "q@-1 = 1/2", "q = 1",
        " q@l = 2", "r@-1 = -1/2", "r@-0 = -1", "r@1 = -2", "s@-01 = 1/2*s^1", "s = s",
        "  s@1  =  2*s^1+5+d*s-s*d  # d*s and s*d cancel", "k = 0", "d = 1*d",
    ]
    ab = "algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mab\na = 1\nb = 1\n"
    docs = [
        ("mab", "algebra = H4\nfamily = Mab\na = 2\nb = 3\n", True),
        ("w-key", "algebra = H4\np = 1\nq = 1\nr = 0\nw = s\n", False),
        ("s-key", "algebra = Vir00\nwindow = 1\ns@-1 = w0\nw = w0\nw@1 = w0\n"
                  "dvir@-1 = d0\ndvir = d0\ndvir@1 = d0\nk = 0\n", False),
        ("outside", "algebra = AffineH4\nwindow = 1\np@2 = s\n", False),
        ("window0", "algebra = AffineH4\nwindow = 0\np = 1\nq = 1\nr = 0\ns = s\nk = 0\nd = d\n", True),
        ("twist-mtf", "algebra = AffineH4\nfamily = MTildeF\nf.-1 = s+2\nf.0 = s\nf.1 = s^2\nwindow = 1\n", True),
        ("latin1", b"algebra = H4\nfamily = Mab\na = \xff\nb = 3\n", False),
        ("nested", "algebra = H4\nfamily = Mg0\ng = " + "(" * 600 + "s" + ")" * 600 + "\n", False),
        ("product", "algebra = H4\nfamily = Mg0\ng = " + "(s+1)*" * 1599 + "(s+1)\n", False),
        ("p-at", "algebra = H4\nq = 1\np@ = s\nr = -1\ns = s\n", False),
        ("coprime", "algebra = H4\nfamily = Mg0\ng = "
                    + "+".join(f"1/{10 ** 999 + k}" for k in (1, 3, 5, 7, 9, 13)) + "\n", False),
        ("wide", f"algebra = AffineH4\nwindow = 0\np@0 = {factor}*{factor}\n", False),
        ("long", "algebra = AffineH4\nwindow = 0\np@0 = (s+d+1)^64" + "*1" * 1000 + "\n", False),
        ("slow", f"algebra = AffineH4\nwindow = 0\np@0 = ({c15}*s+1/{c15}*d+1/13)^32" + "*1" * 1000 + "\n", False),
        ("primes", f"algebra = AffineH4\nwindow = 0\np@0 = {primes}\n", False),
        *((f"refuse-{i}", f"algebra = H4\np = {value}\nq = 1\nr = -1\ns = s\n", False)
          for i, value in enumerate(["+3", "s^65", "2*s^64*s", "1/0*s", "1" * 1001 + "*s",
                                     "+".join(["s^64"] * 3200)])),
        ("misspelled", "\n".join(spelled) + "\n", False),
        ("exponent", "algebra = H4\nfamily = Mhb\na1 = 1e9999999\na2 = 0\nb = 1\n", False),
        ("p-only", "algebra = H4\np = s\n", True),
        ("r-s", "algebra = H4\nr = -1\ns = s\n", True),
        *((f"rule-{i}", doc, False) for i, doc in enumerate([
            "algebra = H4\nfamily = Mhb\na1 = 0\na2 = 0\nb = 1\n",
            "algebra = H4\nfamily = Mab\na = 0\nb = 0\n",
            "algebra = H4\nfamily = Mab\na = 3\nb = 0\n",
            "algebra = H4\nfamily = Mg0\ng = 0\n",
            "algebra = Vir00\nfamily = MLambdaF\nlambda = 0\nfpoly = w0\n",
            ab + "alpha = 0\nbeta.-1 = 0\nbeta.0 = 0\nbeta.1 = 0\nwindow = 1\n",
            ab + "alpha = 2\nbeta.-1 = 0\nbeta.0 = 1\nbeta.1 = 0\nwindow = 1\n",
            ab + "alpha = 2\nbeta.-1 = 0\nwindow = 1\n",
            ab + "alpha = 2\nbeta.-1 = 0\nbeta.1 = 0\nbeta.2 = 0\nwindow = 1\n",
            "algebra = AffineH4\nfamily = MTildeF\nf.-1 = s\nf.0 = s+1\nf.1 = s\nwindow = 1\n",
        ])),
        ("indices", "algebra = AffineH4\nfamily = MTildeAlphaBeta\nbase = Mhb\na1 = 1\na2 = 0\n"
                    "b = 1\nalpha = 2\nbeta.z = 5\nbeta.a = 0\nwindow = 1\n", False),
    ]
    return [(name, doc if isinstance(doc, bytes) else doc.encode(), reads) for name, doc, reads in docs]


def _read_outcome(read, source):
    """What `read` makes of `source`: its spec or data, or its error's (class, message, line, col)."""
    try:
        return read(source)
    except InputError as exc:
        return type(exc), exc.message, exc.line, exc.col


def test_every_ci_diagnostic_document_reads_alike_twice(tmp_path):
    """The reader's tables keep no error: each document of the CI diagnostic
    steps, read twice in one process, fails the second time with the same
    class, message, line and column, or reads to an equal value (which may
    share its `Poly`s with the first read)."""
    documents = _ci_diagnostic_documents()
    assert len(documents) == 36
    for name, doc, reads in documents:
        path = tmp_path / f"{name}.txt"
        path.write_bytes(doc)
        first, second = _read_outcome(_load, path), _read_outcome(_load, path)
        assert second == first, name
        assert isinstance(first, tuple) != reads, (name, first)
    for _ in range(2):  # the --seed-poly step: a value outside the document
        with pytest.raises(UnknownVariable) as err:
            parse_poly("d", ("s",))
        assert (err.value.message, err.value.line, err.value.col) == ("unknown variable 'd'", 1, 1)


def test_every_ci_diagnostic_document_reads_alike_twice_through_the_document_table():
    """The document table keeps no error: each CI diagnostic document that
    decodes, read twice by `parse_input`, fails the second time with the same
    class, message, line and column, or returns the same object (every one
    that reads is short and has no `(`)."""
    read = 0
    for name, doc, reads in _ci_diagnostic_documents():
        try:
            text = doc.decode("utf-8")
        except UnicodeDecodeError:  # `_load` refuses it before any parsing
            continue
        first, second = _read_outcome(parse_input, text), _read_outcome(parse_input, text)
        assert isinstance(first, tuple) != reads, (name, first)
        assert second is first if reads else second == first, name
        read += 1
    assert read == 35


def test_parse_input_returns_the_one_object_for_a_repeated_document():
    """`parse_input(t) is parse_input(t)` for a text the document table
    takes, and the second read is a table hit."""
    _document.cache_clear()
    spec_doc = format_spec(mtilde(mhb(1, 2, 3), 2, {1: 5, -1: 0}, window=1))
    data_doc = format_actions(actions_of(mab(2, 3)))
    for text in (spec_doc, data_doc):
        first = parse_input(text)
        hits = _document.cache_info().hits
        assert parse_input(text) is first
        assert parse_input((text + " ")[:-1]) is first  # an equal text, not the same str object
        assert _document.cache_info().hits == hits + 2
    assert parse_input(spec_doc) == parse_spec(spec_doc)
    assert parse_spec(spec_doc) is not parse_spec(spec_doc)  # parse_spec keeps nothing
    assert parse_actions(data_doc) is not parse_actions(data_doc)
    assert _document.cache_info().currsize == 2


def test_the_document_table_keeps_no_long_text_and_no_parenthesis():
    _document.cache_clear()
    for k in range(1, MAX_DOCUMENT_TEXTS + 11):  # distinct texts: the table stays at its bound
        parse_input(f"algebra = H4\nfamily = Mab\na = {k}\nb = 3\n")
    assert _document.cache_info().currsize == MAX_DOCUMENT_TEXTS
    _document.cache_clear()
    padded = "algebra = H4\nfamily = Mab\na = 2\nb = 3\n"
    padded += "#" * (MAX_DOCUMENT_TEXT_LENGTH - len(padded)) + "\n"
    assert len(padded) == MAX_DOCUMENT_TEXT_LENGTH + 1
    power = "algebra = H4\nfamily = Mg0\ng = (s+1)^64\n"
    for text in (padded, power):
        first = parse_input(text)
        assert parse_input(text) == first and parse_input(text) is not first
        assert _document.cache_info().currsize == 0
    at_bound = padded[:MAX_DOCUMENT_TEXT_LENGTH - 1] + "\n"
    assert parse_input(at_bound) is parse_input(at_bound)
    assert _document.cache_info().currsize == 1


@pytest.mark.parametrize("text", [None, b"algebra = H4\n", ["algebra = H4"], 1024])
def test_parse_input_refuses_a_text_that_is_no_str_before_the_table(text):
    with pytest.raises(TypeError) as err:
        parse_input(text)
    assert str(err.value) == f"text must be a str, got {type(text).__name__}"
    assert not isinstance(err.value, InputError)


def test_each_action_key_is_hashed_once(monkeypatch):
    """Each line's symbol is hashed once, by its store; a repeated generator
    is still refused before its window and before its value are read."""
    doc = "algebra = AffineH4\nwindow = 1\n" + "".join(
        f"{c}@{k} = {k}*s\n" for c in "pqrs" for k in (-1, 0, 1)) + "k = 0\nd = d\n"
    want = parse_actions(doc)  # the symbol and value tables now hold every line
    calls = []
    hashed = BasisSymbol.__hash__
    monkeypatch.setattr(BasisSymbol, "__hash__", lambda x: calls.append(x) or hashed(x))
    assert parse_actions(doc) == want
    assert len(calls) == 14
    for extra, message, col in [
        ("p@00 = 1/0", "duplicate assignment for p", 1),  # also a bad value
        ("p = 1/0", "duplicate assignment for p", 1),
        ("p@2 = 1/0", "p@2 lies outside window 1", 1),  # also a bad value
        ("p@2 = s\np@02 = s", "p@2 lies outside window 1", 1),
        ("  q@-01 = (", "duplicate assignment for q@-1", 3),
    ]:
        with pytest.raises(InputError) as err:
            parse_actions(doc + extra + "\n")
        assert (err.value.message, err.value.line, err.value.col) == (message, 17, col)


def test_edge_pieces_reach_the_limits_they_name():
    one = Poly.one(())
    assert [parse_poly(text) for text in UNIT_POWERS] == [one, one, one]
    assert parse_poly(UNIT_SUM) == Poly.const((), len(COPRIME))
    assert N0 ** 10 < 10 ** MAX_DENOMINATOR_DIGITS < N0 ** 11
    assert parse_poly(COPRIME_SUMS[0]).den == math.prod(COPRIME[:10])
    with pytest.raises(DslSyntaxError, match="^sum exceeds the denominator limit"):
        parse_poly(COPRIME_SUMS[1])
    with pytest.raises(DslSyntaxError, match="^polynomial exceeds the term-work limit"):
        parse_poly(WIDE_PRODUCT, SD)
    assert 401 * 561 > MAX_TERM_WORK
    assert len(parse_poly(CANCELLED_PRODUCT, SD).numerators) == 561


@pytest.mark.parametrize("text", ["1", "0", "-7/2", "s", "d*s", "s-s", "1-1", "0+0", ""])
def test_duplicate_variables_raise_for_every_text(text):
    with pytest.raises(VariableMismatch, match="^duplicate variable in \\('s', 's'\\)$"):
        parse_poly(text, ("s", "s"))
    with pytest.raises(VariableMismatch):
        parse_poly(text, ["d", "s", "d"])


@pytest.mark.parametrize(
    "text", ["0", "7/3", "s", "-d", "4*s^2-s+1", "(s+d+1)^5*(s-1)-(1/2*s-3)^3+d", "s-s", "2/4*(6)"]
)
def test_parse_poly_builds_one_poly_per_value(monkeypatch, text):
    want = parse_poly_reference(text, SD)
    _value.cache_clear()  # a text the value table holds builds no Poly
    built = _count_trusted(monkeypatch)
    assert parse_poly(text, SD) == want
    assert built == [want]


def test_parse_actions_builds_one_poly_per_value_line(monkeypatch):
    lines = [f"{c}@{k} = {value}" for k in range(-2, 3)
             for c, value in (("p", f"({k}*s+1)^2-1/3*d"), ("q", "0"), ("r", f"-{k}/2*s*d"), ("s", "s"))]
    doc = "\n".join(["algebra = AffineH4", "window = 2", *lines, "k = 0", "d = d"]) + "\n"
    _value.cache_clear()
    built = _count_trusted(monkeypatch)
    data = parse_actions(doc)
    # one per distinct text, with k and d: the five `q` lines and `k` share
    # the Poly of `0`, and the five `s` lines that of `s`, from the value table
    texts = {entry.split(" = ")[1] for entry in lines} | {"0", "d"}
    assert len(built) == len(texts) == len(lines) + 2 - 9
    for key, text in (entry.split(" = ") for entry in lines):
        assert data.value(parse_symbol(key, data.algebra)) == parse_poly_reference(text, SD)
    # the reader's checked pairs give the data the public constructor gives
    public = ActionData(data.algebra, data.window, dict(data.assignments))
    assert data == public and data.assignments == public.assignments

    def on_one(data, symbol):
        try:
            return data.on_one(symbol)
        except InputError as exc:
            return type(exc), str(exc)

    for symbol in [x for x, _ in public.assignments] + [sym("p", 3), sym("dvir")]:
        assert data.has(symbol) == public.has(symbol)
        assert on_one(data, symbol) == on_one(public, symbol)
        if public.has(symbol):
            assert data.value(symbol) == public.value(symbol)


def test_documents_check_their_variables_once(monkeypatch):
    lines = [f"{c}@{k} = {k}*s+d" for k in range(-2, 3) for c in "pqrs"]
    doc = "\n".join(["algebra = AffineH4", "window = 2", *lines, "k = 0", "d = d"]) + "\n"
    spec_doc = "algebra = AffineH4\nfamily = MTildeF\nwindow = 2\n" + "".join(
        f"f.{k} = {k}*s^2+s\n" for k in range(-2, 3))
    want = parse_actions(doc), parse_spec(spec_doc)
    checked = []
    distinct = nwfree.specdsl._distinct
    monkeypatch.setattr(nwfree.specdsl, "_distinct", lambda v: checked.append(v) or distinct(v))
    assert (parse_actions(doc), parse_spec(spec_doc)) == want
    # once for the 22 value lines of the action data, none for the f.<k> lines,
    # whose kind checked its tuple when it was built
    assert checked == [("s", "d")]
    with pytest.raises(VariableMismatch, match="duplicate variable"):
        parse_poly("s", ("s", "d", "s"))  # the public parser still checks
    assert len(checked) == 2


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


# Vir00 data whose W_-1 is written `s@-1`
VIR00_S_DOC = (
    "algebra = Vir00\nwindow = 1\ns@-1 = w0\nw = w0\nw@1 = w0\n"
    "dvir@-1 = d0\ndvir = d0\ndvir@1 = d0\nk = 0\n"
)


@pytest.mark.parametrize(
    "doc, line, message",
    [
        ("algebra = H4\np = 1\nq = 1\nr = 0\nw = s\n", 5, "unknown basis symbol 'w'"),
        ("algebra = AffineH4\nwindow = 0\np = 1\nw@0 = s\n", 4, "unknown basis symbol 'w@0'"),
        ("algebra = H4\np = 1\nq = 1\nr = 0\ns = s\nk = 1\n", 6, "k is not a basis symbol of H4"),
        (VIR00_S_DOC, 3, "unknown basis symbol 's@-1'"),
    ],
    ids=["w-in-h4", "w-in-affine", "k-in-h4", "s-in-vir00"],
)
def test_key_outside_its_algebra_is_reported_at_the_key(tmp_path, capsys, doc, line, message):
    # `w` is Vir00's name for s, not a second name for s in every algebra,
    # and Vir00 data writes its W_m only as `w`
    for command in ("classify", "verify"):
        assert main([command, write(tmp_path, "doc.actions", doc)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: line {line}, col 1: {message}\n")


def _nwfree_exception_classes():
    """Every exception class defined in the nwfree package or one of its modules."""
    modules = [nwfree] + [
        importlib.import_module(f"nwfree.{info.name}") for info in pkgutil.iter_modules(nwfree.__path__)
    ]
    return [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ]


def test_every_input_error_class_exits_2_with_its_position(monkeypatch, capsys):
    classes = _nwfree_exception_classes()
    assert VariableMismatch in classes and InputError in classes
    for cls in classes:
        if cls is VariableMismatch:  # a fault of the program, never of the input
            assert not issubclass(cls, InputError)
            continue
        assert issubclass(cls, InputError), cls

        def fail(args, cls=cls):
            raise cls("boom", 3, 4)

        monkeypatch.setitem(nwfree.specdsl._COMMANDS, "verify", fail)
        assert main(["verify", "any.spec"]) == 2, cls
        assert capsys.readouterr() == ("", "error: line 3, col 4: boom\n"), cls


@pytest.mark.parametrize("error", [RuntimeError("bug"), VariableMismatch("bug")])
def test_errors_outside_input_error_propagate(monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setitem(nwfree.specdsl._COMMANDS, "verify", fail)
    with pytest.raises(type(error)):
        main(["verify", "any.spec"])


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


@pytest.mark.parametrize("seed", ["-s+1", "-1/2*s", "-(s-1)^2"])
def test_cli_seed_poly_takes_a_leading_minus_as_its_value(tmp_path, capsys, seed):
    path = write(tmp_path, "mab.spec", "algebra = H4\nfamily = Mab\na = 2\nb = 3\n")
    joined = main(["irreducible", path, f"--seed-poly={seed}"]), capsys.readouterr()
    assert joined[0] == 0 and "STEP" in joined[1].out
    assert (main(["irreducible", path, "--seed-poly", seed]), capsys.readouterr()) == joined
    assert (main(["irreducible", "--seed-poly", seed, path]), capsys.readouterr()) == joined
    for flag in ("--seed", "--see"):  # argparse takes any unique abbreviation
        assert (main(["irreducible", path, flag, seed]), capsys.readouterr()) == joined


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


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: parse_spec(None), "text"),
        (lambda: parse_actions(None), "text"),
        (lambda: parse_input(None), "text"),
        (lambda: classify(None), "data"),
        (lambda: act(mhb(1, 0, 1), "p", Poly.one(("s",))), "x"),
        (lambda: act(mhb(1, 0, 1), sym("p"), None), "v"),
    ],
    ids=["parse_spec", "parse_actions", "parse_input", "classify", "act-symbol", "act-vector"],
)
def test_wrong_typed_arguments_raise_type_error_naming_them(call, argument):
    # no InputError: the CLI never passes such values, so this is a caller's fault
    with pytest.raises(TypeError, match=f"^{argument} must be ") as err:
        call()
    assert not isinstance(err.value, InputError)


if __name__ == "__main__":
    sys.stdout.write(spec_document_outcomes())
