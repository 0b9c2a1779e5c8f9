"""CLI fuzz: short random documents through every command end in exit 0, 1 or 2.

Documents start from valid spec and action documents, or from nothing,
and have lines replaced, dropped or added.  Keys are the real ones; values
mix numbers, polynomials, powers, loop indices, non-ASCII digits and long
numerals.  A crash surfaces as an exception out of `main`; the
`small_ranges` guard turns a table built from a huge value into one too.
"""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nwfree.modfam import actions_of, mab
from nwfree.specdsl import format_actions, format_spec, main

from helpers import sample_specs

SPEC_DOCS = [format_spec(spec) for _, spec in sample_specs()]
ACTION_DOCS = [format_actions(actions_of(spec)) for _, spec in sample_specs()]
NESTED_PARENTHESES = "algebra = H4\nfamily = Mg0\ng = " + "(" * 600 + "s" + ")" * 600 + "\n"
NESTED_MINUS = "algebra = H4\nfamily = Mg0\ng = " + "-" * 1000 + "s\n"
# pairwise coprime 1000-digit denominators: a sum no formatter could print
SIX_FRACTIONS = ("algebra = H4\nfamily = Mg0\ng = "
                 + "+".join(f"1/{10 ** 999 + k}" for k in (1, 3, 5, 7, 9, 13)) + "\n")
# affine action data with no loop index to read alpha from
WINDOW_ZERO_AFFINE = "algebra = AffineH4\nwindow = 0\np = 1\nq = 1\nr = 0\ns = s\nk = 0\nd = d\n"

_index = st.sampled_from(["-1", "0", "1", "2", "-2", "١", "1_0", " 1", "+1", "", "x",
                          "9" * 30])
KEYS = st.one_of(
    st.sampled_from(["algebra", "family", "base", "g", "a1", "a2", "b", "a", "alpha",
                     "lambda", "fpoly", "window", "k", "d", "p", "q", "r", "s", "w", "dvir"]),
    st.builds("{}.{}".format, st.sampled_from(["beta", "f"]), _index),
    st.builds("{}@{}".format, st.sampled_from(["p", "q", "r", "s", "w", "dvir", "k"]), _index),
)
_atoms = st.sampled_from(["s", "d", "w0", "d0", "0", "1", "-1", "2", "3/4", "1/0", "-5/2",
                          "٣", "²", "２", "1_000", "(s+1)", "s*d", "x", "^",
                          "@", "9" * 999, "7" * 1001, "1" * 5000])
_numbers = st.integers(min_value=-3, max_value=70).map(str)
_expressions = st.lists(
    st.one_of(_atoms, _numbers, st.sampled_from(["+", "-", "*", "^", "/", "(", ")", " "])),
    min_size=1, max_size=6,
).map("".join)
_plausible = st.builds("{}*{}+{}".format, st.integers(min_value=-3, max_value=3),
                       st.sampled_from(["s", "d", "w0", "d0", "s^2"]),
                       st.integers(min_value=-3, max_value=3))
VALUES = st.one_of(
    _plausible,
    _atoms,
    _numbers,
    _expressions,
    st.sampled_from(["H4", "AffineH4", "Vir00", "AffineVirasoroH4", "Mg0", "M0g", "Mhb",
                     "Mbh", "Mab", "M0", "MTildeAlphaBeta", "MTildeF", "MLambdaF",
                     "MTildeLambda", str(10 ** 12)]),
)


@st.composite
def documents(draw, command):
    # mostly the kind of document the command takes, sometimes the other or none
    usual, other = {
        "verify": (SPEC_DOCS + ACTION_DOCS, []),
        "classify": (ACTION_DOCS, SPEC_DOCS),
    }.get(command, (SPEC_DOCS, ACTION_DOCS))
    pool = draw(st.sampled_from([usual] * 8 + [other or usual, [""]]))
    lines = draw(st.sampled_from(pool)).splitlines()
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "add" or not lines:
            line = f"{draw(KEYS)} = {draw(VALUES)}"
            lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
            continue
        at = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if edit == "drop":
            del lines[at]
        else:
            key = lines[at].split("=", 1)[0].strip()
            lines[at] = f"{key} = {draw(VALUES)}"
    return "\n".join(lines) + "\n"


_small_flag = st.sampled_from(["1", "2", "3", "1", "2", "0", "-1", str(10 ** 12)])


@st.composite
def invocations(draw):
    """(document, [command, flags...]); a flag and its value are one argument
    (`--window=2`) or two (`--window 2`)."""
    command = draw(st.sampled_from(["verify", "classify", "irreducible", "twist"]))
    args = [command]

    def flag_args(flag, value):
        return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]

    if command == "verify":
        for flag in ("--window", "--test-degree"):
            if draw(st.booleans()):
                args += flag_args(flag, draw(_small_flag))
    elif command == "irreducible":
        seed = draw(st.one_of(_plausible, _expressions, _atoms))
        flags = {"--seed-poly": seed, "--max-degree": draw(_small_flag),
                 "--cap-degree": draw(_small_flag)}
        # no oracle, the whole oracle, or any part of it
        for flag in draw(st.sampled_from([["--seed-poly"], [], list(flags), list(flags),
                                          list(flags)[1:], list(flags)[:2]])):
            args += flag_args(flag, flags[flag])
    return draw(documents(command)), args


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=invocations())
# an irreducible spec whose zero seed fails the chain after the verdict is known
@example(invocation=(format_spec(mab(2, 3)), ["irreducible", "--seed-poly=0"]))
# a seed that starts with '-', as the argument after its flag
@example(invocation=(format_spec(mab(2, 3)), ["irreducible", "--seed-poly", "-s+1"]))
# the seed `--`, which argparse reads as an empty list
@example(invocation=(format_spec(mab(2, 3)), ["irreducible", "--seed-poly", "--"]))
@example(invocation=(format_spec(mab(2, 3)), ["irreducible", "--seed-poly=--"]))
# nesting deep enough to exhaust the interpreter's recursion limit
@example(invocation=(NESTED_PARENTHESES, ["verify"]))
@example(invocation=(NESTED_MINUS, ["verify"]))
# a sum of fractions whose denominator passes every product and power limit
@example(invocation=(SIX_FRACTIONS, ["twist"]))
# window-0 affine data with a nonzero p, q or r
@example(invocation=(WINDOW_ZERO_AFFINE, ["classify"]))
def test_cli_ends_in_a_defined_exit_code(tmp_path, small_ranges, invocation):
    doc, args = invocation
    path = tmp_path / "fuzz.doc"
    path.write_text(doc, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([args[0], str(path), *args[1:]])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert out.getvalue() == ""  # nothing is printed before a failure
