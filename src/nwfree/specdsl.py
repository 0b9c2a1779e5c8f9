"""Text formats for specs, action data, and polynomials, plus the CLI.

Polynomial grammar (variables s, d, d0, w0):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INTEGER)?
    atom   := RATIONAL | VARIABLE | '(' expr ')'
    RATIONAL := INTEGER ('/' INTEGER)?

A power whose degree would pass MAX_DEGREE is a syntax error at its
exponent, so no document makes the parser multiply without bound.

Spec and action documents are line-oriented `key = value` text with `#`
comments.  Spec documents name an algebra and a family and list its
parameters; beta and f sequences use explicit integer suffixes
(`beta.-2 = 1/3`) and every in-window index must be listed, except the
forced entries beta.0 and f.0 which may be omitted.  Action documents
list generator values directly (`p@1 = 2*s`) under `algebra` and
`window` headers.
"""

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .classify import (
    Classified,
    UnsupportedIso,
    UnsupportedTwist,
    WindowMismatch,
    classify,
    iso_check,
    twist,
)
from .exactpoly import Poly, format_poly
from .irreducible import (
    NotIrreducible,
    NotReducible,
    SeedZero,
    decide,
    format_certificate,
    format_witness,
    orbit_oracle,
    reduction_chain,
    witness,
)
from .liealg import (
    AFF_VIR,
    AFFINE_H4,
    H4,
    VIR00,
    SymbolNotInAlgebra,
    format_symbol,
    parse_symbol,
)
from .modfam import (
    H4_VARIANTS,
    MODULE_VARIABLES,
    ActionData,
    AffineSpec,
    AffVirSpec,
    ConstraintViolation,
    H4Family,
    MalformedData,
    SpecInvalid,
    Vir00Spec,
    WindowExceeded,
    affvir,
    algebra_of,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    module_variables,
    mtilde,
    mtilde_f,
    spec_window,
)
from .verify import format_report, verify_module


class DslSyntaxError(SyntaxError):
    """Parse failure with a 1-based line and column."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


class UnknownVariable(DslSyntaxError):
    pass


_ALLOWED_VARIABLES = ("s", "d", "d0", "w0")

# Largest degree a power may reach (a constant base counts as degree 1).
MAX_DEGREE = 64


@dataclass
class _Token:
    kind: str  # num | ident | op
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int, col: int):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], line, start))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(_Token("op", ch, line, start))
            col += 1
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    return tokens, line, col


class _PolyParser:
    def __init__(self, tokens, variables, end_line, end_col):
        self.tokens = tokens
        self.i = 0
        self.variables = variables
        self.end_line = end_line
        self.end_col = end_col

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def fail(self, message, tok=None):
        if tok is None:
            raise DslSyntaxError(message, self.end_line, self.end_col)
        raise DslSyntaxError(message, tok.line, tok.col)

    def expr(self) -> Poly:
        value = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return value
            self.take()
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs

    def term(self) -> Poly:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return value
            self.take()
            value = value * self.factor()

    def factor(self) -> Poly:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.take()
            return -self.factor()
        value = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.take()
            exponent = self.peek()
            if exponent is None or exponent.kind != "num":
                self.fail("expected an integer exponent after '^'", exponent)
            self.take()
            n = int(exponent.text)
            if n * max(value.total_degree(), 1) > MAX_DEGREE:
                self.fail(f"power ^{n} exceeds the degree limit {MAX_DEGREE}", exponent)
            value = value ** n
        return value

    def atom(self) -> Poly:
        tok = self.take()
        if tok is None:
            self.fail("unexpected end of polynomial")
        if tok.kind == "num":
            numerator = int(tok.text)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "/":
                self.take()
                denominator = self.take()
                if denominator is None or denominator.kind != "num":
                    self.fail("expected an integer denominator after '/'", denominator)
                if int(denominator.text) == 0:
                    self.fail("zero denominator", denominator)
                return Poly.const(self.variables, Fraction(numerator, int(denominator.text)))
            return Poly.const(self.variables, numerator)
        if tok.kind == "ident":
            if tok.text not in self.variables:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
            return Poly.var(self.variables, tok.text)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            closing = self.take()
            if closing is None or closing.text != ")":
                self.fail("expected ')'", closing)
            return value
        self.fail(f"unexpected {tok.text!r}", tok)


def parse_poly(text: str, variables=None, line: int = 1, col: int = 1) -> Poly:
    """Parse the polynomial grammar; positions offset by (line, col)."""
    tokens, end_line, end_col = _tokenize(text, line, col)
    if not tokens:
        raise DslSyntaxError("empty polynomial", line, col)
    if variables is None:
        for tok in tokens:
            if tok.kind == "ident" and tok.text not in _ALLOWED_VARIABLES:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
        mentioned = {tok.text for tok in tokens if tok.kind == "ident"}
        variables = tuple(v for v in _ALLOWED_VARIABLES if v in mentioned)
    parser = _PolyParser(tokens, tuple(variables), end_line, end_col)
    value = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        parser.fail(f"unexpected {trailing.text!r}", trailing)
    return value


def parse_rational(text: str, line: int = 1, col: int = 1) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DslSyntaxError(f"expected a rational number, got {text.strip()!r}", line, col) from exc


# --------------------------------------------------------------- documents


@dataclass
class _Entry:
    key: str
    value: str
    line: int
    key_col: int
    value_col: int


def _read_document(text: str):
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        meat = raw.split("#", 1)[0]
        if not meat.strip():
            continue
        if "=" not in meat:
            col = len(raw) - len(raw.lstrip()) + 1
            raise DslSyntaxError("expected `key = value`", lineno, col)
        key_part, value_part = meat.split("=", 1)
        key = key_part.strip()
        value = value_part.strip()
        if not key:
            raise DslSyntaxError("missing key before '='", lineno, 1)
        if not value:
            raise DslSyntaxError(f"missing value for {key}", lineno, meat.index("=") + 2)
        key_col = raw.index(key) + 1
        value_col = raw.index(value, raw.index("=")) + 1
        entries.append(_Entry(key, value, lineno, key_col, value_col))
    return entries


def _entry_map(entries):
    out = {}
    for entry in entries:
        if entry.key in out:
            raise DslSyntaxError(f"duplicate key {entry.key}", entry.line, entry.key_col)
        out[entry.key] = entry
    return out


_FAMILY_ALGEBRA = {
    "Mg0": H4,
    "M0g": H4,
    "Mhb": H4,
    "Mbh": H4,
    "Mab": H4,
    "M0": H4,
    "MTildeAlphaBeta": AFFINE_H4,
    "MTildeF": AFFINE_H4,
    "MLambdaF": VIR00,
    "MTildeLambda": AFF_VIR,
}


def _best_position(message, taken, fallback_line, fallback_col):
    """Point a position-less constraint message at the key it names."""
    best = None
    best_rank = None
    for key in taken:
        # whole-token match so `b` does not fire inside `beta.-2`
        pattern = r"(?<![A-Za-z0-9_.])" + re.escape(key) + r"(?![A-Za-z0-9_.])"
        hit = re.search(pattern, message)
        if hit is None:
            continue
        rank = (hit.start(), -len(key))
        if best_rank is None or rank < best_rank:
            best, best_rank = key, rank
    if best is None:
        return fallback_line, fallback_col
    return taken[best].line, taken[best].key_col


class _SpecBuilder:
    """Pulls typed values out of the entry map and tracks their positions."""

    def __init__(self, emap, family_entry, family):
        self.emap = emap
        self.family_entry = family_entry
        self.family = family
        self.taken = {}

    def grab(self, key) -> _Entry:
        entry = self.emap.pop(key, None)
        if entry is None:
            raise ConstraintViolation(
                f"family {self.family} requires {key}",
                self.family_entry.line,
                self.family_entry.key_col,
            )
        self.taken[key] = entry
        return entry

    def rational(self, key) -> Fraction:
        entry = self.grab(key)
        return parse_rational(entry.value, entry.line, entry.value_col)

    def integer(self, key) -> int:
        entry = self.grab(key)
        try:
            return int(entry.value)
        except ValueError:
            raise DslSyntaxError(
                f"{key} must be an integer", entry.line, entry.value_col
            ) from None

    def poly(self, key, variables) -> Poly:
        entry = self.grab(key)
        return parse_poly(entry.value, variables, entry.line, entry.value_col)

    def indexed(self, prefix):
        out = {}
        for key in sorted(self.emap):
            if not key.startswith(prefix + "."):
                continue
            entry = self.emap.pop(key)
            self.taken[key] = entry
            try:
                index = int(key[len(prefix) + 1 :])
            except ValueError:
                raise DslSyntaxError(
                    f"{key} needs an integer index", entry.line, entry.key_col
                ) from None
            out[index] = entry
        return out

    def h4_base(self, variant) -> H4Family:
        if variant in ("Mg0", "M0g"):
            g = self.poly("g", ("s",))
            return self.construct(lambda: (mg0 if variant == "Mg0" else m0g)(g))
        if variant in ("Mhb", "Mbh"):
            args = [self.rational(k) for k in ("a1", "a2", "b")]
            return self.construct(lambda: (mhb if variant == "Mhb" else mbh)(*args))
        if variant == "Mab":
            args = [self.rational(k) for k in ("a", "b")]
            return self.construct(lambda: mab(*args))
        return m0()

    def base_variant(self) -> str:
        entry = self.grab("base")
        if entry.value not in H4_VARIANTS:
            raise ConstraintViolation(
                f"unknown base family {entry.value}", entry.line, entry.value_col
            )
        return entry.value

    def construct(self, call):
        """Run a constructor, attaching the best source position on failure."""
        try:
            return call()
        except ConstraintViolation as exc:
            if exc.line is not None:
                raise
            line, col = _best_position(
                exc.message, self.taken, self.family_entry.line, self.family_entry.key_col
            )
            raise type(exc)(exc.message, line, col) from exc


def _build_spec(entries):
    emap = _entry_map(entries)
    algebra_entry = emap.pop("algebra", None)
    family_entry = emap.pop("family", None)
    if algebra_entry is None:
        raise ConstraintViolation("algebra key is required", 1, 1)
    if family_entry is None:
        raise ConstraintViolation("family key is required", 1, 1)
    family = family_entry.value
    expected = _FAMILY_ALGEBRA.get(family)
    if expected is None:
        raise ConstraintViolation(
            f"unknown family {family}", family_entry.line, family_entry.value_col
        )
    if algebra_entry.value != expected:
        raise ConstraintViolation(
            f"family {family} belongs to algebra {expected}",
            algebra_entry.line,
            algebra_entry.value_col,
        )
    builder = _SpecBuilder(emap, family_entry, family)
    if expected == H4:
        spec = builder.h4_base(family)
    elif family == "MTildeAlphaBeta":
        base = builder.h4_base(builder.base_variant())
        alpha = builder.rational("alpha")
        window = builder.integer("window")
        beta = {
            k: parse_rational(e.value, e.line, e.value_col)
            for k, e in builder.indexed("beta").items()
        }
        spec = builder.construct(lambda: mtilde(base, alpha, beta, window))
    elif family == "MTildeF":
        window = builder.integer("window")
        fseq = {
            k: parse_poly(e.value, ("s",), e.line, e.value_col)
            for k, e in builder.indexed("f").items()
        }
        spec = builder.construct(lambda: mtilde_f(fseq, window))
    elif family == "MLambdaF":
        lam = builder.rational("lambda")
        fpoly = builder.poly("fpoly", ("w0",))
        spec = builder.construct(lambda: Vir00Spec(lam, fpoly))
    else:  # MTildeLambda
        base = builder.h4_base(builder.base_variant())
        alpha = builder.rational("alpha")
        lam = builder.rational("lambda")
        window = builder.integer("window")
        spec = builder.construct(lambda: affvir(base, alpha, lam, window))
    if builder.emap:
        leftover = min(builder.emap.values(), key=lambda e: (e.line, e.key_col))
        raise ConstraintViolation(
            f"key {leftover.key} is not used by family {family}",
            leftover.line,
            leftover.key_col,
        )
    return spec


def parse_spec(text: str):
    """Parse a spec document into a validated module spec."""
    return _build_spec(_read_document(text))


def _build_actions(entries) -> ActionData:
    emap = _entry_map(entries)
    algebra_entry = emap.pop("algebra", None)
    if algebra_entry is None:
        raise ConstraintViolation("algebra key is required", 1, 1)
    algebra = algebra_entry.value
    if algebra not in MODULE_VARIABLES:
        raise ConstraintViolation(
            f"unknown algebra {algebra}", algebra_entry.line, algebra_entry.value_col
        )
    window_entry = emap.pop("window", None)
    if window_entry is None:
        if algebra != H4:
            raise ConstraintViolation(
                f"window is required for {algebra} action data",
                algebra_entry.line,
                algebra_entry.key_col,
            )
        window = 0
    else:
        try:
            window = int(window_entry.value)
        except ValueError:
            raise DslSyntaxError(
                "window must be an integer", window_entry.line, window_entry.value_col
            ) from None
    assignments = {}
    taken = {}
    for entry in sorted(emap.values(), key=lambda e: (e.line, e.key_col)):
        try:
            symbol = parse_symbol(entry.key)
        except SymbolNotInAlgebra as exc:
            raise DslSyntaxError(str(exc), entry.line, entry.key_col) from exc
        value = parse_poly(entry.value, MODULE_VARIABLES[algebra], entry.line, entry.value_col)
        assignments[symbol] = value
        taken[entry.key] = entry
    try:
        return ActionData(algebra, window, assignments)
    except ConstraintViolation as exc:
        if exc.line is not None:
            raise
        line, col = _best_position(exc.message, taken, algebra_entry.line, algebra_entry.key_col)
        raise type(exc)(exc.message, line, col) from exc


def parse_actions(text: str) -> ActionData:
    """Parse an action data document."""
    return _build_actions(_read_document(text))


def parse_input(text: str):
    """Spec documents carry a `family` key; anything else is action data."""
    entries = _read_document(text)
    if any(entry.key == "family" for entry in entries):
        return _build_spec(entries)
    return _build_actions(entries)


# -------------------------------------------------------------- formatting


def _h4_param_lines(fam: H4Family):
    if fam.variant in ("Mg0", "M0g"):
        return [f"g = {format_poly(fam.g)}"]
    if fam.variant in ("Mhb", "Mbh"):
        return [
            f"a1 = {fam.a1}",
            f"a2 = {fam.a2}",
            f"b = {fam.b}",
        ]
    if fam.variant == "Mab":
        return [f"a = {fam.a}", f"b = {fam.b}"]
    return []


def format_spec(spec) -> str:
    """Canonical document for a spec; parses back to an equal spec."""
    lines = [f"algebra = {algebra_of(spec)}"]
    if isinstance(spec, H4Family):
        lines.append(f"family = {spec.variant}")
        lines.extend(_h4_param_lines(spec))
    elif isinstance(spec, AffineSpec):
        if spec.variant == "MTildeAlphaBeta":
            lines.append("family = MTildeAlphaBeta")
            lines.append(f"base = {spec.base.variant}")
            lines.extend(_h4_param_lines(spec.base))
            lines.append(f"alpha = {spec.alpha}")
            for k in range(-spec.window, spec.window + 1):
                lines.append(f"beta.{k} = {spec.beta_at(k)}")
        else:
            lines.append("family = MTildeF")
            for k in range(-spec.window, spec.window + 1):
                lines.append(f"f.{k} = {format_poly(spec.f_at(k))}")
        lines.append(f"window = {spec.window}")
    elif isinstance(spec, Vir00Spec):
        lines.append("family = MLambdaF")
        lines.append(f"lambda = {spec.lam}")
        lines.append(f"fpoly = {format_poly(spec.fpoly)}")
    elif isinstance(spec, AffVirSpec):
        inner = spec.base
        lines.append("family = MTildeLambda")
        lines.append(f"base = {inner.base.variant}")
        lines.extend(_h4_param_lines(inner.base))
        lines.append(f"alpha = {inner.alpha}")
        lines.append(f"lambda = {spec.lambda_shift}")
        lines.append(f"window = {inner.window}")
    else:
        raise SpecInvalid(f"cannot format a {type(spec).__name__}")
    return "\n".join(lines) + "\n"


def format_actions(data: ActionData) -> str:
    lines = [f"algebra = {data.algebra}", f"window = {data.window}"]
    for symbol, value in data.assignments:
        lines.append(f"{format_symbol(symbol, data.algebra)} = {format_poly(value)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- CLI


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nwfree",
        description="Exact checks for rank one Cartan-free modules: "
        "verify the bracket axiom, classify raw actions into families, "
        "decide irreducibility, twist, and compare for isomorphism.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("verify", help="check the commutator axiom on a spec or action file")
    cmd.add_argument("path", help="spec or action document")
    cmd.add_argument("--window", type=int, default=None, help="loop window (default: min(3, spec window))")
    cmd.add_argument("--test-degree", type=int, default=3, help="max degree of test polynomials")

    cmd = sub.add_parser("classify", help="match an action file against the families")
    cmd.add_argument("path", help="action document")

    cmd = sub.add_parser("irreducible", help="verdict plus certificate or witness")
    cmd.add_argument("path", help="spec document")
    cmd.add_argument("--seed-poly", default=None, help="seed for the reduction chain")
    cmd.add_argument("--max-degree", type=int, default=None, help="oracle seed degree bound")
    cmd.add_argument("--cap-degree", type=int, default=None, help="oracle span degree cap")

    cmd = sub.add_parser("twist", help="image of a family under the order-4 automorphism")
    cmd.add_argument("path", help="spec document")

    cmd = sub.add_parser("iso", help="decide isomorphism of two affine specs")
    cmd.add_argument("left", help="first spec document")
    cmd.add_argument("right", help="second spec document")
    return parser


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_input(handle.read())


def _require_spec(target, command: str):
    if isinstance(target, ActionData):
        raise ConstraintViolation(f"{command} needs a family spec document, not action data")
    return target


def _cmd_verify(args) -> int:
    target = _load(args.path)
    window = args.window
    if window is None:
        limit = spec_window(target)
        window = 3 if not limit else min(3, limit)
    report = verify_module(target, window=window, test_degree=args.test_degree)
    print(format_report(report))
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    target = _load(args.path)
    if not isinstance(target, ActionData):
        raise ConstraintViolation("classify needs an action data document")
    result = classify(target)
    if isinstance(result, Classified):
        sys.stdout.write(format_spec(result.spec))
        return 0
    print(f"REJECTED {result.anchor}: {result.reason}")
    return 1


def _cmd_irreducible(args) -> int:
    spec = _require_spec(_load(args.path), "irreducible")
    verdict = decide(spec)
    derived = "true" if verdict.derived else "false"
    print(f"VERDICT {verdict.label} family={verdict.family} derived={derived}")
    alg = algebra_of(spec)
    seed = None
    if args.seed_poly is not None:
        seed = parse_poly(args.seed_poly, module_variables(spec))
    if verdict.irreducible:
        if seed is not None:
            print(format_certificate(reduction_chain(spec, seed), alg))
    else:
        print(format_witness(witness(spec), alg))
    if args.max_degree is not None or args.cap_degree is not None:
        if seed is None or args.max_degree is None or args.cap_degree is None:
            raise ConstraintViolation(
                "the oracle needs --seed-poly, --max-degree and --cap-degree together"
            )
        reached = orbit_oracle(spec, seed, args.max_degree, args.cap_degree)
        print(f"ORACLE reachable={'true' if reached else 'false'}")
    return 0


def _cmd_twist(args) -> int:
    spec = _require_spec(_load(args.path), "twist")
    sys.stdout.write(format_spec(twist(spec)))
    return 0


def _cmd_iso(args) -> int:
    left = _require_spec(_load(args.left), "iso")
    right = _require_spec(_load(args.right), "iso")
    same = iso_check(left, right)
    print(f"ISO {'true' if same else 'false'}")
    return 0 if same else 1


_COMMANDS = {
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "irreducible": _cmd_irreducible,
    "twist": _cmd_twist,
    "iso": _cmd_iso,
}

_INPUT_ERRORS = (
    DslSyntaxError,
    ConstraintViolation,
    MalformedData,
    WindowExceeded,
    SeedZero,
    NotIrreducible,
    NotReducible,
    UnsupportedTwist,
    UnsupportedIso,
    WindowMismatch,
    SymbolNotInAlgebra,
    OSError,
)


def _diagnostic(exc) -> str:
    message = getattr(exc, "message", None) or str(exc)
    line = getattr(exc, "line", None)
    col = getattr(exc, "col", None)
    if line is not None:
        where = f"line {line}" + (f", col {col}" if col is not None else "")
        return f"error: {where}: {message}"
    return f"error: {message}"


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
