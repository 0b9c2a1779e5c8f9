"""Text formats for specs, action data, and polynomials, plus the CLI.

Polynomial grammar (variables s, d, d0, w0):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INTEGER)?
    atom   := RATIONAL | VARIABLE | '(' expr ')'
    RATIONAL := INTEGER ('/' INTEGER)?

A power whose degree would pass MAX_DEGREE is a syntax error at its
exponent, and a product whose degree would pass it is one at its `*`.  A
product whose operands' term counts multiply past MAX_TERM_PAIRS is a
syntax error at its `*`, before any multiplying.  One polynomial value
may multiply at most MAX_TERM_WORK term pairs, counted over all its
products and powers: the multiplication that passes it is a syntax error
at its `*` or `^`, before it computes.  A sum merges its terms into one
table, so each `+` or `-` costs only its right operand's terms.  A
product or a sum with a coefficient whose numerator or denominator has
more than MAX_DIGITS digits is a syntax error at its `*`, `+` or `-`.  A power is checked for
both at each of its multiplications, at its `^`.  Parentheses and unary
minus nested more than MAX_NESTING deep, counted together, are a syntax
error at the `(` or `-` that passes the limit.  So no document makes the
parser multiply or recurse without bound.  Digits are ASCII
only, and a numeral longer than MAX_DIGITS is a syntax error at the
numeral.  Rational parameters and windows take ASCII digits without
underscores too; anything else is a syntax error at the value.
A loop index (`beta.-2`, `p@1`) is an optional `-` followed by ASCII
digits; anything else is a syntax error at the key.

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
    parse_loop_index,
    parse_symbol,
)
from .modfam import (
    AFFINE_VARIANTS,
    H4_PARAMS,
    MAX_WINDOW,
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

# Most term pairs one multiplication may form, the product of its operands'
# term counts.  It refuses (c*s+c*d+c)^32*(c*s+c*d+c)^32, 561 by 561 terms,
# and takes 33 by 561.  Outside the tests of this limit, the largest product
# in the tests and the benchmark documents is 64 by 2 terms.
MAX_TERM_PAIRS = 20000

# Most term pairs one polynomial value may multiply, summed over every
# multiplication of its products and powers.  Each `*` copies its whole
# result, so without this a short line of steps on one large value, such
# as (s+d+1)^64 followed by many `*1`, runs on for seconds.  The costliest
# power within MAX_DEGREE and MAX_TERM_PAIRS, (s+d+d0+1)^30, multiplies
# 163,680 pairs, and (s+d+1)^64 137,280.  A value in two variables written
# out term by term, as format_actions writes it, multiplies at most 95,810:
# a+b+2 for each of the 2,145 terms c*s^a*d^b with a+b <= 64.
MAX_TERM_WORK = 200000

# Longest numeral a polynomial may hold; int() refuses more than 4,300 digits.
# Sums, products and powers keep every numerator and denominator below 10^MAX_DIGITS.
MAX_DIGITS = 1000
_DIGIT_BOUND = 10 ** MAX_DIGITS

# Deepest nesting of parentheses and unary minus, counted together.  The
# parser recurses through four frames per parenthesis, so this stays well
# inside the interpreter's default recursion limit of 1000.
MAX_NESTING = 100

_DIGITS = "0123456789"


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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise DslSyntaxError(
                    f"numeral of {j - i} digits exceeds the limit {MAX_DIGITS}", line, start
                )
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
        self.depth = 0  # open parentheses and unary minus signs
        self.work = 0  # term pairs multiplied so far, against MAX_TERM_WORK

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

    def nest(self, tok) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting exceeds the limit {MAX_NESTING}", tok)

    def bounded(self, value: Poly, what: str, tok) -> Poly:
        for _, c in value.terms:
            if abs(c.numerator) >= _DIGIT_BOUND or c.denominator >= _DIGIT_BOUND:
                self.fail(f"{what} exceeds the digit limit {MAX_DIGITS}", tok)
        return value

    def multiply(self, a: Poly, b: Poly, what: str, tok) -> Poly:
        pairs = len(a.terms) * len(b.terms)
        if pairs > MAX_TERM_PAIRS:
            self.fail(f"{what} exceeds the term-pair limit {MAX_TERM_PAIRS}", tok)
        self.work += pairs
        if self.work > MAX_TERM_WORK:
            self.fail(f"polynomial exceeds the term-work limit {MAX_TERM_WORK}", tok)
        return self.bounded(a * b, what, tok)

    def expr(self) -> Poly:
        value = self.term()
        terms = None  # once a sign follows, the sum's terms, merged in place
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return value if terms is None else Poly._trusted(value.variables, terms.items())
            self.take()
            rhs = self.term()
            if terms is None:
                terms = dict(value.terms)
            sign = 1 if tok.text == "+" else -1
            for exps, c in rhs.terms:
                c = terms.get(exps, 0) + sign * c
                if abs(c.numerator) >= _DIGIT_BOUND or c.denominator >= _DIGIT_BOUND:
                    self.fail(f"sum exceeds the digit limit {MAX_DIGITS}", tok)
                terms[exps] = c

    def term(self) -> Poly:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return value
            self.take()
            rhs = self.factor()
            if value.total_degree() + rhs.total_degree() > MAX_DEGREE:
                self.fail(f"product exceeds the degree limit {MAX_DEGREE}", tok)
            value = self.multiply(value, rhs, "product", tok)

    def factor(self) -> Poly:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.take()
            self.nest(tok)
            value = -self.factor()
            self.depth -= 1
            return value
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
            # as Poly.__pow__ does, but checked at every multiplication
            base, value = value, Poly.one(self.variables)
            for _ in range(n):
                value = self.multiply(value, base, "power", tok)
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
            self.nest(tok)
            value = self.expr()
            closing = self.take()
            if closing is None or closing.text != ")":
                self.fail("expected ')'", closing)
            self.depth -= 1
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


def _ascii_numeral(text: str) -> bool:
    # Fraction() and int() also take other Unicode digits and underscores
    return text.isascii() and "_" not in text


def parse_rational(text: str, line: int = 1, col: int = 1) -> Fraction:
    text = text.strip()
    try:
        if not _ascii_numeral(text):
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DslSyntaxError(f"expected a rational number, got {text!r}", line, col) from exc


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
    **dict.fromkeys(H4_PARAMS, H4),
    **dict.fromkeys(AFFINE_VARIANTS, AFFINE_H4),
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


def _window_value(entry: _Entry) -> int:
    try:
        if not _ascii_numeral(entry.value):
            raise ValueError(entry.value)
        window = int(entry.value)
    except ValueError:
        raise DslSyntaxError("window must be an integer", entry.line, entry.value_col) from None
    if window > MAX_WINDOW:
        raise ConstraintViolation(
            f"window exceeds the limit {MAX_WINDOW}", entry.line, entry.value_col
        )
    return window


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

    def window(self) -> int:
        return _window_value(self.grab("window"))

    def poly(self, key, variables) -> Poly:
        entry = self.grab(key)
        return parse_poly(entry.value, variables, entry.line, entry.value_col)

    def indexed(self, prefix):
        found = []
        for key in sorted(self.emap):
            if not key.startswith(prefix + "."):
                continue
            entry = self.emap.pop(key)
            self.taken[key] = entry
            try:
                index = parse_loop_index(key[len(prefix) + 1 :])
            except ValueError:
                raise DslSyntaxError(
                    f"{key} needs an integer index", entry.line, entry.key_col
                ) from None
            found.append((entry.line, entry.key_col, index, entry))
        out = {}
        # `beta.1` and `beta.01` name one index: the later line repeats it
        for line, col, index, entry in sorted(found, key=lambda item: item[:2]):
            if index in out:
                raise DslSyntaxError(f"duplicate loop index {prefix}.{index}", line, col)
            out[index] = entry
        return out

    def h4_base(self, variant) -> H4Family:
        params = {
            name: self.poly(name, ("s",)) if name == "g" else self.rational(name)
            for name in H4_PARAMS[variant]
        }
        return self.construct(lambda: H4Family(variant, **params))

    def base_variant(self) -> str:
        entry = self.grab("base")
        if entry.value not in H4_PARAMS:
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
        window = builder.window()
        beta = {
            k: parse_rational(e.value, e.line, e.value_col)
            for k, e in builder.indexed("beta").items()
        }
        spec = builder.construct(lambda: mtilde(base, alpha, beta, window))
    elif family == "MTildeF":
        window = builder.window()
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
        window = builder.window()
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
        window = _window_value(window_entry)
    assignments = {}
    taken = {}
    for entry in sorted(emap.values(), key=lambda e: (e.line, e.key_col)):
        try:
            symbol = parse_symbol(entry.key)
        except SymbolNotInAlgebra as exc:
            raise DslSyntaxError(str(exc), entry.line, entry.key_col) from exc
        if symbol in assignments:
            # `p` and `p@0` name one generator: the later line repeats it
            raise DslSyntaxError(
                f"duplicate assignment for {format_symbol(symbol, algebra)}",
                entry.line,
                entry.key_col,
            )
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
    values = ((name, getattr(fam, name)) for name in H4_PARAMS[fam.variant])
    return [f"{name} = {format_poly(v) if isinstance(v, Poly) else v}" for name, v in values]


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


def _cmd_verify(args) -> Tuple[int, str]:
    target = _load(args.path)
    window = args.window
    if window is None:
        limit = spec_window(target)
        window = 3 if not limit else min(3, limit)
    report = verify_module(target, window=window, test_degree=args.test_degree)
    return (0 if report.passed else 1), format_report(report) + "\n"


def _cmd_classify(args) -> Tuple[int, str]:
    target = _load(args.path)
    if not isinstance(target, ActionData):
        raise ConstraintViolation("classify needs an action data document")
    result = classify(target)
    if isinstance(result, Classified):
        return 0, format_spec(result.spec)
    return 1, f"REJECTED {result.anchor}: {result.reason}\n"


def _cmd_irreducible(args) -> Tuple[int, str]:
    spec = _require_spec(_load(args.path), "irreducible")
    seed = None
    if args.seed_poly is not None:
        try:
            seed = parse_poly(args.seed_poly, module_variables(spec))
        except DslSyntaxError as exc:  # a position in the option, not in the document
            line = f", line {exc.line}" if exc.line != 1 else ""
            raise DslSyntaxError(f"--seed-poly{line}, col {exc.col}: {exc.message}") from exc
    reached = None  # the oracle runs first, so its request checks come first
    if args.max_degree is not None or args.cap_degree is not None:
        if seed is None or args.max_degree is None or args.cap_degree is None:
            raise ConstraintViolation(
                "the oracle needs --seed-poly, --max-degree and --cap-degree together"
            )
        reached = orbit_oracle(spec, seed, args.max_degree, args.cap_degree)
    verdict = decide(spec)
    derived = "true" if verdict.derived else "false"
    lines = [f"VERDICT {verdict.label} family={verdict.family} derived={derived}"]
    alg = algebra_of(spec)
    if verdict.irreducible:
        if seed is not None:
            lines.append(format_certificate(reduction_chain(spec, seed), alg))
    else:
        lines.append(format_witness(witness(spec), alg))
    if reached is not None:
        lines.append(f"ORACLE reachable={'true' if reached else 'false'}")
    return 0, "\n".join(lines) + "\n"


def _cmd_twist(args) -> Tuple[int, str]:
    spec = _require_spec(_load(args.path), "twist")
    return 0, format_spec(twist(spec))


def _cmd_iso(args) -> Tuple[int, str]:
    left = _require_spec(_load(args.left), "iso")
    right = _require_spec(_load(args.right), "iso")
    same = iso_check(left, right)
    return (0 if same else 1), f"ISO {'true' if same else 'false'}\n"


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
    """Run one command; stdout is written only once it has succeeded."""
    args = _build_argparser().parse_args(argv)
    try:
        code, text = _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
