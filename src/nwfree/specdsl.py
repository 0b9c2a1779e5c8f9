"""Text formats for specs, action data, and polynomials, plus the CLI.

Polynomial grammar (variables s, d, d0, w0):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INTEGER)?
    atom   := RATIONAL | VARIABLE | '(' expr ')'
    RATIONAL := INTEGER ('/' INTEGER)?

Tokens are read by one pattern, `_TOKEN`, trying in order: a newline; a
run of other whitespace (str.isspace()), which only separates tokens; an
INTEGER of ASCII digits, at most MAX_DIGITS of them; a word, characters
that are str.isalnum() or `_`, which is a VARIABLE when it starts with a
letter or `_` and otherwise (`²`, `٣`, `２`) an unexpected character; an
operator `+ - * ^ ( ) /`; and any other character, unexpected too.  An
end token placed just after the text ends the tokens, and the errors for
a missing token (`unexpected end of polynomial`, `expected ')'`) point there.

The reader works on integer maps: every atom, sum, product and power is
an (integer map, den) pair, nonzero numerators keyed by exponents over a
positive den reduced as `Poly._trusted` reduces it, and a product is
`exactpoly._mul`.  `parse_poly` builds one `Poly` per
value, from the whole value's pair.  Each check below reads the pairs as
it would read their `Poly`s.  `parse_poly` checks its variables for a
duplicate name; action data checks its tuple once per document, and a
spec key's polynomial kind once when it is built, and both read values
through `_parse_poly`, which checks none.

A value in the shape `format_terms` writes, a sum of monomials such as
`-1/3*s^2*d+9*s-3`, is read first by `_read_sum`, in one pass over the
text with no tokens, into one (integer map, den) pair and one `Poly`.  It
runs when `parse_poly` is given its variables, and takes a text only when
it can show that the full reader would accept it with the same value:
terms `c*v^e*...` joined by `+` or `-`, with no leading `+`, no empty
term and no space; a coefficient only as the first factor, its numerals
of at most MAX_DIGITS ASCII digits and its denominator nonzero; each
variable one of the given ASCII names, at most once per monomial, with an
exponent of 1 to MAX_DEGREE written without a leading zero; each monomial
of degree at most MAX_DEGREE, and the monomials distinct, as
`format_terms` writes them; at most MAX_TERM_WORK work, counted as
`multiply` charges a monomial (its `^` exponents and its `*`s); and the
common denominator within the limit `expr` checks.  It declines
everything else, parentheses, powers of sums and every error among them,
to `_tokenize` and `_PolyParser`, so each error comes from one reader; a
repeated monomial goes there too, and `expr` merges it, the one code
that merges terms.  A monomial's graded-lex key and work come from one
table, `_monomial`, keyed by (variables, monomial text), the inverse of
`exactpoly._monomial_text` with its bound, MAX_MONOMIAL_TEXTS: its
per-factor checks run only the first time a text is met, and a text it
declines is not kept.  Each term's key is compared with the one before,
so terms that arrive in the descending order `format_terms` writes are
not sorted again, and any other order is.

A power whose degree would pass MAX_DEGREE is a syntax error at its
exponent, and a product whose degree would pass it is one at its `*`.
One polynomial value may multiply at most MAX_TERM_WORK term pairs,
counted over all its products and powers: the multiplication that passes
it is a syntax error at its `*` or `^`, before it computes.  A sum
merges its terms into one table of reduced fractions, so each `+` or
`-` costs only its right operand's terms.  A product or a sum with a
coefficient whose numerator or denominator, in lowest terms, has more
than MAX_DIGITS digits, or whose common denominator (for a sum, the lcm
of its summands') has more than MAX_DENOMINATOR_DIGITS, is a syntax error
at its `*`, `+` or `-`, and a power at each of its multiplications, at
its `^`.  Parentheses and unary minus nested more than MAX_NESTING deep,
counted together, are a syntax error at the `(` or `-` that passes the
limit.  So no document makes the parser multiply or recurse without
bound.  A rational parameter is a RATIONAL with an optional sign, each
numeral at most MAX_DIGITS ASCII digits (no decimal point, exponent or
underscore); anything else is a syntax error at the value.  A window and
a loop index (`beta.-2`, `p@1`) follow one rule, `liealg.parse_loop_index`:
an optional `-`, then ASCII digits, with no `+`, `_` or other digits;
anything else is a syntax error at the window's value or the index's key.

Spec and action documents are line-oriented `key = value` text with `#`
comments.  Spec documents name an algebra and a family and list its
parameters; beta and f sequences use explicit integer suffixes
(`beta.-2 = 1/3`) and every in-window index must be listed, except the
forced entries beta.0 and f.0 which may be omitted.  Each family's keys,
in written order, are one entry of `_SCHEMAS`, which both `parse_spec`
and `format_spec` walk.  Action documents list generator values
directly (`p@1 = 2*s`) under `algebra` and `window` headers.  The reader
splits each line once, at its `#` and then its first `=`, and keeps the
entries in line order.  An action key's symbol, with the name
`format_symbol` writes for it, comes from one table, `_symbol`, keyed by
(key text, algebra), of at most MAX_SYMBOL_TEXTS entries, which
`liealg.parse_symbol` fills only when it succeeds, so a bad key raises at
its own line and column every time; a repeated generator is found by its
name, so each symbol is hashed once, when its value is stored.

A value of at most MAX_VALUE_TEXT_LENGTH characters is read once per
process: the value table, `_value`, keyed by (value text, variables), of
at most MAX_VALUE_TEXTS entries, keeps the `Poly` that `_read_sum` reads
and nothing it declines.  A hit returns that one `Poly`, so documents may
share their values; a declined text goes to the full reader every time,
which raises at the value's own line and column.

A document of at most MAX_DOCUMENT_TEXT_LENGTH characters with no `(`
is read once per process too: the document table, `_document`, keyed by
document text, of at most MAX_DOCUMENT_TEXTS entries, is `parse_input`'s
reader.  A hit returns the one spec or `ActionData` read before, with
the form table that earlier requests filled, so a repeated document costs
neither parsing nor any x.1, nor, at a window verified before, any pair.
Without a `(` every value is a sum of monomials, so what a kept document
makes grows with its text.
`parse_spec` and `parse_actions` do not read through it.

The symbol and monomial tables hold strings, tuples and symbols, the
value table immutable `Poly`s, and the document table immutable specs and
`ActionData` with their form tables, which readers never modify.  None
keeps an error: a bad text raises at its own line and column every time.
"""

import functools
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, NamedTuple, Tuple

from . import InputError
from .classify import Classified, classify, iso_check, twist
from .exactpoly import (
    MAX_MONOMIAL_TEXTS,
    NEG_INF,
    Poly,
    _distinct,
    _mul,
    _reduced,
    format_poly,
    format_rational,
)
from .irreducible import (
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
    H4_PARAMS,
    MAX_WINDOW,
    MODULE_VARIABLES,
    ActionData,
    ConstraintViolation,
    H4Family,
    SpecInvalid,
    Vir00Spec,
    affvir,
    algebra_of,
    data_window_limit,
    integer_argument,
    module_variables,
    mtilde,
    mtilde_f,
)
from .verify import format_report, verify_module


class DslSyntaxError(InputError, SyntaxError):
    """Parse failure with a 1-based line and column."""


class UnknownVariable(DslSyntaxError):
    pass


_ALLOWED_VARIABLES = ("s", "d", "d0", "w0")

# Largest degree a power may reach (a constant base counts as degree 1).
MAX_DEGREE = 64

# Most term pairs one polynomial value may multiply, summed over every
# multiplication of its products and powers.  Each `*` copies its whole
# result, so without this a short line of steps on one large value, such
# as (s+d+1)^64 followed by many `*1`, runs on for seconds.  It refuses
# (c*s+c*d+c)^32*(c*s+c*d+c)^32, 561 by 561 terms, before multiplying.
# (s+d+d0+1)^31 multiplies 185,504 pairs, and (s+d+1)^64 137,280.  A
# value in two variables written out term by term, as format_actions
# writes it, multiplies at most 95,810: a+b+2 for each of the 2,145
# terms c*s^a*d^b with a+b <= 64.
MAX_TERM_WORK = 200000

# Longest numeral a polynomial may hold; int() refuses more than 4,300 digits.
# Sums, products and powers keep each coefficient's numerator and denominator,
# in lowest terms, below 10^MAX_DIGITS.
MAX_DIGITS = 1000
_DIGIT_BOUND = 10 ** MAX_DIGITS

# Longest common denominator of one value's coefficients.  A value keeps
# integer numerators over it, so each coprime denominator lengthens them
# all: without this limit, 200 coprime 1000-digit ones on 200 monomials
# take 34 s to parse and print on a 2-vCPU Xeon VM.  Ten on ten fit.
MAX_DENOMINATOR_DIGITS = 10 * MAX_DIGITS
_DENOMINATOR_BOUND = 10 ** MAX_DENOMINATOR_DIGITS

# Deepest nesting of parentheses and unary minus, counted together.  The
# parser recurses through four frames per parenthesis, so this stays well
# inside the interpreter's default recursion limit of 1000.
MAX_NESTING = 100

# The tokens of the module docstring, in the order tried.
_TOKEN = re.compile(r"\n|[^\S\n]+|[0-9]+|\w+|[-+*^()/]|.")


@dataclass
class _Token:
    kind: str  # num | ident | op | end
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int, col: int):
    """The tokens of `text`, positioned from (line, col), then the end token.

    `_TOKEN` cuts the text into pieces, and the first character of a piece
    names its kind.
    """
    tokens = []
    for piece in _TOKEN.findall(text):
        first = piece[0]
        if first == "\n":
            line, col = line + 1, 1
            continue
        if first in "0123456789":
            if len(piece) > MAX_DIGITS:
                raise DslSyntaxError(
                    f"numeral of {len(piece)} digits exceeds the limit {MAX_DIGITS}", line, col
                )
            tokens.append(_Token("num", piece, line, col))
        elif first.isalpha() or first == "_":
            tokens.append(_Token("ident", piece, line, col))
        elif first in "+-*^()/":
            tokens.append(_Token("op", piece, line, col))
        elif not first.isspace():  # a word that starts otherwise, or any other character
            raise DslSyntaxError(f"unexpected character {first!r}", line, col)
        col += len(piece)
    tokens.append(_Token("end", "", line, col))
    return tokens


def _degree(ints: dict):
    """The total degree of a zero-free integer map, NEG_INF when it is empty."""
    return max(map(sum, ints), default=NEG_INF)


class _PolyParser:
    """Each rule returns its value as a `_reduced` (integer map, den) pair,
    so its degree, term count and denominator read as on its `Poly`."""

    def __init__(self, tokens, variables):
        self.tokens = tokens  # ending in the end token, which is taken only to fail at it
        self.i = 0
        self.variables = variables
        self.zeros = (0,) * len(variables)
        self.depth = 0  # open parentheses and unary minus signs
        self.work = 0  # term pairs multiplied so far, against MAX_TERM_WORK

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def fail(self, message, tok):
        raise DslSyntaxError(message, tok.line, tok.col)

    def nest(self, tok) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting exceeds the limit {MAX_NESTING}", tok)

    def bounded(self, coefficients, den: int, what: str, tok) -> None:
        """Fail past MAX_DENOMINATOR_DIGITS in den or MAX_DIGITS in a reduced coefficient."""
        if den >= _DENOMINATOR_BOUND:
            self.fail(f"{what} exceeds the denominator limit {MAX_DENOMINATOR_DIGITS}", tok)
        for n, d in coefficients:
            if abs(n) >= _DIGIT_BOUND or d >= _DIGIT_BOUND:
                g = gcd(n, d)
                if abs(n) // g >= _DIGIT_BOUND or d // g >= _DIGIT_BOUND:
                    self.fail(f"{what} exceeds the digit limit {MAX_DIGITS}", tok)

    def multiply(self, a, b, what: str, tok):
        (x, xden), (y, yden) = a, b
        self.work += len(x) * len(y)
        if self.work > MAX_TERM_WORK:
            self.fail(f"polynomial exceeds the term-work limit {MAX_TERM_WORK}", tok)
        ints, den = _reduced(_mul(x, y.items()), xden * yden)
        self.bounded(((n, den) for n in ints.values()), den, what, tok)
        return ints, den

    def expr(self):
        value = self.term()
        table = None  # once a sign follows, each term's (numerator, denominator), merged in place
        while True:
            tok = self.peek()
            if tok.text not in ("+", "-"):
                if table is None:
                    return value
                return _reduced({exps: n * (den // d) for exps, (n, d) in table.items()}, den)
            self.take()
            rhs, b = self.term()
            if table is None:
                ints, den = value
                table = {exps: (n, den) for exps, n in ints.items()}
            den = lcm(den, b)  # a multiple of every term's denominator
            sign = 1 if tok.text == "+" else -1
            for exps, n in rhs.items():
                p, q = table.get(exps, (0, 1))
                p, q = p * b + sign * n * q, q * b  # p/q +- n/b
                g = gcd(p, q)
                table[exps] = p // g, q // g
            self.bounded((table[exps] for exps in rhs), den, "sum", tok)

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.text != "*":
                return value
            self.take()
            rhs = self.factor()
            if _degree(value[0]) + _degree(rhs[0]) > MAX_DEGREE:
                self.fail(f"product exceeds the degree limit {MAX_DEGREE}", tok)
            value = self.multiply(value, rhs, "product", tok)

    def factor(self):
        tok = self.peek()
        if tok.text == "-":
            self.take()
            self.nest(tok)
            ints, den = self.factor()
            self.depth -= 1
            return {exps: -n for exps, n in ints.items()}, den
        value = self.atom()
        tok = self.peek()
        if tok.text == "^":
            self.take()
            exponent = self.take()
            if exponent.kind != "num":
                self.fail("expected an integer exponent after '^'", exponent)
            n = int(exponent.text)
            if n * max(_degree(value[0]), 1) > MAX_DEGREE:
                self.fail(f"power ^{n} exceeds the degree limit {MAX_DEGREE}", exponent)
            # as Poly.__pow__ does, but checked at every multiplication
            base, value = value, ({self.zeros: 1}, 1)
            for _ in range(n):
                value = self.multiply(value, base, "power", tok)
        return value

    def atom(self):
        tok = self.take()
        if tok.kind == "num":
            n, den = int(tok.text), 1
            if self.peek().text == "/":
                self.take()
                denominator = self.take()
                if denominator.kind != "num":
                    self.fail("expected an integer denominator after '/'", denominator)
                den = int(denominator.text)
                if den == 0:
                    self.fail("zero denominator", denominator)
            return _reduced({self.zeros: n}, den)
        if tok.kind == "ident":
            if tok.text not in self.variables:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
            i = self.variables.index(tok.text)
            return {self.zeros[:i] + (1,) + self.zeros[i + 1:]: 1}, 1
        if tok.text == "(":
            self.nest(tok)
            value = self.expr()
            closing = self.take()
            if closing.text != ")":
                self.fail("expected ')'", closing)
            self.depth -= 1
            return value
        if tok.kind == "end":
            self.fail("unexpected end of polynomial", tok)
        self.fail(f"unexpected {tok.text!r}", tok)


# The exponents `_read_sum` takes, by their text as `format_terms` writes them.
_EXPONENT_TEXTS = {str(e): e for e in range(1, MAX_DEGREE + 1)}


@functools.lru_cache(maxsize=MAX_MONOMIAL_TEXTS)
def _monomial(variables, text: str):
    """(key, work) of a monic monomial such as `s^2*d`, the inverse of
    `exactpoly._monomial_text`; ValueError, which the table does not keep,
    for a text `_read_sum` declines.  The key is the monomial's graded-lex
    sort key, (degree, exponents), and work is charged as
    `_PolyParser.multiply` charges the monomial: its `^` exponents and its `*`s."""
    exps = [0] * len(variables)
    work = text.count("*")
    for factor in text.split("*"):
        name, caret, e = factor.partition("^")
        if not (name in variables and name.isascii() and name.isidentifier()):
            raise ValueError(text)
        e = _EXPONENT_TEXTS.get(e) if caret else 1
        i = variables.index(name)
        if e is None or exps[i]:
            raise ValueError(text)
        exps[i] = e
        if caret:
            work += e
    degree = sum(exps)
    if degree > MAX_DEGREE:
        raise ValueError(text)
    return (degree, tuple(exps)), work


def _read_sum(text: str, variables):
    """The `Poly` of a sum of monomials, read in one pass, or None.

    It takes the shape `format_terms` writes, such as `-1/3*s^2*d+9*s-3`,
    and returns None, for the full reader to take, unless that reader
    would accept `text` with the same value: see the module docstring.
    """
    constant = 0, (0,) * len(variables)  # the graded-lex key of a constant term
    last = (MAX_DEGREE + 1,)  # the key of the term before, above every monomial's
    ordered = True  # whether each term's key is below the one before, as `format_terms` writes them
    table = {}  # exponents -> the coefficient (numerator, denominator), in lowest terms
    den = 1  # the lcm of the terms' denominators, as `_PolyParser.expr` takes it
    work = 0  # as `_PolyParser.multiply` charges a monomial: its `^` exponents and its `*`s
    pieces = text.replace("-", "+-").split("+")
    if not pieces[0]:  # a leading sign, or no text
        if not text.startswith("-"):
            return None
        del pieces[0]
    for piece in pieces:
        negative = piece.startswith("-")
        if negative:
            piece = piece[1:]
        coefficient, star, monomial = piece.partition("*")
        num, slash, low = coefficient.partition("/")
        n = b = 1
        if num.isdigit() and num.isascii():
            if len(num) > MAX_DIGITS:
                return None
            n = int(num)
            if slash:
                if not (low.isdigit() and low.isascii()) or len(low) > MAX_DIGITS:
                    return None
                b = int(low)
                if not b:
                    return None
                g = gcd(n, b)
                n, b = n // g, b // g
            if star:
                work += 1  # the `*` that takes the monomial
            else:  # a constant term
                monomial = None
        else:  # no coefficient: the whole piece is the monomial
            monomial = piece
        key = constant
        if monomial is not None:
            try:
                key, cost = _monomial(variables, monomial)
            except ValueError:
                return None
            work += cost
        if key >= last:
            ordered = False
        last = key
        exps = key[1]
        if negative:
            n = -n
        if exps in table:  # a repeated monomial, which the full reader merges
            return None
        if b != 1:
            den = lcm(den, b)
        table[exps] = n, b
    if work > MAX_TERM_WORK or den >= _DENOMINATOR_BOUND:
        return None
    pairs = [(exps, n * (den // b)) for exps, (n, b) in table.items()]
    return Poly._trusted(variables, pairs, den, ordered)


def parse_poly(text: str, variables=None, line: int = 1, col: int = 1) -> Poly:
    """Parse the polynomial grammar; positions offset by (line, col)."""
    return _parse_poly(text, None if variables is None else _distinct(variables), line, col)


# Distinct (value text, variables) pairs whose `Poly` the value table keeps,
# and the longest text it keeps; bounds, not tuning knobs.  It keeps only
# what `_read_sum` reads, whose size grows with its text, never what the
# full reader makes: a text as short as `(s+d+1)^64` has 2,145 terms.
MAX_VALUE_TEXTS = 256
MAX_VALUE_TEXT_LENGTH = 64


@functools.lru_cache(maxsize=MAX_VALUE_TEXTS)
def _value(text: str, variables) -> Poly:
    """The `Poly` that `_read_sum` reads from `text`; ValueError, which the
    table does not keep, where it declines."""
    value = _read_sum(text, variables)
    if value is None:
        raise ValueError(text)
    return value


def _parse_poly(text: str, variables, line: int, col: int) -> Poly:
    """`parse_poly` over a variable tuple that `_distinct` has already
    checked, or None: a document checks its tuple once, not per value."""
    if variables is not None:
        # a longer text is read by the same function, and not kept
        read = _value if len(text) <= MAX_VALUE_TEXT_LENGTH else _value.__wrapped__
        try:
            return read(text, variables)
        except ValueError:  # declined: the full reader reads it, at its own position
            pass
    tokens = _tokenize(text, line, col)
    if len(tokens) == 1:
        raise DslSyntaxError("empty polynomial", line, col)
    if variables is None:
        for tok in tokens:
            if tok.kind == "ident" and tok.text not in _ALLOWED_VARIABLES:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
        mentioned = {tok.text for tok in tokens if tok.kind == "ident"}
        variables = tuple(v for v in _ALLOWED_VARIABLES if v in mentioned)
    parser = _PolyParser(tokens, variables)
    ints, den = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        parser.fail(f"unexpected {trailing.text!r}", trailing)
    return Poly._trusted(variables, ints.items(), den)


# RATIONAL with an optional sign, in ASCII digits, with a nonzero denominator.
_RATIONAL = re.compile(r"[+-]?([0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_rational(text: str, line: int = 1, col: int = 1) -> Fraction:
    """A RATIONAL whose numerals have at most MAX_DIGITS digits each."""
    text = text.strip()
    match = _RATIONAL.fullmatch(text)
    if match and max(map(len, match.groups(""))) <= MAX_DIGITS:
        return Fraction(text)
    raise DslSyntaxError(f"expected a rational number, got {text!r}", line, col)


# --------------------------------------------------------------- documents


@dataclass
class _Entry:
    key: str
    value: str
    line: int
    key_col: int
    value_col: int


def _read_document(text: str):
    """The entries of a document in line order, each line split once: its
    text before any `#`, at its first `=`."""
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, got {type(text).__name__}")
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key_part, eq, value_part = raw.partition("#")[0].partition("=")
        if not eq:
            if key_part.strip():
                col = len(raw) - len(raw.lstrip()) + 1
                raise DslSyntaxError("expected `key = value`", lineno, col)
            continue
        key = key_part.strip()
        value = value_part.strip()
        if not key:
            raise DslSyntaxError("missing key before '='", lineno, 1)
        if not value:
            raise DslSyntaxError(f"missing value for {key}", lineno, len(key_part) + 2)
        # the value's first occurrence from the `=` on: the `=` itself for a value such as `=`
        value_col = raw.index(value, len(key_part)) + 1
        entries.append(_Entry(key, value, lineno, key_part.index(key) + 1, value_col))
    return entries


def _entry_map(entries):
    out = {}
    for entry in entries:
        if entry.key in out:
            raise DslSyntaxError(f"duplicate key {entry.key}", entry.line, entry.key_col)
        out[entry.key] = entry
    return out


_WORD = re.compile(r"[A-Za-z0-9_.-]+")


def _construct(call, taken, fallback: _Entry):
    """Run a constructor; its error points at the first word of its message
    that is a taken key, else at `fallback`'s key.  A word is a match of
    `_WORD`, so `beta.-2` is one word and `b` is no word inside it."""
    try:
        return call()
    except ConstraintViolation as exc:
        named = [taken[word] for word in _WORD.findall(exc.message) if word in taken]
        entry = named[0] if named else fallback
        raise type(exc)(exc.message, entry.line, entry.key_col) from exc


def _window_value(entry: _Entry, low: int = 1, high: int = MAX_WINDOW) -> int:
    """The window's text by `parse_loop_index`, then the one window rule; errors at the value."""
    try:
        window = parse_loop_index(entry.value)
    except ValueError:
        raise DslSyntaxError("window must be an integer", entry.line, entry.value_col) from None
    at_value = partial(ConstraintViolation, line=entry.line, col=entry.value_col)
    return integer_argument(window, "window", low, high, at_value)


_Kind = namedtuple("_Kind", "read write")  # the value of an entry, the text of a value
_RATIONAL_VALUE = _Kind(lambda e: parse_rational(e.value, e.line, e.value_col), format_rational)
_BASE = None  # the kind of an H4 base: `base = <variant>`, then that variant's keys


def _poly_value(*variables) -> _Kind:
    variables = _distinct(variables)
    return _Kind(lambda e: _parse_poly(e.value, variables, e.line, e.value_col), format_poly)


class _Key(NamedTuple):
    name: str
    kind: _Kind  # or _BASE
    attr: str  # the attribute path where the spec keeps the value
    sequence: bool = False  # written as `name.k`, one line per loop index k


class _Schema(NamedTuple):
    algebra: str
    build: Callable  # the spec from the keys' values, in order
    keys: Tuple[_Key, ...]  # in written order


def _h4_schema(variant) -> _Schema:
    names = H4_PARAMS[variant]
    keys = tuple(_Key(n, _poly_value("s") if n == "g" else _RATIONAL_VALUE, n) for n in names)
    return _Schema(H4, lambda *values: H4Family(variant, **dict(zip(names, values))), keys)


_WINDOW_KEY = _Key("window", _Kind(_window_value, str), "window")

# Every family's document, keyed by the family name, which specs keep as `variant`.
_SCHEMAS = {
    **{variant: _h4_schema(variant) for variant in H4_PARAMS},
    "MTildeAlphaBeta": _Schema(AFFINE_H4, mtilde, (
        _Key("base", _BASE, "base"),
        _Key("alpha", _RATIONAL_VALUE, "alpha"),
        _Key("beta", _RATIONAL_VALUE, "beta", sequence=True),
        _WINDOW_KEY,
    )),
    "MTildeF": _Schema(AFFINE_H4, mtilde_f, (
        _Key("f", _poly_value("s"), "fseq", sequence=True),
        _WINDOW_KEY,
    )),
    "MLambdaF": _Schema(VIR00, Vir00Spec, (
        _Key("lambda", _RATIONAL_VALUE, "lam"),
        _Key("fpoly", _poly_value("w0"), "fpoly"),
    )),
    "MTildeLambda": _Schema(AFF_VIR, affvir, (
        _Key("base", _BASE, "base.base"),
        _Key("alpha", _RATIONAL_VALUE, "base.alpha"),
        _Key("lambda", _RATIONAL_VALUE, "lambda_shift"),
        _WINDOW_KEY,
    )),
}


class _SpecBuilder:
    """Pulls typed values out of the entry map and tracks their positions."""

    def __init__(self, emap, family_entry):
        self.emap = emap
        self.family_entry = family_entry
        self.taken = {}

    def grab(self, key) -> _Entry:
        entry = self.emap.pop(key, None)
        if entry is None:
            raise ConstraintViolation(
                f"family {self.family_entry.value} requires {key}",
                self.family_entry.line,
                self.family_entry.key_col,
            )
        self.taken[key] = entry
        return entry

    def indexed(self, prefix):
        """The `prefix.k` entries by index k, in line order; a malformed index fails first."""
        found = []
        for key in list(self.emap):
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
            found.append((index, entry))
        out = {}
        # `beta.1` and `beta.01` name one index: the later line repeats it
        for index, entry in found:
            if index in out:
                raise DslSyntaxError(
                    f"duplicate loop index {prefix}.{index}", entry.line, entry.key_col
                )
            out[index] = entry
            # constructor messages name the index as `beta.2`, whatever the key wrote
            self.taken[f"{prefix}.{index}"] = entry
        return out

    def build(self, schema: _Schema):
        """The schema's spec.  Sequences are read after every other key, so a
        missing window comes first; a base is built once its keys are read."""
        values = dict.fromkeys(key.name for key in schema.keys)  # in written order
        for key in sorted(schema.keys, key=lambda key: key.sequence):
            if key.sequence:
                values[key.name] = {k: key.kind.read(e) for k, e in self.indexed(key.name).items()}
            elif key.kind is _BASE:
                entry = self.grab(key.name)
                if entry.value not in H4_PARAMS:
                    raise ConstraintViolation(
                        f"unknown base family {entry.value}", entry.line, entry.value_col
                    )
                values[key.name] = self.build(_SCHEMAS[entry.value])
            else:
                values[key.name] = key.kind.read(self.grab(key.name))
        return _construct(lambda: schema.build(*values.values()), self.taken, self.family_entry)


def _build_spec(entries):
    emap = _entry_map(entries)
    algebra_entry = emap.pop("algebra", None)
    family_entry = emap.pop("family", None)
    if algebra_entry is None:
        raise ConstraintViolation("algebra key is required", 1, 1)
    if family_entry is None:
        raise ConstraintViolation("family key is required", 1, 1)
    family = family_entry.value
    schema = _SCHEMAS.get(family)
    if schema is None:
        raise ConstraintViolation(
            f"unknown family {family}", family_entry.line, family_entry.value_col
        )
    if algebra_entry.value != schema.algebra:
        raise ConstraintViolation(
            f"family {family} belongs to algebra {schema.algebra}",
            algebra_entry.line,
            algebra_entry.value_col,
        )
    builder = _SpecBuilder(emap, family_entry)
    spec = builder.build(schema)
    if builder.emap:
        leftover = next(iter(builder.emap.values()))  # the first in line order
        raise ConstraintViolation(
            f"key {leftover.key} is not used by family {family}",
            leftover.line,
            leftover.key_col,
        )
    return spec


def parse_spec(text: str):
    """Parse a spec document into a validated module spec."""
    return _build_spec(_read_document(text))


# Distinct (key text, algebra) pairs whose symbol the action reader keeps;
# a bound, not a tuning knob.
MAX_SYMBOL_TEXTS = 1024


@functools.lru_cache(maxsize=MAX_SYMBOL_TEXTS)
def _symbol(text: str, algebra: str):
    """(symbol, name) of an action key: the symbol `parse_symbol` reads and
    the name `format_symbol` writes for it, a str, which keeps its hash once
    taken.  `lru_cache` keeps only what returns, so a key `parse_symbol`
    refuses raises afresh, at its own line and column."""
    symbol = parse_symbol(text, algebra)
    return symbol, format_symbol(symbol, algebra)


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
        window = _window_value(window_entry, 0, data_window_limit(algebra))
    variables = _distinct(MODULE_VARIABLES[algebra])
    assignments = {}
    names = set()  # of the generators assigned so far, so each symbol is hashed once, by its store
    for entry in emap.values():  # in line order
        try:
            symbol, name = _symbol(entry.key, algebra)
        except SymbolNotInAlgebra as exc:
            raise DslSyntaxError(str(exc), entry.line, entry.key_col) from exc
        if name in names:
            # `p` and `p@0` name one generator: the later line repeats it
            raise DslSyntaxError(f"duplicate assignment for {name}", entry.line, entry.key_col)
        names.add(name)
        if abs(symbol.loop_index) > window:
            raise ConstraintViolation(
                f"{name} lies outside window {window}", entry.line, entry.key_col
            )
        assignments[symbol] = _parse_poly(entry.value, variables, entry.line, entry.value_col)
    return ActionData._checked(algebra, window, assignments)


def parse_actions(text: str) -> ActionData:
    """Parse an action data document."""
    return _build_actions(_read_document(text))


# Distinct document texts whose spec or `ActionData` the document table
# keeps, and the longest text it keeps; bounds, not tuning knobs.  It keeps
# no text with a `(`: without one every value is a sum of monomials, so
# what a document makes, forms included, grows with its text, while
# `(s+d+1)^64` is ten characters and 2,145 terms.
MAX_DOCUMENT_TEXTS = 32
MAX_DOCUMENT_TEXT_LENGTH = 1024


@functools.lru_cache(maxsize=MAX_DOCUMENT_TEXTS)
def _document(text: str):
    """Spec documents carry a `family` key; anything else is action data."""
    entries = _read_document(text)
    if any(entry.key == "family" for entry in entries):
        return _build_spec(entries)
    return _build_actions(entries)


def parse_input(text: str):
    """The spec or `ActionData` of a document, read once per process when
    the document table takes its text: a later read returns the same
    object, with the form table earlier requests filled, so
    `parse_input(t) is parse_input(t)`."""
    if isinstance(text, str) and len(text) <= MAX_DOCUMENT_TEXT_LENGTH and "(" not in text:
        return _document(text)
    return _document.__wrapped__(text)  # TypeError for a text that is no str


# -------------------------------------------------------------- formatting


def _key_lines(spec, schema: _Schema):
    for key in schema.keys:
        value = attrgetter(key.attr)(spec)
        if key.kind is _BASE:
            yield f"base = {value.variant}"
            yield from _key_lines(value, _SCHEMAS[value.variant])
        elif key.sequence:
            yield from (f"{key.name}.{k} = {key.kind.write(v)}" for k, v in value)
        else:
            yield f"{key.name} = {key.kind.write(value)}"


def format_spec(spec) -> str:
    """Canonical document for a spec.

    It parses back to an equal spec while every numeral in it has at most
    MAX_DIGITS digits: `mab(10 ** 5000 + 7, 1)` formats, but parse_spec
    refuses its text."""
    schema = _SCHEMAS.get(getattr(spec, "variant", None))
    if schema is None:
        raise SpecInvalid(f"cannot format a {type(spec).__name__}")
    lines = [f"algebra = {schema.algebra}", f"family = {spec.variant}", *_key_lines(spec, schema)]
    return "\n".join(lines) + "\n"


def format_actions(data: ActionData) -> str:
    lines = [f"algebra = {data.algebra}", f"window = {data.window}"]
    for symbol, value in data.assignments:
        lines.append(f"{format_symbol(symbol, data.algebra)} = {format_poly(value)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- CLI


def _build_argparser() -> "argparse.ArgumentParser":
    import argparse  # here, so importing the package does not pay for it

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
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # positioned as the parser counts: "?" is the bad byte
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        message = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise DslSyntaxError(message, len(lines), len(lines[-1])) from None
    return parse_input(text)


def _require_spec(target, command: str):
    if isinstance(target, ActionData):
        raise ConstraintViolation(f"{command} needs a family spec document, not action data")
    return target


def _cmd_verify(args) -> Tuple[int, str]:
    target = _load(args.path)
    window = args.window
    if window is None:
        limit = target.window
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
        text = "--" if args.seed_poly == [] else args.seed_poly  # as argparse < 3.12 reads it
        try:
            seed = parse_poly(text, module_variables(spec))
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
    # argparse takes a seed such as `-s+1` for an option: join it to its flag,
    # which may be any abbreviation of --seed-poly from `--s` on
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and len(joined[-1]) >= 3 and "--seed-poly".startswith(joined[-1]):
            arg = f"{joined.pop()}={arg}"
        joined.append(arg)
    args = _build_argparser().parse_args(joined)
    try:
        code, text = _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
