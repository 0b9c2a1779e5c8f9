"""Exact sparse polynomials over the rationals, plus shift substitutions.

Every polynomial lives in a fixed ordered variable set, one of ("s",),
("s", "d"), or ("d0", "w0") in this package.  Terms are stored as a tuple
of (exponent vector, coefficient) pairs in descending graded lexicographic
order with no zero coefficients, so equal polynomials are structurally
equal, and every value is immutable and hashable.

Scalars are `fractions.Fraction`; arithmetic is exact, nothing is ever
rounded.  The degree of the zero polynomial is the NEG_INF sentinel, not
-1, so the degree bookkeeping below stays clean:

    deg(tau(x) - x) = deg(x) - 1      for non-constant x,

where tau is the shift s -> s - 1.  A shift substitutes v -> v + c per
variable, so it is an offset vector of integers, one per variable in the
polynomial's variable order, and shifts compose by adding their vectors;
`negate_var` substitutes v -> -v.

Shifting and multiplying are done on integers, by one kernel:
`_shift_mul(ints, offsets, factor)` shifts an integer polynomial
{exponents: int} with `_taylor_shift` (a Horner-type recurrence along
dense coefficient rows) and multiplies it by the integer factor.
`Poly.__mul__` clears each side's denominators once (`_integer_terms`),
runs the kernel with zero offsets and builds one Fraction per output term
(`_from_integer_terms`); `apply_shift` runs the shift alone.  Every
action here is shift-then-multiply, and one function, `modfam._image`,
takes every generator image on integers from a generator's integer form:
`act` and so `classify`'s product rule, `apply_chain_op`, the witness,
the orbit oracle and `verify_module`'s R.  Only `_image` and a verify
report's failing residuals sigma(v) * R, built when the report is read,
call `_shift_mul` with a nonzero shift; the witness shifts only its ideal
generator, through `_image`, and takes each closure image from the one
before it.  `verify_module` and `modfam._act_sum` sum such integer
images, each with a rational factor, over one common denominator with
`_combine`.

The public `Poly(...)` constructor validates and canonicalizes any
mapping or sequence of terms.  Everything else builds canonical results
directly through `Poly._trusted`, which only drops zero coefficients and
sorts two or more terms.  Internal arithmetic (`+`, `-`, `*`, unary `-`,
`apply_shift`, `change_variables`, `negate_var`, `coefficient_in` and the
shifted monomials of `reduce_mod_univariate`) already holds merged terms
over one variable set.  The one-term builders `zero`, `one`, `const` and
`var`, through which the parser builds every numeral and variable, and
the test monomials of `monomials_upto` check their own arguments instead:
distinct variables, an int or Fraction value, a known variable name.

Every formatter of the package writes polynomials through `format_poly`.
It reads each coefficient's sign and magnitude off its numerator and
denominator, and takes monomial text from `_monomial_text`, a table keyed
by (variables, exponents) that keeps at most MAX_MONOMIAL_TEXTS entries.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Tuple, Union

Exponents = Tuple[int, ...]
# v -> v + offset for each variable, offsets in the polynomial's variable order
Shift = Tuple[int, ...]
Scalar = Union[int, Fraction]

# Degree of the zero polynomial.  A dedicated sentinel, never -1.
NEG_INF = float("-inf")


class VariableMismatch(ValueError):
    """An operation mixed polynomials or shifts over incompatible variables."""


def _fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _distinct(variables: Iterable[str]) -> Tuple[str, ...]:
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise VariableMismatch(f"duplicate variable in {variables!r}")
    return variables


def _grlex(exps: Exponents) -> tuple:
    # Graded lexicographic sort key: total degree first, then lex on exponents.
    return (sum(exps), exps)


def _term_key(term) -> tuple:
    return _grlex(term[0])


@dataclass(frozen=True)
class Poly:
    """Sparse exact polynomial in a fixed ordered variable set.

    `terms` may be given as a mapping or an iterable of (exponents, coeff)
    pairs; it is normalized to the canonical descending graded-lex tuple.
    """

    variables: Tuple[str, ...]
    terms: Tuple[Tuple[Exponents, Fraction], ...] = ()

    def __post_init__(self) -> None:
        variables = _distinct(self.variables)
        raw = self.terms.items() if isinstance(self.terms, Mapping) else self.terms
        merged: dict[Exponents, Fraction] = {}
        for exps, coeff in raw:
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise VariableMismatch(
                    f"exponent vector {exps!r} does not fit variables {variables!r}"
                )
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps!r}")
            coeff = _fraction(coeff)
            if coeff:
                acc = merged.get(exps, Fraction(0)) + coeff
                if acc:
                    merged[exps] = acc
                else:
                    merged.pop(exps, None)
        canon = tuple(sorted(merged.items(), key=_term_key, reverse=True))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _trusted(cls, variables: Tuple[str, ...], terms) -> "Poly":
        """Terms already checked by the caller: drop zeros and sort, nothing else.

        `terms` is a sized collection (tuple, list or dict items) of
        (exponents, Fraction) pairs with distinct exponent tuples that fit
        `variables`; the caller guarantees it.  Zero or one term needs no sort.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "variables", variables)
        if len(terms) > 1:
            canon = tuple(sorted(((e, c) for e, c in terms if c), key=_term_key, reverse=True))
        else:
            canon = tuple(terms)
            if canon and not canon[0][1]:
                canon = ()
        object.__setattr__(out, "terms", canon)
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str]) -> "Poly":
        return Poly._trusted(_distinct(variables), ())

    @staticmethod
    def const(variables: Iterable[str], value: Scalar) -> "Poly":
        variables = _distinct(variables)
        return Poly._trusted(variables, (((0,) * len(variables), _fraction(value)),))

    @staticmethod
    def one(variables: Iterable[str]) -> "Poly":
        return Poly.const(variables, 1)

    @staticmethod
    def var(variables: Iterable[str], name: str) -> "Poly":
        variables = _distinct(variables)
        if name not in variables:
            raise VariableMismatch(f"{name!r} is not among {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return Poly._trusted(variables, ((exps, Fraction(1)),))

    @staticmethod
    def monomial(variables: Iterable[str], exps: Exponents, coeff: Scalar = 1) -> "Poly":
        return Poly(tuple(variables), {tuple(exps): _fraction(coeff)})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps, _ in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[0][1] if self.terms else Fraction(0)

    def coefficient(self, exps: Exponents) -> Fraction:
        exps = tuple(exps)
        for e, c in self.terms:
            if e == exps:
                return c
        return Fraction(0)

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(exps) for exps, _ in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _check_same(self, other: "Poly") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(
                f"variable sets differ: {self.variables!r} vs {other.variables!r}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms:
            acc[exps] = acc.get(exps, Fraction(0)) + coeff
        return Poly._trusted(self.variables, acc.items())

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.variables, [(e, -c) for e, c in self.terms])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fraction(other)
            return Poly._trusted(self.variables, [(e, c * v) for e, v in self.terms])
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        ints, scale_x = _integer_terms(self)
        factor, scale_w = _integer_terms(other)
        product = _shift_mul(ints, (0,) * len(self.variables), factor.items())
        return _from_integer_terms(self.variables, product, scale_x * scale_w)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Poly.one(self.variables)
        for _ in range(n):
            out = out * self
        return out

    def __str__(self) -> str:
        return format_poly(self)


def _integer_terms(x: Poly) -> Tuple[dict, int]:
    """x times the lcm L of its denominators, as {exponents: int}, and L."""
    scale = lcm(*[c.denominator for _, c in x.terms])
    if scale == 1:
        return {e: c.numerator for e, c in x.terms}, 1
    return {e: c.numerator * (scale // c.denominator) for e, c in x.terms}, scale


def _from_integer_terms(variables: Tuple[str, ...], ints: dict, scale: int) -> Poly:
    """The polynomial {exponents: int} / scale: one Fraction per nonzero term."""
    if scale == 1:  # Fraction(n) skips the gcd that Fraction(n, 1) takes
        return Poly._trusted(variables, [(e, Fraction(n)) for e, n in ints.items() if n])
    return Poly._trusted(variables, [(e, Fraction(n, scale)) for e, n in ints.items() if n])


def _taylor_shift(ints: dict, offsets: Shift) -> dict:
    """Substitute v -> v + offset in an integer polynomial {exponents: int}.

    `offsets` holds one integer per exponent position.  For each nonzero
    one, the terms are gathered into dense rows, one per exponent vector of
    the other variables, and each row a(v) becomes a(v + offset) by the
    Horner-type recurrence (von zur Gathen & Gerhard, ISSAC 1997).  The
    input map is never modified, and is returned as is when every offset is
    0; a shifted result has no zero entries.
    """
    for i, off in enumerate(offsets):
        if not off:
            continue
        rows: dict[Exponents, list] = {}
        for exps, n in ints.items():
            rest = exps[:i] + exps[i + 1:]
            row = rows.get(rest)
            if row is None:
                row = rows[rest] = []
            if len(row) <= exps[i]:
                row.extend([0] * (exps[i] + 1 - len(row)))
            row[exps[i]] = n
        ints = {}
        for rest, a in rows.items():
            deg = len(a) - 1
            # a(v) -> a(v + off) in place, a[j] the coefficient of v^j
            for k in range(deg):
                for j in range(deg - 1, k - 1, -1):
                    a[j] += off * a[j + 1]
            for e, n in enumerate(a):
                if n:
                    ints[rest[:i] + (e,) + rest[i:]] = n
    return ints


def _shift_mul(ints: dict, offsets: Shift, factor) -> dict:
    """shift(ints) * factor on integers, as {exponents: int}.

    `ints` is an integer polynomial {exponents: int}, `offsets` a shift
    for `_taylor_shift`, and `factor` a sequence of (exponents, int)
    pairs.  Entries that cancel stay in the result as 0.
    """
    out: dict = {}
    get = out.get
    for e1, c1 in _taylor_shift(ints, offsets).items():
        for e2, c2 in factor:
            key = tuple(map(add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return out


def _combine(parts) -> Tuple[dict, int]:
    """sum(num / den * ints) over one common denominator, on integers.

    `parts` is a sequence of (num, den, ints) with den > 0 and `ints` an
    integer polynomial {exponents: int}.  Returns the integer map and the
    lcm L of the dens, the sum being map / L; entries that cancel stay in
    the map as 0, and no parts give ({}, 1).
    """
    common = lcm(*[den for _, den, _ in parts])
    total: dict = {}
    get = total.get
    for num, den, ints in parts:
        num *= common // den
        for exps, n in ints.items():
            total[exps] = get(exps, 0) + num * n
    return total, common


def apply_shift(sh: Shift, x: Poly) -> Poly:
    """Substitute v -> v + sh[i] for the i-th variable v of x, exactly.

    An integer Taylor shift: the coefficients are scaled once by the lcm L
    of their denominators, `_taylor_shift` expands every shifted variable
    on the integer numerators, and one Fraction(n, L) is built per nonzero
    output term.
    """
    if len(sh) != len(x.variables):
        raise VariableMismatch(f"shift {sh!r} does not fit variables {x.variables!r}")
    if not any(sh) or x.is_zero():
        return x
    ints, scale = _integer_terms(x)
    return _from_integer_terms(x.variables, _taylor_shift(ints, sh), scale)


def negate_var(x: Poly, var: str) -> Poly:
    """Substitute var -> -var (an involution)."""
    if var not in x.variables:
        raise VariableMismatch(f"{var!r} is absent from {x.variables!r}")
    i = x.variables.index(var)
    return Poly._trusted(x.variables, [(e, c if e[i] % 2 == 0 else -c) for e, c in x.terms])


def degree_in(x: Poly, var: str):
    """Highest exponent of var, NEG_INF for the zero polynomial."""
    if x.is_zero():
        return NEG_INF
    if var not in x.variables:
        return 0
    i = x.variables.index(var)
    return max(exps[i] for exps, _ in x.terms)


def change_variables(x: Poly, variables: Iterable[str]) -> Poly:
    """Re-express x in another variable set; x itself when the set is the same.

    Variables may be added freely; a variable may only be dropped if it
    does not occur in x, so distinct exponent vectors stay distinct.
    """
    variables = tuple(variables)
    if variables == x.variables:
        return x
    for v in x.variables:
        if v not in variables and degree_in(x, v) not in (0, NEG_INF):
            raise VariableMismatch(f"cannot drop {v!r}, it occurs in {format_poly(x)}")
    variables = _distinct(variables)
    pos = [variables.index(v) if v in variables else None for v in x.variables]
    terms = []
    for exps, coeff in x.terms:
        key = [0] * len(variables)
        for i, e in zip(pos, exps):
            if e:
                key[i] = e
        terms.append((tuple(key), coeff))
    return Poly._trusted(variables, terms)


def coefficient_in(x: Poly, var: str, power: int) -> Poly:
    """The coefficient of var**power, as a polynomial with var removed from use."""
    if var not in x.variables:
        return x if power == 0 else Poly.zero(x.variables)
    i = x.variables.index(var)
    acc = {}
    for exps, coeff in x.terms:
        if exps[i] == power:
            key = list(exps)
            key[i] = 0
            acc[tuple(key)] = coeff
    return Poly._trusted(x.variables, acc.items())


def reduce_mod_univariate(x: Poly, w: Poly, var: str) -> Poly:
    """Remainder of x upon division by w, where w is univariate in var.

    The remainder is zero exactly when x lies in the principal ideal (w).
    """
    if w.is_zero():
        raise ValueError("division by the zero polynomial")
    w = change_variables(w, x.variables)
    i = x.variables.index(var)
    for exps, _ in w.terms:
        if any(e != 0 for j, e in enumerate(exps) if j != i):
            raise ValueError(f"{format_poly(w)} is not univariate in {var!r}")
    deg_w = degree_in(w, var)
    if deg_w in (0, NEG_INF):
        return Poly.zero(x.variables)  # a nonzero constant generates everything
    lead_w = w.coefficient(tuple(deg_w if j == i else 0 for j in range(len(x.variables))))
    rem = x
    while True:
        d = degree_in(rem, var)
        if d is NEG_INF or d < deg_w:
            return rem
        lead = coefficient_in(rem, var, d)
        shift_exps = tuple(d - deg_w if j == i else 0 for j in range(len(x.variables)))
        shift_mono = Poly._trusted(x.variables, ((shift_exps, Fraction(1)),))
        rem = rem - (lead * (Fraction(1) / lead_w)) * shift_mono * w


def exponents_upto(n: int, degree: int) -> list:
    """Exponent vectors in n variables of total degree <= degree, ascending graded-lex."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    exps.sort(key=_grlex)
    return exps


def monomials_upto(variables: Iterable[str], degree: int) -> list:
    """All monic monomials of total degree <= degree, ascending graded-lex."""
    variables = _distinct(variables)
    one = Fraction(1)
    return [Poly._trusted(variables, ((e, one),)) for e in exponents_upto(len(variables), degree)]


# Distinct monomials whose text `format_poly` keeps; a bound, not a tuning knob.
MAX_MONOMIAL_TEXTS = 1024


@functools.lru_cache(maxsize=MAX_MONOMIAL_TEXTS)
def _monomial_text(variables: Tuple[str, ...], exps: Exponents) -> str:
    """`s^2*d`-style text of one monic monomial, "" for the constant one."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)


# Ints of 10^640 and up are written in 640-digit pieces, below every digit
# limit the interpreter puts on str() (4,300 by default), which stays as set.
_TEXT_PIECE_DIGITS = 640
_TEXT_PIECE = 10 ** _TEXT_PIECE_DIGITS


def _int_text(n: int) -> str:
    """str(n) for an int n >= 0 of any length."""
    pieces = []
    while n >= _TEXT_PIECE:
        n, low = divmod(n, _TEXT_PIECE)
        pieces.append(f"{low:0{_TEXT_PIECE_DIGITS}d}")
    pieces.append(str(n))
    return "".join(reversed(pieces))


def format_rational(c: Fraction) -> str:
    """str(c) for numerators and denominators of any length."""
    text = ("-" if c < 0 else "") + _int_text(abs(c.numerator))
    return text if c.denominator == 1 else f"{text}/{_int_text(c.denominator)}"


def format_poly(x: Poly) -> str:
    """Canonical space-free text: leading term first, e.g. `s^2-3*s*d+7`.

    Sign and magnitude come from each coefficient's numerator and
    denominator, and the monomial text from the bounded `_monomial_text`
    table, so no term does Fraction arithmetic; long ints go to `_int_text`.
    """
    if not x.terms:
        return "0"
    variables = x.variables
    parts = []
    for exps, coeff in x.terms:
        num, den = coeff.numerator, coeff.denominator
        if num < 0:
            parts.append("-")
            num = -num
        elif parts:
            parts.append("+")
        if num >= _TEXT_PIECE:
            num = _int_text(num)
        if den >= _TEXT_PIECE:
            den = _int_text(den)
        body = _monomial_text(variables, exps)
        if den != 1:
            parts.append(f"{num}/{den}*{body}" if body else f"{num}/{den}")
        elif num != 1:
            parts.append(f"{num}*{body}" if body else str(num))
        else:
            parts.append(body or "1")
    return "".join(parts)


# Fraction arithmetic on Poly.__truediv__ is deliberately absent: scale by
# Fraction(1, n) instead, keeping every operation visibly exact.
