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

where tau is the shift s -> s - 1.  Shifts (`Shift`) substitute v -> v + c
per variable and compose additively; `negate_var` substitutes v -> -v.

The public `Poly(...)` constructor validates and canonicalizes its input,
which comes from parsers and specs.  Internal arithmetic (`+`, `-`, `*`,
unary `-` and `apply_shift`) already holds merged Fraction terms over one
variable set, so it builds canonical results directly through
`Poly._trusted`, which only drops zero coefficients and sorts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Tuple, Union

Rational = Fraction
Exponents = Tuple[int, ...]
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
        variables = tuple(self.variables)
        if len(set(variables)) != len(variables):
            raise VariableMismatch(f"duplicate variable in {variables!r}")
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
        """A result of internal arithmetic: drop zeros and sort, nothing else.

        `terms` are (exponents, Fraction) pairs with distinct exponent tuples
        that fit `variables`; the caller guarantees it.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "variables", variables)
        canon = sorted(((e, c) for e, c in terms if c), key=_term_key, reverse=True)
        object.__setattr__(out, "terms", tuple(canon))
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str]) -> "Poly":
        return Poly(tuple(variables))

    @staticmethod
    def const(variables: Iterable[str], value: Scalar) -> "Poly":
        variables = tuple(variables)
        return Poly(variables, {(0,) * len(variables): _fraction(value)})

    @staticmethod
    def one(variables: Iterable[str]) -> "Poly":
        return Poly.const(variables, 1)

    @staticmethod
    def var(variables: Iterable[str], name: str) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"{name!r} is not among {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return Poly(variables, {exps: Fraction(1)})

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
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms:
            acc[exps] = acc.get(exps, Fraction(0)) - coeff
        return Poly._trusted(self.variables, acc.items())

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.variables, [(e, -c) for e, c in self.terms])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fraction(other)
            return Poly._trusted(self.variables, [(e, c * v) for e, v in self.terms])
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        acc: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return Poly._trusted(self.variables, acc.items())

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


@dataclass(frozen=True)
class Shift:
    """Substitution v -> v + offset(v), one integer offset per variable.

    Zero offsets are dropped at construction, so the identity shift is
    Shift(()) and composition is additive on offsets.
    """

    offsets: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        raw = self.offsets.items() if isinstance(self.offsets, Mapping) else self.offsets
        merged: dict[str, int] = {}
        for var, off in raw:
            if not isinstance(off, int):
                raise ValueError(f"offset for {var!r} must be an integer")
            merged[var] = merged.get(var, 0) + off
        canon = tuple(sorted((v, o) for v, o in merged.items() if o != 0))
        object.__setattr__(self, "offsets", canon)

    @staticmethod
    def of(**offsets: int) -> "Shift":
        return Shift(tuple(offsets.items()))

    def offset(self, var: str) -> int:
        for v, o in self.offsets:
            if v == var:
                return o
        return 0

    def compose(self, other: "Shift") -> "Shift":
        """shift(u).compose(shift(v)) == shift(u + v)."""
        acc = dict(self.offsets)
        for var, off in other.offsets:
            acc[var] = acc.get(var, 0) + off
        return Shift(tuple(acc.items()))

    def is_identity(self) -> bool:
        return not self.offsets


SHIFT_IDENTITY = Shift(())


def apply_shift(sh: Shift, x: Poly) -> Poly:
    """Substitute v -> v + offset(v) for every shifted variable, exactly."""
    for var, _ in sh.offsets:
        if var not in x.variables:
            raise VariableMismatch(f"shift touches {var!r}, absent from {x.variables!r}")
    if sh.is_identity() or x.is_zero():
        return x
    index = {v: i for i, v in enumerate(x.variables)}
    acc: dict[Exponents, Fraction] = {}
    for exps, coeff in x.terms:
        # Binomial expansion (v + o)^e, one shifted variable at a time.
        expansion: dict[Exponents, Fraction] = {exps: coeff}
        for var, off in sh.offsets:
            i = index[var]
            step: dict[Exponents, Fraction] = {}
            for evec, c in expansion.items():
                e = evec[i]
                base = list(evec)
                for j in range(e + 1):
                    base[i] = j
                    c2 = c * comb(e, j) * Fraction(off) ** (e - j)
                    key = tuple(base)
                    step[key] = step.get(key, Fraction(0)) + c2
            expansion = step
        for key, c in expansion.items():
            acc[key] = acc.get(key, Fraction(0)) + c
    return Poly._trusted(x.variables, acc.items())


def negate_var(x: Poly, var: str) -> Poly:
    """Substitute var -> -var (an involution)."""
    if var not in x.variables:
        raise VariableMismatch(f"{var!r} is absent from {x.variables!r}")
    i = x.variables.index(var)
    return Poly(x.variables, tuple((e, c if e[i] % 2 == 0 else -c) for e, c in x.terms))


def degree_in(x: Poly, var: str):
    """Highest exponent of var, NEG_INF for the zero polynomial."""
    if x.is_zero():
        return NEG_INF
    if var not in x.variables:
        return 0
    i = x.variables.index(var)
    return max(exps[i] for exps, _ in x.terms)


def change_variables(x: Poly, variables: Iterable[str]) -> Poly:
    """Re-express x in another variable set.

    Variables may be added freely; a variable may only be dropped if it
    does not occur in x.
    """
    variables = tuple(variables)
    for v in x.variables:
        if v not in variables and degree_in(x, v) not in (0, NEG_INF):
            raise VariableMismatch(f"cannot drop {v!r}, it occurs in {format_poly(x)}")
    pos = {v: i for i, v in enumerate(variables)}
    acc: dict[Exponents, Fraction] = {}
    for exps, coeff in x.terms:
        key = [0] * len(variables)
        for v, e in zip(x.variables, exps):
            if e:
                key[pos[v]] = e
        k = tuple(key)
        acc[k] = acc.get(k, Fraction(0)) + coeff
    return Poly(variables, acc)


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
    return Poly(x.variables, acc)


def reduce_mod_univariate(x: Poly, w: Poly, var: str) -> Poly:
    """Remainder of x upon division by w, where w is univariate in var.

    The remainder is zero exactly when x lies in the principal ideal (w).
    """
    if w.is_zero():
        raise ValueError("division by the zero polynomial")
    if x.variables != w.variables:
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
        shift_mono = Poly.monomial(
            x.variables, tuple(d - deg_w if j == i else 0 for j in range(len(x.variables)))
        )
        rem = rem - (lead * (Fraction(1) / lead_w)) * shift_mono * w


def monomials_upto(variables: Iterable[str], degree: int) -> list:
    """All monic monomials of total degree <= degree, ascending graded-lex."""
    variables = tuple(variables)
    n = len(variables)
    exps = [
        e
        for e in itertools.product(range(degree + 1), repeat=n)
        if sum(e) <= degree
    ]
    exps.sort(key=_grlex)
    return [Poly.monomial(variables, e) for e in exps]


def format_poly(x: Poly) -> str:
    """Canonical space-free text: leading term first, e.g. `s^2-3*s*d+7`."""
    if x.is_zero():
        return "0"
    parts = []
    for exps, coeff in x.terms:
        body_vars = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(x.variables, exps) if e
        )
        mag = abs(coeff)
        if body_vars and mag == 1:
            body = body_vars
        elif body_vars:
            body = f"{mag}*{body_vars}"
        else:
            body = str(mag)
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(("-" if coeff < 0 else "+") + body)
    return "".join(parts)


# Fraction arithmetic on Poly.__truediv__ is deliberately absent: scale by
# Fraction(1, n) instead, keeping every operation visibly exact.
