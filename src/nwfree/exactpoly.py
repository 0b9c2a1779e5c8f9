"""Exact sparse polynomials over the rationals, plus shift substitutions.

Every polynomial lives in a fixed ordered variable set, one of ("s",),
("s", "d"), or ("d0", "w0") in this package, and is integer numerators
over one denominator: `numerators` holds (exponent vector, int) pairs in
descending graded lexicographic order with no zero entries, and `den` > 0
shares no factor with all of them.  So equal polynomials are structurally
equal, every value is immutable and hashable, and `terms`, `coefficient`
and `constant_value` build `fractions.Fraction`s only when read.
Arithmetic is exact.  The degree of the zero polynomial is the NEG_INF
sentinel, not -1, so the degree bookkeeping below stays clean:

    deg(tau(x) - x) = deg(x) - 1      for non-constant x,

where tau is the shift s -> s - 1.  A shift substitutes v -> v + c per
variable, so it is an offset vector of integers, one per variable in the
polynomial's variable order, and shifts compose by adding their vectors;
`negate_var` substitutes v -> -v.

Six kernels work on integer polynomials {exponents: int}.
`_taylor_shift` shifts (a Horner-type recurrence along dense coefficient
rows, which skips an offset on a variable that no term uses);
`_difference_in` takes the finite difference v(x_i + off) - v in one
variable by the same recurrence on a copy of each row, minus the row;
`_taylor_terms` keeps a value's Taylor terms of order one, its partial
derivatives, once, and `_taylor_sum` takes shift - id from them for any
offsets as the finite Taylor series, {} when no offset applies: with no
shift when the part of order one is the whole difference, and through
`_taylor_shift` on dense rows when it is not; `_mul` multiplies by a
collection of (exponents, int) pairs,
adding scale times the product into a map `out`, and a constant factor,
as a constant x.1, scales the map and builds no exponent vector;
`_combine` sums numerators over one common denominator, also into a
running map over its own denominator.  `Poly.__mul__` is `_mul` on the numerators,
`apply_shift` the shift alone and `+` one `_combine`.  Every action is
shift-then-multiply, and one function does both: `modfam._image`, which
takes every generator image of `act`, the witness, the orbit oracle and
a verify report's failing residuals from an integer form.  A chain step
is a difference of two shifts with its constants folded into the
weights, which `modfam._act_sum` takes through `_difference_in`.
`verify_module` adds the values times a pair's shift differences, each
a `_taylor_sum` of the other value's Taylor terms (taken once per run),
with `_mul`, only for a side whose shift moves the value: `_support`
gives the bit masks it tests, of the variables a value uses (taken per
run from x.1's form) and of those a shift moves (kept in verify's plan).

The public `Poly(...)` constructor validates and canonicalizes any
mapping or sequence of terms.  Every other `Poly` goes through the one
canonicalizer of `Poly`s, `Poly._trusted(variables, pairs, den)`,
which drops zero numerators, divides by their gcd with den and sorts,
unless its caller saw the terms arrive in order (`specdsl._read_sum`,
and a chain step's difference in one variable, `modfam._act_sum`);
the one-term builders `zero`, `one`, `const` and `var` and the test
monomials of `monomials_upto` check their own arguments first.  An integer map that
is not yet a `Poly`, the polynomial reader's values and every spec's
integer form of x.1 (`int_form`), is reduced the same way, unsorted, by
the one canonicalizer for integer maps, `_reduced(ints, den)`.
`reduce_mod_univariate` eliminates fraction-free on numerators and builds
one `Poly`, its result.
A verify report's entries and a witness's closure checks are one lazy
`_Grid` each, one item per (row, test monomial), built when read.

Every formatter writes polynomial text through one writer, `format_terms`,
over (variables, nonzero (exponents, int) pairs in descending graded-lex
order, denominator): `format_poly` hands it a polynomial's numerators,
`irreducible.format_witness` a closure image's integer map and
`verify.format_report` a failing residual's, each sorted.
It reduces each numerator over the denominator with one gcd and takes
monomial text from `_monomial_text`, a table of at most
MAX_MONOMIAL_TEXTS entries.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, index, itemgetter
from typing import Iterable, Mapping, Optional, Tuple, Union

Exponents = Tuple[int, ...]
# v -> v + offset for each variable, offsets in the polynomial's variable order
Shift = Tuple[int, ...]
Scalar = Union[int, Fraction]

# Degree of the zero polynomial.  A dedicated sentinel, never -1.
NEG_INF = float("-inf")


class VariableMismatch(ValueError):
    """An operation mixed polynomials or shifts over incompatible variables."""


def _scalar(value: Scalar) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
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


@dataclass(frozen=True, repr=False)
class Poly:
    """Sparse exact polynomial: `Poly(variables, terms, den=1)` takes a mapping
    or an iterable of (exponents, int or Fraction) pairs over a positive int
    den and canonicalizes them into `numerators` over `den`, as the module
    docstring describes, so `Poly(x.variables, x.numerators, x.den) == x`."""

    variables: Tuple[str, ...]
    numerators: Tuple[Tuple[Exponents, int], ...] = ()
    den: int = 1

    def __post_init__(self) -> None:
        variables = _distinct(self.variables)
        if not isinstance(self.den, int) or self.den < 1:
            raise ValueError(f"den must be a positive integer, got {self.den!r}")
        raw = self.numerators.items() if isinstance(self.numerators, Mapping) else self.numerators
        merged: dict = {}
        for exps, coeff in raw:
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise VariableMismatch(
                    f"exponent vector {exps!r} does not fit variables {variables!r}"
                )
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps!r}")
            merged[exps] = merged.get(exps, 0) + _scalar(coeff)
        den = lcm(*[c.denominator for c in merged.values()])
        pairs = [(e, c.numerator * (den // c.denominator)) for e, c in merged.items()]
        canon = Poly._trusted(variables, pairs, self.den * den)
        for name in ("variables", "numerators", "den"):
            object.__setattr__(self, name, getattr(canon, name))

    @classmethod
    def _trusted(cls, variables: Tuple[str, ...], pairs, den: int = 1, ordered: bool = False) -> "Poly":
        """sum(n * x^e) / den over (e, n) pairs whose distinct exponents fit
        `variables`, den > 0, as the caller guarantees: drops zeros, divides
        by one gcd with den (none when den is 1), sorts two or more unless
        the caller has seen them arrive `ordered`, in descending graded-lex order."""
        pairs = [(e, n) for e, n in pairs if n]
        if den != 1:  # with no pairs left, g is den and den becomes 1
            g = gcd(den, *[n for _, n in pairs])
            if g != 1:
                den //= g
                pairs = [(e, n // g) for e, n in pairs]
        if len(pairs) > 1 and not ordered:
            pairs.sort(key=_term_key, reverse=True)
        out = object.__new__(cls)
        object.__setattr__(out, "variables", variables)
        object.__setattr__(out, "numerators", tuple(pairs))
        object.__setattr__(out, "den", den)
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str]) -> "Poly":
        return Poly._trusted(_distinct(variables), ())

    @staticmethod
    def const(variables: Iterable[str], value: Scalar) -> "Poly":
        variables, value = _distinct(variables), _scalar(value)
        constant = (((0,) * len(variables), value.numerator),)
        return Poly._trusted(variables, constant, value.denominator)

    @staticmethod
    def one(variables: Iterable[str]) -> "Poly":
        return Poly.const(variables, 1)

    @staticmethod
    def var(variables: Iterable[str], name: str) -> "Poly":
        variables = _distinct(variables)
        if name not in variables:
            raise VariableMismatch(f"{name!r} is not among {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return Poly._trusted(variables, ((exps, 1),))

    @staticmethod
    def monomial(variables: Iterable[str], exps: Exponents, coeff: Scalar = 1) -> "Poly":
        return Poly(tuple(variables), {tuple(exps): coeff})

    # -- queries ------------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple[Exponents, Fraction], ...]:
        """(exponents, Fraction) pairs in descending graded-lex order, built when read."""
        den = self.den
        return tuple((e, Fraction(n, den)) for e, n in self.numerators)

    def __repr__(self) -> str:
        return f"Poly(variables={self.variables!r}, terms={self.terms!r})"

    def is_zero(self) -> bool:
        return not self.numerators

    def is_constant(self) -> bool:
        # the leading term has the highest total degree
        return not self.numerators or not any(self.numerators[0][0])

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coefficient((0,) * len(self.variables))

    def coefficient(self, exps: Exponents) -> Fraction:
        exps = tuple(exps)
        for e, n in self.numerators:
            if e == exps:
                return Fraction(n, self.den)
        return Fraction(0)

    def total_degree(self):
        return sum(self.numerators[0][0]) if self.numerators else NEG_INF

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
        total, common = _combine([(1, x.den, dict(x.numerators)) for x in (self, other)])
        return Poly._trusted(self.variables, total.items(), common)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.variables, [(e, -n) for e, n in self.numerators], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            pairs = [(e, other.numerator * n) for e, n in self.numerators]
            return Poly._trusted(self.variables, pairs, self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        product = _mul(dict(self.numerators), other.numerators)
        return Poly._trusted(self.variables, product.items(), self.den * other.den)

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


def _reduced(ints: dict, den: int):
    """(ints, den) reduced as `Poly._trusted` reduces them, unsorted: zero
    numerators dropped and den > 0 divided by its gcd with the rest (1 if
    none), so zero is ({}, 1)."""
    if 0 in ints.values():
        ints = {exps: n for exps, n in ints.items() if n}
    if den != 1:
        g = gcd(den, *ints.values())
        if g != 1:
            den //= g
            ints = {exps: n // g for exps, n in ints.items()}
    return ints, den


def _rows(ints: dict, i: int) -> dict:
    """The terms of an integer polynomial {exponents: int} gathered into
    dense rows in the variable at exponent position i: {the other
    exponents: [coefficient of x_i^e for e = 0, 1, ...]}."""
    rows: dict[Exponents, list] = {}
    for exps, n in ints.items():
        e = exps[i]
        rest = exps[:i] + exps[i + 1:]
        row = rows.get(rest)
        if row is None:
            row = rows[rest] = []
        if len(row) <= e:
            row.extend([0] * (e + 1 - len(row)))
        row[e] = n
    return rows


def _shift_row(a: list, off: int) -> None:
    """a(v) -> a(v + off) in place, a[j] the coefficient of v^j, by the
    Horner-type recurrence (von zur Gathen & Gerhard, ISSAC 1997)."""
    deg = len(a) - 1
    for k in range(deg):
        for j in range(deg - 1, k - 1, -1):
            a[j] += off * a[j + 1]


def _taylor_shift(ints: dict, offsets: Shift) -> dict:
    """Substitute v -> v + offset in an integer polynomial {exponents: int}.

    `offsets` holds one integer per exponent position.  For each nonzero
    one on a variable that some term uses, the terms are gathered into
    dense rows (`_rows`), one per exponent vector of the other variables,
    and each row a(v) becomes a(v + offset) (`_shift_row`).  The input map
    is never modified: an empty one gives a new empty map at once, and any
    other is returned as is when no offset applies; a shifted result has
    no zero entries.
    """
    if not ints:
        return {}
    for i, off in enumerate(offsets):
        if not off or not any(map(itemgetter(i), ints)):
            continue
        rows = _rows(ints, i)
        ints = {}
        for rest, a in rows.items():
            _shift_row(a, off)
            for e, n in enumerate(a):
                if n:
                    ints[rest[:i] + (e,) + rest[i:]] = n
    return ints


def _difference_in(ints: dict, i: int, off: int) -> dict:
    """v(x_i + off) - v(x_i) for an integer polynomial v {exponents: int}, a
    finite difference in the variable at exponent position i, as a new map
    with no zero entries, {} when off is 0 or v does not use that variable.

    Each of v's dense rows in x_i (`_rows`) is shifted on a copy
    (`_shift_row`) and the row itself subtracted, so its top entry, which
    cancels, is never written.  Each row's entries come out from the
    highest power of x_i down: a map in one variable is in descending
    order.  The input map is never modified.
    """
    out: dict = {}
    if not off:
        return out
    for rest, a in _rows(ints, i).items():
        b = a.copy()
        _shift_row(b, off)
        head, tail = rest[:i], rest[i:]
        for e in range(len(a) - 2, -1, -1):
            n = b[e] - a[e]
            if n:
                out[head + (e,) + tail] = n
    return out


def _support(vectors: Iterable[Tuple[int, ...]]) -> int:
    """The bit mask of the positions where some vector is nonzero (bit k for
    position k): of exponent vectors, the variables a polynomial uses; of
    one offset vector, the variables a shift moves."""
    mask = 0
    for vector in vectors:
        for k, e in enumerate(vector):
            if e:
                mask |= 1 << k
    return mask


def _taylor_terms(ints: dict) -> tuple:
    """The Taylor terms of order one of an integer polynomial v
    {exponents: int}, for `_taylor_sum`: (deg v, ((k, T_k), ...), v) with
    T_k = dv/dx_k as a map {exponents: int} with no zero entry, one for each
    variable x_k that v uses, and v's own map, kept by reference, not
    copied.  A constant, zero included, has none: (0, (), v).  The input
    map is never modified.
    """
    firsts: dict = {}
    degree = 0
    for exps, n in ints.items():
        if n and any(exps):
            degree = max(degree, sum(exps))
            for k, e in enumerate(exps):
                if e:
                    term = firsts.get(k)
                    if term is None:
                        term = firsts[k] = {}
                    term[exps[:k] + (e - 1,) + exps[k + 1:]] = n * e
    return degree, tuple(firsts.items()), ints


def _taylor_sum(terms: tuple, offsets: Shift) -> dict:
    """shift(v) - v from v's `_taylor_terms`, as a new map {exponents: int}
    with no zero entries, for `offsets` given one integer per exponent
    position.

    A shift is a finite Taylor series: v(x + off) - v(x) is the sum over
    multi-indices a != 0 of off^a * T_a(v), T_a(v) = (d/dx)^a v / a!.  Its
    part of order one is the stored T_k weighted by the offsets, a T_k on a
    zero offset skipped.  When that part uses no variable the shift moves,
    every higher part is zero and it is the whole difference: so a value
    with no term of degree two or more in the moved variables reads its
    stored terms alone and takes no shift.  Otherwise the part of order
    two can be nonzero, and the difference is taken whole as
    `_taylor_shift(v, offsets) - v`, on dense rows.  Storing every T_a
    instead would keep one entry per term x^e and multi-index a <= e,
    812,240 of them (87 MB under tracemalloc) for (s+d+1)^64, where these
    keep at most one per term and variable.  The sum is {} when no offset
    moves a variable that v uses, and can be {} when the moves cancel, as
    for s - d under (1, 1).
    """
    degree, firsts, ints = terms
    out: dict = {}
    get = out.get
    for k, term in firsts:
        off = offsets[k]
        if off:
            for exps, c in term.items():
                out[exps] = get(exps, 0) + off * c
    if degree > 1 and _support(exps for exps, n in out.items() if n) & _support([offsets]):
        out = _taylor_shift(ints, offsets)  # a new map: some offset moves a variable v uses
        get = out.get
        for exps, n in ints.items():
            out[exps] = get(exps, 0) - n
    if 0 in out.values():
        out = {exps: n for exps, n in out.items() if n}
    return out


def _mul(ints: dict, factor, out: Optional[dict] = None, scale: int = 1) -> dict:
    """out + scale * ints * factor on integers, as {exponents: int}.

    `ints` is an integer polynomial {exponents: int} and `factor` a sized
    collection of (exponents, int) pairs.  The products are added into
    `out`, a new map when it is None, which is returned.  Entries that
    cancel stay in the result as 0.  A constant factor, one term with a
    zero exponent vector, scales `ints` and builds no exponent vector.
    """
    if len(factor) == 1:
        (e2, c2), = factor
        if not any(e2):
            c2 *= scale
            if out is None:
                return {e1: c1 * c2 for e1, c1 in ints.items()}
            get = out.get
            for e1, c1 in ints.items():
                out[e1] = get(e1, 0) + c1 * c2
            return out
    if out is None:
        out = {}
    get = out.get
    for e1, c1 in ints.items():
        c1 *= scale
        for e2, c2 in factor:
            key = tuple(map(add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return out


def _combine(parts, total: Optional[dict] = None, den: int = 1) -> Tuple[dict, int]:
    """total / den + sum(num / d * ints) over one common denominator, on integers.

    `parts` is a sequence of (num, d, ints) with d > 0 and `ints` an
    integer polynomial {exponents: int}; `total` is an integer map over
    den > 0, a new empty map when it is None.  The common denominator is
    L = lcm(den, every d), and `total` is scaled up in place only when L
    exceeds den.  Returns (total, L), the sum being total / L; entries
    that cancel stay in the map as 0, and no parts give (total, den).
    """
    common = lcm(den, *[d for _, d, _ in parts])
    if total is None:
        total = {}
    elif common != den:
        raise_by = common // den
        for exps in total:
            total[exps] *= raise_by
    get = total.get
    for num, d, ints in parts:
        num *= common // d
        for exps, n in ints.items():
            total[exps] = get(exps, 0) + num * n
    return total, common


def apply_shift(sh: Shift, x: Poly) -> Poly:
    """Substitute v -> v + sh[i] for the i-th variable v of x, exactly:
    `_taylor_shift` on x's numerators, over x's denominator."""
    if len(sh) != len(x.variables):
        raise VariableMismatch(f"shift {sh!r} does not fit variables {x.variables!r}")
    if not any(sh) or x.is_zero():
        return x
    return Poly._trusted(x.variables, _taylor_shift(dict(x.numerators), sh).items(), x.den)


def negate_var(x: Poly, var: str) -> Poly:
    """Substitute var -> -var (an involution)."""
    if var not in x.variables:
        raise VariableMismatch(f"{var!r} is absent from {x.variables!r}")
    i = x.variables.index(var)
    return Poly._trusted(x.variables, [(e, -n if e[i] % 2 else n) for e, n in x.numerators], x.den)


def degree_in(x: Poly, var: str):
    """Highest exponent of var, NEG_INF for the zero polynomial."""
    if x.is_zero():
        return NEG_INF
    if var not in x.variables:
        return 0
    i = x.variables.index(var)
    return max(exps[i] for exps, _ in x.numerators)


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
    pairs = []
    for exps, n in x.numerators:
        key = [0] * len(variables)
        for i, e in zip(pos, exps):
            if e:
                key[i] = e
        pairs.append((tuple(key), n))
    return Poly._trusted(variables, pairs, x.den)


def coefficient_in(x: Poly, var: str, power: int) -> Poly:
    """The coefficient of var**power, as a polynomial with var removed from use."""
    if var not in x.variables:
        return x if power == 0 else Poly.zero(x.variables)
    i = x.variables.index(var)
    pairs = []
    for exps, n in x.numerators:
        if exps[i] == power:
            pairs.append((exps[:i] + (0,) + exps[i + 1:], n))
    return Poly._trusted(x.variables, pairs, x.den)


def reduce_mod_univariate(x: Poly, w: Poly, var: str) -> Poly:
    """Remainder of x upon division by w, where w is univariate in var.

    The remainder is zero exactly when x lies in the principal ideal (w).
    Elimination is fraction-free on x's numerators, grouped in rows by
    their power of var: with L the leading numerator of w, each step
    rem <- |L| * rem - sign(L) * c * var^(d - deg w) * w clears the top
    row c * var^d and multiplies the denominator by |L|, so the one `Poly`
    built at the end is the exact remainder.
    """
    if w.is_zero():
        raise ValueError("division by the zero polynomial")
    w = change_variables(w, x.variables)
    i = x.variables.index(var)
    for exps, _ in w.numerators:
        if any(e != 0 for j, e in enumerate(exps) if j != i):
            raise ValueError(f"{format_poly(w)} is not univariate in {var!r}")
    deg_w = degree_in(w, var)
    if deg_w in (0, NEG_INF):
        return Poly.zero(x.variables)  # a nonzero constant generates everything
    if degree_in(x, var) < deg_w:
        return x
    (_, lead), *rest = w.numerators  # var^deg_w leads, the one term of its degree
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    tail = [(exps[i] - deg_w, sign * n) for exps, n in rest]  # (power below deg w, sign * n)
    rows: dict = {}  # power of var -> {exponents: int}
    for exps, n in x.numerators:
        rows.setdefault(exps[i], {})[exps] = n
    den = x.den
    for d in range(max(rows), deg_w - 1, -1):
        top = rows.pop(d, None)
        if top is None or not any(top.values()):
            continue
        if scale != 1:
            den *= scale
            for row in rows.values():
                for exps in row:
                    row[exps] *= scale
        for exps, n in top.items():
            if n:
                for k, c in tail:
                    p = d + k
                    key = exps[:i] + (p,) + exps[i + 1:]
                    row = rows.get(p)
                    if row is None:
                        row = rows[p] = {}
                    row[key] = row.get(key, 0) - n * c
    return Poly._trusted(x.variables, [pair for row in rows.values() for pair in row.items()], den)


def exponents_upto(n: int, degree: int) -> list:
    """Exponent vectors in n variables of total degree <= degree, ascending graded-lex."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    exps.sort(key=_grlex)
    return exps


def monomials_upto(variables: Iterable[str], degree: int) -> list:
    """All monic monomials of total degree <= degree, ascending graded-lex."""
    variables = _distinct(variables)
    return [Poly._trusted(variables, ((e, 1),)) for e in exponents_upto(len(variables), degree)]


class _Grid(Sequence):
    """A read-only sequence of one item per (row, test monomial), each built when read.

    Item k is row k // n on test monomial k % n, n = len(self._monos), and
    the subclass's `_item(row, j)` builds it; `len` is `_row_count() * n`
    and builds none.  A grid reads, compares (with tuples and grids of its
    own type), hashes, reprs and pickles as the tuple of its items; slices
    are tuples, and an index outside -len..len-1 raises
    IndexError("index out of range").  A subclass lists its constructor's
    arguments, in order, as its `__slots__`, which `__reduce__` rebuilds it
    from, and keeps its test monomials in `_monos`.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return self._row_count() * len(self._monos)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(*k.indices(len(self))))
        size = len(self)
        k = index(k)
        if k < 0:
            k += size
        if not 0 <= k < size:
            raise IndexError("index out of range")
        return self._item(*divmod(k, len(self._monos)))

    def __iter__(self):
        return itertools.starmap(self._item, itertools.product(
            range(self._row_count()), range(len(self._monos))))

    def __eq__(self, other):
        if isinstance(other, (tuple, type(self))):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


# Distinct monomials whose text `format_terms` keeps; a bound, not a tuning knob.
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
    """str(c) for numerators and denominators of any length, as `format_terms` writes a constant."""
    return format_terms((), [((), c.numerator)] if c else [], c.denominator)


def format_terms(variables: Tuple[str, ...], pairs, den: int = 1) -> str:
    """Canonical space-free text of sum(n * x^e) / den, e.g. `s^2-3*s*d+7`.

    `pairs` holds nonzero (exponents, int) pairs in descending graded-lex
    order, leading term first, over den > 0; they need not share a gcd
    with den.  Each coefficient is its numerator over den, reduced by one
    gcd, and the monomial text comes from the bounded `_monomial_text`
    table, so no term builds a Fraction; long ints go to `_int_text`.
    """
    if not pairs:
        return "0"
    parts = []
    for exps, num in pairs:
        if num < 0:
            parts.append("-")
            num = -num
        elif parts:
            parts.append("+")
        g = gcd(num, den)
        num, d = num // g, den // g
        if num >= _TEXT_PIECE:
            num = _int_text(num)
        if d >= _TEXT_PIECE:
            d = _int_text(d)
        body = _monomial_text(variables, exps)
        if d != 1:
            parts.append(f"{num}/{d}*{body}" if body else f"{num}/{d}")
        elif num != 1:
            parts.append(f"{num}*{body}" if body else str(num))
        else:
            parts.append(body or "1")
    return "".join(parts)


def format_poly(x: Poly) -> str:
    """Canonical space-free text of x, through `format_terms`."""
    return format_terms(x.variables, x.numerators, x.den)


# Fraction arithmetic on Poly.__truediv__ is deliberately absent: scale by
# Fraction(1, n) instead, keeping every operation visibly exact.
