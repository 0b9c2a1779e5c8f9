"""Rank one Cartan-free module families as executable actions.

Six families over the Nappi-Witten algebra act on Q[s], two families over
its affinization act on Q[s,d], one family for Vir(0,0) acts on Q[d0,w0],
and the affine-Virasoro family acts on Q[s,d] again.  Each spec class
states its own family, algebra and loop window (`variant`, `algebra`,
`window`), coerces its own parameters (the constructor functions `mhb`,
`mtilde`, `affvir`, ... pass theirs through), and gives its own values on
1 as integer forms (`int_form`, as raw `ActionData` does), irreducibility
verdict (`verdict`) and witness ideal (`witness_ideal`), which affine and
affine-Virasoro specs take from their base.  Every parameter takes one
coercion step, `_store`, which coerces a field, refuses a zero where the
family does and stores it; the loop sequences beta and f are read by
`_sequence`, and every loop window (a spec's, action data's, a
document's, or one asked of `generators`, `actions_of` or
`verify_module`) by one rule, `integer_argument`: operator.index, one
message per fault, and the caller's error class.

Every action here has the same shape: a generator x sends v to
shift_x(v) * (x.1), where shift_x is a variable shift forced by the
brackets with the Cartan part and x.1 is the value of x on the constant
polynomial 1.  The generators and their shifts are facts of the algebra:
`generators` lists the kinds of `liealg.ALGEBRA_KINDS` within a window,
and `shift_of` is one grading rule, x's weight under the Cartan part.
x.1 is an integer form at its source: a spec's `int_form(x)` gives its
numerators {exponents: int} over a denominator, reduced by
`exactpoly._reduced` and computed on integers (alpha^n and lambda^n by
`_rational_power`).  `_int_form` checks x against the algebra and asks
the spec for that form afresh, for the spec's own table alone,
`spec_forms(spec)`, a `_Forms` that stores each form as (shift_x,
numerators, den) the first time its symbol is looked up, so each x.1 is
computed once per spec.  Every reader of x.1 reads that table: the
request paths, and `on_one`, the public edge that builds x.1's `Poly`.
One function, `_image`, takes every generator image on integers from x's
form, for `act` (so `classify`'s product rule), the chains, the witness
and the orbit oracle; `_act_sum` sums such images over one common
denominator.  `_image` is the one shift-then-multiply: `exactpoly._mul`
on `exactpoly._taylor_shift`.  `verify_module` reads its generators'
forms by position, with the masks of the variables each x.1 uses beside
its plan's, takes a failing pair's residuals through `_image`, and
stores each window's pair outcomes in the same table.  The only state
kept across requests is each spec's form table (`_OwnsForms`), with its
forms and verify's outcomes by window, which lives on the spec object
and goes with it (the specs `specdsl`'s bounded document table keeps,
with theirs); an MTildeAlphaBeta spec scales the integer forms in its
base's table by alpha^n.  Besides, the public `value_on_one` keeps a
bounded cache (MAX_CACHED_VALUES entries), which no request path calls.
"""

from __future__ import annotations

import functools
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Mapping, Optional, Tuple, Union, get_args

from . import InputError
from .exactpoly import (
    Poly,
    Shift,
    _combine,
    _mul,
    _reduced,
    _taylor_shift,
    change_variables,
)
from .liealg import (
    AFF_VIR,
    AFFINE_H4,
    ALGEBRA_KINDS,
    H4,
    VIR00,
    BasisSymbol,
    LieElement,
    check_in_algebra,
    format_symbol,
    sort_key,
    sym,
)

class ConstraintViolation(InputError, ValueError):
    """A named invariant failed; may carry a source position."""


class SpecInvalid(ConstraintViolation):
    """A module spec failed construction-time validation."""


class WindowExceeded(InputError):
    """A loop index fell outside the spec's finite window."""


class MalformedData(InputError, ValueError):
    """Action data is structurally unusable (missing generators, wrong ring)."""


_SD = ("s", "d")

MODULE_VARIABLES = {
    H4: ("s",),
    AFFINE_H4: _SD,
    VIR00: ("d0", "w0"),
    AFF_VIR: _SD,
}

# Each H4 family's parameters, in the order its documents list them.
H4_PARAMS = {
    "Mg0": ("g",),
    "M0g": ("g",),
    "Mhb": ("a1", "a2", "b"),
    "Mbh": ("a1", "a2", "b"),
    "Mab": ("a", "b"),
    "M0": (),
}
AFFINE_VARIANTS = ("MTildeAlphaBeta", "MTildeF")

# Largest loop window a spec or action data may carry; windows index
# tables of 2 * window + 1 entries, built at construction.
MAX_WINDOW = 8

_ZERO_IDEAL_NOTE = "p, q and r act as zero, so every proper ideal is invariant"

Scalar = Union[int, Fraction, str]


def _fraction(value: Scalar, what: str, error=SpecInvalid) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be rational, got {value!r}") from exc


def integer_argument(value, name: str, low=None, high=None, error=SpecInvalid) -> int:
    """`value` by operator.index, within [low, high] if given; else `error`
    naming it, one message per fault.  Every loop window is read here."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise error(f"{name} must be at least {low}")
    if high is not None and value > high:
        raise error(f"{name} exceeds the limit {high}")
    return value


def _poly_in(value, what: str, variables: Tuple[str, ...] = ("s",), error=SpecInvalid) -> Poly:
    """`value` in Q[variables], else `error` naming `what`: the one coercion
    of polynomial parameters and action-data values."""
    if isinstance(value, Poly):
        try:
            return change_variables(value, variables)
        except Exception as exc:
            raise error(f"{what} must be a polynomial in {variables}") from exc
    return Poly.const(variables, _fraction(value, what, error))


def _store(spec, attr: str, coerce, what: str, nonzero: Optional[str] = None):
    """Coerce the field `attr` of `spec` by coerce(value, what), refuse a
    zero value with SpecInvalid(nonzero) when given, and store it."""
    value = coerce(getattr(spec, attr), what)
    if nonzero is not None and (value.is_zero() if isinstance(value, Poly) else value == 0):
        raise SpecInvalid(nonzero)
    object.__setattr__(spec, attr, value)
    return value


def _sequence(entries, coerce, what: str, forced, forced_text: str, window: int):
    """A loop sequence (beta or f) as its sorted (index, value) tuple: indices
    by operator.index, one per index of the window, and index 0 `forced`
    (written `forced_text`) or left out."""
    out = {}
    for key, value in entries.items() if isinstance(entries, Mapping) else entries:
        try:
            k = operator.index(key)
        except TypeError as exc:
            raise SpecInvalid(f"{what} index {key!r} is not an integer") from exc
        if k in out:
            raise SpecInvalid(f"duplicate {what}.{k}")
        out[k] = coerce(value, f"{what}.{k}")
    if out.setdefault(0, forced) != forced:
        raise SpecInvalid(f"{what}.0 must be {forced_text}")
    missing = [k for k in range(-window, window + 1) if k not in out]
    if missing:
        raise SpecInvalid(f"{what}.{missing[0]} missing inside window")
    extra = sorted(k for k in out if abs(k) > window)
    if extra:
        raise SpecInvalid(f"{what}.{extra[0]} lies outside the window")
    return tuple(sorted(out.items()))


# Each H4 parameter's coercion and the message that refuses a zero value.
_H4_RULES = {
    "g": (_poly_in, "g must be a non-zero polynomial in s"),
    "a1": (_fraction, "a1 != 0: h must be a non-zero one-degree polynomial"),
    "a2": (_fraction, None),
    "a": (_fraction, "a != 0 and b != 0 are required"),
    "b": (_fraction, "b != 0 is required"),
}

# Each H4 family's p.1 and q.1 by the parameter that gives them: g itself,
# h = a1 s + a2, or the constant a or b; a kind left out acts as zero.
_H4_PQ = {"Mg0": {"p": "g"}, "M0g": {"q": "g"}, "Mhb": {"p": "h", "q": "b"},
          "Mbh": {"p": "b", "q": "h"}, "Mab": {"p": "a", "q": "b"}, "M0": {}}


class _OwnsForms:
    """A spec's own form table, `_forms`: a `_Forms` built on first use and
    kept beside the fields, as a cached property, so equality, hashing,
    repr and `dataclasses.replace` see the fields alone.  The table holds
    only a weak reference to its spec, so it goes with the spec, and
    pickles and copies leave it out, so a copy builds its own, with no
    forms and no verify outcomes.

    Each spec class gives x.1 as an integer form, `int_form(symbol)`:
    (numerators as {exponents: int}, den), reduced as `exactpoly._reduced`
    leaves it.  `on_one` is the one adapter that makes it a `Poly`."""

    @functools.cached_property
    def _forms(self) -> "_Forms":
        return _Forms(self)

    def on_one(self, symbol: BasisSymbol) -> Poly:
        """x.1 as a polynomial in the module variables: one `Poly._trusted`
        over the spec's form in its table (`spec_forms`), which request paths
        read too, so SymbolNotInAlgebra for a symbol outside the algebra."""
        _, ints, den = spec_forms(self)[symbol]
        return Poly._trusted(MODULE_VARIABLES[self.algebra], ints.items(), den)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_forms", None)
        return state


@dataclass(frozen=True)
class H4Family(_OwnsForms):
    """One of the six families: Mg0, M0g, Mhb, Mbh, Mab, M0.

    It keeps no values on 1 of its own: `int_form` computes the one asked
    for, and its form table (`spec_forms`) keeps each, for this spec and
    for every affine spec built over it.
    """

    algebra: ClassVar[str] = H4
    window: ClassVar[int] = 0

    variant: str
    g: Optional[Poly] = None
    a1: Optional[Fraction] = None
    a2: Optional[Fraction] = None
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None

    def __post_init__(self):
        if self.variant not in H4_PARAMS:
            raise SpecInvalid(f"unknown H4 family {self.variant!r}")
        given = {
            name
            for name in ("g", "a1", "a2", "a", "b")
            if getattr(self, name) is not None
        }
        wanted = set(H4_PARAMS[self.variant])
        if given != wanted:
            raise SpecInvalid(
                f"{self.variant} takes exactly {sorted(wanted) or 'no parameters'}, got {sorted(given)}"
            )
        for name in H4_PARAMS[self.variant]:
            coerce, nonzero = _H4_RULES[name]
            _store(self, name, coerce, name, nonzero)

    def int_form(self, symbol: BasisSymbol):
        """x.1 for a generator x of H4, computed from the parameters alone: p
        and q as `_H4_PQ` names them, r by -a1 b (Mhb, Mbh) or 0, s by s,
        and k by zero."""
        name = _H4_PQ[self.variant].get(symbol.kind, symbol.kind)  # s, r, k: their own kind
        if name == "g":
            return dict(self.g.numerators), self.g.den
        a1, b = self.a1, self.b
        if name == "r" and a1 is not None:
            return _reduced({(0,): -a1.numerator * b.numerator}, a1.denominator * b.denominator)
        # every other value is c1 s + c0, and a p or q left out of `_H4_PQ` is zero
        c1, c0 = {"s": (1, 0), "h": (a1, self.a2), "a": (0, self.a), "b": (0, b)}.get(name, (0, 0))
        ints = {(1,): c1.numerator * c0.denominator, (0,): c0.numerator * c1.denominator}
        return _reduced(ints, c1.denominator * c0.denominator)

    def verdict(self) -> Tuple[bool, str, str, bool]:
        """(irreducible, family, note, derived), which `irreducible.decide` wraps."""
        if self.variant == "M0":
            return False, "M0", _ZERO_IDEAL_NOTE, False
        if self.g is None:
            return True, self.variant, "a generator acts by an invertible constant", False
        if self.g.is_constant():
            return True, self.variant, "g is a non-zero constant", False
        return False, self.variant, "the ideal generated by g is a proper submodule", False

    def witness_ideal(self) -> Tuple[Poly, str]:
        """(g, var) for a reducible spec's witness ideal: g, or s for M0."""
        return (Poly.var(("s",), "s") if self.g is None else self.g), "s"


def mg0(g) -> H4Family:
    return H4Family("Mg0", g=g)


def m0g(g) -> H4Family:
    return H4Family("M0g", g=g)


def mhb(a1: Scalar, a2: Scalar, b: Scalar) -> H4Family:
    return H4Family("Mhb", a1=a1, a2=a2, b=b)


def mbh(a1: Scalar, a2: Scalar, b: Scalar) -> H4Family:
    return H4Family("Mbh", a1=a1, a2=a2, b=b)


def mab(a: Scalar, b: Scalar) -> H4Family:
    return H4Family("Mab", a=a, b=b)


def m0() -> H4Family:
    return H4Family("M0")


def _rational_power(a: int, b: int, n: int) -> Tuple[int, int]:
    """(num, den) with (a / b)^n = num / den and den > 0, for coprime a != 0
    and b > 0, so num / den is in lowest terms too."""
    num, den = (a ** n, b ** n) if n >= 0 else (b ** -n, a ** -n)
    return (-num, -den) if den < 0 else (num, den)


@dataclass(frozen=True)
class AffineSpec(_OwnsForms):
    """Affinized module: MTildeAlphaBeta over a base family, or MTildeF."""

    algebra: ClassVar[str] = AFFINE_H4

    variant: str
    window: int
    alpha: Optional[Fraction] = None
    base: Optional[H4Family] = None
    beta: Tuple[Tuple[int, Fraction], ...] = ()
    fseq: Tuple[Tuple[int, Poly], ...] = ()

    def __post_init__(self):
        if self.variant not in AFFINE_VARIANTS:
            raise SpecInvalid(f"unknown affine family {self.variant!r}")
        window = integer_argument(self.window, "window", 1, MAX_WINDOW)
        object.__setattr__(self, "window", window)
        if self.variant == "MTildeAlphaBeta":
            if not isinstance(self.base, H4Family):
                raise SpecInvalid("MTildeAlphaBeta needs a base H4 family")
            _store(self, "alpha", _fraction, "alpha", "alpha must be non-zero")
            beta = _sequence(self.beta, _fraction, "beta", Fraction(0), "0", window)
            if self.fseq:
                raise SpecInvalid("f.<k> entries belong to MTildeF only")
            object.__setattr__(self, "beta", beta)
            object.__setattr__(self, "fseq", ())
        else:
            if self.base is not None or self.alpha is not None or self.beta:
                raise SpecInvalid("MTildeF takes only window and f.<k> entries")
            fseq = _sequence(self.fseq, _poly_in, "f", Poly.var(("s",), "s"), "s", window)
            object.__setattr__(self, "fseq", fseq)

    def int_form(self, symbol: BasisSymbol):
        """x.1 for a generator x of AffineH4: at loop n, s acts by f_n in MTildeF
        else by alpha^n s + beta_n, and p, q and r by alpha^n times their base
        value; beta and fseq hold every index of the window, in order.
        MTildeAlphaBeta's values take alpha^n = num / den from
        `_rational_power` and the base's integer forms from its own table
        (`spec_forms`)."""
        kind, n = symbol.kind, symbol.loop_index
        if kind == "d":
            return {(0, 1): 1}, 1
        if abs(n) > self.window:
            raise WindowExceeded(f"{format_symbol(symbol)} outside window {self.window}")
        if kind not in ("s", "p", "q", "r") or (kind != "s" and self.variant == "MTildeF"):
            return {}, 1  # k, any kind outside H4, and MTildeF's p, q and r act as zero
        if self.variant == "MTildeF":
            f = self.fseq[n + self.window][1]
            return {(e, 0): c for (e,), c in f.numerators}, f.den
        num, den = _rational_power(self.alpha.numerator, self.alpha.denominator, n)
        if kind == "s":
            beta = self.beta[n + self.window][1]
            pairs = {(1, 0): num * beta.denominator, (0, 0): beta.numerator * den}
            return _reduced(pairs, den * beta.denominator)
        _, ints, base_den = spec_forms(self.base)[sym(kind)]
        return _reduced({(e, 0): num * c for (e,), c in ints.items()}, den * base_den)

    def verdict(self) -> Tuple[bool, str, str, bool]:
        if self.variant == "MTildeF":
            return False, "MTildeF", _ZERO_IDEAL_NOTE, True
        irreducible, family, note, _ = self.base.verdict()
        return irreducible, "MTildeAlphaBeta/" + family, note, family == "M0"

    def witness_ideal(self) -> Tuple[Poly, str]:
        return self.base.witness_ideal() if self.base is not None else (Poly.var(("s",), "s"), "s")


def mtilde(base: H4Family, alpha: Scalar, beta, window: int) -> AffineSpec:
    return AffineSpec("MTildeAlphaBeta", window, alpha=alpha, base=base, beta=beta)


def mtilde_f(fseq, window: int) -> AffineSpec:
    return AffineSpec("MTildeF", window, fseq=fseq)


@dataclass(frozen=True)
class Vir00Spec(_OwnsForms):
    """Vir(0,0) module M(lambda, f) on Q[d0, w0]."""

    variant: ClassVar[str] = "MLambdaF"
    algebra: ClassVar[str] = VIR00
    window: ClassVar[Optional[int]] = None  # no loop window of its own

    lam: Fraction
    fpoly: Poly

    def __post_init__(self):
        _store(self, "lam", _fraction, "lambda", "lambda must be non-zero")
        _store(self, "fpoly", functools.partial(_poly_in, variables=("w0",)), "fpoly")

    def int_form(self, symbol: BasisSymbol):
        """x.1 for a generator x of Vir00: w_n acts by lambda^n w0 and
        dvir_n by lambda^n (d0 + n f), with lambda^n = num / den."""
        n = symbol.loop_index
        if symbol.kind == "k":
            return {}, 1
        num, den = _rational_power(self.lam.numerator, self.lam.denominator, n)
        if symbol.kind == "s":
            return {(0, 1): num}, den
        ints = {(0, e): n * num * c for (e,), c in self.fpoly.numerators}
        ints[1, 0] = num * self.fpoly.den
        return _reduced(ints, den * self.fpoly.den)

    def verdict(self) -> Tuple[bool, str, str, bool]:
        note = "the principal ideal (w0) is invariant: generators scale w0 and shift only d0"
        return False, "Vir00", note, True

    def witness_ideal(self) -> Tuple[Poly, str]:
        return Poly.var(("w0",), "w0"), "w0"


@dataclass(frozen=True)
class AffVirSpec(_OwnsForms):
    """Affine-Virasoro module: a beta-free MTildeAlphaBeta plus d_n actions."""

    variant: ClassVar[str] = "MTildeLambda"
    algebra: ClassVar[str] = AFF_VIR

    base: AffineSpec
    lambda_shift: Fraction

    def __post_init__(self):
        if not isinstance(self.base, AffineSpec) or self.base.variant != "MTildeAlphaBeta":
            raise SpecInvalid("affine-Virasoro base must be an MTildeAlphaBeta spec")
        if any(v != 0 for _, v in self.base.beta):
            raise SpecInvalid("beta must vanish for the affine-Virasoro family")
        _store(self, "lambda_shift", _fraction, "lambda")

    @property
    def window(self) -> int:
        return self.base.window

    def int_form(self, symbol: BasisSymbol):
        """x.1 for a generator x of AffineVirasoroH4: the base's value, and
        alpha^n (d + n lambda) for dvir at loop n, inside the window or not,
        with alpha^n = num / den."""
        if symbol.kind != "dvir":
            return self.base.int_form(symbol)
        n, alpha, lam = symbol.loop_index, self.base.alpha, self.lambda_shift
        num, den = _rational_power(alpha.numerator, alpha.denominator, n)
        pairs = {(0, 1): num * lam.denominator, (0, 0): num * n * lam.numerator}
        return _reduced(pairs, den * lam.denominator)

    def verdict(self) -> Tuple[bool, str, str, bool]:
        irreducible, family, note, _ = self.base.verdict()
        return irreducible, "AffineVirasoroH4/" + family, note, True

    def witness_ideal(self) -> Tuple[Poly, str]:
        return self.base.witness_ideal()


def affvir(base: H4Family, alpha: Scalar, lam: Scalar, window: int) -> AffVirSpec:
    window = integer_argument(window, "window", 1, MAX_WINDOW)
    inner = mtilde(base, alpha, dict.fromkeys(range(-window, window + 1), 0), window)
    return AffVirSpec(base=inner, lambda_shift=lam)


def data_window_limit(algebra: str) -> int:
    """The largest window action data of `algebra` may carry: 0 on H4,
    which has no loop directions, else MAX_WINDOW."""
    return 0 if algebra == H4 else MAX_WINDOW


@dataclass(frozen=True)
class ActionData(_OwnsForms):
    """Raw generator values on 1, detached from any family.

    `assignments` holds (symbol, value) pairs sorted by symbol.  A dict
    from symbol to value, built beside it once, answers `value`, `has` and
    `int_form`; it is not a field, so equality, hashing, repr and
    `dataclasses.replace` see the assignments alone.  The window runs up
    to `data_window_limit(algebra)`, so H4 data, with no loop directions,
    has window 0.
    """

    algebra: str
    window: int
    assignments: Tuple[Tuple[BasisSymbol, Poly], ...]

    def __post_init__(self):
        if self.algebra not in MODULE_VARIABLES:
            raise MalformedData(f"unknown algebra {self.algebra!r}")
        limit = data_window_limit(self.algebra)
        window = integer_argument(self.window, "window", 0, limit, MalformedData)
        object.__setattr__(self, "window", window)
        variables = MODULE_VARIABLES[self.algebra]
        items = self.assignments
        seen = {}
        for symbol, value in items.items() if isinstance(items, Mapping) else items:
            if not isinstance(symbol, BasisSymbol):
                raise MalformedData(f"assignment key {symbol!r} is not a generator")
            check_in_algebra(self.algebra, symbol)
            if abs(symbol.loop_index) > self.window:
                raise MalformedData(
                    f"{format_symbol(symbol, self.algebra)} lies outside window {self.window}"
                )
            if symbol in seen:
                raise MalformedData(
                    f"duplicate assignment for {format_symbol(symbol, self.algebra)}"
                )
            name = format_symbol(symbol, self.algebra)
            seen[symbol] = _poly_in(value, name, variables, MalformedData)
        self._settle(seen)

    @classmethod
    def _checked(cls, algebra: str, window: int, values: dict) -> "ActionData":
        """Data from pairs the caller has checked as `__post_init__` checks
        them: a known algebra, a window it takes, and a dict from distinct
        symbols of the algebra inside the window to Polys over its module
        variables, which the data keeps as its index."""
        data = object.__new__(cls)
        object.__setattr__(data, "algebra", algebra)
        object.__setattr__(data, "window", window)
        data._settle(values)
        return data

    def _settle(self, values: dict) -> None:
        """Store the pairs of `values` sorted by symbol, and `values` as the index."""
        ordered = tuple(sorted(values.items(), key=lambda kv: sort_key(kv[0])))
        object.__setattr__(self, "assignments", ordered)
        object.__setattr__(self, "_index", values)

    def value(self, symbol: BasisSymbol) -> Poly:
        return self._index[symbol]

    def has(self, symbol: BasisSymbol) -> bool:
        return symbol in self._index

    def int_form(self, symbol: BasisSymbol):
        """x.1's numerators and denominator, from one lookup; for an
        unassigned x, WindowExceeded outside the window, else MalformedData
        naming x as the algebra writes it."""
        value = self._index.get(symbol)
        if value is not None:
            return dict(value.numerators), value.den
        name = format_symbol(symbol, self.algebra)
        if abs(symbol.loop_index) > self.window:
            raise WindowExceeded(f"{name} outside window {self.window}")
        raise MalformedData(f"no assignment for {name}")


AnySpec = Union[H4Family, AffineSpec, Vir00Spec, AffVirSpec, ActionData]
_SPEC_TYPES = get_args(AnySpec)


def algebra_of(spec: AnySpec) -> str:
    if not isinstance(spec, _SPEC_TYPES):
        raise SpecInvalid(f"not a module spec: {spec!r}")
    return spec.algebra


def module_variables(spec: AnySpec) -> Tuple[str, ...]:
    return MODULE_VARIABLES[algebra_of(spec)]


# shift_of's offsets on MODULE_VARIABLES from those of s and the loop variable.
_SHIFT_LAYOUT = {
    H4: lambda s, loop: (s,),
    AFFINE_H4: lambda s, loop: (s, loop),
    VIR00: lambda s, loop: (loop, 0),
    AFF_VIR: lambda s, loop: (s, loop),
}


def shift_of(algebra: str, symbol: BasisSymbol) -> Shift:
    """The variable shift the algebra forces on x's action, value aside.

    It is x's weight under the Cartan part: p lowers s by 1 and q raises
    it, and loop index n lowers the loop variable, d or d0, by n.  One
    offset per variable of MODULE_VARIABLES[algebra], in that order.
    """
    return _SHIFT_LAYOUT[algebra]({"p": -1, "q": 1}.get(symbol.kind, 0), -symbol.loop_index)


def _int_form(spec: AnySpec, symbol: BasisSymbol):
    """x.1 as the spec's integer form (numerators, den), computed afresh
    after the algebra check: every `_Forms` entry is built here."""
    check_in_algebra(algebra_of(spec), symbol)
    return spec.int_form(symbol)


# Entries kept by value_on_one's cache, so a long-running process that
# calls it keeps flat memory.
MAX_CACHED_VALUES = 1024


@functools.lru_cache(maxsize=MAX_CACHED_VALUES)
def value_on_one(spec: AnySpec, symbol: BasisSymbol) -> Poly:
    """x.1 as a polynomial in the module variables, through a bounded cache.

    No function of the package calls it: every request path reads x.1
    through the spec's own `_Forms` table.  It stays public, and
    perfbench/tracing.py reads its cache_info().
    """
    return _OwnsForms.on_one(spec, symbol)  # whose `algebra_of` refuses a non-spec


# act keeps no cache of its own, each spec keeps its own form table, so this
# stays empty; perfbench/tracing.py reads its size.
_ACT_CACHE: dict = {}


class _Forms(dict):
    """One spec's integer forms, keyed by symbol.

    A symbol's form is (offsets, numerators, den): its shift_x, the
    numerators of x.1 as {exponents: int} and x.1's denominator, as
    `_int_form` returns them, stored the first time the symbol is looked
    up, so each x.1 is computed at most once per spec, for request paths
    and `on_one` alike; a lookup that raises, such as
    WindowExceeded outside the window, stores nothing.  The table is the
    spec's own (`spec_forms`) and holds only a weak reference to it, so it
    is dropped with the spec.  Its maps are shared by every request on the
    spec: readers never modify them.  `verify_module` reads each form it
    needs from this table once per run at a new window, into a list by
    position.

    Beside the forms, `outcomes` is verify's outcome table: per resolved
    window, at most MAX_WINDOW of them, the (outcomes, failures) that
    `verify_module` found for the window's pairs, the first time it ran
    there without raising.  They do not depend on the test degree, so a
    later verify at that window reads neither a form nor a pair; their
    maps are shared and only read too.
    """

    def __init__(self, spec: AnySpec):
        super().__init__()
        self.spec = weakref.ref(spec)
        self.algebra = algebra_of(spec)
        self.outcomes: dict = {}  # verify's (outcomes, failures) by window

    def __missing__(self, x: BasisSymbol):
        form = self[x] = (shift_of(self.algebra, x), *_int_form(self.spec(), x))
        return form


def spec_forms(spec: AnySpec) -> _Forms:
    """The spec's own `_Forms` table, built on first use; SpecInvalid for a non-spec."""
    algebra_of(spec)
    return spec._forms


def _image(form, ints: dict) -> dict:
    """x.v times the denominator of x.1, on integers, from x's `_Forms` form
    (or a verify FAIL pair's, with sigma and R): shift_x(v) times the
    numerators of x.1, and {} when x.1 is zero.  `ints` is v as
    {exponents: int}; entries that cancel stay in the map as 0.  Where every
    offset is zero, `ints` is multiplied as it is: `_mul` never modifies it."""
    offsets, numerators, _ = form
    if not numerators:
        return {}
    return _mul(_taylor_shift(ints, offsets) if any(offsets) else ints, numerators.items())


def _act_sum(forms: _Forms, parts, v: Poly) -> Poly:
    """sum(c * x.v) over the (c, x) parts, x a basis symbol or None for the
    identity, with v in the module variables: the images are summed on
    integers over one common denominator.  Each symbol is checked in turn,
    even on v = 0; x.1 is looked up only when v is nonzero."""
    ints = dict(v.numerators)
    images = []  # (numerator, denominator, integer image) per part
    for coeff, x in parts:
        if x is None:
            images.append((coeff.numerator, coeff.denominator, ints))
            continue
        check_in_algebra(forms.algebra, x)
        if ints:
            form = forms[x]
            images.append((coeff.numerator, coeff.denominator * form[2], _image(form, ints)))
    total, common = _combine(images)
    return Poly._trusted(v.variables, total.items(), v.den * common)


def act(spec: AnySpec, x: Union[BasisSymbol, LieElement], v: Poly) -> Poly:
    """Evaluate x on v as shift_x(v) * x.1; linear in both x and v."""
    if not isinstance(x, (BasisSymbol, LieElement)):
        raise TypeError(f"x must be a BasisSymbol or LieElement, got {type(x).__name__}")
    if not isinstance(v, Poly):
        raise TypeError(f"v must be a Poly, got {type(v).__name__}")
    forms = spec_forms(spec)
    variables = MODULE_VARIABLES[forms.algebra]
    parts = [(c, y) for y, c in x.terms] if isinstance(x, LieElement) else [(Fraction(1), x)]
    if not parts:
        return Poly.zero(variables)
    check_in_algebra(forms.algebra, parts[0][1])  # the first symbol before v
    return _act_sum(forms, parts, change_variables(v, variables))


def _resolve_window(spec: AnySpec, window: Optional[int], low: int = 0) -> int:
    """The loop window to enumerate on the spec: `window` read by
    `integer_argument` from `low` up, WindowExceeded past the spec's own, and
    0 on H4, which has no loop directions.  Where `low` is 0 (`generators`,
    `actions_of`), None asks for the spec's own window."""
    algebra = algebra_of(spec)
    limit = spec.window
    if window is None and low == 0:
        # Vir00 carries no window of its own; 2 reaches the first nonzero cocycle.
        window = 2 if limit is None else limit
    else:
        window = integer_argument(window, "window", low, MAX_WINDOW)
    if algebra == H4:
        return 0
    if limit is not None and window > limit:
        raise WindowExceeded(f"window {window} exceeds the spec's window {limit}")
    return window


# The one generator list, which `generators`, `actions_of`, verify's plans,
# `classify`, the witness and the orbit oracle read: one tuple per algebra and
# window, so the table stays bounded.
@functools.lru_cache(maxsize=len(ALGEBRA_KINDS) * (MAX_WINDOW + 1))
def _symbols(algebra: str, window: int) -> tuple:
    """The algebra's basis symbols up to loop index `window`, in canonical order."""
    looped, fixed = ALGEBRA_KINDS[algebra]
    loops = range(-window, window + 1)
    out = [sym(kind, i) for kind in looped for i in loops] + [sym(kind) for kind in fixed]
    return tuple(sorted(out, key=sort_key))


def generators(spec: AnySpec, window: Optional[int] = None) -> list:
    """The algebra's basis symbols within the window, in canonical order, in a new list.

    They come from `ALGEBRA_KINDS`, for action data too, so data that
    leaves one of them unassigned raises MalformedData when it is looked up.
    """
    window = _resolve_window(spec, window)
    return list(_symbols(spec.algebra, window))


def actions_of(spec: AnySpec, window: Optional[int] = None) -> ActionData:
    """Freeze the spec's generator values on 1 within the window into raw
    data; action data gives an equal copy, restricted to a smaller window.
    The values are the spec's own forms over its module variables, at the
    generators of a window `_resolve_window` has checked, so they skip the
    checks of `ActionData.__post_init__`."""
    w = _resolve_window(spec, window)
    table = {x: spec.on_one(x) for x in _symbols(spec.algebra, w)}
    return ActionData._checked(spec.algebra, w, table)
