"""Rank one Cartan-free module families as executable actions.

Six families over the Nappi-Witten algebra act on Q[s], two families over
its affinization act on Q[s,d], one family for Vir(0,0) acts on Q[d0,w0],
and the affine-Virasoro family acts on Q[s,d] again.

Every action here has the same shape: a generator x sends v to
shift_x(v) * (x.1), where shift_x is a variable shift forced by the
brackets with the Cartan part and x.1 is the value of x on the constant
polynomial 1.  The families differ only in those values, so one function,
`_value_on_one`, computes x.1 for every request path, afresh, and
`_integer_form` clears it to integers beside shift_x.  One function,
`_image`, takes every generator image from that form for `act`,
`irreducible.apply_chain_op`, the orbit oracle and `verify_module`, on
integers, with nothing kept per spec; `_act_sum` sums such images over
one common denominator for the first two.  The only state kept is each
`H4Family`'s base values, on the family object.  Raw `ActionData`
(values on 1 without a family attached) evaluates through the same
identity, which is what classification and corruption tests rely on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

from .exactpoly import (
    Poly,
    Shift,
    _combine,
    _from_integer_terms,
    _integer_terms,
    _shift_mul,
    change_variables,
)
from .liealg import (
    AFF_VIR,
    AFFINE_H4,
    H4,
    VIR00,
    BasisSymbol,
    D,
    K,
    LieElement,
    P,
    Q,
    R,
    S,
    check_in_algebra,
    format_symbol,
    sort_key,
    sym,
)

class ConstraintViolation(ValueError):
    """A named invariant failed; may carry a source position."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


class SpecInvalid(ConstraintViolation):
    """A module spec failed construction-time validation."""


class WindowExceeded(Exception):
    """A loop index fell outside the spec's finite window."""


class MalformedData(ValueError):
    """Action data is structurally unusable (missing generators, wrong ring)."""


MODULE_VARIABLES = {
    H4: ("s",),
    AFFINE_H4: ("s", "d"),
    VIR00: ("d0", "w0"),
    AFF_VIR: ("s", "d"),
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

Scalar = Union[int, Fraction, str]


def _fraction(value: Scalar, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise SpecInvalid(f"{what} must be rational, got {value!r}") from exc


def _poly_in(value, variables: Tuple[str, ...], what: str) -> Poly:
    if isinstance(value, Poly):
        try:
            return change_variables(value, variables)
        except Exception as exc:
            raise SpecInvalid(f"{what} must be a polynomial in {variables}") from exc
    return Poly.const(variables, _fraction(value, what))


def _int_keyed(entries, coerce, what: str):
    if isinstance(entries, Mapping):
        items = entries.items()
    else:
        items = entries
    out = {}
    for key, value in items:
        k = int(key)
        if k in out:
            raise SpecInvalid(f"duplicate {what}.{k}")
        out[k] = coerce(value, f"{what}.{k}")
    return out


@dataclass(frozen=True)
class H4Family:
    """One of the six families: Mg0, M0g, Mhb, Mbh, Mab, M0.

    Its values on 1 of p, q and r (`h4_base_values`) are built on first
    use and kept beside the fields, as a cached property, so equality,
    hashing, repr and `dataclasses.replace` see the parameters alone.
    """

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
        if self.variant in ("Mg0", "M0g"):
            g = _poly_in(self.g, ("s",), "g")
            if g.is_zero():
                raise SpecInvalid("g must be a non-zero polynomial in s")
            object.__setattr__(self, "g", g)
        elif self.variant in ("Mhb", "Mbh"):
            a1 = _fraction(self.a1, "a1")
            if a1 == 0:
                raise SpecInvalid("a1 != 0: h must be a non-zero one-degree polynomial")
            b = _fraction(self.b, "b")
            if b == 0:
                raise SpecInvalid("b != 0 is required")
            object.__setattr__(self, "a1", a1)
            object.__setattr__(self, "a2", _fraction(self.a2, "a2"))
            object.__setattr__(self, "b", b)
        elif self.variant == "Mab":
            a = _fraction(self.a, "a")
            b = _fraction(self.b, "b")
            if a == 0 or b == 0:
                raise SpecInvalid("a != 0 and b != 0 are required")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    @functools.cached_property
    def _base_values(self) -> Tuple[Poly, Poly, Fraction]:
        s = Poly.var(("s",), "s")
        zero = Poly.zero(("s",))
        if self.variant == "Mg0":
            return self.g, zero, Fraction(0)
        if self.variant == "M0g":
            return zero, self.g, Fraction(0)
        if self.variant == "Mhb":
            h = self.a1 * s + Poly.const(("s",), self.a2)
            return h, Poly.const(("s",), self.b), -self.a1 * self.b
        if self.variant == "Mbh":
            h = self.a1 * s + Poly.const(("s",), self.a2)
            return Poly.const(("s",), self.b), h, -self.a1 * self.b
        if self.variant == "Mab":
            return Poly.const(("s",), self.a), Poly.const(("s",), self.b), Fraction(0)
        return zero, zero, Fraction(0)


def mg0(g) -> H4Family:
    return H4Family("Mg0", g=g)


def m0g(g) -> H4Family:
    return H4Family("M0g", g=g)


def mhb(a1: Scalar, a2: Scalar, b: Scalar) -> H4Family:
    return H4Family("Mhb", a1=Fraction(a1), a2=Fraction(a2), b=Fraction(b))


def mbh(a1: Scalar, a2: Scalar, b: Scalar) -> H4Family:
    return H4Family("Mbh", a1=Fraction(a1), a2=Fraction(a2), b=Fraction(b))


def mab(a: Scalar, b: Scalar) -> H4Family:
    return H4Family("Mab", a=Fraction(a), b=Fraction(b))


def m0() -> H4Family:
    return H4Family("M0")


def h4_base_values(fam: H4Family) -> Tuple[Poly, Poly, Fraction]:
    """(p.1, q.1, r.1) for the family; r.1 is always a constant."""
    return fam._base_values


def _check_window_limit(window) -> None:
    if isinstance(window, int) and window > MAX_WINDOW:
        raise SpecInvalid(f"window exceeds the limit {MAX_WINDOW}")


@dataclass(frozen=True)
class AffineSpec:
    """Affinized module: MTildeAlphaBeta over a base family, or MTildeF."""

    variant: str
    window: int
    alpha: Optional[Fraction] = None
    base: Optional[H4Family] = None
    beta: Tuple[Tuple[int, Fraction], ...] = ()
    fseq: Tuple[Tuple[int, Poly], ...] = ()

    def __post_init__(self):
        if self.variant not in AFFINE_VARIANTS:
            raise SpecInvalid(f"unknown affine family {self.variant!r}")
        if not isinstance(self.window, int) or self.window < 1:
            raise SpecInvalid("window must be a positive integer")
        _check_window_limit(self.window)
        keys = set(range(-self.window, self.window + 1))
        if self.variant == "MTildeAlphaBeta":
            if not isinstance(self.base, H4Family):
                raise SpecInvalid("MTildeAlphaBeta needs a base H4 family")
            alpha = _fraction(self.alpha, "alpha")
            if alpha == 0:
                raise SpecInvalid("alpha must be non-zero")
            beta = _int_keyed(self.beta, lambda v, w: _fraction(v, w), "beta")
            beta.setdefault(0, Fraction(0))
            if beta[0] != 0:
                raise SpecInvalid("beta.0 must be 0")
            self._check_coverage(set(beta), keys, "beta")
            if self.fseq:
                raise SpecInvalid("f.<k> entries belong to MTildeF only")
            object.__setattr__(self, "alpha", alpha)
            object.__setattr__(self, "beta", tuple(sorted(beta.items())))
            object.__setattr__(self, "fseq", ())
        else:
            if self.base is not None or self.alpha is not None or self.beta:
                raise SpecInvalid("MTildeF takes only window and f.<k> entries")
            fseq = _int_keyed(self.fseq, lambda v, w: _poly_in(v, ("s",), w), "f")
            fseq.setdefault(0, Poly.var(("s",), "s"))
            if fseq[0] != Poly.var(("s",), "s"):
                raise SpecInvalid("f.0 must be s")
            self._check_coverage(set(fseq), keys, "f")
            object.__setattr__(self, "fseq", tuple(sorted(fseq.items())))

    @staticmethod
    def _check_coverage(have, want, name):
        missing = sorted(want - have)
        extra = sorted(have - want)
        if missing:
            raise SpecInvalid(f"{name}.{missing[0]} missing inside window")
        if extra:
            raise SpecInvalid(f"{name}.{extra[0]} lies outside the window")

    def beta_at(self, k: int) -> Fraction:
        return dict(self.beta)[k]

    def f_at(self, k: int) -> Poly:
        return dict(self.fseq)[k]


def mtilde(base: H4Family, alpha: Scalar, beta, window: int) -> AffineSpec:
    return AffineSpec("MTildeAlphaBeta", window, alpha=Fraction(alpha), base=base, beta=beta)


def mtilde_f(fseq, window: int) -> AffineSpec:
    return AffineSpec("MTildeF", window, fseq=fseq)


@dataclass(frozen=True)
class Vir00Spec:
    """Vir(0,0) module M(lambda, f) on Q[d0, w0]."""

    lam: Fraction
    fpoly: Poly

    def __post_init__(self):
        lam = _fraction(self.lam, "lambda")
        if lam == 0:
            raise SpecInvalid("lambda must be non-zero")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "fpoly", _poly_in(self.fpoly, ("w0",), "fpoly"))


@dataclass(frozen=True)
class AffVirSpec:
    """Affine-Virasoro module: a beta-free MTildeAlphaBeta plus d_n actions."""

    base: AffineSpec
    lambda_shift: Fraction

    def __post_init__(self):
        if not isinstance(self.base, AffineSpec) or self.base.variant != "MTildeAlphaBeta":
            raise SpecInvalid("affine-Virasoro base must be an MTildeAlphaBeta spec")
        if any(v != 0 for _, v in self.base.beta):
            raise SpecInvalid("beta must vanish for the affine-Virasoro family")
        object.__setattr__(self, "lambda_shift", _fraction(self.lambda_shift, "lambda"))


def affvir(base: H4Family, alpha: Scalar, lam: Scalar, window: int) -> AffVirSpec:
    _check_window_limit(window)
    zero_beta = {k: Fraction(0) for k in range(-window, window + 1)}
    inner = mtilde(base, alpha, zero_beta, window)
    return AffVirSpec(base=inner, lambda_shift=Fraction(lam))


@dataclass(frozen=True)
class ActionData:
    """Raw generator values on 1, detached from any family.

    `assignments` holds (symbol, value) pairs sorted by symbol.  A dict
    from symbol to value, built beside it once, answers `value` and `has`;
    it is not a field, so equality, hashing, repr and
    `dataclasses.replace` see the assignments alone.
    """

    algebra: str
    window: int
    assignments: Tuple[Tuple[BasisSymbol, Poly], ...]

    def __post_init__(self):
        if self.algebra not in MODULE_VARIABLES:
            raise MalformedData(f"unknown algebra {self.algebra!r}")
        if not isinstance(self.window, int) or self.window < 0:
            raise MalformedData("window must be a non-negative integer")
        if self.window > MAX_WINDOW:
            raise MalformedData(f"window exceeds the limit {MAX_WINDOW}")
        variables = MODULE_VARIABLES[self.algebra]
        if isinstance(self.assignments, Mapping):
            items = self.assignments.items()
        else:
            items = self.assignments
        seen = {}
        for symbol, value in items:
            if not isinstance(symbol, BasisSymbol):
                raise MalformedData(f"assignment key {symbol!r} is not a generator")
            check_in_algebra(self.algebra, symbol)
            if abs(symbol.loop_index) > self.window:
                raise MalformedData(
                    f"{format_symbol(symbol)} lies outside window {self.window}"
                )
            if symbol in seen:
                raise MalformedData(f"duplicate assignment for {format_symbol(symbol)}")
            if isinstance(value, Poly):
                try:
                    value = change_variables(value, variables)
                except Exception as exc:
                    raise MalformedData(
                        f"{format_symbol(symbol)} value must live in Q{list(variables)}"
                    ) from exc
            else:
                value = Poly.const(variables, Fraction(value))
            seen[symbol] = value
        ordered = tuple(sorted(seen.items(), key=lambda kv: sort_key(kv[0])))
        object.__setattr__(self, "assignments", ordered)
        object.__setattr__(self, "_index", seen)

    def value(self, symbol: BasisSymbol) -> Poly:
        return self._index[symbol]

    def has(self, symbol: BasisSymbol) -> bool:
        return symbol in self._index


AnySpec = Union[H4Family, AffineSpec, Vir00Spec, AffVirSpec, ActionData]


def algebra_of(spec: AnySpec) -> str:
    if isinstance(spec, H4Family):
        return H4
    if isinstance(spec, AffineSpec):
        return AFFINE_H4
    if isinstance(spec, Vir00Spec):
        return VIR00
    if isinstance(spec, AffVirSpec):
        return AFF_VIR
    if isinstance(spec, ActionData):
        return spec.algebra
    raise SpecInvalid(f"not a module spec: {spec!r}")


def module_variables(spec: AnySpec) -> Tuple[str, ...]:
    return MODULE_VARIABLES[algebra_of(spec)]


def spec_window(spec: AnySpec) -> Optional[int]:
    """Largest usable loop index; None when unbounded, 0 for plain H4."""
    if isinstance(spec, H4Family):
        return 0
    if isinstance(spec, AffineSpec):
        return spec.window
    if isinstance(spec, AffVirSpec):
        return spec.base.window
    if isinstance(spec, ActionData):
        return spec.window
    return None


def shift_of(algebra: str, symbol: BasisSymbol) -> Shift:
    """The variable shift the algebra forces on x's action, value aside.

    One offset per variable of MODULE_VARIABLES[algebra], in that order.
    """
    kind, n = symbol.kind, symbol.loop_index
    s_off = {"p": -1, "q": 1}.get(kind, 0)
    if algebra == H4:
        return (s_off,)
    if algebra == AFFINE_H4:
        if kind in ("k", "d"):
            return (0, 0)
        return (s_off, -n)
    if algebra == VIR00:
        if kind == "k":
            return (0, 0)
        return (-n, 0)
    if algebra == AFF_VIR:
        if kind == "k":
            return (0, 0)
        if kind == "dvir":
            return (0, -n)
        return (s_off, -n)
    raise SpecInvalid(f"unknown algebra {algebra!r}")


def _value_on_one(spec: AnySpec, symbol: BasisSymbol) -> Poly:
    """x.1 as a polynomial in the module variables, computed afresh."""
    algebra = algebra_of(spec)
    check_in_algebra(algebra, symbol)
    variables = MODULE_VARIABLES[algebra]
    kind, n = symbol.kind, symbol.loop_index

    if isinstance(spec, ActionData):
        if spec.has(symbol):
            return spec.value(symbol)
        if abs(n) > spec.window:
            raise WindowExceeded(f"{format_symbol(symbol)} outside window {spec.window}")
        raise MalformedData(f"no assignment for {format_symbol(symbol)}")

    if isinstance(spec, H4Family):
        p1, q1, r1 = h4_base_values(spec)
        if kind == "p":
            return p1
        if kind == "q":
            return q1
        if kind == "r":
            return Poly.const(variables, r1)
        return Poly.var(variables, "s")

    if isinstance(spec, AffineSpec):
        if kind == "k":
            return Poly.zero(variables)
        if kind == "d":
            return Poly.var(variables, "d")
        if abs(n) > spec.window:
            raise WindowExceeded(f"{format_symbol(symbol)} outside window {spec.window}")
        if spec.variant == "MTildeF":
            if kind == "s":
                return change_variables(spec.f_at(n), variables)
            return Poly.zero(variables)
        scale = spec.alpha ** n
        if kind == "s":
            return scale * Poly.var(variables, "s") + Poly.const(variables, spec.beta_at(n))
        # p, q and r at loop n act by alpha^n times their base family value
        return scale * change_variables(_value_on_one(spec.base, sym(kind)), variables)

    if isinstance(spec, Vir00Spec):
        if kind == "k":
            return Poly.zero(variables)
        scale = spec.lam ** n
        if kind == "s":
            return scale * Poly.var(variables, "w0")
        f = change_variables(spec.fpoly, variables)
        return scale * (Poly.var(variables, "d0") + n * f)

    if isinstance(spec, AffVirSpec):
        if kind == "k":
            return Poly.zero(variables)
        if kind == "dvir":
            scale = spec.base.alpha ** n
            mu = n * scale * spec.lambda_shift
            return scale * Poly.var(variables, "d") + Poly.const(variables, mu)
        return _value_on_one(spec.base, symbol)

    raise SpecInvalid(f"not a module spec: {spec!r}")


# Entries kept by value_on_one's cache, so a long-running process that
# calls it keeps flat memory.
MAX_CACHED_VALUES = 1024


@functools.lru_cache(maxsize=MAX_CACHED_VALUES)
def value_on_one(spec: AnySpec, symbol: BasisSymbol) -> Poly:
    """x.1 as a polynomial in the module variables, through a bounded cache.

    No function of the package calls it: every request path computes x.1
    afresh through `_integer_form`.  It stays public, and
    perfbench/tracing.py reads its cache_info().
    """
    return _value_on_one(spec, symbol)


# act keeps nothing per spec, so this stays empty; perfbench/tracing.py
# reads its size.
_ACT_CACHE: dict = {}


def _integer_form(spec: AnySpec, algebra: str, x: BasisSymbol):
    """x's integer form: shift_x, the numerators of x.1 over one common
    denominator as {exponents: int}, and that denominator."""
    numerators, den = _integer_terms(_value_on_one(spec, x))
    return shift_of(algebra, x), numerators, den


def _image(forms: dict, x: BasisSymbol, ints: dict) -> dict:
    """x.v times the denominator of x.1, on integers: shift_x(v) times the
    numerators of x.1, and {} when x.1 is zero.  `forms` maps x (a symbol,
    or a position in verify's table) to its integer form and `ints` is v
    as {exponents: int}; entries that cancel stay in the map as 0."""
    offsets, numerators, _ = forms[x]
    return _shift_mul(ints, offsets, numerators.items()) if numerators else {}


def _act_sum(spec: AnySpec, parts, v: Poly) -> Poly:
    """sum(c * x.v) over the (c, x) parts, x a basis symbol or None for the
    identity, with v in the module variables: the images are summed on
    integers over one common denominator.  Each symbol is checked in turn,
    even on v = 0; x.1 is looked up only when v is nonzero."""
    algebra = algebra_of(spec)
    ints, scale = _integer_terms(v)
    forms = {}
    images = []  # (numerator, denominator, integer image) per part
    for coeff, x in parts:
        if x is None:
            images.append((coeff.numerator, coeff.denominator, ints))
            continue
        check_in_algebra(algebra, x)
        if ints:
            forms[x] = _integer_form(spec, algebra, x)
            images.append((coeff.numerator, coeff.denominator * forms[x][2], _image(forms, x, ints)))
    total, common = _combine(images)
    return _from_integer_terms(v.variables, total, scale * common)


def act(spec: AnySpec, x: Union[BasisSymbol, LieElement], v: Poly) -> Poly:
    """Evaluate x on v as shift_x(v) * x.1; linear in both x and v."""
    algebra = algebra_of(spec)
    variables = MODULE_VARIABLES[algebra]
    parts = [(c, y) for y, c in x.terms] if isinstance(x, LieElement) else [(Fraction(1), x)]
    if not parts:
        return Poly.zero(variables)
    check_in_algebra(algebra, parts[0][1])  # the first symbol before v
    return _act_sum(spec, parts, change_variables(v, variables))


def _resolve_window(spec: AnySpec, window: Optional[int]) -> int:
    limit = spec_window(spec)
    if algebra_of(spec) == H4:
        # plain H4 has no loop directions; any requested window collapses
        return 0
    if window is None:
        # Vir00 carries no window of its own; 2 reaches the first nonzero cocycle.
        return limit if limit is not None else 2
    if limit is not None and window > limit:
        raise WindowExceeded(f"window {window} exceeds the spec's window {limit}")
    return window


def generators(spec: AnySpec, window: Optional[int] = None):
    """Basis symbols the spec can evaluate, in canonical order."""
    algebra = algebra_of(spec)
    w = _resolve_window(spec, window)
    loops = range(-w, w + 1)
    if isinstance(spec, ActionData):
        out = [key for key, _ in spec.assignments if abs(key.loop_index) <= w]
    elif algebra == H4:
        out = [P, Q, R, S]
    elif algebra == AFFINE_H4:
        out = [sym(kind, i) for kind in ("p", "q", "r", "s") for i in loops]
        out += [K, D]
    elif algebra == VIR00:
        out = [sym("dvir", i) for i in loops] + [sym("s", i) for i in loops] + [K]
    else:
        out = [sym(kind, i) for kind in ("p", "q", "r", "s") for i in loops]
        out += [sym("dvir", i) for i in loops] + [K]
    return sorted(out, key=sort_key)


def actions_of(spec: AnySpec, window: Optional[int] = None) -> ActionData:
    """Freeze the spec's generator values on 1 into raw data."""
    if isinstance(spec, ActionData):
        return spec
    w = _resolve_window(spec, window)
    table = {x: _value_on_one(spec, x) for x in generators(spec, w)}
    return ActionData(algebra_of(spec), w, tuple(table.items()))
