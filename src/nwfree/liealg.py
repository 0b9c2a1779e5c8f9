"""The four Lie algebras as structure-constant tables.

Basis symbols carry a kind and a loop index:

  kind  p q r s   the base algebra H4 ([p,q]=r, [s,p]=p, [s,q]=-q, r central)
                  and its loop elements h (x) t^m
  kind  k         the central element of the affinizations
  kind  d         the single degree derivation of the affine algebra
  kind  dvir      the Virasoro-type derivations d_m

Algebras: H4 (loop index 0 only), AffineH4 (loops + k + d), Vir00 (d_m,
commuting W_m, k; the W_m are represented by kind s at loop index m and
print as `w@m` in that context), AffineVirasoroH4 (loops + d_m + k).
`ALGEBRA_KINDS` is the one statement of which kinds each algebra has and
which of them carry every loop index: membership (`check_in_algebra`),
a module's generators and its shifts all read it.

The symmetric invariant form has (p,q) = (r,s) = 1 and vanishes otherwise;
it feeds the central cocycle m*(h1,h2)*delta_{m+n,0}*k of the affine
bracket.  The Virasoro cocycle is delta_{a+b,0}*(a^3-a)/12*k, stored as an
exact rational.  eta is the order-four automorphism p -> -q, q -> p,
r -> r, s -> -s of H4.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

from . import InputError

KIND_RANK = {"p": 0, "q": 1, "r": 2, "s": 3, "k": 4, "d": 5, "dvir": 6}
H4_KINDS = ("p", "q", "r", "s")

H4 = "H4"
AFFINE_H4 = "AffineH4"
VIR00 = "Vir00"
AFF_VIR = "AffineVirasoroH4"

# Per algebra, (kinds at every loop index, kinds at loop index 0 only).
ALGEBRA_KINDS = {
    H4: ((), H4_KINDS),
    AFFINE_H4: (H4_KINDS, ("k", "d")),
    VIR00: (("dvir", "s"), ("k",)),
    AFF_VIR: (H4_KINDS + ("dvir",), ("k",)),
}


class SymbolNotInAlgebra(InputError, ValueError):
    pass


@dataclass(frozen=True)
class BasisSymbol:
    kind: str
    loop_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KIND_RANK:
            raise SymbolNotInAlgebra(f"unknown basis kind {self.kind!r}")
        if type(self.loop_index) is not int:  # stored by operator.index: a bool as its int
            try:
                object.__setattr__(self, "loop_index", operator.index(self.loop_index))
            except TypeError:
                raise SymbolNotInAlgebra("loop index must be an integer") from None
        if self.kind in ("k", "d") and self.loop_index != 0:
            raise SymbolNotInAlgebra(f"{self.kind} carries loop index 0")


def sort_key(sym: BasisSymbol) -> tuple:
    return (KIND_RANK[sym.kind], sym.loop_index)


P = BasisSymbol("p")
Q = BasisSymbol("q")
R = BasisSymbol("r")
S = BasisSymbol("s")
K = BasisSymbol("k")
D = BasisSymbol("d")


def sym(kind: str, loop_index: int = 0) -> BasisSymbol:
    return BasisSymbol(kind, loop_index)


@dataclass(frozen=True)
class LieElement:
    """Finite rational linear combination of basis symbols."""

    terms: Tuple[Tuple[BasisSymbol, Fraction], ...] = ()

    def __post_init__(self) -> None:
        raw = self.terms.items() if isinstance(self.terms, Mapping) else self.terms
        merged: dict[BasisSymbol, Fraction] = {}
        for symbol, coeff in raw:
            coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if coeff:
                acc = merged.get(symbol, Fraction(0)) + coeff
                if acc:
                    merged[symbol] = acc
                else:
                    merged.pop(symbol, None)
        canon = tuple(sorted(merged.items(), key=lambda t: sort_key(t[0])))
        object.__setattr__(self, "terms", canon)

    @staticmethod
    def basis(symbol: BasisSymbol, coeff: Union[int, Fraction] = 1) -> "LieElement":
        return LieElement(((symbol, Fraction(coeff)),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LieElement") -> "LieElement":
        acc = dict(self.terms)
        for symbol, coeff in other.terms:
            acc[symbol] = acc.get(symbol, Fraction(0)) + coeff
        return LieElement(acc)

    def __neg__(self) -> "LieElement":
        return LieElement(tuple((s, -c) for s, c in self.terms))

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def scale(self, c: Union[int, Fraction]) -> "LieElement":
        c = Fraction(c)
        return LieElement(tuple((s, c * v) for s, v in self.terms))


LIE_ZERO = LieElement(())


def check_in_algebra(alg: str, symbol: BasisSymbol) -> None:
    looped, fixed = ALGEBRA_KINDS[alg]
    if symbol.kind not in looped and (symbol.kind not in fixed or symbol.loop_index):
        raise SymbolNotInAlgebra(f"{format_symbol(symbol)} is not a basis symbol of {alg}")


# [a, b] on H4 kinds, as ((kind, coeff), ...): the minimal table, then
# the rest by antisymmetry; absent pairs commute.
_H4_TABLE = {
    ("p", "q"): (("r", 1),),
    ("s", "p"): (("p", 1),),
    ("s", "q"): (("q", -1),),
}
_H4_TABLE.update({(b, a): tuple((k, -c) for k, c in v) for (a, b), v in _H4_TABLE.items()})


def bilinear_form(x: BasisSymbol, y: BasisSymbol) -> Fraction:
    """The symmetric invariant form: (p,q) = (r,s) = 1, zero otherwise."""
    for symbol in (x, y):
        if symbol.kind not in H4_KINDS:
            raise SymbolNotInAlgebra(
                f"the bilinear form is defined on H4 kinds, not {format_symbol(symbol)}"
            )
    pair = frozenset((x.kind, y.kind))
    if pair in (frozenset(("p", "q")), frozenset(("r", "s"))):
        return Fraction(1)
    return Fraction(0)


def _bracket_basis(a: BasisSymbol, b: BasisSymbol) -> LieElement:
    """[a, b] for two basis symbols of one algebra.

    Once both are members, the bracket does not depend on which algebra
    holds them: H4 is the loop-0 part of the loop brackets, and Vir00's
    W_m, kind s, commute because [s, s] and (s, s) vanish.
    """
    if a.kind == "k" or b.kind == "k":
        return LIE_ZERO

    if a.kind in H4_KINDS and b.kind in H4_KINDS:
        m, n = a.loop_index, b.loop_index
        acc: dict[BasisSymbol, Fraction] = {}
        for kind, coeff in _H4_TABLE.get((a.kind, b.kind), ()):
            acc[BasisSymbol(kind, m + n)] = Fraction(coeff)
        if m + n == 0:
            central = m * bilinear_form(a, b)
            if central:
                acc[K] = acc.get(K, Fraction(0)) + central
        return LieElement(acc)

    # AffineH4's derivation d brackets as dvir at loop 0: [d, x_n] = n * x_n
    # and [d, d] = 0; no algebra holds both d and dvir
    if a.kind in ("d", "dvir") and b.kind in ("d", "dvir"):
        m, n = a.loop_index, b.loop_index
        acc = {}
        if n != m:
            acc[BasisSymbol("dvir", m + n)] = Fraction(n - m)
        if m + n == 0:
            cocycle = Fraction(m**3 - m, 12)
            if cocycle:
                acc[K] = cocycle
        return LieElement(acc)
    # [d_m, h (x) t^n] = n * h (x) t^(m+n); covers Vir00's W_n as well
    if a.kind in ("d", "dvir"):
        n = b.loop_index
        return LieElement.basis(BasisSymbol(b.kind, a.loop_index + n), n)
    n = a.loop_index
    return LieElement.basis(BasisSymbol(a.kind, b.loop_index + n), -n)


def bracket(alg: str, x: LieElement, y: LieElement) -> LieElement:
    """Bilinear extension of the structure-constant table of alg."""
    if isinstance(x, BasisSymbol):
        x = LieElement.basis(x)
    if isinstance(y, BasisSymbol):
        y = LieElement.basis(y)
    out = LIE_ZERO
    for sa, ca in x.terms:
        check_in_algebra(alg, sa)
        for sb, cb in y.terms:
            check_in_algebra(alg, sb)
            out = out + _bracket_basis(sa, sb).scale(ca * cb)
    return out


_ETA_ON_KIND = {
    "p": ("q", Fraction(-1)),
    "q": ("p", Fraction(1)),
    "r": ("r", Fraction(1)),
    "s": ("s", Fraction(-1)),
}


def eta(x: LieElement) -> LieElement:
    """The automorphism p -> -q, q -> p, r -> r, s -> -s of H4."""
    if isinstance(x, BasisSymbol):
        x = LieElement.basis(x)
    acc: dict[BasisSymbol, Fraction] = {}
    for symbol, coeff in x.terms:
        check_in_algebra(H4, symbol)
        kind, factor = _ETA_ON_KIND[symbol.kind]
        target = BasisSymbol(kind)
        acc[target] = acc.get(target, Fraction(0)) + coeff * factor
    return LieElement(acc)


def format_symbol(symbol: BasisSymbol, alg: str | None = None) -> str:
    name = symbol.kind
    if alg == VIR00 and symbol.kind == "s":
        name = "w"  # Vir00's commuting family prints under its own letter
    if symbol.loop_index == 0:
        return name
    return f"{name}@{symbol.loop_index}"


def parse_loop_index(text: str) -> int:
    """A loop index as format_symbol writes it: an optional '-', then ASCII digits.

    int() alone would also take other Unicode digits, underscores, a '+'
    and surrounding spaces.  Raises ValueError for anything else.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a loop index: {text!r}")
    return int(text)


def parse_symbol(text: str, alg: str | None = None) -> BasisSymbol:
    """Inverse of format_symbol: `p@2`, `dvir@-1`, `k`, `d`, `w@1`.

    `w` names s only in Vir00, or when no algebra is given, and Vir00
    takes no `s`."""
    text = text.strip()
    name, sep, idx = text.partition("@")
    kind = "s" if name == "w" and alg in (VIR00, None) else name
    if kind not in KIND_RANK or (name == "s" and alg == VIR00):
        raise SymbolNotInAlgebra(f"unknown basis symbol {text!r}")
    loop = 0
    if sep:  # `p@` names no loop index, so it is not `p`
        try:
            loop = parse_loop_index(idx)
        except ValueError:
            raise SymbolNotInAlgebra(f"bad loop index in {text!r}") from None
    symbol = BasisSymbol(kind, loop)
    if alg is not None:
        check_in_algebra(alg, symbol)
    return symbol
