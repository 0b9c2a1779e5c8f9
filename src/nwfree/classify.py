"""Classify raw action data into module families, twist, and compare.

`classify_h4` and `classify_affine` invert `actions_of`: given the values
of the generators on 1 they either rebuild the unique spec that generates
the data or reject it, naming the violated constraint through a stable
anchor token.  Rejections are decisions, not exceptions; structurally
unusable data (missing generators, wrong ring, denormalized s or d slot)
raises MalformedData instead.

The checks run in this order, and the first that fails names the anchor.
On H4 data, with p.1, q.1 and r.1 the values of p, q and r:

    r1-constant                 r.1 is not a constant
    r1-zero-when-pq-degenerate  p.1 or q.1 is zero and r.1 is not
    degree-dichotomy            the s-degrees of (p.1, q.1) are not
                                (0,0), (1,0) or (0,1)
    r1-product-rule             r.1 differs from p.(q.1) - q.(p.1), the
                                module axiom for [p, q], through `act`

On AffineH4 data, with f_k the value of s at loop k and alpha the
s-coefficient of f_1:

    deg-d-f            some f_k depends on d
    deg-s-f            some f_k has s-degree above 1, unless p, q and r
                       all act as zero (then the data is M~_F)
    f0-side-condition  f_0 is not s
    central-k          k.1 is not 0, on the M~_F path
    alpha-nonzero      alpha is 0
    alpha-power        the s-coefficient of some f_k is not alpha^k
    deg-d-base         p, q or r at loop 0 depends on d
    loop-scaling       p, q or r at some loop k is not alpha^k times its
                       loop-0 value
    central-k          k.1 is not 0

and then the H4 checks on the loop-0 values, the base of M~(alpha, beta).

The generators are read in `modfam._symbols` order, the one generator
list, so the first one the data leaves unassigned is named as `verify`
names it; `specdsl` reads the action document in line order.

Every check reads the canonical integer numerators and the denominator of
the values (`Poly.numerators`, `Poly.den`): degrees from the exponent keys,
alpha^k once per loop index as a pair of integers, and loop scaling as
integer cross-multiplication.  A `Fraction` or a new `Poly` is built only
for the text of a rejection, for the parameters of the classified spec,
and for the product rule: the H4 base data and the images `act` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from . import InputError
from .exactpoly import Poly, change_variables, format_poly, format_rational, negate_var
from .liealg import AFFINE_H4, H4, P, Q, R, S
from .modfam import (
    ActionData,
    AffineSpec,
    H4Family,
    MalformedData,
    _rational_power,
    _symbols,
    act,
    actions_of,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    mtilde,
    mtilde_f,
)

__all__ = [
    "ActionData",
    "Classified",
    "Rejected",
    "UnsupportedTwist",
    "UnsupportedIso",
    "WindowMismatch",
    "actions_of",
    "classify",
    "classify_h4",
    "classify_affine",
    "twist",
    "iso_check",
]


@dataclass(frozen=True)
class Classified:
    spec: Union[H4Family, AffineSpec]


@dataclass(frozen=True)
class Rejected:
    anchor: str
    reason: str


ClassificationResult = Union[Classified, Rejected]


class UnsupportedTwist(InputError, ValueError):
    """Twist images are only recorded for the Mg0 and Mhb variants."""


class UnsupportedIso(InputError, ValueError):
    """Isomorphism is only decided within the MTildeAlphaBeta variant."""


class WindowMismatch(InputError, ValueError):
    """The two specs live on different loop windows."""


_S = Poly.var(("s",), "s")
_SD_S = Poly.var(("s", "d"), "s")
_SD_D = Poly.var(("s", "d"), "d")

def _values(data: ActionData, symbols) -> list:
    """The values on 1 of `symbols`; MalformedData from `on_one` for the
    first that the data leaves unassigned."""
    try:
        return list(map(data.value, symbols))
    except KeyError:
        return [data.on_one(x) for x in symbols]  # raises at the first one missing


def classify(data: ActionData) -> ClassificationResult:
    if not isinstance(data, ActionData):
        raise TypeError(f"data must be ActionData, got {type(data).__name__}")
    if data.algebra == H4:
        return classify_h4(data)
    if data.algebra == AFFINE_H4:
        return classify_affine(data)
    raise MalformedData(f"no classification for {data.algebra} data")


def classify_h4(data: ActionData) -> ClassificationResult:
    if data.algebra != H4:
        raise MalformedData("classify_h4 needs H4 data")
    p1, q1, r1, s1 = _values(data, (P, Q, R, S))
    if s1 != _S:
        raise MalformedData("s must act as multiplication by s")

    if not r1.is_constant():
        return Rejected("r1-constant", f"r.1 = {format_poly(r1)} is not a constant")

    if p1.is_zero() or q1.is_zero():
        if not r1.is_zero():
            return Rejected(
                "r1-zero-when-pq-degenerate",
                f"r.1 = {format_poly(r1)} must vanish when p.1 or q.1 is zero",
            )
        if p1.is_zero() and q1.is_zero():
            return Classified(m0())
        return Classified(mg0(p1) if q1.is_zero() else m0g(q1))

    # the leading term of a nonzero value carries its s-degree
    dp, dq = p1.numerators[0][0][0], q1.numerators[0][0][0]
    if (dp, dq) not in ((0, 0), (1, 0), (0, 1)):
        return Rejected(
            "degree-dichotomy",
            f"degree pair ({dp}, {dq}) is not (0,0), (1,0) or (0,1)",
        )
    # [p, q].1 = p.(q.1) - q.(p.1), the module axiom on the data itself
    forced = act(data, P, q1) - act(data, Q, p1)
    if forced != r1:
        return Rejected(
            "r1-product-rule",
            f"r.1 = {format_poly(r1)} but [p,q] forces {format_poly(forced)}",
        )
    if (dp, dq) == (0, 0):
        return Classified(mab(p1.coefficient((0,)), q1.coefficient((0,))))
    h, b = (p1, q1) if dp else (q1, p1)
    builder = mhb if dp else mbh
    return Classified(builder(h.coefficient((1,)), h.coefficient((0,)), b.coefficient((0,))))


def _linear(f: Poly) -> Tuple[int, int]:
    """(a, b) with f = (a s + b) / f.den, for f in s and d of s-degree at
    most 1 that does not depend on d."""
    a = b = 0
    for (i, _), n in f.numerators:
        if i:
            a = n
        else:
            b = n
    return a, b


def _scaled(x: Poly, x0: Poly, num: int, den: int) -> bool:
    """x == num / den * x0 for num != 0: both sides are canonical, so the
    exponents agree term by term and each numerator pair cross-multiplies."""
    if len(x.numerators) != len(x0.numerators):
        return False
    left, right = den * x0.den, num * x.den
    return all(
        e == e0 and n * left == n0 * right
        for (e, n), (e0, n0) in zip(x.numerators, x0.numerators)
    )


def classify_affine(data: ActionData) -> ClassificationResult:
    if data.algebra != AFFINE_H4:
        raise MalformedData("classify_affine needs affine data")
    w = data.window
    loops = range(-w, w + 1)
    n = 2 * w + 1
    *values, k_val, d_val = _values(data, _symbols(AFFINE_H4, w))  # p, q, r, s, k, d
    p, q, r, fseq = (values[i:i + n] for i in range(0, 4 * n, n))
    if d_val != _SD_D:
        raise MalformedData("d must act as multiplication by d")

    # p, q and r all zero is M~_F, whose f_k may take any s-degree
    pqr_zero = not any(x.numerators for row in (p, q, r) for x in row)
    for k, fk in zip(loops, fseq):
        if any(e[1] for e, _ in fk.numerators):
            return Rejected("deg-d-f", f"f_{k} = {format_poly(fk)} depends on d")
        if not pqr_zero and any(e[0] > 1 for e, _ in fk.numerators):
            return Rejected("deg-s-f", f"f_{k} = {format_poly(fk)} has s-degree above 1")
    if fseq[w] != _SD_S:
        return Rejected("f0-side-condition", f"f_0 = {format_poly(fseq[w])} must equal s")
    if pqr_zero:
        if not k_val.is_zero():
            return Rejected("central-k", f"k.1 = {format_poly(k_val)} must be 0")
        return Classified(mtilde_f({k: change_variables(fk, ("s",)) for k, fk in zip(loops, fseq)}, w))
    if w < 1:  # alpha is read from f_1
        raise MalformedData("window must be a positive integer")
    lines = [_linear(fk) for fk in fseq]
    if lines[w + 1][0] == 0:
        return Rejected("alpha-nonzero", "the s-coefficient of f_1 must be invertible")
    alpha = Fraction(lines[w + 1][0], fseq[w + 1].den)
    powers = [_rational_power(alpha.numerator, alpha.denominator, k) for k in loops]
    for k, fk, (scale, _), (num, den) in zip(loops, fseq, lines, powers):
        if scale * den != num * fk.den:
            return Rejected(
                "alpha-power",
                f"s-coefficient of f_{k} is {format_rational(Fraction(scale, fk.den))}, "
                f"expected alpha^{k} = {format_rational(Fraction(num, den))}",
            )
    for kind, row in zip("pqr", (p, q, r)):
        x0 = row[w]
        if any(e[1] for e, _ in x0.numerators):
            return Rejected("deg-d-base", f"{kind}.1 = {format_poly(x0)} depends on d")
        for k, x, (num, den) in zip(loops, row, powers):
            if not _scaled(x, x0, num, den):
                return Rejected(
                    "loop-scaling",
                    f"{kind} at loop {k} is not alpha^{k} times its loop-0 value",
                )
    if not k_val.is_zero():
        return Rejected("central-k", f"k.1 = {format_poly(k_val)} must be 0")

    base_data = ActionData._checked(H4, 0, {
        P: change_variables(p[w], ("s",)),
        Q: change_variables(q[w], ("s",)),
        R: change_variables(r[w], ("s",)),
        S: _S,
    })
    base = classify_h4(base_data)
    if isinstance(base, Rejected):
        return base
    beta = {k: Fraction(c, fk.den) for k, fk, (_, c) in zip(loops, fseq, lines)}
    return Classified(mtilde(base.spec, alpha, beta, w))


def twist(spec: H4Family) -> H4Family:
    """Image family under the order-four automorphism, for Mg0 and Mhb."""
    if not isinstance(spec, H4Family):
        raise UnsupportedTwist(f"no twist image recorded for {type(spec).__name__}")
    if spec.variant == "Mg0":
        return m0g(negate_var(spec.g, "s"))
    if spec.variant == "Mhb":
        # h(s) goes to h(-s), b to -b
        return mbh(-spec.a1, spec.a2, -spec.b)
    raise UnsupportedTwist(f"no twist image recorded for {spec.variant}")


def iso_check(a: AffineSpec, b: AffineSpec) -> bool:
    for spec in (a, b):
        if not isinstance(spec, AffineSpec) or spec.variant != "MTildeAlphaBeta":
            raise UnsupportedIso("iso_check compares MTildeAlphaBeta specs only")
    if a.window != b.window:
        raise WindowMismatch(f"windows {a.window} and {b.window} differ")
    return a == b  # with variant and window equal, base, alpha and beta decide
