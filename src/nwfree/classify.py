"""Classify raw action data into module families, twist, and compare.

`classify_h4` and `classify_affine` invert `actions_of`: given the values
of the generators on 1 they either rebuild the unique spec that generates
the data or reject it, naming the violated constraint through a stable
anchor token.  Rejections are decisions, not exceptions; structurally
unusable data (missing generators, wrong ring, denormalized s or d slot)
raises MalformedData instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import InputError
from .exactpoly import (
    Poly,
    change_variables,
    coefficient_in,
    degree_in,
    format_poly,
    format_rational,
    negate_var,
)
from .liealg import AFFINE_H4, H4, D, K, P, Q, R, S, sym
from .modfam import (
    ActionData,
    AffineSpec,
    H4Family,
    MalformedData,
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
    p1 = data.on_one(P)
    q1 = data.on_one(Q)
    r1_poly = data.on_one(R)
    s1 = data.on_one(S)
    if s1 != Poly.var(("s",), "s"):
        raise MalformedData("s must act as multiplication by s")

    if not r1_poly.is_constant():
        return Rejected("r1-constant", f"r.1 = {format_poly(r1_poly)} is not a constant")
    r1 = r1_poly.constant_value()

    if p1.is_zero() or q1.is_zero():
        if r1 != 0:
            return Rejected(
                "r1-zero-when-pq-degenerate",
                f"r.1 = {format_poly(r1_poly)} must vanish when p.1 or q.1 is zero",
            )
        if p1.is_zero() and q1.is_zero():
            return Classified(m0())
        return Classified(mg0(p1) if q1.is_zero() else m0g(q1))

    dp, dq = degree_in(p1, "s"), degree_in(q1, "s")
    if (dp, dq) not in ((0, 0), (1, 0), (0, 1)):
        return Rejected(
            "degree-dichotomy",
            f"degree pair ({dp}, {dq}) is not (0,0), (1,0) or (0,1)",
        )
    # [p, q].1 = p.(q.1) - q.(p.1), the module axiom on the data itself
    forced = act(data, P, q1) - act(data, Q, p1)
    if forced != Poly.const(("s",), r1):
        return Rejected(
            "r1-product-rule",
            f"r.1 = {format_poly(r1_poly)} but [p,q] forces {format_poly(forced)}",
        )
    if (dp, dq) == (0, 0):
        return Classified(mab(p1.constant_value(), q1.constant_value()))
    if (dp, dq) == (1, 0):
        h, b = p1, q1.constant_value()
        builder = mhb
    else:
        h, b = q1, p1.constant_value()
        builder = mbh
    a1 = h.coefficient((1,))
    a2 = h.coefficient((0,))
    return Classified(builder(a1, a2, b))


def classify_affine(data: ActionData) -> ClassificationResult:
    if data.algebra != AFFINE_H4:
        raise MalformedData("classify_affine needs affine data")
    w = data.window
    loops = range(-w, w + 1)
    table = {
        kind: {k: data.on_one(sym(kind, k)) for k in loops}
        for kind in ("p", "q", "r", "s")
    }
    k_val = data.on_one(K)
    d_val = data.on_one(D)
    if d_val != Poly.var(("s", "d"), "d"):
        raise MalformedData("d must act as multiplication by d")
    fseq = table["s"]
    s_var = Poly.var(("s", "d"), "s")

    # p, q and r all zero is M~_F, whose f_k may take any s-degree
    pqr_zero = all(table[kind][k].is_zero() for kind in ("p", "q", "r") for k in loops)
    for k in loops:
        fk = fseq[k]
        if degree_in(fk, "d") > 0:
            return Rejected("deg-d-f", f"f_{k} = {format_poly(fk)} depends on d")
        if not pqr_zero and degree_in(fk, "s") > 1:
            return Rejected("deg-s-f", f"f_{k} = {format_poly(fk)} has s-degree above 1")
    if fseq[0] != s_var:
        return Rejected("f0-side-condition", f"f_0 = {format_poly(fseq[0])} must equal s")
    if pqr_zero:
        if not k_val.is_zero():
            return Rejected("central-k", f"k.1 = {format_poly(k_val)} must be 0")
        return Classified(mtilde_f({k: change_variables(fseq[k], ("s",)) for k in loops}, w))
    if w < 1:  # alpha is read from f_1
        raise MalformedData("window must be a positive integer")
    alpha = coefficient_in(fseq[1], "s", 1).constant_value()
    if alpha == 0:
        return Rejected("alpha-nonzero", "the s-coefficient of f_1 must be invertible")
    for k in loops:
        scale = coefficient_in(fseq[k], "s", 1).constant_value()
        if scale != alpha ** k:
            return Rejected(
                "alpha-power",
                f"s-coefficient of f_{k} is {format_rational(scale)}, "
                f"expected alpha^{k} = {format_rational(alpha ** k)}",
            )
    for kind in ("p", "q", "r"):
        if degree_in(table[kind][0], "d") > 0:
            return Rejected(
                "deg-d-base", f"{kind}.1 = {format_poly(table[kind][0])} depends on d"
            )
        for k in loops:
            if table[kind][k] != alpha ** k * table[kind][0]:
                return Rejected(
                    "loop-scaling",
                    f"{kind} at loop {k} is not alpha^{k} times its loop-0 value",
                )
    if not k_val.is_zero():
        return Rejected("central-k", f"k.1 = {format_poly(k_val)} must be 0")

    base_data = ActionData(
        H4,
        0,
        {
            P: change_variables(table["p"][0], ("s",)),
            Q: change_variables(table["q"][0], ("s",)),
            R: change_variables(table["r"][0], ("s",)),
            S: Poly.var(("s",), "s"),
        },
    )
    base = classify_h4(base_data)
    if isinstance(base, Rejected):
        return base
    beta = {k: coefficient_in(fseq[k], "s", 0).constant_value() for k in loops}
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
