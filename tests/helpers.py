"""Shared test fixtures: one canonical spec per family, data corruption, and
reference implementations the optimized kernels are compared against."""

import pickle
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import strategies as st

from nwfree.exactpoly import (
    NEG_INF,
    Poly,
    VariableMismatch,
    apply_shift,
    change_variables,
    coefficient_in,
    degree_in,
    exponents_upto,
    format_poly,
    monomials_upto,
    _int_text,
)
from nwfree.classify import Classified, Rejected
from nwfree.irreducible import (
    ClosureCheck,
    NotReducible,
    ReducibilityWitness,
    SeedZero,
    decide,
)
from nwfree.liealg import (
    AFF_VIR,
    AFFINE_H4,
    H4,
    VIR00,
    D,
    K,
    LieElement,
    P,
    Q,
    R,
    bracket,
    check_in_algebra,
    format_symbol,
    sym,
)
from nwfree.liealg import S as S_SYM
from nwfree.modfam import (
    MODULE_VARIABLES,
    ActionData,
    AffVirSpec,
    H4Family,
    MalformedData,
    SpecInvalid,
    Vir00Spec,
    WindowExceeded,
    act,
    actions_of,
    affvir,
    algebra_of,
    generators,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    module_variables,
    mtilde,
    mtilde_f,
    _resolve_window,
    _symbols,
    shift_of,
    value_on_one,
)
from nwfree.specdsl import (
    _ALLOWED_VARIABLES,
    _DENOMINATOR_BOUND,
    _DIGIT_BOUND,
    MAX_DEGREE,
    MAX_DENOMINATOR_DIGITS,
    MAX_DIGITS,
    MAX_NESTING,
    MAX_TERM_WORK,
    DslSyntaxError,
    UnknownVariable,
    _Entry,
    _Token,
    _tokenize,
)
from nwfree.verify import FAIL, PASS, SKIP, ReportEntry, VerificationReport

S = Poly.var(("s",), "s")
W0 = Poly.var(("w0",), "w0")
SD_S = Poly.var(("s", "d"), "s")
SD_D = Poly.var(("s", "d"), "d")

# the slot whose +1 bump breaks the axiom in every family of that algebra
CORRUPTION_SLOT = {
    H4: R,
    AFFINE_H4: K,
    VIR00: sym("dvir", 1),
    AFF_VIR: sym("dvir", 1),
}


def with_assignment(data, symbol, value):
    """`data` with the value of `symbol` on 1 replaced (or added)."""
    kept = [(k, v) for k, v in data.assignments if k != symbol]
    kept.append((symbol, value))
    return ActionData(data.algebra, data.window, tuple(kept))


def corrupted_data(spec, window=None):
    """Action data of `spec` with one scalar slot bumped by +1."""
    data = actions_of(spec, window)
    target = CORRUPTION_SLOT[data.algebra]
    one = Poly.one(MODULE_VARIABLES[data.algebra])
    return with_assignment(data, target, data.value(target) + one)


def sample_specs():
    """One representative spec per family, all passing verify."""
    return [
        ("Mg0", mg0(S ** 2 - S)),
        ("M0g", m0g(5)),
        ("Mhb", mhb(1, 0, 1)),
        ("Mbh", mbh(2, -1, 3)),
        ("Mab", mab(2, 3)),
        ("M0", m0()),
        ("MTildeAlphaBeta", mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)),
        ("MTildeF", mtilde_f({1: S ** 2, -1: S + Poly.const(("s",), 2)}, window=1)),
        ("Vir00", Vir00Spec(Fraction(2), W0)),
        ("AffVir", affvir(mhb(1, 0, 1), alpha=2, lam=3, window=1)),
    ]


_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)
_NONZERO = _RATIONALS.filter(bool)


def _polys(variable):
    """Polynomials of degree at most 3 in one variable, zero included."""
    return st.lists(_RATIONALS, min_size=1, max_size=4).map(
        lambda cs: Poly((variable,), [((i,), c) for i, c in enumerate(cs)])
    )


_H4_VARIANTS = ("Mg0", "M0g", "Mhb", "Mbh", "Mab", "M0")


def h4_specs(variants=_H4_VARIANTS):
    g = _polys("s").filter(lambda p: not p.is_zero())
    drawn = {
        "Mg0": g.map(mg0),
        "M0g": g.map(m0g),
        "Mhb": st.builds(mhb, _NONZERO, _RATIONALS, _NONZERO),
        "Mbh": st.builds(mbh, _NONZERO, _RATIONALS, _NONZERO),
        "Mab": st.builds(mab, _NONZERO, _NONZERO),
        "M0": st.just(m0()),
    }
    return st.sampled_from(variants).flatmap(drawn.__getitem__)


@st.composite
def random_specs(draw):
    """A spec of any family at window 1 or 2: the six H4 families,
    MTildeAlphaBeta over the five bases other than M0 (which classifies as
    MTildeF), MTildeF, Vir00 and AffVir, each family drawn alike."""
    family = draw(st.sampled_from(_H4_VARIANTS + ("MTildeAlphaBeta", "MTildeF", "Vir00", "AffVir")))
    window = draw(st.integers(1, 2))
    loops = [k for k in range(-window, window + 1) if k]
    if family in _H4_VARIANTS:
        return draw(h4_specs((family,)))
    if family == "MTildeAlphaBeta":
        base = draw(h4_specs(("Mg0", "M0g", "Mhb", "Mbh", "Mab")))
        return mtilde(base, draw(_NONZERO), {k: draw(_RATIONALS) for k in loops}, window)
    if family == "MTildeF":
        return mtilde_f({k: draw(_polys("s")) for k in loops}, window)
    if family == "Vir00":
        return Vir00Spec(draw(_NONZERO), draw(_polys("w0")))
    return affvir(draw(h4_specs()), draw(_NONZERO), draw(_RATIONALS), window)


# n/m in lowest terms with |n| > 1 and m > 1, negative ones included
_ALPHAS = st.sampled_from([
    Fraction(sign * n, m) for n in range(2, 13) for m in range(2, 13) if gcd(n, m) == 1
    for sign in (1, -1)
])


@st.composite
def loop_specs(draw):
    """MTildeAlphaBeta over any of the six bases, with alpha = n/m, |n| > 1
    and m > 1, negative ones included, or MTildeF, at window 1, 2 or 3."""
    window = draw(st.integers(1, 3))
    loops = [k for k in range(-window, window + 1) if k]
    if draw(st.booleans()):
        return mtilde_f({k: draw(_polys("s")) for k in loops}, window)
    beta = {k: draw(_RATIONALS) for k in loops}
    return mtilde(draw(h4_specs()), draw(_ALPHAS), beta, window)


def h4_data(p, q, r):
    return ActionData(H4, 0, {P: p, Q: q, R: r, S_SYM: S})


def affine_data(p, q, r, f, window=1):
    """Raw affine data from loop tables (dicts loop index -> value)."""
    table = {}
    for kind, tab in (("p", p), ("q", q), ("r", r), ("s", f)):
        for k in range(-window, window + 1):
            table[sym(kind, k)] = tab.get(k, 0)
    table[K] = 0
    table[D] = SD_D
    return ActionData(AFFINE_H4, window, table)


def corrupted_fixtures():
    """(anchor, data) pairs: each classifies as Rejected(anchor) and fails verify."""
    demo = mtilde(mhb(1, 0, 1), 2, {1: 5, -1: 0}, window=1)
    demo_data = actions_of(demo)
    half = Fraction(1, 2)
    return [
        ("r1-constant", with_assignment(actions_of(mab(2, 3)), R, S)),
        ("r1-zero-when-pq-degenerate", with_assignment(actions_of(mg0(S ** 2)), R, 1)),
        ("degree-dichotomy", h4_data(S ** 2, 1, 0)),
        ("r1-product-rule", with_assignment(actions_of(mhb(1, 2, 3)), R, 3)),
        ("deg-d-f", with_assignment(demo_data, sym("s", 1), SD_S * SD_D)),
        ("deg-s-f", with_assignment(demo_data, sym("s", 1), SD_S ** 2)),
        (
            "alpha-power",
            affine_data(
                p={-1: half * SD_S, 0: SD_S, 1: 2 * SD_S},
                q={},
                r={},
                f={-1: 3 * SD_S, 0: SD_S, 1: 2 * SD_S},
            ),
        ),
        (
            "loop-scaling",
            with_assignment(
                actions_of(mtilde(mab(2, 3), 2, {1: 0, -1: 0}, window=1)), sym("p", 1), 5
            ),
        ),
        ("central-k", with_assignment(demo_data, K, 1)),
        (
            "deg-d-base",
            affine_data(
                p={-1: half * SD_D, 0: SD_D, 1: 2 * SD_D},
                q={-1: Fraction(3, 2), 0: 3, 1: 6},
                r={},
                f={-1: half * SD_S, 0: SD_S, 1: 2 * SD_S},
            ),
        ),
    ]


# ------------------------------------------------------ reference kernels


def apply_shift_reference(sh, x):
    """apply_shift by binomial expansion of (v + o)^e, term by term."""
    if len(sh) != len(x.variables):
        raise VariableMismatch(f"shift {sh!r} does not fit variables {x.variables!r}")
    acc = {}
    for exps, coeff in x.terms:
        expansion = {exps: coeff}
        for i, off in enumerate(sh):
            step = {}
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
    return Poly(x.variables, acc)


def shift_of_reference(algebra, symbol):
    """shift_of as a ladder over algebras and kinds, as it first stood."""
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


@contextmanager
def int_digit_limit_lifted():
    """Lift the interpreter's int-to-str digit limit, where it has one, and
    restore it afterwards, so reference formatters can print long ints."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    before = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(before)


def format_rational_reference(c: Fraction) -> str:
    """format_rational as it stood before it wrote through `format_terms`:
    a sign, then the numerator and denominator in 640-digit pieces."""
    text = ("-" if c < 0 else "") + _int_text(abs(c.numerator))
    return text if c.denominator == 1 else f"{text}/{_int_text(c.denominator)}"


def format_poly_reference(x):
    """format_poly as it first stood: abs, < and str on each Fraction, and the
    monomial text joined anew for every term."""
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


def poly_mul_reference(a, b):
    """Poly.__mul__ as a double loop: one Fraction product and sum per pair of terms."""
    if a.variables != b.variables:
        raise VariableMismatch(f"variable sets differ: {a.variables!r} vs {b.variables!r}")
    acc = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return Poly(a.variables, acc)


def classify_h4_reference(data):
    """classify_h4 as it stood on Poly and Fraction arithmetic: degree_in,
    constant_value and a Poly compare for the product rule."""
    if data.algebra != H4:
        raise MalformedData("classify_h4 needs H4 data")
    p1 = data.on_one(P)
    q1 = data.on_one(Q)
    r1_poly = data.on_one(R)
    s1 = data.on_one(S_SYM)
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


def classify_affine_reference(data):
    """classify_affine as it stood on Poly and Fraction arithmetic: a Poly
    product and a Fraction power per loop-scaling check, and degree_in,
    coefficient_in and constant_value reads; its base goes to
    classify_h4_reference."""
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
                f"s-coefficient of f_{k} is {format_rational_reference(scale)}, "
                f"expected alpha^{k} = {format_rational_reference(alpha ** k)}",
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
            S_SYM: Poly.var(("s",), "s"),
        },
    )
    base = classify_h4_reference(base_data)
    if isinstance(base, Rejected):
        return base
    beta = {k: coefficient_in(fseq[k], "s", 0).constant_value() for k in loops}
    return Classified(mtilde(base.spec, alpha, beta, w))


def act_reference(spec, x, v):
    """act as sum(c * shift_x(v) * x.1) by the reference shift and product.

    The symbols are taken in x's order; the first is checked before v is
    converted, and a zero element gives 0 without either.
    """
    algebra = algebra_of(spec)
    variables = module_variables(spec)
    terms = x.terms if isinstance(x, LieElement) else ((x, Fraction(1)),)
    total = Poly.zero(variables)
    for i, (symbol, coeff) in enumerate(terms):
        check_in_algebra(algebra, symbol)
        if i == 0:
            v = change_variables(v, variables)
        if v.is_zero():
            continue  # x.0 = 0, even for a symbol outside the window
        shifted = apply_shift_reference(shift_of(algebra, symbol), v)
        total = total + coeff * poly_mul_reference(shifted, value_on_one(spec, symbol))
    return total


def apply_chain_op_reference(spec, op, v):
    """apply_chain_op as a sum of `act` images: one Poly product and sum per part."""
    variables = module_variables(spec)
    v = change_variables(v, variables)
    total = Poly.zero(variables)
    for coeff, symbol in op.parts:
        term = v if symbol is None else act(spec, symbol, v)
        total = total + coeff * term
    return total


def orbit_oracle_reference(spec, seed, max_degree, cap_degree, record=None):
    """orbit_oracle by elimination on polynomials: a new Poly per step.

    It runs the full closure.  Given a list `record`, it appends each vector
    it reduces, in order, with the leading exponents of the pivot it forms,
    or None when it reduces to zero."""
    if cap_degree < max_degree:
        raise SpecInvalid("cap degree must be at least the seed degree bound")
    variables = module_variables(spec)
    seed = change_variables(seed, variables)
    if seed.is_zero():
        raise SeedZero("the zero vector generates nothing")
    if seed.total_degree() > max_degree:
        raise SpecInvalid(f"seed degree {seed.total_degree()} exceeds the bound {max_degree}")
    gens = generators(spec)
    basis = {}  # leading exponents -> monic polynomial

    def reduce(v):
        while not v.is_zero():
            exps, coeff = v.terms[0]
            pivot = basis.get(exps)
            if pivot is None:
                return v
            v = v - coeff * pivot
        return v

    queue = [seed]
    while queue:
        popped = queue.pop()
        v = reduce(popped)
        if record is not None:
            record.append((popped, None if v.is_zero() else v.terms[0][0]))
        if v.is_zero():
            continue
        exps, coeff = v.terms[0]
        v = (Fraction(1) / coeff) * v
        basis[exps] = v
        for x in gens:
            image = act(spec, x, v)
            if image.is_zero() or image.total_degree() > cap_degree:
                continue
            queue.append(image)
    return tuple(0 for _ in variables) in basis


def orbit_oracle_dense_reference(spec, seed, max_degree, cap_degree, record=None):
    """orbit_oracle on dense Fraction rows, made monic as pivots, through `act`.

    It runs the full closure and records as `orbit_oracle_reference` does."""
    if cap_degree < max_degree:
        raise SpecInvalid("cap degree must be at least the seed degree bound")
    variables = module_variables(spec)
    seed = change_variables(seed, variables)
    if seed.is_zero():
        raise SeedZero("the zero vector generates nothing")
    if seed.total_degree() > max_degree:
        raise SpecInvalid(f"seed degree {seed.total_degree()} exceeds the bound {max_degree}")
    gens = generators(spec)
    columns = exponents_upto(len(variables), cap_degree)[::-1]
    column_of = {exps: j for j, exps in enumerate(columns)}
    width = len(columns)
    pivots = {}  # leading column -> monic row as (column, entry) pairs

    queue = [seed]
    while queue:
        popped = queue.pop()
        row = [Fraction(0)] * width
        for exps, coeff in popped.terms:
            row[column_of[exps]] = coeff
        lead = 0
        while lead < width:
            coeff = row[lead]
            if coeff:
                pivot = pivots.get(lead)
                if pivot is None:
                    break
                for j, entry in pivot:
                    row[j] -= coeff * entry
            lead += 1
        if record is not None:
            record.append((popped, None if lead == width else columns[lead]))
        if lead == width:
            continue
        inverse = 1 / row[lead]
        pivot = [(j, row[j] * inverse) for j in range(lead, width) if row[j]]
        pivots[lead] = pivot
        v = Poly(variables, [(columns[j], entry) for j, entry in pivot])
        for x in gens:
            image = act(spec, x, v)
            if image.is_zero() or image.total_degree() > cap_degree:
                continue
            queue.append(image)
    return width - 1 in pivots


def _evaluate_univariate(g, var, value):
    i = g.variables.index(var)
    total = Fraction(0)
    for exps, coeff in g.terms:
        total += coeff * value ** exps[i]
    return total


def rational_root_reference(g, var):
    """rational_root by the numerator/denominator divisor test, smallest first."""
    denominator_lcm = 1
    for _, coeff in g.terms:
        denominator_lcm = denominator_lcm * coeff.denominator // gcd(
            denominator_lcm, coeff.denominator
        )
    i = g.variables.index(var)
    integer_coeffs = {exps[i]: int(coeff * denominator_lcm) for exps, coeff in g.terms}
    lead = integer_coeffs[max(integer_coeffs)]
    constant = integer_coeffs.get(0, 0)
    if constant == 0:
        return Fraction(0)
    numerators = [n for n in range(1, abs(constant) + 1) if constant % n == 0]
    denominators = [n for n in range(1, abs(lead) + 1) if lead % n == 0]
    for num in numerators:
        for den in denominators:
            for candidate in (Fraction(num, den), Fraction(-num, den)):
                if _evaluate_univariate(g, var, candidate) == 0:
                    return candidate
    return None


def reduce_mod_univariate_reference(x, w, var):
    """reduce_mod_univariate as long division on polynomials: each step
    subtracts (lead / lead_w) * var^(d - deg w) * w, five `Poly` operations."""
    if w.is_zero():
        raise ValueError("division by the zero polynomial")
    w = change_variables(w, x.variables)
    i = x.variables.index(var)
    for exps, _ in w.terms:
        if any(e != 0 for j, e in enumerate(exps) if j != i):
            raise ValueError(f"{format_poly(w)} is not univariate in {var!r}")
    deg_w = degree_in(w, var)
    if deg_w in (0, NEG_INF):
        return Poly.zero(x.variables)
    lead_w = w.coefficient(tuple(deg_w if j == i else 0 for j in range(len(x.variables))))
    rem = x
    while True:
        d = degree_in(rem, var)
        if d is NEG_INF or d < deg_w:
            return rem
        lead = coefficient_in(rem, var, d)
        shift_exps = tuple(d - deg_w if j == i else 0 for j in range(len(x.variables)))
        shift_mono = Poly(x.variables, {shift_exps: 1})
        rem = rem - (lead * (Fraction(1) / lead_w)) * shift_mono * w


def witness_reference(spec):
    """witness with one `act` and one reduction per check, by the long-division
    reference, and the divisor-test root."""
    verdict = decide(spec)
    if verdict.irreducible:
        raise NotReducible(f"{verdict.family} is irreducible, no invariant ideal exists")
    variables = module_variables(spec)
    if isinstance(spec, Vir00Spec):
        ideal, var = Poly.var(variables, "w0"), "w0"
    else:
        base = spec if isinstance(spec, H4Family) else spec.base
        base = base.base if isinstance(spec, AffVirSpec) else base
        var = "s"
        if base is None or base.variant == "M0":
            ideal = Poly.var(variables, "s")
        else:
            root = rational_root_reference(base.g, "s")
            if root is None:
                ideal = change_variables(base.g, variables)
            else:
                ideal = Poly.var(variables, "s") - Poly.const(variables, root)
    checks = []
    for x in generators(spec):
        for m in monomials_upto(variables, 4):
            image = act(spec, x, ideal * m)
            contained = reduce_mod_univariate_reference(image, ideal, var).is_zero()
            checks.append(ClosureCheck(x, m, image, contained))
    return ReducibilityWitness(ideal, tuple(checks))


def verify_module_reference(spec, window=3, test_degree=3):
    """verify_module pair by pair: brackets, shifts and cached values on 1 per pair.

    Every generator is looked up first, in canonical order, so data that
    leaves some unassigned names the first of them.  The window and test
    degree are taken as valid.
    """
    algebra = algebra_of(spec)
    variables = module_variables(spec)
    gens = generators(spec, window)
    monos = monomials_upto(variables, test_degree)
    zero = Poly.zero(variables)
    for x in gens:
        value_on_one(spec, x)
    entries = []
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            br = bracket(algebra, x, y)
            try:
                y1 = value_on_one(spec, y)
                x1 = value_on_one(spec, x)
                terms = [(shift_of(algebra, z), c, value_on_one(spec, z)) for z, c in br.terms]
            except WindowExceeded:
                entries.extend(ReportEntry(x, y, v, zero, SKIP) for v in monos)
                continue
            sx, sy = shift_of(algebra, x), shift_of(algebra, y)
            sxy = tuple(a + b for a, b in zip(sx, sy))
            parts = {sxy: apply_shift(sx, y1) * x1 - apply_shift(sy, x1) * y1}
            for sz, c, z1 in terms:
                parts[sz] = parts.get(sz, zero) - c * z1
            parts = [(shift, r) for shift, r in parts.items() if not r.is_zero()]
            for v in monos:
                residual = zero
                for shift, r in parts:
                    residual = residual + apply_shift(shift, v) * r
                status = PASS if residual.is_zero() else FAIL
                entries.append(ReportEntry(x, y, v, residual, status))
    return VerificationReport(algebra, _resolve_window(spec, window), test_degree, tuple(entries))


def format_report_reference(report):
    """format_report with every symbol and polynomial formatted on each line."""
    lines = [
        "PAIR {} {} POLY {} RESIDUAL {} {}".format(
            format_symbol(e.x, report.algebra),
            format_symbol(e.y, report.algebra),
            format_poly(e.test_poly),
            format_poly(e.residual),
            e.status,
        )
        for e in report.entries
    ]
    lines.append(
        "SUMMARY pass={} checked={} skipped={}".format(
            "true" if report.passed else "false", report.checked, report.skipped
        )
    )
    return "\n".join(lines)


def kept_characters(text):
    """The characters a `verify._PlanText` counts: each kept string of pair
    letters and the pieces of report text kept for it."""
    return sum(len(letters) + sum(map(len, pieces)) for letters, pieces in text.pieces.items())


def pieces_reference(text, monomials):
    """A report text cut around its FAIL pairs, each `monomials` FAIL lines:
    the text before each FAIL pair and after the last, as `verify._PlanText`
    keeps it for the report's string of pair letters."""
    pieces, lines, failed = [], [], 0
    for line in text.split("\n"):
        if not line.endswith(" FAIL"):
            lines.append(line)
            continue
        if failed % monomials == 0:
            pieces.append("\n".join(lines))
            lines = []
        failed += 1
    return [*pieces, "\n".join(lines)]


def fail_heavy_document():
    """AffineVirasoroH4 action data at window 8 with every generator s+d and
    k = d: 10,158 FAIL pairs over windows 1-8 at test degree 1, 173 terms of
    R at window 1 and 530 at window 2."""
    names = [format_symbol(x, AFF_VIR) for x in _symbols(AFF_VIR, 8)]
    values = "".join(f"{n} = {'d' if n == 'k' else 's+d'}\n" for n in names)
    return f"algebra = {AFF_VIR}\nwindow = 8\n" + values


def assert_reads_as_tuple(view, items):
    """A lazy view (a report's entries, a witness's closure checks) reads,
    indexes, slices, compares, hashes, reprs and pickles as the tuple `items`."""
    n = len(items)
    assert type(view) is not tuple and len(view) == n
    assert [view[i] for i in range(-n, n)] == list(items) * 2
    for i in (n, -n - 1, 10 * n):
        with pytest.raises(IndexError, match="^index out of range$"):
            view[i]
    for cut in (slice(None), slice(None, None, 3), slice(-5, None, -2), slice(1, 40, 7),
                slice(n + 5, None, -4), slice(3, 3), slice(-1, 0, 1)):
        assert type(view[cut]) is tuple and view[cut] == items[cut]
    assert list(view) == list(items) and list(reversed(view)) == list(reversed(items))
    assert [repr(e) for e in view] == [repr(e) for e in items]
    assert items[n // 2] in view and view.index(items[n // 2]) == items.index(items[n // 2])
    assert view == items and items == view and not view != items and not items != view
    assert view != items[:-1] and items[:-1] != view and view != list(items)
    assert hash(view) == hash(items) and repr(view) == repr(items)
    again = pickle.loads(pickle.dumps(view))
    assert type(again) is type(view) and again == items and hash(again) == hash(items)


_DIGITS = "0123456789"


# The document line reader as it was before it split each line once: it
# splits at `#` and at `=` separately and finds both columns by searching
# the whole line.  `_read_document` must give the same entries and errors.
def read_document_reference(text: str):
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, got {type(text).__name__}")
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


# The polynomial scanner as it was before one pattern read the tokens: one
# character at a time, returning the tokens and the (line, col) just after
# the text.  `_tokenize` must give the same tokens, its end token at that
# (line, col), and the same errors.
def tokenize_reference(text: str, line: int, col: int):
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


class _PolyParserReference:
    """The polynomial reader as it was before it carried integer maps: one
    `Poly` per atom and per operation, with the same checks at the same
    tokens.  `parse_poly` must give the same value or the same error."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = variables
        self.depth = 0
        self.work = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def fail(self, message, tok):
        raise DslSyntaxError(message, tok.line, tok.col)

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting exceeds the limit {MAX_NESTING}", tok)

    def bounded(self, coefficients, den, what, tok):
        if den >= _DENOMINATOR_BOUND:
            self.fail(f"{what} exceeds the denominator limit {MAX_DENOMINATOR_DIGITS}", tok)
        for n, d in coefficients:
            if abs(n) >= _DIGIT_BOUND or d >= _DIGIT_BOUND:
                g = gcd(n, d)
                if abs(n) // g >= _DIGIT_BOUND or d // g >= _DIGIT_BOUND:
                    self.fail(f"{what} exceeds the digit limit {MAX_DIGITS}", tok)

    def multiply(self, a, b, what, tok):
        self.work += len(a.numerators) * len(b.numerators)
        if self.work > MAX_TERM_WORK:
            self.fail(f"polynomial exceeds the term-work limit {MAX_TERM_WORK}", tok)
        value = a * b
        self.bounded(((n, value.den) for _, n in value.numerators), value.den, what, tok)
        return value

    def expr(self):
        value = self.term()
        table = None
        while True:
            tok = self.peek()
            if tok.text not in ("+", "-"):
                if table is None:
                    return value
                pairs = [(exps, n * (den // d)) for exps, (n, d) in table.items()]
                return Poly._trusted(value.variables, pairs, den)
            self.take()
            rhs = self.term()
            if table is None:
                table, den = {exps: (n, value.den) for exps, n in value.numerators}, value.den
            den = lcm(den, rhs.den)
            sign, b = (1 if tok.text == "+" else -1), rhs.den
            for exps, n in rhs.numerators:
                p, q = table.get(exps, (0, 1))
                p, q = p * b + sign * n * q, q * b
                g = gcd(p, q)
                table[exps] = p // g, q // g
            self.bounded((table[exps] for exps, _ in rhs.numerators), den, "sum", tok)

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.text != "*":
                return value
            self.take()
            rhs = self.factor()
            if value.total_degree() + rhs.total_degree() > MAX_DEGREE:
                self.fail(f"product exceeds the degree limit {MAX_DEGREE}", tok)
            value = self.multiply(value, rhs, "product", tok)

    def factor(self):
        tok = self.peek()
        if tok.text == "-":
            self.take()
            self.nest(tok)
            value = -self.factor()
            self.depth -= 1
            return value
        value = self.atom()
        tok = self.peek()
        if tok.text == "^":
            self.take()
            exponent = self.take()
            if exponent.kind != "num":
                self.fail("expected an integer exponent after '^'", exponent)
            n = int(exponent.text)
            if n * max(value.total_degree(), 1) > MAX_DEGREE:
                self.fail(f"power ^{n} exceeds the degree limit {MAX_DEGREE}", exponent)
            base, value = value, Poly.one(self.variables)
            for _ in range(n):
                value = self.multiply(value, base, "power", tok)
        return value

    def atom(self):
        tok = self.take()
        if tok.kind == "num":
            den = 1
            if self.peek().text == "/":
                self.take()
                denominator = self.take()
                if denominator.kind != "num":
                    self.fail("expected an integer denominator after '/'", denominator)
                den = int(denominator.text)
                if den == 0:
                    self.fail("zero denominator", denominator)
            return Poly._trusted(self.variables, (((0,) * len(self.variables), int(tok.text)),), den)
        if tok.kind == "ident":
            if tok.text not in self.variables:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
            return Poly.var(self.variables, tok.text)
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


def parse_poly_reference(text, variables=None, line=1, col=1):
    """parse_poly by `_PolyParserReference`, on the tokens of `_tokenize`."""
    tokens = _tokenize(text, line, col)
    if len(tokens) == 1:
        raise DslSyntaxError("empty polynomial", line, col)
    if variables is None:
        for tok in tokens:
            if tok.kind == "ident" and tok.text not in _ALLOWED_VARIABLES:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
        mentioned = {tok.text for tok in tokens if tok.kind == "ident"}
        variables = tuple(v for v in _ALLOWED_VARIABLES if v in mentioned)
    parser = _PolyParserReference(tokens, tuple(variables))
    value = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        parser.fail(f"unexpected {trailing.text!r}", trailing)
    return value
