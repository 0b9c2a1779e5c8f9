"""Irreducibility decisions with constructive certificates and ideal witnesses.

A verdict is backed one of two ways.  Irreducible specs come with a replayable
chain of degree-lowering operators that drives any seed down to a nonzero
constant, so the cyclic submodule it generates contains 1.  Reducible specs
come with a principal ideal shown invariant under every generator on a test
basis.  An orbit-closure oracle gives an independent brute-force cross-check.

The chain operators, the witness and the oracle all use that every action
is shift-then-multiply, x.v = shift_x(v) * x.1, taking each generator
image from `modfam._image`: a chain operator sums its parts' images over
one common denominator (`modfam._act_sum`), the witness acts once per
generator, on the ideal generator, and the oracle eliminates fraction-free
on integer vectors.  Every x.1, the chain's constants c and c1 included,
is computed afresh by `modfam._value_on_one`, with no cache keyed by spec.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .exactpoly import (
    NEG_INF,
    Poly,
    _integer_terms,
    change_variables,
    degree_in,
    exponents_upto,
    format_poly,
    monomials_upto,
    reduce_mod_univariate,
    shift_mul,
)
from .liealg import AFF_VIR, AFFINE_H4, H4, BasisSymbol, format_symbol, sym
from .modfam import (
    AffineSpec,
    AffVirSpec,
    H4Family,
    SpecInvalid,
    Vir00Spec,
    _act_sum,
    _image,
    _integer_form,
    _value_on_one,
    act,
    algebra_of,
    generators,
    module_variables,
    shift_of,
)


class NotIrreducible(ValueError):
    """Raised when a reduction chain is requested for a reducible module."""


class NotReducible(ValueError):
    """Raised when a witness ideal is requested for an irreducible module."""


class SeedZero(ValueError):
    """Raised when the zero vector is offered as a seed."""


@dataclass(frozen=True)
class IrreducibilityVerdict:
    irreducible: bool
    family: str
    note: str
    # True when the verdict is implementation-derived rather than part of the
    # classification statements this library encodes.
    derived: bool = False

    @property
    def label(self) -> str:
        return "Irreducible" if self.irreducible else "Reducible"


@dataclass(frozen=True)
class ChainOp:
    """Operator sum(c * act(x, .)); a None symbol stands for the identity."""

    parts: Tuple[Tuple[Fraction, Optional[BasisSymbol]], ...]

    def describe(self, alg: Optional[str] = None) -> str:
        pieces = []
        for coeff, symbol in self.parts:
            name = "id" if symbol is None else format_symbol(symbol, alg)
            pieces.append(f"{coeff}*{name}")
        return "+".join(pieces).replace("+-", "-")


@dataclass(frozen=True)
class IrreducibilityCertificate:
    seed: Poly
    chain: Tuple[Tuple[ChainOp, Poly], ...]

    @property
    def final(self) -> Poly:
        return self.chain[-1][1] if self.chain else self.seed


@dataclass(frozen=True)
class ClosureCheck:
    generator: BasisSymbol
    test_poly: Poly
    image: Poly
    contained: bool


@dataclass(frozen=True)
class ReducibilityWitness:
    ideal_generator: Poly
    closure_checks: Tuple[ClosureCheck, ...]

    @property
    def all_contained(self) -> bool:
        return all(check.contained for check in self.closure_checks)


_ZERO_IDEAL_NOTE = "p, q and r act as zero, so every proper ideal is invariant"


def _decide_base(base: H4Family, path: str, derived: bool) -> IrreducibilityVerdict:
    variant = base.variant
    if variant in ("Mhb", "Mbh", "Mab"):
        note = "a generator acts by an invertible constant"
        return IrreducibilityVerdict(True, path, note, derived)
    if variant in ("Mg0", "M0g"):
        if base.g.is_constant():
            return IrreducibilityVerdict(True, path, "g is a non-zero constant", derived)
        note = "the ideal generated by g is a proper submodule"
        return IrreducibilityVerdict(False, path, note, derived)
    return IrreducibilityVerdict(False, path, _ZERO_IDEAL_NOTE, derived)


def decide(spec) -> IrreducibilityVerdict:
    """Irreducibility verdict for any module family spec."""
    if isinstance(spec, H4Family):
        return _decide_base(spec, spec.variant, derived=False)
    if isinstance(spec, AffineSpec):
        if spec.variant == "MTildeF":
            return IrreducibilityVerdict(False, "MTildeF", _ZERO_IDEAL_NOTE, derived=True)
        path = "MTildeAlphaBeta/" + spec.base.variant
        return _decide_base(spec.base, path, derived=spec.base.variant == "M0")
    if isinstance(spec, Vir00Spec):
        note = "the principal ideal (w0) is invariant: generators scale w0 and shift only d0"
        return IrreducibilityVerdict(False, "Vir00", note, derived=True)
    if isinstance(spec, AffVirSpec):
        inner = decide(spec.base)
        path = "AffineVirasoroH4/" + inner.family
        return IrreducibilityVerdict(inner.irreducible, path, inner.note, derived=True)
    raise SpecInvalid(f"decide needs a module family spec, got {type(spec).__name__}")


def _base_family(spec) -> Optional[H4Family]:
    if isinstance(spec, H4Family):
        return spec
    if isinstance(spec, AffineSpec):
        return spec.base
    if isinstance(spec, AffVirSpec):
        return spec.base.base
    return None


def apply_chain_op(spec, op: ChainOp, v: Poly) -> Poly:
    """sum(c * x.v) over the parts c*x of op, computed on integers.

    v is converted first; every symbol is then checked, even when v is zero.
    """
    return _act_sum(spec, op.parts, change_variables(v, module_variables(spec)))


def reduction_chain(spec, seed: Poly) -> IrreducibilityCertificate:
    """Drive seed to a nonzero constant, recording each operator application.

    The chain acts with the first of q, p that sends 1 to a nonzero constant
    c, which an Irreducible verdict guarantees.  Affine specs reduce the
    d-degree first, using that generator at loop 1 (it sends 1 to alpha*c)
    against its loop-0 companion; the resulting polynomial in s then falls
    to the same shift-difference operator that handles the base families.
    """
    verdict = decide(spec)
    if not verdict.irreducible:
        raise NotIrreducible(f"{verdict.family} is reducible, no reduction chain exists")
    variables = module_variables(spec)
    seed = change_variables(seed, variables)
    if seed.is_zero():
        raise SeedZero("the zero vector generates nothing")

    for kind in ("q", "p"):
        value = _value_on_one(spec, sym(kind, 0))
        if value.is_constant() and not value.is_zero():
            break
    c = value.constant_value()

    steps = []
    current = seed
    algebra = algebra_of(spec)
    if algebra in (AFFINE_H4, AFF_VIR):
        c1 = _value_on_one(spec, sym(kind, 1)).constant_value()
        d_op = ChainOp(
            (
                (Fraction(1) / c1, sym(kind, 1)),
                (Fraction(-1) / c, sym(kind, 0)),
            )
        )
        while degree_in(current, "d") is not NEG_INF and degree_in(current, "d") > 0:
            before = degree_in(current, "d")
            current = apply_chain_op(spec, d_op, current)
            steps.append((d_op, current))
            if degree_in(current, "d") is not NEG_INF and degree_in(current, "d") >= before:
                raise RuntimeError("d-stage failed to lower the d-degree")

    s_op = ChainOp(((Fraction(1) / c, sym(kind, 0)), (Fraction(-1), None)))
    while not current.is_constant():
        before = current.total_degree()
        current = apply_chain_op(spec, s_op, current)
        steps.append((s_op, current))
        if current.is_zero() or current.total_degree() >= before:
            raise RuntimeError("s-stage failed to lower the degree")
    return IrreducibilityCertificate(seed, tuple(steps))


def _integer_coefficients(g: Poly, var: str) -> list:
    """g's coefficients in var, lowest power first, over one common denominator."""
    i = g.variables.index(var)
    coeffs = [0] * (degree_in(g, var) + 1)
    for exps, n in _integer_terms(g)[0].items():
        coeffs[exps[i]] = n
    return coeffs


def _dyadic_value(coeffs: list, num: int, k: int) -> int:
    """2^(k*n) * f(num / 2^k): an integer with the sign of f there."""
    value = 0
    for i, c in enumerate(reversed(coeffs)):
        value = value * num + (c << (k * i))
    return value


def _primitive(coeffs: list) -> list:
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs]


def _remainder(a: list, b: list) -> list:
    """A positive integer multiple of (a mod b), primitive; [] when b divides a.

    Each step a <- |lead| * a - sign(lead) * top * x^k * b clears a's top
    term, lead being b's leading coefficient, so every sign is kept.
    """
    a = list(a)
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(a) >= len(b):
        top, offset = a[-1], len(a) - len(b)
        a = [scale * c for c in a]
        for j, c in enumerate(b):
            a[offset + j] -= sign * top * c
        while a and not a[-1]:
            a.pop()
    return _primitive(a) if a else a


def _derivative(coeffs: list) -> list:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _sturm_sequence(f: list) -> list:
    """f, f', then negated remainders, each up to a positive factor.

    Positive factors keep every sign, so sign changes count as in the
    classical sequence.  The last entry is gcd(f, f') up to a factor: a
    constant exactly when f is square-free.
    """
    seq = [f, _derivative(f)]
    while len(seq[-1]) > 1:
        rest = _remainder(seq[-2], seq[-1])
        if not rest:
            break
        seq.append([-c for c in rest])
    return seq


def _quotient(f: list, d: list) -> list:
    """f / d for a divisor d of f, primitive over the integers."""
    # a primitive divisor of an integer polynomial leaves an integer quotient
    d = _primitive(d)
    rest = list(f)
    quotient = [0] * (len(f) - len(d) + 1)
    for i in range(len(quotient) - 1, -1, -1):
        quotient[i] = q = rest[i + len(d) - 1] // d[-1]
        for j, c in enumerate(d):
            rest[i + j] -= q * c
    return _primitive(quotient)


def _sign_changes(seq: list, num: int, k: int) -> int:
    """Sign changes of the sequence at num / 2^k, zeros skipped."""
    changes, last = 0, 0
    for p in seq:
        value = _dyadic_value(p, num, k)
        if value:
            if last and (value > 0) != (last > 0):
                changes += 1
            last = value
    return changes


def _refine(f: list, lo: int, hi: int, k: int, lo_positive: bool) -> Optional[Fraction]:
    """The rational root of f in (lo/2^k, hi/2^k), the only root there, if it is rational.

    f changes sign once in the interval, so bisection on the sign of f
    narrows it below 1/L, L = |lead(f)|.  A rational root p/q has q | L,
    so it is m/L for an integer m, and at most one such point lies in the
    interval: m = floor(L * hi / 2^k).  An exact evaluation decides it.
    """
    lead = abs(f[-1])
    while (hi - lo) * lead >= 1 << k:
        mid = lo + hi
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        value = _dyadic_value(f, mid, k)
        if value == 0:
            return Fraction(mid, 1 << k)
        if (value > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    m = (hi * lead) >> k
    candidate = Fraction(m, lead)
    if m << k > lo * lead and sum(c * candidate ** i for i, c in enumerate(f)) == 0:
        return candidate
    return None


def rational_root(g: Poly, var: str) -> Optional[Fraction]:
    """The rational root p/q of g (in lowest terms) least in (|p|, q, p < 0).

    By exact real-root isolation on dyadic intervals.  With f the
    square-free part of g over the integers, Sturm sign changes count the
    roots in (lo, hi]; bisection from the Cauchy bound splits the
    intervals until each holds one root, and `_refine` decides whether
    that root is rational.  The number of steps grows with the bit size of
    the coefficients, not their value.
    """
    coeffs = _integer_coefficients(g, var)
    if coeffs[0] == 0:
        return Fraction(0)
    if len(coeffs) == 1:
        return None
    f, seq = coeffs, _sturm_sequence(coeffs)
    if len(seq[-1]) > 1:
        # the square-free part has the same roots, each simple
        f = _quotient(coeffs, seq[-1])
        seq = _sturm_sequence(f)
    bound = 2 + max(abs(c) for c in f) // abs(f[-1])
    roots = []
    # (lo, hi, k, sign changes at lo / 2^k, sign changes at hi / 2^k)
    intervals = [(-bound, bound, 0, _sign_changes(seq, -bound, 0), _sign_changes(seq, bound, 0))]
    while intervals:
        lo, hi, k, at_lo, at_hi = intervals.pop()
        count = at_lo - at_hi
        if count == 0:
            continue
        if count == 1:
            if _dyadic_value(f, hi, k) == 0:
                roots.append(Fraction(hi, 1 << k))
                continue
            at_lo_value = _dyadic_value(f, lo, k)
            if at_lo_value:
                root = _refine(f, lo, hi, k, at_lo_value > 0)
                if root is not None:
                    roots.append(root)
                continue
            # lo is the root of a neighbouring interval: split once more
        mid = lo + hi
        at_mid = _sign_changes(seq, mid, k + 1)
        intervals.append((2 * lo, mid, k + 1, at_lo, at_mid))
        intervals.append((mid, 2 * hi, k + 1, at_mid, at_hi))
    if not roots:
        return None
    return min(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def _witness_generator(spec) -> Tuple[Poly, str]:
    variables = module_variables(spec)
    if isinstance(spec, Vir00Spec):
        return Poly.var(variables, "w0"), "w0"
    base = _base_family(spec)
    if base is None or base.variant == "M0":
        # with p, q, r acting as zero any proper ideal works; (s) is the simplest
        return Poly.var(variables, "s"), "s"
    root = rational_root(base.g, "s")
    if root is None:
        return change_variables(base.g, variables), "s"
    return Poly.var(variables, "s") - Poly.const(variables, root), "s"


def witness(spec) -> ReducibilityWitness:
    """Invariant principal ideal plus closure checks on the degree-4 test basis.

    Every action is shift-then-multiply, so the image of ideal * m under x
    is shift_x(m) * R_x with R_x = x.ideal: each generator acts once, on
    the ideal generator, and each image is one `shift_mul`.  When R_x
    reduces to zero modulo the ideal, every image of x lies in the ideal;
    only otherwise is each image reduced on its own.
    """
    verdict = decide(spec)
    if verdict.irreducible:
        raise NotReducible(f"{verdict.family} is irreducible, no invariant ideal exists")
    ideal, var = _witness_generator(spec)
    variables = module_variables(spec)
    algebra = algebra_of(spec)
    monomials = monomials_upto(variables, 4)
    checks = []
    for x in generators(spec):
        sh = shift_of(algebra, x)
        r_x = act(spec, x, ideal)
        closed = reduce_mod_univariate(r_x, ideal, var).is_zero()
        for m in monomials:
            image = shift_mul(sh, m, r_x)
            contained = closed or reduce_mod_univariate(image, ideal, var).is_zero()
            checks.append(ClosureCheck(x, m, image, contained))
    return ReducibilityWitness(ideal, tuple(checks))


# Largest oracle cap degree: the rows are dense over every monomial up to
# the cap, and the orbit grows up to it.  At the cap, on an
# AffineVirasoroH4 or MTildeAlphaBeta spec at MAX_WINDOW with seed s*d,
# the oracle takes about 0.4 s, and the process peaks at about 21 MB
# resident, on a 2-vCPU Xeon VM.
MAX_CAP_DEGREE = 8


def orbit_oracle(spec, seed: Poly, max_degree: int, cap_degree: int) -> bool:
    """Does 1 lie in the span of the seed's capped generator orbit?

    The span is closed under every generator action, discarding images of
    total degree above cap_degree, so a True answer is sound evidence for
    irreducibility while a False answer is only an absence of evidence.

    Elimination is fraction-free.  A row is a list of integers, dense over
    the monomials of total degree <= cap_degree with the leading (descending
    grlex) monomial first, so every queued vector fits.  A popped vector is
    top-reduced by cross-multiplication (its leading entry a cleared while
    it hits a pivot with leading entry p, as row <- (p*row - a*pivot) /
    gcd(p, a)), divided by its content with a positive leading entry, and
    kept as the pivot of its leading column.  Every generator then acts on
    it in integers, through `modfam._image`, and the images within the cap
    join a LIFO queue in generator order; an image above the cap is never
    computed.
    Each vector is a nonzero multiple of the one elimination on monic
    polynomials would hold at the same step, so the pivot columns, hence
    the verdict, are the same.

    Raises SpecInvalid for a cap above MAX_CAP_DEGREE or below max_degree
    and for a seed above max_degree, and SeedZero for the zero seed, all
    before any column is built.
    """
    if cap_degree > MAX_CAP_DEGREE:
        raise SpecInvalid(f"cap degree exceeds the limit {MAX_CAP_DEGREE}")
    if cap_degree < max_degree:
        raise SpecInvalid("cap degree must be at least the seed degree bound")
    variables = module_variables(spec)
    seed = change_variables(seed, variables)
    if seed.is_zero():
        raise SeedZero("the zero vector generates nothing")
    if seed.total_degree() > max_degree:
        raise SpecInvalid(f"seed degree {seed.total_degree()} exceeds the bound {max_degree}")
    algebra = algebra_of(spec)
    forms = {x: _integer_form(spec, algebra, x) for x in generators(spec)}
    # total degree of each nonzero x.1; a shift keeps the total degree, so
    # on a vector of degree d, x.v has degree d + deg x.1
    degrees = {x: max(map(sum, form[1])) for x, form in forms.items() if form[1]}
    columns = exponents_upto(len(variables), cap_degree)[::-1]
    column_of = {exps: j for j, exps in enumerate(columns)}
    width = len(columns)
    pivots = {}  # leading column -> primitive row as (column, entry) pairs, lead first

    queue = [_integer_terms(seed)[0]]
    while queue:
        row = [0] * width
        for exps, n in queue.pop().items():
            row[column_of[exps]] = n
        lead = 0
        while lead < width:
            a = row[lead]
            if a:
                pivot = pivots.get(lead)
                if pivot is None:
                    break
                # row <- (p * row - a * pivot) / gcd(p, a) clears the leading entry
                p = pivot[0][1]
                g = math.gcd(p, a)
                p, a = p // g, a // g
                if p != 1:
                    for j in range(lead, width):
                        row[j] *= p
                for j, entry in pivot:
                    row[j] -= a * entry
            lead += 1
        if lead == width:
            continue
        content = math.gcd(*row[lead:])
        if row[lead] < 0:
            content = -content
        pivot = [(j, row[j] // content) for j in range(lead, width) if row[j]]
        pivots[lead] = pivot
        vector = {columns[j]: n for j, n in pivot}
        degree = sum(columns[lead])
        for x, deg_x in degrees.items():
            if degree + deg_x <= cap_degree:
                queue.append(_image(forms, x, vector))  # x.v up to a positive scalar
    # a pivot at the zero exponent, the last column, is a constant
    return width - 1 in pivots


def format_certificate(cert: IrreducibilityCertificate, alg: Optional[str] = None) -> str:
    lines = [f"SEED {format_poly(cert.seed)}"]
    for op, result in cert.chain:
        lines.append(f"STEP {op.describe(alg)} POLY {format_poly(result)}")
    lines.append(f"SUMMARY constant={cert.final.constant_value()}")
    return "\n".join(lines)


def format_witness(wit: ReducibilityWitness, alg: Optional[str] = None) -> str:
    lines = [f"IDEAL {format_poly(wit.ideal_generator)}"]
    for check in wit.closure_checks:
        status = "PASS" if check.contained else "FAIL"
        lines.append(
            f"CLOSURE {format_symbol(check.generator, alg)} "
            f"POLY {format_poly(check.test_poly)} "
            f"IMAGE {format_poly(check.image)} {status}"
        )
    verdict = "true" if wit.all_contained else "false"
    lines.append(f"SUMMARY pass={verdict} checked={len(wit.closure_checks)}")
    return "\n".join(lines)
