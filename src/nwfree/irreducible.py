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
generator, on the ideal generator, and takes each closure image from a
lower one times a two-term factor, and the oracle eliminates
fraction-free on integer vectors, taking each image only when it pops it
and stopping at the first constant pivot.  Each call reads every x.1, the
chain's constants c and c1 included, from one `modfam._Forms` table of its
own, so each is computed once per call and nothing is kept per spec.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import InputError
from .exactpoly import (
    Poly,
    change_variables,
    degree_in,
    exponents_upto,
    format_poly,
    format_rational,
    monomials_upto,
    reduce_mod_univariate,
)
from .liealg import AFF_VIR, AFFINE_H4, H4, BasisSymbol, format_symbol, sym
from .modfam import (
    AffineSpec,
    AffVirSpec,
    H4Family,
    SpecInvalid,
    Vir00Spec,
    _act_sum,
    _Forms,
    _image,
    generators,
    integer_argument,
    module_variables,
)


class NotIrreducible(InputError, ValueError):
    """Raised when a reduction chain is requested for a reducible module."""


class NotReducible(InputError, ValueError):
    """Raised when a witness ideal is requested for an irreducible module."""


class SeedZero(InputError, ValueError):
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
            pieces.append(f"{format_rational(coeff)}*{name}")
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


def apply_chain_op(spec, op: ChainOp, v: Poly) -> Poly:
    """sum(c * x.v) over the parts c*x of op, computed on integers.

    v is converted first; every symbol is then checked, even when v is zero.
    """
    return _act_sum(_Forms(spec), op.parts, change_variables(v, module_variables(spec)))


def _constant(form) -> Fraction:
    """x.1 from x's integer form when it is a constant, else 0."""
    _, numerators, den = form
    if len(numerators) != 1:
        return Fraction(0)
    (exps, n), = numerators.items()
    return Fraction(0) if any(exps) else Fraction(n, den)


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

    forms = _Forms(spec)  # this chain's integer forms, each x.1 computed once
    for kind in ("q", "p"):
        c = _constant(forms[sym(kind, 0)])
        if c:
            break

    steps = []
    current = seed
    if forms.algebra in (AFFINE_H4, AFF_VIR):
        c1 = _constant(forms[sym(kind, 1)])
        d_op = ChainOp(
            (
                (Fraction(1) / c1, sym(kind, 1)),
                (Fraction(-1) / c, sym(kind, 0)),
            )
        )
        while degree_in(current, "d") > 0:
            before = degree_in(current, "d")
            current = _act_sum(forms, d_op.parts, current)
            steps.append((d_op, current))
            if degree_in(current, "d") >= before:
                raise RuntimeError("d-stage failed to lower the d-degree")

    s_op = ChainOp(((Fraction(1) / c, sym(kind, 0)), (Fraction(-1), None)))
    while not current.is_constant():
        before = current.total_degree()
        current = _act_sum(forms, s_op.parts, current)
        steps.append((s_op, current))
        if current.is_zero() or current.total_degree() >= before:
            raise RuntimeError("s-stage failed to lower the degree")
    return IrreducibilityCertificate(seed, tuple(steps))


def _integer_coefficients(g: Poly, var: str) -> list:
    """g's coefficients in var, lowest power first, over one common denominator."""
    i = g.variables.index(var)
    coeffs = [0] * (degree_in(g, var) + 1)
    for exps, n in g.numerators:
        coeffs[exps[i]] = n
    return coeffs


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


def _square_free(f: list) -> list:
    """f / gcd(f, f'): the same roots, each simple.

    The gcd is the last entry of the remainder sequence of f and f'; taken
    primitive, it leaves an integer quotient.
    """
    a, b = f, [k * c for k, c in enumerate(f)][1:]
    while len(b) > 1:
        a, b = b, _remainder(a, b)
    if b:
        return f  # the sequence ends in a constant: f is square-free
    d = _primitive(a)
    rest = list(f)
    quotient = [0] * (len(f) - len(d) + 1)
    for i in range(len(quotient) - 1, -1, -1):
        quotient[i] = q = rest[i + len(d) - 1] // d[-1]
        for j, c in enumerate(d):
            rest[i + j] -= q * c
    return _primitive(quotient)


def _value_and_slope(f: list, x: int, m: int) -> Tuple[int, int]:
    """(f(x), f'(x)) modulo m, by Horner."""
    value = slope = 0
    for c in reversed(f):
        slope = (slope * x + value) % m
        value = (value * x + c) % m
    return value, slope


# Usable primes that may each show a repeated root before f is taken to its
# square-free part, which then has one only at the primes dividing its
# discriminant.  Random square-free f of degree 2-64 never needed more than
# 6 primes.  The answer never depends on this number, only the speed does.
SQUARE_FREE_AFTER = 8


def rational_root(g: Poly, var: str) -> Optional[Fraction]:
    """The rational root p/q of g (in lowest terms) least in (|p|, q, p < 0).

    By p-adic lifting (R. Loos, SIAM J. Comput. 12, 1983) on g's integer
    coefficients f, with leading coefficient L.  A rational root p/q has
    q | L and p | f(0), so y = L * p/q is an integer with |y| <= |L f(0)|.
    At the first prime P not dividing L at which every root of f mod P is
    simple, Newton steps lift each root to the one root modulo P^(2^k)
    above it, until the modulus passes 2|L f(0)|; L times it, as a
    symmetric residue, is y's only candidate, kept when L^n f(y/L) = 0.
    The work grows with the bit size of the coefficients, not their value.
    """
    f = _integer_coefficients(g, var)
    if f[0] == 0:
        return Fraction(0)
    if len(f) == 1:
        return None
    repeated = 0
    for prime in itertools.count(2):
        if f[-1] % prime == 0 or not all(prime % d for d in range(2, math.isqrt(prime) + 1)):
            continue
        residues = [c % prime for c in f]
        at = [(x, *_value_and_slope(residues, x, prime)) for x in range(prime)]
        roots = [(x, slope) for x, value, slope in at if value == 0]
        if all(slope for _, slope in roots):
            break
        repeated += 1
        if repeated == SQUARE_FREE_AFTER:
            f = _square_free(f)
    lead = f[-1]
    found = []
    for x, _ in roots:
        modulus = prime
        while modulus <= 2 * abs(lead * f[0]):
            modulus *= modulus
            value, slope = _value_and_slope(f, x, modulus)
            x = (x - value * pow(slope, -1, modulus)) % modulus
        y = lead * x % modulus
        if 2 * y > modulus:
            y -= modulus
        exact, power = 0, 1  # L^n f(y/L), by Horner on integers
        for c in reversed(f):
            exact, power = exact * y + c * power, power * lead
        if exact == 0:
            found.append(Fraction(y, lead))
    return min(found, key=lambda r: (abs(r.numerator), r.denominator, r < 0), default=None)


def _witness_generator(spec) -> Tuple[Poly, str]:
    variables = module_variables(spec)
    if isinstance(spec, Vir00Spec):
        return Poly.var(variables, "w0"), "w0"
    if isinstance(spec, AffVirSpec):  # its MTildeAlphaBeta has the same variables and ideal
        return _witness_generator(spec.base)
    base = spec.base if isinstance(spec, AffineSpec) else spec
    if base is None or base.variant == "M0":  # MTildeF has no base
        # with p, q, r acting as zero any proper ideal works; (s) is the simplest
        return Poly.var(variables, "s"), "s"
    root = rational_root(base.g, "s")
    if root is None:
        return change_variables(base.g, variables), "s"
    return Poly.var(variables, "s") - Poly.const(variables, root), "s"


def _times_shifted_variable(ints: dict, i: int, offset: int) -> dict:
    """ints * (v + offset) on integers, v the i-th variable: two updates per term."""
    out: dict = {}
    get = out.get
    for exps, n in ints.items():
        raised = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
        out[raised] = get(raised, 0) + n
        if offset:
            out[exps] = get(exps, 0) + offset * n
    return out


def witness(spec) -> ReducibilityWitness:
    """Invariant principal ideal plus closure checks on the degree-4 test basis.

    Every action is shift-then-multiply, so the image of ideal * m under x
    is shift_x(m) * R_x with R_x = x.ideal: on integers, each generator
    acts once, on the ideal generator, through `modfam._image`.  The test
    monomials come in ascending graded-lex order, so for m != 1 with first
    used variable v, m / v comes earlier, and as shift_x(m) = shift_x(m / v)
    * (v + offset_v), the image of m is the image of m / v times that
    two-term factor: one pass over an integer map per check, no shift.
    When R_x reduces to zero modulo the ideal, every image of x lies in the
    ideal; only otherwise is each image reduced on its own.
    """
    verdict = decide(spec)
    if verdict.irreducible:
        raise NotReducible(f"{verdict.family} is irreducible, no invariant ideal exists")
    ideal, var = _witness_generator(spec)
    variables = module_variables(spec)
    forms = _Forms(spec)
    ideal_ints = dict(ideal.numerators)
    # (m, its exponents, its first used variable i, m / v_i) per test monomial
    steps = []
    for m in monomials_upto(variables, 4):
        (exps, _), = m.numerators  # a monic monomial
        i = next((j for j, e in enumerate(exps) if e), None)
        lower = None if i is None else exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        steps.append((m, exps, i, lower))
    checks = []
    for x in generators(spec):
        form = forms[x]
        offsets = form[0]
        r_ints = _image(form, ideal_ints)  # R_x times `scale`, on integers
        scale = ideal.den * form[2]
        r_x = Poly._trusted(variables, r_ints.items(), scale)
        closed = reduce_mod_univariate(r_x, ideal, var).is_zero()
        images = {}  # exponents of m -> shift_x(m) * R_x times `scale`
        for m, exps, i, lower in steps:
            if i is None:
                image_ints = r_ints
            else:
                image_ints = _times_shifted_variable(images[lower], i, offsets[i])
            images[exps] = image_ints
            image = Poly._trusted(variables, image_ints.items(), scale)
            contained = closed or reduce_mod_univariate(image, ideal, var).is_zero()
            checks.append(ClosureCheck(x, m, image, contained))
    return ReducibilityWitness(ideal, tuple(checks))


# Largest oracle cap degree: the rows are dense over every monomial up to
# the cap, and a False answer runs the orbit up to it.  At the cap, on an
# AffineVirasoroH4 or MTildeAlphaBeta spec at MAX_WINDOW, a True answer
# from seed s*d takes about 3 ms; a False answer from a seed in the
# witness ideal, such as s-1/2 over Mg0 with g = s^2-1/4, takes about
# 0.1 s.  The process peaks at about 18 MB resident in either case, on a
# 2-vCPU Xeon VM.
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
    kept as the pivot of its leading column.  The generators whose image of
    it stays within the cap then join a LIFO queue in generator order, as
    (form, pivot) pairs; the image x.v is taken in integers, through
    `modfam._image`, only when its pair is popped, and an image above the
    cap is never computed.  Pivots only accumulate, so the first pivot in
    the constant column, the last one, answers True at once; False comes
    only after the whole capped closure.
    Each vector is a nonzero multiple of the one elimination on monic
    polynomials would hold at the same step, so the pivot columns, hence
    the verdict, are the same.

    Raises SpecInvalid for a cap above MAX_CAP_DEGREE or below max_degree
    and for a seed above max_degree, and SeedZero for the zero seed, all
    before any column is built; each degree bound must be an integer.
    """
    max_degree = integer_argument(max_degree, "max degree")
    cap_degree = integer_argument(cap_degree, "cap degree", high=MAX_CAP_DEGREE)
    if cap_degree < max_degree:
        raise SpecInvalid("cap degree must be at least the seed degree bound")
    variables = module_variables(spec)
    seed = change_variables(seed, variables)
    if seed.is_zero():
        raise SeedZero("the zero vector generates nothing")
    if seed.total_degree() > max_degree:
        raise SpecInvalid(f"seed degree {seed.total_degree()} exceeds the bound {max_degree}")
    forms = _Forms(spec)
    # (form, total degree) of each nonzero x.1; a shift keeps the total
    # degree, so on a vector of degree d, x.v has degree d + deg x.1
    acting = [(f, max(map(sum, f[1]))) for f in map(forms.__getitem__, generators(spec)) if f[1]]
    columns = exponents_upto(len(variables), cap_degree)[::-1]
    column_of = {exps: j for j, exps in enumerate(columns)}
    width = len(columns)
    pivots = {}  # leading column -> primitive row as (column, entry) pairs, lead first

    # (form, vector) pairs whose image x.v is taken when popped; the seed
    # itself comes first, with no form
    queue = [(None, dict(seed.numerators))]
    while queue:
        form, vector = queue.pop()
        row = [0] * width
        for exps, n in (vector if form is None else _image(form, vector)).items():
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
        if lead == width - 1:
            return True  # a pivot at the zero exponent, the last column, is a constant
        content = math.gcd(*row[lead:])
        if row[lead] < 0:
            content = -content
        pivot = [(j, row[j] // content) for j in range(lead, width) if row[j]]
        pivots[lead] = pivot
        vector = {columns[j]: n for j, n in pivot}
        degree = sum(columns[lead])
        for form, deg_x in acting:
            if degree + deg_x <= cap_degree:
                queue.append((form, vector))  # x.v up to a positive scalar, when popped
    return False


def format_certificate(cert: IrreducibilityCertificate, alg: Optional[str] = None) -> str:
    lines = [f"SEED {format_poly(cert.seed)}"]
    for op, result in cert.chain:
        lines.append(f"STEP {op.describe(alg)} POLY {format_poly(result)}")
    lines.append(f"SUMMARY constant={format_rational(cert.final.constant_value())}")
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
