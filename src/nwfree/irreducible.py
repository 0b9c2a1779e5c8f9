"""Irreducibility decisions with constructive certificates and ideal witnesses.

A verdict is backed one of two ways.  Irreducible specs come with a replayable
chain of degree-lowering operators that drives any seed down to a nonzero
constant, so the cyclic submodule it generates contains 1.  Reducible specs
come with a principal ideal shown invariant under every generator on a test
basis.  An orbit-closure oracle gives an independent brute-force cross-check.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .exactpoly import (
    NEG_INF,
    Poly,
    change_variables,
    degree_in,
    format_poly,
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
    act,
    algebra_of,
    generators,
    h4_base_values,
    module_variables,
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
    variables = module_variables(spec)
    v = change_variables(v, variables)
    total = Poly.zero(variables)
    for coeff, symbol in op.parts:
        term = v if symbol is None else act(spec, symbol, v)
        total = total + coeff * term
    return total


# Generator whose value at 1 is a nonzero constant once decide() says Irreducible.
_REDUCING_KIND = {"Mg0": "p", "M0g": "q", "Mhb": "q", "Mbh": "p", "Mab": "q"}


def reduction_chain(spec, seed: Poly) -> IrreducibilityCertificate:
    """Drive seed to a nonzero constant, recording each operator application.

    Affine specs reduce the d-degree first, using the loop-1 generator against
    its loop-0 companion; the resulting polynomial in s then falls to the same
    shift-difference operator that handles the base families.
    """
    verdict = decide(spec)
    if not verdict.irreducible:
        raise NotIrreducible(f"{verdict.family} is reducible, no reduction chain exists")
    variables = module_variables(spec)
    seed = change_variables(seed, variables)
    if seed.is_zero():
        raise SeedZero("the zero vector generates nothing")

    base = _base_family(spec)
    kind = _REDUCING_KIND[base.variant]
    p1, q1, _ = h4_base_values(base)
    c = (p1 if kind == "p" else q1).constant_value()

    steps = []
    current = seed
    algebra = algebra_of(spec)
    if algebra in (AFFINE_H4, AFF_VIR):
        alpha = spec.alpha if isinstance(spec, AffineSpec) else spec.base.alpha
        d_op = ChainOp(
            (
                (Fraction(1) / (alpha * c), sym(kind, 1)),
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


def _evaluate_univariate(g: Poly, var: str, value: Fraction) -> Fraction:
    i = g.variables.index(var)
    total = Fraction(0)
    for exps, coeff in g.terms:
        total += coeff * value ** exps[i]
    return total


def rational_root(g: Poly, var: str) -> Optional[Fraction]:
    """First rational root by the numerator/denominator divisor test."""
    denominator_lcm = 1
    for _, coeff in g.terms:
        denominator_lcm = denominator_lcm * coeff.denominator // math.gcd(
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
    """Invariant principal ideal plus closure checks on the degree-4 test basis."""
    verdict = decide(spec)
    if verdict.irreducible:
        raise NotReducible(f"{verdict.family} is irreducible, no invariant ideal exists")
    ideal, var = _witness_generator(spec)
    variables = module_variables(spec)
    checks = []
    for x in generators(spec):
        for m in monomials_upto(variables, 4):
            image = act(spec, x, ideal * m)
            contained = reduce_mod_univariate(image, ideal, var).is_zero()
            checks.append(ClosureCheck(x, m, image, contained))
    return ReducibilityWitness(ideal, tuple(checks))


def orbit_oracle(spec, seed: Poly, max_degree: int, cap_degree: int) -> bool:
    """Does 1 lie in the span of the seed's capped generator orbit?

    The span is closed under every generator action, discarding images of
    total degree above cap_degree, so a True answer is sound evidence for
    irreducibility while a False answer is only an absence of evidence.
    """
    if cap_degree < max_degree:
        raise SpecInvalid("cap degree must be at least the seed degree bound")
    variables = module_variables(spec)
    seed = change_variables(seed, variables)
    if seed.is_zero():
        raise SeedZero("the zero vector generates nothing")
    if seed.total_degree() > max_degree:
        raise SpecInvalid(
            f"seed degree {seed.total_degree()} exceeds the bound {max_degree}"
        )

    gens = generators(spec)
    basis = {}  # leading exponents -> monic polynomial, echelon by leading monomial

    def reduce(v: Poly) -> Poly:
        while not v.is_zero():
            exps, coeff = v.terms[0]
            pivot = basis.get(exps)
            if pivot is None:
                return v
            v = v - coeff * pivot
        return v

    queue = [seed]
    while queue:
        v = reduce(queue.pop())
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
    # a pivot at the zero exponent is the monic constant 1 itself
    return tuple(0 for _ in variables) in basis


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
