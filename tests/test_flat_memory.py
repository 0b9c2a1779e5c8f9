"""Flat memory: entry points keep at most a bounded number of specs alive.

Every public entry point runs over many distinct specs of every family;
afterwards the only specs and `ActionData` that survive a garbage
collection are those the document table (`specdsl._document`) holds, at
most MAX_DOCUMENT_TEXTS of them, each with verify's outcome table of at
most MAX_WINDOW entries; none survives once that table is cleared, nor
does its form table, and the bounded caches and tables stay within their
bounds.
"""

import gc
import weakref
from fractions import Fraction

from nwfree import modfam, specdsl, verify
from nwfree.classify import Classified, UnsupportedTwist, classify, twist
from nwfree.exactpoly import MAX_MONOMIAL_TEXTS, Poly
from nwfree.irreducible import (
    apply_chain_op,
    decide,
    format_certificate,
    format_witness,
    orbit_oracle,
    reduction_chain,
    witness,
)
from nwfree.liealg import ALGEBRA_KINDS
from nwfree.modfam import (
    MalformedData,
    Vir00Spec,
    actions_of,
    affvir,
    algebra_of,
    m0,
    m0g,
    mab,
    mbh,
    mg0,
    mhb,
    module_variables,
    mtilde,
    mtilde_f,
)
from nwfree.specdsl import format_actions, format_spec, parse_actions, parse_input, parse_spec
from nwfree.verify import MAX_PLANS, format_report, verify_module

SPECS_PER_FAMILY = 300

S = Poly.var(("s",), "s")
W0 = Poly.var(("w0",), "w0")


def _g(i):
    """A non-zero g in s: a constant for odd i, else s + i/2."""
    return Poly.const(("s",), i) if i % 2 else S + Poly.const(("s",), Fraction(i, 2))


# Each family's i-th spec; distinct for distinct i, except M0, which has
# no parameter, so its specs are distinct objects that compare equal.
FAMILIES = {
    "Mg0": lambda i: mg0(_g(i + 1)),
    "M0g": lambda i: m0g(_g(i + 1)),
    "Mhb": lambda i: mhb(i + 1, i, 1),
    "Mbh": lambda i: mbh(1, i, i + 1),
    "Mab": lambda i: mab(i + 1, Fraction(1, i + 1)),
    "M0": lambda i: m0(),
    "MTildeAlphaBeta": lambda i: mtilde(mab(1, 1) if i % 2 else mg0(S), i + 2, {1: i, -1: 0}, 1),
    "MTildeF": lambda i: mtilde_f({1: S + Poly.const(("s",), i), -1: S}, 1),
    "Vir00": lambda i: Vir00Spec(i + 1, Fraction(i, 3) * W0),
    "AffVir": lambda i: affvir(mhb(1, 0, 1), i + 2, i, 1),
}


def _exercise(spec, refs):
    """Run every entry point on `spec`, holding a weakref to each spec and
    each ActionData it meets."""
    alg = algebra_of(spec)
    data = actions_of(spec)
    parsed = parse_spec(format_spec(spec))
    parsed_data = parse_actions(format_actions(data))
    read = parse_input(format_spec(spec))
    read_data = parse_input(format_actions(data))
    assert parsed == spec == read and parsed_data == data == read_data
    refs += [weakref.ref(x) for x in (spec, data, parsed, parsed_data, read, read_data)]

    for target in (spec, read, read_data):
        format_report(verify_module(target, window=1, test_degree=1))
    seed = Poly.var(module_variables(spec), module_variables(spec)[0])
    if decide(spec).irreducible:
        cert = reduction_chain(spec, seed)
        current = seed
        for op, after in cert.chain:
            current = apply_chain_op(spec, op, current)
            assert current == after
        format_certificate(cert, alg)
    else:
        format_witness(witness(spec), alg)
    orbit_oracle(spec, seed, 1, 2)

    try:
        result = classify(data)
    except MalformedData:  # Vir00 and affine-Virasoro data have no classification
        result = None
    if isinstance(result, Classified):
        refs.append(weakref.ref(result.spec))
    try:
        refs.append(weakref.ref(twist(spec)))
    except UnsupportedTwist:
        pass


def test_no_entry_point_keeps_a_spec_alive():
    modfam.value_on_one.cache_clear()
    refs = []
    for build in FAMILIES.values():
        for i in range(SPECS_PER_FAMILY):
            _exercise(build(i), refs)
    gc.collect()
    alive = list({id(x): x for x in (ref() for ref in refs) if x is not None}.values())
    assert len(refs) >= 6 * SPECS_PER_FAMILY * len(FAMILIES)
    # the document table keeps the specs and data of its last texts, and nothing else does
    assert 0 < specdsl._document.cache_info().currsize <= specdsl.MAX_DOCUMENT_TEXTS
    assert 0 < len(alive) <= specdsl.MAX_DOCUMENT_TEXTS
    hits = specdsl._document.cache_info().hits
    for x in alive:  # a hit returns the object the table holds; a miss would build a new one
        write = format_actions if isinstance(x, modfam.ActionData) else format_spec
        assert specdsl._document(write(x)) is x
    assert specdsl._document.cache_info().hits == hits + len(alive)
    # verify's outcomes live in each survivor's form table, one entry per window
    tables = [modfam.spec_forms(x) for x in alive]
    assert all(len(t.outcomes) <= modfam.MAX_WINDOW for t in tables)
    assert any(t.outcomes for t in tables)
    table_refs = [weakref.ref(t) for t in tables]
    del x, tables
    alive.clear()
    specdsl._document.cache_clear()
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert [ref for ref in table_refs if ref() is not None] == []
    assert verify._plan.cache_info().currsize <= MAX_PLANS
    assert modfam.value_on_one.cache_info().currsize == 0
    # the generator lists, one per algebra and window
    bound = len(ALGEBRA_KINDS) * (modfam.MAX_WINDOW + 1)
    assert modfam._symbols.cache_info().maxsize == bound
    assert 0 < modfam._symbols.cache_info().currsize <= bound
    # the document reader's symbol, monomial and value tables
    assert 0 < specdsl._symbol.cache_info().currsize <= specdsl.MAX_SYMBOL_TEXTS
    assert 0 < specdsl._monomial.cache_info().currsize <= MAX_MONOMIAL_TEXTS
    assert 0 < specdsl._value.cache_info().currsize <= specdsl.MAX_VALUE_TEXTS
