"""Flat memory: entry points keep at most a bounded number of specs alive.

Every public entry point runs over many distinct specs of every family;
afterwards the only specs and `ActionData` that survive a garbage
collection are those the document table (`specdsl._document`) holds, at
most MAX_DOCUMENT_TEXTS of them, each with verify's outcome table of at
most MAX_WINDOW entries, each holding at most MAX_OUTCOME_TERMS terms of
R in its FAIL forms; none survives once that table is cleared, nor
does its form table, and the bounded caches and tables stay within their
bounds.  Verify's report text lives in its plans, at most MAX_PLANS of
them, each with at most MAX_PLAN_TEXT characters, and the residual texts
of FAIL pairs in each spec's form table, at most MAX_FAIL_TEXT characters.
"""

import copy
import gc
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

from nwfree import modfam, specdsl, verify
from nwfree.classify import Classified, UnsupportedTwist, classify, twist
from nwfree.exactpoly import MAX_MONOMIAL_TEXTS, Poly, format_poly
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
from nwfree.verify import MAX_FAIL_TEXT, MAX_PLAN_TEXT, MAX_PLANS, format_report, verify_module

from helpers import fail_heavy_document, kept_characters, kept_residual_characters
from test_scripts import largest_fail_data

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


def _plan_texts():
    return [x for x in gc.get_objects() if type(x) is verify._PlanText]


def test_no_entry_point_keeps_a_spec_alive():
    modfam.value_on_one.cache_clear()
    verify._plan.cache_clear()
    gc.collect()
    earlier = _plan_texts()  # held by what earlier tests keep, if anything
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
    assert all(t.fail_size[0] == kept_residual_characters(t) <= MAX_FAIL_TEXT for t in tables)
    assert any(t.outcomes for t in tables)
    table_refs = [weakref.ref(t) for t in tables]
    del x, tables
    alive.clear()
    specdsl._document.cache_clear()
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert [ref for ref in table_refs if ref() is not None] == []
    assert verify._plan.cache_info().currsize <= MAX_PLANS
    # verify's report text: one table per plan, none outliving its plan
    texts = [t for t in _plan_texts() if not any(t is e for e in earlier)]
    assert 0 < len(texts) <= MAX_PLANS
    assert any(t.pieces for t in texts)
    assert all(t.size == kept_characters(t) <= MAX_PLAN_TEXT for t in texts)
    assert modfam.value_on_one.cache_info().currsize == 0
    # the generator lists, one per algebra and window
    bound = len(ALGEBRA_KINDS) * (modfam.MAX_WINDOW + 1)
    assert modfam._symbols.cache_info().maxsize == bound
    assert 0 < modfam._symbols.cache_info().currsize <= bound
    # the document reader's symbol, monomial and value tables
    assert 0 < specdsl._symbol.cache_info().currsize <= specdsl.MAX_SYMBOL_TEXTS
    assert 0 < specdsl._monomial.cache_info().currsize <= MAX_MONOMIAL_TEXTS
    assert 0 < specdsl._value.cache_info().currsize <= specdsl.MAX_VALUE_TEXTS


# Bytes the kept text may take beyond its characters (one byte each, all
# ASCII): a str header of at most 64 bytes per kept string, letters or
# piece, and the table's own lists and dicts.
def _text_overhead(strings):
    return 64 * strings + 16 * 1024


def _traced_growth(run):
    """Bytes still allocated after `run()` and a collection, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_the_largest_plan_keeps_text_within_its_bound():
    """AffineVirasoroH4 at window 8 and test degree 8, whose report runs to
    6.8 M characters: a passing spec and its action data, both with SKIP
    pairs, share one table, which keeps at most MAX_PLAN_TEXT characters:
    a report this long is written and not kept."""
    verify._plan.cache_clear()
    spec = affvir(mhb(1, 0, 1), 3, 2, 8)
    reports = [verify_module(target, 8, 8) for target in (spec, actions_of(spec))]
    (text,) = {id(r.entries._text): r.entries._text for r in reports}.values()
    assert all(set(r.entries._outcomes) == {"P", "S"} for r in reports)
    for v in reports[0].entries._monos:  # the monomial texts exactpoly keeps, before tracing
        format_poly(v)
    lengths = set()
    retained = _traced_growth(lambda: lengths.update(len(format_report(r)) for r in reports * 2))
    assert min(lengths) > 25 * MAX_PLAN_TEXT
    assert text.pieces == {} and text.size == kept_characters(text) == 0
    assert retained <= _text_overhead(0)
    verify._plan.cache_clear()


def test_fail_heavy_data_keeps_only_outcomes_within_their_bound():
    """AffineVirasoroH4 action data with 10,158 FAIL pairs over windows 1-8
    at test degree 1: only window 1, whose FAIL forms hold 173 terms of R,
    stores its outcomes; the other windows, whose forms would keep 3.7 MB,
    store nothing."""
    verify._plan.cache_clear()
    document = fail_heavy_document()
    data = parse_input(document)
    warm = copy.copy(data)  # builds the plans outside the trace
    for window in range(1, 9):
        verify_module(warm, window, 1)
    retained = _traced_growth(lambda: [verify_module(data, w, 1) for w in range(1, 9)])
    assert list(modfam.spec_forms(data).outcomes) == [1]
    assert retained < 256 * 1024
    verify._plan.cache_clear()


def test_fail_heavy_data_keeps_fail_text_within_its_bound():
    """The FAIL-heavy action data verified at windows 1-8 and test degrees
    1-8: window 1, the only one that stores its outcomes, keeps residual
    texts up to MAX_FAIL_TEXT characters, where it would keep 297k, and the
    other windows keep none.  The largest FAIL and SKIP test report keeps
    all of its 39,699, so its repeat writes no residual."""
    verify._plan.cache_clear()
    data = copy.copy(parse_input(fail_heavy_document()))  # not the document table's

    def run(target):
        for test_degree in range(1, 9):
            format_report(verify_module(target, 1, test_degree))

    run(copy.copy(data))  # builds the plans and their text outside the trace
    retained = _traced_growth(lambda: run(data))
    forms = modfam.spec_forms(data)
    strings = sum(map(len, forms.fail_text[1].values()))
    assert forms.fail_size[0] == kept_residual_characters(forms) <= MAX_FAIL_TEXT
    assert min(map(len, forms.fail_text[1].values())) < 45  # degree 8 has 45 monomials
    # beside the text, window 1's forms and stored outcomes take about 95 KB
    assert retained <= MAX_FAIL_TEXT + _text_overhead(strings) + 128 * 1024
    for window in range(2, 9):
        for test_degree in range(1, 9):
            report = verify_module(data, window, test_degree)
            if test_degree == 1:
                format_report(report)
    assert list(forms.fail_text) == list(forms.outcomes) == [1]
    assert forms.fail_size[0] == kept_residual_characters(forms) <= MAX_FAIL_TEXT
    largest = largest_fail_data()
    text = format_report(verify_module(largest, 8, 8))
    assert modfam.spec_forms(largest).fail_size == [39_699]
    hit = verify_module(largest, 8, 8)
    with mock.patch.object(verify._Entries, "_residual_map", side_effect=AssertionError):
        assert format_report(hit) == text
    verify._plan.cache_clear()
