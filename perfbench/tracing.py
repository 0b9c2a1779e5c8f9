"""Span tracing of nwfree from outside the package, for the traced run.

`Tracer.attach()` replaces the public functions of every layer with timing
wrappers, in every nwfree module that binds them (so `nwfree.verify.act`
and `nwfree.irreducible.act` are wrapped along with `nwfree.modfam.act`),
and counts `Poly` constructions; `detach()` puts the originals back.  Each
span records its name, start, end, parent span and the id of the request
it belongs to.  Spans stay in memory until the run ends; self time, the
part of a span's interval its child spans do not cover, is derived from
them afterwards.

Wrappers record only while a request is being served, so the benchmark's
own generation and checking, which also call the package, are not
attributed to its layers.
"""

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

import nwfree.exactpoly
import nwfree.modfam

# (span name, defining module, public function)
SPANS = (
    ("exactpoly.apply_shift", "nwfree.exactpoly", "apply_shift"),
    ("exactpoly.reduce_mod_univariate", "nwfree.exactpoly", "reduce_mod_univariate"),
    ("liealg.bracket", "nwfree.liealg", "bracket"),
    ("modfam.act", "nwfree.modfam", "act"),
    ("verify.verify_module", "nwfree.verify", "verify_module"),
    ("verify.format_report", "nwfree.verify", "format_report"),
    ("classify.classify", "nwfree.classify", "classify"),
    ("classify.twist_iso", "nwfree.classify", "twist"),
    ("classify.twist_iso", "nwfree.classify", "iso_check"),
    ("irreducible.decide", "nwfree.irreducible", "decide"),
    ("irreducible.reduction_chain", "nwfree.irreducible", "reduction_chain"),
    ("irreducible.apply_chain_op", "nwfree.irreducible", "apply_chain_op"),
    ("irreducible.witness", "nwfree.irreducible", "witness"),
    ("irreducible.orbit_oracle", "nwfree.irreducible", "orbit_oracle"),
    ("irreducible.format", "nwfree.irreducible", "format_certificate"),
    ("irreducible.format", "nwfree.irreducible", "format_witness"),
    ("specdsl.parse", "nwfree.specdsl", "parse_spec"),
    ("specdsl.parse", "nwfree.specdsl", "parse_actions"),
    ("specdsl.parse", "nwfree.specdsl", "parse_input"),
    ("specdsl.format", "nwfree.specdsl", "format_spec"),
    ("specdsl.format", "nwfree.specdsl", "format_actions"),
)

# Counts read off results at the same boundaries as the spans.
OBSERVERS = {
    "verify.verify_module": lambda c, r: c.update(
        {"verify.entries.checked": r.checked, "verify.entries.skipped": r.skipped}
    ),
    "classify.classify": lambda c, r: c.update(
        {"classify.rejected.count": 0 if hasattr(r, "spec") else 1}
    ),
    "irreducible.reduction_chain": lambda c, r: c.update(
        {"irreducible.reduction_chain.steps": len(r.chain)}
    ),
    "irreducible.witness": lambda c, r: c.update(
        {"irreducible.witness.checks": len(r.closure_checks)}
    ),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.active = False
        self.request_id = -1
        self.counts = Counter()
        self.poly_new = 0
        self.vo1_hits = 0
        self.vo1_lookups = 0
        self._vo1_at_attach = None
        self._bindings = self._build_bindings()

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid):
        i = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, name):
        nid = self.name_id(name)
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _build_bindings(self):
        """(namespace, attribute, original, wrapper) for every SPANS binding."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "nwfree"]
        bindings = []
        for name, module_name, attr in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, key, original, wrapper))

        poly = nwfree.exactpoly.Poly
        poly_init = poly.__post_init__
        tracer = self

        def counted_post_init(value):
            if tracer.active:
                tracer.poly_new += 1
            poly_init(value)

        bindings.append((poly, "__post_init__", poly_init, counted_post_init))
        return bindings

    def attach(self):
        for namespace, key, _original, wrapper in self._bindings:
            setattr(namespace, key, wrapper)
        self._vo1_at_attach = nwfree.modfam.value_on_one.cache_info()

    def detach(self):
        for namespace, key, original, _wrapper in self._bindings:
            setattr(namespace, key, original)
        before, after = self._vo1_at_attach, nwfree.modfam.value_on_one.cache_info()
        self.vo1_hits += after.hits - before.hits
        self.vo1_lookups += after.hits + after.misses - before.hits - before.misses

    def summary(self, traced_wall_s, requests):
        """Per-layer metric values from the recorded spans and counters."""
        n = len(self.span_name)
        start, end, parent, span_name = self.start, self.end, self.parent, self.span_name
        child_ns = [0] * n
        self_ns = Counter()
        calls = Counter()
        root_ns = 0
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            self_ns[span_name[i]] += dur - child_ns[i]
            calls[span_name[i]] += 1
            p = parent[i]
            if p >= 0:
                child_ns[p] += dur
            else:
                root_ns += dur
        oracle = self.name_id("irreducible.orbit_oracle")
        act = self.name_id("modfam.act")
        under_oracle = bytearray(n)
        oracle_acts = 0
        for i in range(n):
            p = parent[i]
            under = span_name[i] == oracle or (p >= 0 and under_oracle[p])
            under_oracle[i] = under
            if under and span_name[i] == act:
                oracle_acts += 1

        by_name = {self.names[k]: v / 1e9 for k, v in self_ns.items()}
        calls_by_name = {self.names[k]: v for k, v in calls.items()}
        hits, lookups = self.vo1_hits, self.vo1_lookups
        checked = self.counts["verify.entries.checked"]
        entries = checked + self.counts["verify.entries.skipped"]

        def self_s(name):
            return by_name.get(name, 0.0)

        values = {
            "exactpoly.poly_new.count": self.poly_new,
            "exactpoly.apply_shift.calls": calls_by_name.get("exactpoly.apply_shift", 0),
            "exactpoly.apply_shift.self_s": self_s("exactpoly.apply_shift"),
            "exactpoly.reduce_mod_univariate.self_s": self_s("exactpoly.reduce_mod_univariate"),
            "modfam.act.calls": calls_by_name.get("modfam.act", 0),
            "modfam.act.self_s": self_s("modfam.act"),
            "modfam.value_on_one.hit_ratio": hits / lookups if lookups else 0.0,
            "modfam.value_on_one.lookups": lookups,
            "modfam.act_cache.specs_retained": len(nwfree.modfam._ACT_CACHE),
            "liealg.bracket.calls": calls_by_name.get("liealg.bracket", 0),
            "liealg.bracket.self_s": self_s("liealg.bracket"),
            "verify.verify_module.self_s": self_s("verify.verify_module"),
            "verify.entries.checked": checked,
            "verify.entries.skipped": self.counts["verify.entries.skipped"],
            "verify.useful_ratio": checked / entries if entries else 0.0,
            "specdsl.parse.calls": calls_by_name.get("specdsl.parse", 0),
            "specdsl.parse.self_s": self_s("specdsl.parse"),
            "specdsl.format.self_s": self_s("specdsl.format"),
            "classify.classify.self_s": self_s("classify.classify"),
            "classify.rejected.count": self.counts["classify.rejected.count"],
            "classify.twist_iso.self_s": self_s("classify.twist_iso"),
            "irreducible.reduction_chain.self_s": self_s("irreducible.reduction_chain"),
            "irreducible.reduction_chain.steps": self.counts["irreducible.reduction_chain.steps"],
            "irreducible.witness.self_s": self_s("irreducible.witness"),
            "irreducible.witness.checks": self.counts["irreducible.witness.checks"],
            "irreducible.orbit_oracle.self_s": self_s("irreducible.orbit_oracle"),
            "irreducible.orbit_oracle.act_calls": oracle_acts,
            "trace.requests": requests,
            "trace.self_time_coverage": root_ns / 1e9 / traced_wall_s,
        }
        return values, by_name, calls_by_name

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
