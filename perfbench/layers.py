"""Per-layer metrics of the traced run, and what each should move.

Each entry is (name, unit, better, the end-to-end metric and workload the
layer metric should move).  Totals are over the traced requests, every
second measured request; ratios name their base.  BENCHMARK.json's
per_layer list mirrors this table.
"""

CLASSIFY = "throughput_rps, latency_tail_ms on classify-ingest"
EVIDENCE = "latency_tail_ms, throughput_rps on evidence"

LAYER_METRICS = (
    ("exactpoly.poly_new.count", "count", "lower",
     "throughput_rps on verify-fresh, latency_tail_ms on evidence; barely classify-ingest"),
    ("exactpoly.apply_shift.calls", "count", "lower",
     "throughput_rps on verify-fresh, latency_tail_ms on evidence; barely classify-ingest"),
    ("exactpoly.apply_shift.self_s", "s", "lower",
     "throughput_rps on verify-fresh, latency_tail_ms on evidence; barely classify-ingest"),
    ("exactpoly.reduce_mod_univariate.self_s", "s", "lower",
     "latency_tail_ms on evidence; barely classify-ingest"),
    ("modfam.act.calls", "count", "lower", "throughput_rps on verify-fresh and verify-hot"),
    ("modfam.act.self_s", "s", "lower", "throughput_rps on verify-fresh and verify-hot"),
    ("modfam.value_on_one.hit_ratio", "ratio", "higher",
     "throughput_rps on verify-hot, peak_rss_mb on verify-fresh"),
    ("modfam.value_on_one.lookups", "count", "lower", "base of modfam.value_on_one.hit_ratio"),
    ("modfam.act_cache.specs_retained", "count", "lower",
     "throughput_rps on verify-hot, peak_rss_mb on verify-fresh"),
    ("liealg.bracket.calls", "count", "lower", "little anywhere: one call per generator pair"),
    ("liealg.bracket.self_s", "s", "lower", "little anywhere: one call per generator pair"),
    ("verify.verify_module.self_s", "s", "lower", "latency_p50_ms on verify-fresh"),
    ("verify.entries.checked", "count", "higher", "latency_p50_ms on verify-fresh"),
    ("verify.entries.skipped", "count", "lower", "latency_p50_ms on verify-fresh"),
    ("verify.useful_ratio", "ratio", "higher",
     "latency_p50_ms on verify-fresh; base is checked plus skipped entries"),
    ("specdsl.parse.calls", "count", "lower", CLASSIFY),
    ("specdsl.parse.self_s", "s", "lower", CLASSIFY),
    ("specdsl.format.self_s", "s", "lower", CLASSIFY),
    ("classify.classify.self_s", "s", "lower", CLASSIFY),
    ("classify.rejected.count", "count", "lower", CLASSIFY),
    ("classify.twist_iso.self_s", "s", "lower", CLASSIFY),
    ("irreducible.reduction_chain.self_s", "s", "lower", EVIDENCE),
    ("irreducible.reduction_chain.steps", "count", "lower", EVIDENCE),
    ("irreducible.witness.self_s", "s", "lower", EVIDENCE),
    ("irreducible.witness.checks", "count", "lower", EVIDENCE),
    ("irreducible.orbit_oracle.self_s", "s", "lower", EVIDENCE),
    ("irreducible.orbit_oracle.act_calls", "count", "lower", EVIDENCE),
    ("trace.requests", "count", "higher", "base of the totals above: requests traced"),
    ("trace.self_time_coverage", "ratio", "higher",
     "none: span self times over the wall time of the traced requests and their checks"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: mean service time of traced over untraced requests of one run, minus 1"),
)
