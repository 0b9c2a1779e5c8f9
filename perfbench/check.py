"""Checks each reply against the outcome known from how its request was built.

`check(req, out)` returns None for a correct reply and a one-line reason
otherwise.  An expected FAIL report or an expected rejection is a correct
reply.  Expected specs are generator-written documents, parsed here, so
the comparison is between spec values, not between formatter outputs.
"""

from nwfree import specdsl


def _verify(req, out):
    report, want = out["report"], req.expect
    if report.passed != want["passed"]:
        return f"verify passed={report.passed}, expected {want['passed']}"
    if len(report.entries) != want["entries"]:
        return f"verify produced {len(report.entries)} entries, expected {want['entries']}"
    summary = out["text"].rsplit("\n", 1)[-1]
    if not summary.startswith(f"SUMMARY pass={'true' if want['passed'] else 'false'} "):
        return f"report summary {summary!r} disagrees with the expected status"
    return None


def _classify(req, out):
    result, want = out["result"], req.expect
    if "anchor" in want:
        anchor = getattr(result, "anchor", None)
        if anchor != want["anchor"]:
            return f"classify gave {anchor or 'a spec'}, expected rejection at {want['anchor']}"
        return None
    spec = getattr(result, "spec", None)
    if spec is None:
        return f"classify rejected at {result.anchor}, expected a spec"
    if spec != specdsl.parse_spec(want["spec"]):
        return "classify recovered a different spec"
    if specdsl.parse_spec(out["text"]) != spec:
        return "formatted spec does not parse back to the classified spec"
    if "twist" in want:
        if out["twist"] != specdsl.parse_spec(want["twist"]):
            return "twist image differs from the expected family"
        if specdsl.parse_spec(out["twist_text"]) != out["twist"]:
            return "formatted twist does not parse back"
    if "iso" in want and out["iso"] != want["iso"]:
        return f"iso_check gave {out['iso']}, expected {want['iso']}"
    return None


def _evidence(req, out):
    verdict, want = out["verdict"], req.expect
    got = (verdict.irreducible, verdict.family, verdict.derived)
    expected = (want["irreducible"], want["family"], want["derived"])
    if got != expected:
        return f"decide gave {got}, expected {expected}"
    if req.args["path"] == "oracle":
        # one-sided: only True on an irreducible spec is checkable
        if want["oracle"] is True and out["oracle"] is not True:
            return "orbit_oracle missed 1 on an irreducible spec"
        return None
    if want["irreducible"]:
        cert, final = out["cert"], out["replay"]
        if cert.seed != out["seed"]:
            return "chain does not start from the request's seed"
        if not out["replay_ok"] or final != cert.final:
            return "chain does not replay to its recorded steps"
        if final.is_zero() or not final.is_constant():
            return "chain does not end at a nonzero constant"
        return None
    wit = out["witness"]
    if not wit.all_contained:
        return "witness ideal is not closed under every generator"
    if len(wit.closure_checks) != want["checks"]:
        return f"witness made {len(wit.closure_checks)} checks, expected {want['checks']}"
    return None


_CHECKS = {"verify": _verify, "classify": _classify, "evidence": _evidence}


def check(req, out):
    return _CHECKS[req.kind](req, out)
