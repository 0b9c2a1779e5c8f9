"""Request handlers: each serves one generated request through nwfree's public API.

A handler does what a client of the package does with the request's
documents: parse, run the operation, and format the reply text.  Package
functions are looked up on their modules at call time, so the timing
wrappers of a traced run take effect without changing this file.
"""

from nwfree import classify, irreducible, modfam, specdsl, verify


def serve_verify(req):
    target = specdsl.parse_input(req.doc)
    report = verify.verify_module(
        target, window=req.args["window"], test_degree=req.args["test_degree"]
    )
    return {"report": report, "text": verify.format_report(report)}


def serve_classify(req):
    result = classify.classify(specdsl.parse_actions(req.doc))
    out = {"result": result}
    if not isinstance(result, classify.Classified):
        out["text"] = f"REJECTED {result.anchor}: {result.reason}"
        return out
    out["text"] = specdsl.format_spec(result.spec)
    if req.args["twist"]:
        out["twist"] = classify.twist(result.spec)
        out["twist_text"] = specdsl.format_spec(out["twist"])
    if req.args["companion"] is not None:
        companion = specdsl.parse_spec(req.args["companion"])
        out["iso"] = classify.iso_check(result.spec, companion)
    return out


def serve_evidence(req):
    """decide, then the oracle when asked, else a replayed chain or a witness."""
    spec = specdsl.parse_spec(req.doc)
    verdict = irreducible.decide(spec)
    out = {"verdict": verdict}
    alg = modfam.algebra_of(spec)
    seed = None
    if "seed" in req.args:
        seed = specdsl.parse_poly(req.args["seed"], modfam.module_variables(spec))
    if req.args["path"] == "oracle":
        out["oracle"] = irreducible.orbit_oracle(
            spec, seed, req.args["max_degree"], req.args["cap"]
        )
    elif verdict.irreducible:
        cert = irreducible.reduction_chain(spec, seed)
        value = cert.seed
        replay_ok = True
        for op, recorded in cert.chain:
            value = irreducible.apply_chain_op(spec, op, value)
            replay_ok = replay_ok and value == recorded
        out.update(seed=seed, cert=cert, replay=value, replay_ok=replay_ok,
                   text=irreducible.format_certificate(cert, alg))
    else:
        wit = irreducible.witness(spec)
        out.update(witness=wit, text=irreducible.format_witness(wit, alg))
    return out


HANDLERS = {"verify": serve_verify, "classify": serve_classify, "evidence": serve_evidence}


def serve(req):
    return HANDLERS[req.kind](req)
