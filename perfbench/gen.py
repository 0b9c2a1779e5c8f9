"""Seeded request generator for the nwfree benchmark.

Every request is a text document in the package's `key = value` format
plus the outcome it must produce.  The documents are written here, not by
`format_spec` / `format_actions`, so a change to the package's formatters
cannot change the inputs, and the expected outcomes come from how each
input was built, not from running the package.  This module imports
nothing from nwfree.

A workload is a fixed cycle of request slots.  Each slot fixes the kind of
request (family, algebra, window, corruption, evidence path); the seed
only draws the numbers inside it.  Every run therefore has the same mix of
request kinds, so quantiles of the latency distribution sit at the same
ranks on every seed.  The same seed gives byte-identical documents.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

WORKLOADS = ("verify-fresh", "verify-hot", "classify-ingest", "evidence")

H4, AFF, VIR, AFFVIR = "H4", "AffineH4", "Vir00", "AffineVirasoroH4"
VARIABLES = {H4: ("s",), AFF: ("s", "d"), VIR: ("d0", "w0"), AFFVIR: ("s", "d")}
# Loop scalings and Virasoro shifts.  Integers and unit fractions keep the
# powers alpha^k the same size across draws, so a slot costs the same on every seed.
ALPHAS = tuple(Fraction(a) for a in ("2", "-2", "3", "-3", "1/2", "-1/2", "1/3", "-1/3"))
TEST_DEGREE = 3
WITNESS_DEGREE = 4  # irreducible.witness checks monomials up to degree 4


@dataclass(frozen=True)
class Request:
    kind: str  # "verify", "classify" or "evidence"
    doc: str
    args: dict
    expect: dict


# ------------------------------------------------------------ polynomials
# A polynomial is a dict {exponent tuple: Fraction} over a variable tuple.


def _const(c, nvars):
    return {(0,) * nvars: Fraction(c)} if c else {}


def _scale(poly, c):
    return {e: v * c for e, v in poly.items() if v * c}


def _add(a, b):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, Fraction(0)) + v
    return {e: v for e, v in out.items() if v}


def _embed(poly, nvars):
    """Re-express a polynomial in s as one in (s, d)."""
    return {e + (0,) * (nvars - len(e)): v for e, v in poly.items()}


def _var(index, nvars, coeff=1):
    return {tuple(1 if i == index else 0 for i in range(nvars)): Fraction(coeff)}


def poly_text(poly, variables):
    items = sorted(poly.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    if not items:
        return "0"
    out = []
    for exps, c in items:
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        out.append(("-" if c < 0 else ("+" if out else "")) + body)
    return "".join(out)


def _is_const(poly):
    return all(not any(e) for e in poly)


# ----------------------------------------------------------------- draws


def _nz(rng, hi=5):
    return rng.randint(1, hi) * rng.choice((1, -1))


def _nz_rat(rng):
    return Fraction(_nz(rng, 7), rng.choice((1, 2, 3)))


def _upoly(rng, degree):
    """Polynomial in one variable with every coefficient up to `degree` nonzero.

    Draws never zero a coefficient or parameter that adds a term, so the
    term structure of a slot, and with it its cost, is the same on every seed.
    """
    return {(e,): Fraction(_nz(rng)) for e in range(degree + 1)}


def draw_h4(rng, variant, gdeg=0):
    spec = {"alg": H4, "family": variant}
    if variant in ("Mg0", "M0g"):
        spec["g"] = _upoly(rng, gdeg)
    elif variant in ("Mhb", "Mbh"):
        spec.update(a1=Fraction(_nz(rng)), a2=Fraction(_nz(rng)), b=Fraction(_nz(rng)))
    elif variant == "Mab":
        spec.update(a=_nz_rat(rng), b=_nz_rat(rng))
    return spec


def draw_mtab(rng, base, window, gdeg=0):
    beta = {k: Fraction(_nz(rng, 9)) for k in range(-window, window + 1) if k}
    beta[0] = Fraction(0)
    return {"alg": AFF, "family": "MTildeAlphaBeta", "base": draw_h4(rng, base, gdeg),
            "alpha": rng.choice(ALPHAS), "beta": beta, "window": window}


def draw_mtf(rng, window):
    f = {k: _upoly(rng, 2) for k in range(-window, window + 1) if k}
    f[0] = _var(0, 1)
    return {"alg": AFF, "family": "MTildeF", "f": f, "window": window}


def draw_vir(rng, window):
    # Vir00 specs carry no window of their own; `window` is the one verified.
    return {"alg": VIR, "family": "MLambdaF", "lam": rng.choice(ALPHAS),
            "fpoly": _upoly(rng, 2), "window": window}


def draw_affvir(rng, base, window, gdeg=0):
    return {"alg": AFFVIR, "family": "MTildeLambda", "base": draw_h4(rng, base, gdeg),
            "alpha": rng.choice(ALPHAS), "lam": rng.choice(ALPHAS), "window": window}


# ------------------------------------------------------------- documents


def _h4_lines(h4):
    fam = h4["family"]
    if fam in ("Mg0", "M0g"):
        return [f"g = {poly_text(h4['g'], ('s',))}"]
    if fam in ("Mhb", "Mbh"):
        return [f"a1 = {h4['a1']}", f"a2 = {h4['a2']}", f"b = {h4['b']}"]
    if fam == "Mab":
        return [f"a = {h4['a']}", f"b = {h4['b']}"]
    return []


def spec_doc(spec, reverse_indexed=False):
    """Spec document; `reverse_indexed` lists beta/f entries in descending order."""
    lines = [f"algebra = {spec['alg']}", f"family = {spec['family']}"]
    fam = spec["family"]
    order = (lambda ks: sorted(ks, reverse=reverse_indexed))
    if fam in ("MTildeAlphaBeta", "MTildeLambda"):
        lines.append(f"base = {spec['base']['family']}")
        lines += _h4_lines(spec["base"])
        lines.append(f"alpha = {spec['alpha']}")
        if fam == "MTildeAlphaBeta":
            lines += [f"beta.{k} = {spec['beta'][k]}" for k in order(spec["beta"])]
        else:
            lines.append(f"lambda = {spec['lam']}")
        lines.append(f"window = {spec['window']}")
    elif fam == "MTildeF":
        lines += [f"f.{k} = {poly_text(spec['f'][k], ('s',))}" for k in order(spec["f"])]
        lines.append(f"window = {spec['window']}")
    elif fam == "MLambdaF":
        lines.append(f"lambda = {spec['lam']}")
        lines.append(f"fpoly = {poly_text(spec['fpoly'], ('w0',))}")
    else:
        lines += _h4_lines(spec)
    return "\n".join(lines) + "\n"


def _h4_values(h4):
    """(p.1, q.1, r.1) of an H4 family, as polynomials in s and a rational."""
    fam = h4["family"]
    if fam == "Mg0":
        return h4["g"], {}, Fraction(0)
    if fam == "M0g":
        return {}, h4["g"], Fraction(0)
    if fam in ("Mhb", "Mbh"):
        h = _add(_var(0, 1, h4["a1"]), _const(h4["a2"], 1))
        b = _const(h4["b"], 1)
        r = -h4["a1"] * h4["b"]
        return (h, b, r) if fam == "Mhb" else (b, h, r)
    if fam == "Mab":
        return _const(h4["a"], 1), _const(h4["b"], 1), Fraction(0)
    return {}, {}, Fraction(0)


def _symbol(kind, k):
    return kind if k == 0 else f"{kind}@{k}"


def action_table(spec):
    """Generator values on 1, as {symbol text: polynomial}, in the spec's window."""
    alg, fam = spec["alg"], spec["family"]
    n = len(VARIABLES[alg])
    if alg == H4:
        p, q, r = _h4_values(spec)
        return {"p": p, "q": q, "r": _const(r, 1), "s": _var(0, 1)}
    w = spec["window"]
    loops = range(-w, w + 1)
    table = {}
    if alg == VIR:
        f = {(0,) + e: v for e, v in spec["fpoly"].items()}  # f(w0) in (d0, w0)
        for k in loops:
            scale = spec["lam"] ** k
            table[_symbol("dvir", k)] = _scale(_add(_var(0, 2), _scale(f, k)), scale)
            table[_symbol("w", k)] = _var(1, 2, scale)
        table["k"] = {}
        return table
    if fam == "MTildeF":
        for k in loops:
            for kind in "pqr":
                table[_symbol(kind, k)] = {}
            table[_symbol("s", k)] = _embed(spec["f"][k], n)
    else:
        p1, q1, r1 = _h4_values(spec["base"])
        alpha = spec["alpha"]
        beta = spec.get("beta", {})
        for k in loops:
            scale = alpha ** k
            table[_symbol("p", k)] = _scale(_embed(p1, n), scale)
            table[_symbol("q", k)] = _scale(_embed(q1, n), scale)
            table[_symbol("r", k)] = _const(scale * r1, n)
            table[_symbol("s", k)] = _add(_var(0, n, scale), _const(beta.get(k, 0), n))
            if alg == AFFVIR:
                mu = k * scale * spec["lam"]
                table[_symbol("dvir", k)] = _add(_var(1, n, scale), _const(mu, n))
    table["k"] = {}
    if alg == AFF:
        table["d"] = _var(1, n)
    return table


def action_doc(alg, window, table):
    lines = [f"algebra = {alg}", f"window = {window}"]
    lines += [f"{sym} = {poly_text(value, VARIABLES[alg])}" for sym, value in table.items()]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------ expected outcomes


def n_generators(alg, window):
    loops = 2 * window + 1
    return {H4: 4, AFF: 4 * loops + 2, VIR: 2 * loops + 1, AFFVIR: 5 * loops + 1}[alg]


def n_monomials(alg, degree):
    nvars = len(VARIABLES[alg])
    return comb(degree + nvars, nvars)


def verify_entries(alg, window):
    g = n_generators(alg, 0 if alg == H4 else window)
    return g * (g - 1) // 2 * n_monomials(alg, TEST_DEGREE)


def _base_irreducible(h4):
    fam = h4["family"]
    if fam in ("Mhb", "Mbh", "Mab"):
        return True
    if fam in ("Mg0", "M0g"):
        return _is_const(h4["g"])
    return False


def verdict(spec):
    """(irreducible, family path, derived) as `decide` must report them."""
    fam = spec["family"]
    if spec["alg"] == H4:
        return _base_irreducible(spec), fam, False
    if fam == "MTildeF":
        return False, "MTildeF", True
    if fam == "MLambdaF":
        return False, "Vir00", True
    base = spec["base"]
    path = "MTildeAlphaBeta/" + base["family"]
    if fam == "MTildeLambda":
        return _base_irreducible(base), "AffineVirasoroH4/" + path, True
    return _base_irreducible(base), path, base["family"] == "M0"


def witness_checks(spec):
    window = {H4: 0, VIR: 2}.get(spec["alg"], spec.get("window", 0))
    return n_generators(spec["alg"], window) * n_monomials(spec["alg"], WITNESS_DEGREE)


# -------------------------------------------------------------- requests


def verify_spec(spec):
    window = 1 if spec["alg"] == H4 else spec["window"]
    return Request("verify", spec_doc(spec), {"window": window, "test_degree": TEST_DEGREE},
                   {"passed": True, "entries": verify_entries(spec["alg"], window)})


# The scalar slot whose +1 bump breaks the module axiom in every family of the algebra.
_CORRUPTION_SLOT = {H4: "r", AFF: "k", VIR: "dvir@1", AFFVIR: "dvir@1"}


def verify_corrupted(spec):
    alg = spec["alg"]
    window = 0 if alg == H4 else spec["window"]
    table = action_table(spec)
    slot = _CORRUPTION_SLOT[alg]
    table[slot] = _add(table[slot], _const(1, len(VARIABLES[alg])))
    return Request("verify", action_doc(alg, window, table),
                   {"window": max(window, 1), "test_degree": TEST_DEGREE},
                   {"passed": False, "entries": verify_entries(alg, window)})


def _twist_spec(h4):
    if h4["family"] == "Mg0":
        g = {e: (v if e[0] % 2 == 0 else -v) for e, v in h4["g"].items()}
        return {"alg": H4, "family": "M0g", "g": g}
    return {"alg": H4, "family": "Mbh", "a1": -h4["a1"], "a2": h4["a2"], "b": -h4["b"]}


def classify_valid(spec, twist=False, iso=None, rng=None):
    """Action data of `spec`; it must classify back to exactly `spec`.

    `iso` is None, "same" (the companion is `spec` with its indexed entries
    reordered) or "differ" (one beta entry changed).
    """
    window = 0 if spec["alg"] == H4 else spec["window"]
    args = {"twist": twist, "companion": None}
    expect = {"spec": spec_doc(spec)}
    if twist:
        expect["twist"] = spec_doc(_twist_spec(spec))
    if iso is not None:
        other = spec
        if iso == "differ":
            beta = dict(spec["beta"])
            beta[1] += rng.choice((1, -1))
            other = dict(spec, beta=beta)
        args["companion"] = spec_doc(other, reverse_indexed=True)
        expect["iso"] = iso == "same"
    return Request("classify", action_doc(spec["alg"], window, action_table(spec)), args, expect)


def classify_rejected(anchor, spec, edit):
    """Action data of `spec` with `edit` applied; classify must reject it at `anchor`."""
    table = action_table(spec)
    edit(table)
    window = 0 if spec["alg"] == H4 else spec["window"]
    return Request("classify", action_doc(spec["alg"], window, table),
                   {"twist": False, "companion": None}, {"anchor": anchor})


def _set(sym, value):
    def edit(table):
        table[sym] = value
    return edit


def _add_to(sym, poly):
    def edit(table):
        table[sym] = _add(table[sym], poly)
    return edit


def _corrupt(anchor, rng):
    """A rejection request for one anchor; the edit breaks exactly that constraint."""
    c = _nz(rng)
    s1, s2, d2 = _var(0, 1), _var(0, 2), _var(1, 2)
    if anchor == "r1-constant":
        return classify_rejected(anchor, draw_h4(rng, "Mab"), _set("r", _scale(s1, c)))
    if anchor == "r1-zero-when-pq-degenerate":
        return classify_rejected(anchor, draw_h4(rng, "Mg0", 2), _set("r", _const(c, 1)))
    if anchor == "degree-dichotomy":
        return classify_rejected(anchor, draw_h4(rng, "Mhb"), _set("p", _upoly(rng, 2)))
    if anchor == "r1-product-rule":
        return classify_rejected(anchor, draw_h4(rng, "Mhb"), _add_to("r", _const(c, 1)))
    if anchor == "loop-scaling":
        return classify_rejected(anchor, draw_mtab(rng, "Mab", 2), _add_to("p@1", _const(c, 2)))
    if anchor == "central-k":
        return classify_rejected(anchor, draw_mtab(rng, "Mhb", 1), _set("k", _const(c, 2)))
    if anchor == "alpha-power":
        return classify_rejected(anchor, draw_mtab(rng, "Mbh", 2), _add_to("s@2", _scale(s2, c)))
    if anchor == "deg-d-f":
        return classify_rejected(anchor, draw_mtab(rng, "Mhb", 1), _add_to("s@1", _scale(d2, c)))
    if anchor == "deg-s-f":
        sq = {(2, 0): Fraction(c)}
        return classify_rejected(anchor, draw_mtab(rng, "Mab", 1), _add_to("s@-1", sq))
    if anchor == "f0-side-condition":
        return classify_rejected(anchor, draw_mtab(rng, "Mhb", 1), _add_to("s", _const(c, 2)))
    if anchor == "alpha-nonzero":
        return classify_rejected(anchor, draw_mtab(rng, "Mab", 1), _set("s@1", _const(c, 2)))
    if anchor == "deg-d-base":
        spec = draw_mtab(rng, "Mab", 1)
        alpha = spec["alpha"]

        def edit(table):
            for k in (-1, 0, 1):
                table[_symbol("p", k)] = _scale(d2, c * alpha ** k)
        return classify_rejected(anchor, spec, edit)
    raise ValueError(f"no corruption for anchor {anchor!r}")


ROTATING_ANCHORS = ("deg-d-f", "deg-s-f", "f0-side-condition", "alpha-nonzero", "deg-d-base")


def _seed_poly(rng, alg, degree):
    """Chain or oracle seed of total degree `degree` with a fixed monomial shape."""
    variables = VARIABLES[alg]
    if len(variables) == 1:
        shape = [(degree,), (max(degree - 2, 0),), (1,), (0,)]
    else:
        half = degree // 2
        shape = [(half, degree - half), (degree, 0), (0, degree - 1), (1, 1), (0, 0)]
    poly = {}
    for exps in shape:
        poly[exps] = poly.get(exps, Fraction(0)) + _nz(rng)
    poly = {e: v for e, v in poly.items() if v}
    if not any(sum(e) == degree for e in poly):
        poly[shape[0]] = Fraction(1)
    return poly_text(poly, variables)


def evidence(spec, rng, seed_degree=None, oracle=None):
    """decide plus one evidence path: chain (irreducible), witness (reducible) or oracle."""
    irreducible, family, derived = verdict(spec)
    expect = {"irreducible": irreducible, "family": family, "derived": derived}
    args = {"path": None}
    if oracle is not None:
        max_degree, cap = oracle
        args.update(path="oracle", seed=_seed_poly(rng, spec["alg"], max_degree),
                    max_degree=max_degree, cap=cap)
        # one-sided: True certifies reachability, False proves nothing
        expect["oracle"] = True if irreducible else None
    elif irreducible:
        args.update(path="chain", seed=_seed_poly(rng, spec["alg"], seed_degree))
    else:
        args["path"] = "witness"
        expect["checks"] = witness_checks(spec)
    return Request("evidence", spec_doc(spec), args, expect)


# ----------------------------------------------------------------- slots
# Each slot maps (rng, cycle index) to one request.  Service times on the
# reference machine: verify slots from 5 ms (H4) through 60-370 ms (window 1)
# to about 1 s (AffineVirasoroH4, window 2); classify slots 0.2-5 ms; evidence
# slots 1-60 ms for chains and witnesses, 40-230 ms for the oracle.

VERIFY_SLOTS = (
    lambda r, i: verify_spec(draw_h4(r, "Mhb")),
    lambda r, i: verify_spec(draw_h4(r, "Mg0", 2)),
    lambda r, i: verify_corrupted(draw_h4(r, "Mbh")),
    lambda r, i: verify_spec(draw_mtf(r, 1)),
    lambda r, i: verify_spec(draw_vir(r, 1)),
    lambda r, i: verify_corrupted(draw_vir(r, 1)),
    lambda r, i: verify_spec(draw_mtab(r, "Mg0", 1, 1)),
    lambda r, i: verify_spec(draw_vir(r, 2)),
    lambda r, i: verify_spec(draw_mtf(r, 2)),
    lambda r, i: verify_corrupted(draw_mtab(r, "Mab", 1)),
    lambda r, i: verify_spec(draw_mtab(r, "Mhb", 1)),
    lambda r, i: verify_spec(draw_affvir(r, "Mbh", 1)),
    lambda r, i: verify_corrupted(draw_affvir(r, "Mhb", 1)),
    lambda r, i: verify_spec(draw_mtab(r, "Mab", 2)),
    lambda r, i: verify_spec(draw_affvir(r, "Mhb", 2)),
)

CLASSIFY_SLOTS = (
    lambda r, i: classify_valid(draw_h4(r, "Mg0", 2), twist=True),
    lambda r, i: classify_valid(draw_h4(r, "M0g", 1)),
    lambda r, i: classify_valid(draw_h4(r, "Mhb"), twist=True),
    lambda r, i: classify_valid(draw_h4(r, "Mbh")),
    lambda r, i: classify_valid(draw_h4(r, "Mab")),
    lambda r, i: classify_valid(draw_h4(r, "M0")),
    lambda r, i: classify_valid(draw_h4(r, "Mg0", 3)),
    lambda r, i: classify_valid(draw_mtab(r, "Mhb", 1), iso="same"),
    lambda r, i: classify_valid(draw_mtab(r, "Mab", 2)),
    lambda r, i: classify_valid(draw_mtab(r, "Mg0", 2, 2), iso="differ", rng=r),
    lambda r, i: classify_valid(draw_mtab(r, "Mbh", 3)),
    lambda r, i: classify_valid(draw_mtab(r, "M0g", 4, 1)),
    lambda r, i: classify_valid(draw_mtab(r, "Mhb", 4), iso="same"),
    lambda r, i: classify_valid(draw_mtf(r, 1)),
    lambda r, i: classify_valid(draw_mtf(r, 2)),
    lambda r, i: classify_valid(draw_mtab(r, "Mab", 1), iso="differ", rng=r),
    lambda r, i: _corrupt("r1-constant", r),
    lambda r, i: _corrupt("r1-zero-when-pq-degenerate", r),
    lambda r, i: _corrupt("degree-dichotomy", r),
    lambda r, i: _corrupt("r1-product-rule", r),
    lambda r, i: _corrupt("loop-scaling", r),
    lambda r, i: _corrupt("central-k", r),
    lambda r, i: _corrupt("alpha-power", r),
    lambda r, i: _corrupt(ROTATING_ANCHORS[i % len(ROTATING_ANCHORS)], r),
)

EVIDENCE_SLOTS = (
    lambda r, i: evidence(draw_h4(r, "Mhb"), r, seed_degree=12),
    lambda r, i: evidence(draw_h4(r, "Mbh"), r, seed_degree=10),
    lambda r, i: evidence(draw_h4(r, "Mab"), r, seed_degree=8),
    lambda r, i: evidence(draw_h4(r, "Mg0", 0), r, seed_degree=6),
    lambda r, i: evidence(draw_h4(r, "M0g", 0), r, seed_degree=9),
    lambda r, i: evidence(draw_mtab(r, "Mhb", 1), r, seed_degree=6),
    lambda r, i: evidence(draw_mtab(r, "Mab", 1), r, seed_degree=10),
    lambda r, i: evidence(draw_affvir(r, "Mbh", 1), r, seed_degree=7),
    lambda r, i: evidence(draw_mtab(r, "Mg0", 2, 0), r, seed_degree=8),
    lambda r, i: evidence(draw_h4(r, "Mg0", 2), r),
    lambda r, i: evidence(draw_h4(r, "M0g", 2), r),
    lambda r, i: evidence(draw_h4(r, "M0"), r),
    lambda r, i: evidence(draw_mtab(r, "Mg0", 1, 1), r),
    lambda r, i: evidence(draw_mtf(r, 1), r),
    lambda r, i: evidence(draw_vir(r, 2), r),
    lambda r, i: evidence(draw_affvir(r, "M0g", 1, 1), r),
    lambda r, i: evidence(draw_h4(r, "Mhb"), r, oracle=(3, 5)),
    lambda r, i: evidence(draw_mtab(r, "Mhb", 1), r, oracle=(2, 4)),
    lambda r, i: evidence(draw_affvir(r, "Mab", 1), r, oracle=(3, 5)),
    lambda r, i: evidence(draw_affvir(r, "Mab", 1), r, oracle=(3, 5)),
    lambda r, i: evidence(draw_mtab(r, "Mg0", 1, 1), r, oracle=(2, 4)),
)

SLOTS = {
    "verify-fresh": VERIFY_SLOTS,
    "verify-hot": VERIFY_SLOTS,
    "classify-ingest": CLASSIFY_SLOTS,
    "evidence": EVIDENCE_SLOTS,
}


class Generator:
    """Yields one cycle of requests at a time for a workload and seed.

    verify-fresh never repeats a document, so every spec it sends is new
    to the program.  verify-hot draws one cycle and then resends it, a
    small pool of specs reused for the whole run.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in SLOTS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"nwfree-bench/{workload}/{seed}")
        self.slots = SLOTS[workload]
        self.index = 0
        self.seen = set()
        self.pool = None

    def cycle(self) -> list:
        if self.workload == "verify-hot" and self.pool is not None:
            return self.pool
        out = []
        for slot in self.slots:
            request = slot(self.rng, self.index)
            if self.workload == "verify-fresh":
                tries = 0
                while request.doc in self.seen:
                    tries += 1
                    if tries > 100:
                        raise RuntimeError("could not draw a fresh spec")
                    request = slot(self.rng, self.index)
                self.seen.add(request.doc)
            out.append(request)
        self.index += 1
        if self.workload == "verify-hot":
            self.pool = out
        return out
