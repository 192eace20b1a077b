"""Per-layer microbenches at fixed sizes.

Operands are built through the public API from the worked example
D([[2],[-2]] *v [2] *v ([1/3] *h [1/2])) and the pretzel (3,3,3)
D([3] *v [3] *v [3]); their sizes are returned with the timings.  Each
timing is the median over a few repetitions of a fixed batch of calls.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from arborchar.invariants import InvariantEngine, closure_equations
from arborchar.links import pretzel3333_presentation
from arborchar.mat2 import chebyshev, decompose_pair, special
from arborchar.oracle import build_tangle_rep, conditioned_pair
from arborchar.ratfun import REGISTRY, MultiPoly, RatFun, clear_denominators
from arborchar.tangle import component_count, parse
from arborchar.witness import witness_family

from run import LADDER

LADDER_EXPRS = tuple(k.expr for k in LADDER)
WORKED = next(k.expr for k in LADDER if k.name == "worked")
PRETZEL333 = next(k.expr for k in LADDER if k.name == "pretzel-333")


def per_call(fn, batch: int, reps: int) -> float:
    """Median seconds per call of fn over reps batches of batch calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


def terms(r: RatFun) -> int:
    return len(r.num.terms) + len(r.den.terms)


class _CountingEngine(InvariantEngine):
    """Times its top-level runs so closure self time can be separated."""

    def __init__(self) -> None:
        super().__init__()
        self.depth = 0
        self.run_s = 0.0

    def run(self, expr):
        self.depth += 1
        t0 = time.perf_counter()
        try:
            return super().run(expr)
        finally:
            self.depth -= 1
            if self.depth == 0:
                self.run_s += time.perf_counter() - t0


def run() -> dict:
    m: dict[str, float] = {}
    sizes: dict[str, object] = {}

    closures = [parse(e) for e in LADDER_EXPRS]
    m["tangle.parse_us"] = 1e6 * statistics.mean(
        per_call(lambda e=e: parse(e), 200, 5) for e in LADDER_EXPRS)
    m["tangle.components_us"] = 1e6 * statistics.mean(
        per_call(lambda c=c: component_count(c), 50, 5) for c in closures)

    worked = parse(WORKED)
    eng = InvariantEngine()
    left, right = eng.run(worked.body.left), eng.run(worked.body.right)
    p, q = left.ucheck.num, right.ucheck.num
    pq = p * q
    dden = left.udot.den
    dprod = dden * q
    nnum, nden = left.udot.num * right.ucheck.den, left.udot.den * right.ucheck.num
    total = left.ucheck + right.ucheck
    known = left.exclusions + right.exclusions
    rename_idx = REGISTRY.index(left.vars[0])
    fresh = MultiPoly.var("bench_x")
    sizes["ratfun"] = {
        "mul": [len(p.terms), len(q.terms), len(pq.terms)],
        "divexact": [len(dprod.terms), len(q.terms), len(dden.terms)],
        "norm": [len(nnum.terms), len(nden.terms)],
        "subs_poly": len(p.terms),
        "clear_denominators": [len(total.num.terms), len(total.den.terms), len(known)],
    }
    m["ratfun.mul_ms"] = 1e3 * per_call(lambda: p * q, 1, 5)
    m["ratfun.divexact_ms"] = 1e3 * per_call(lambda: dprod.divexact(q), 1, 3)
    m["ratfun.norm_ms"] = 1e3 * per_call(lambda: RatFun(nnum, nden), 1, 5)
    m["ratfun.subs_ms"] = 1e3 * per_call(lambda: p.subs_poly(rename_idx, fresh), 3, 5)
    m["ratfun.clear_denominators_ms"] = 1e3 * per_call(
        lambda: clear_denominators(total, known), 1, 3)

    m["invariants.run_ms"] = 1e3 * per_call(
        lambda: (InvariantEngine().run(worked.body.left), InvariantEngine().run(worked.body.right)),
        1, 3)
    pretzel = parse(PRETZEL333)
    closure_self = []
    for _ in range(5):
        ce = _CountingEngine()
        t0 = time.perf_counter()
        closure_equations(pretzel, ce)
        closure_self.append(time.perf_counter() - t0 - ce.run_s)
    m["invariants.closure_ms"] = 1e3 * statistics.median(closure_self)

    ce = InvariantEngine()
    pres = closure_equations(worked, ce)
    m["invariants.compose_calls"] = len(ce.history) - len(ce.atom_vars)
    m["invariants.record_terms"] = sum(
        terms(getattr(rec, f)) for rec in (left, right) for f in ("u", "udot", "ucheck"))
    m["invariants.exclusions"] = len(pres.exclusions)
    m["cli.json_ms"] = 1e3 * per_call(lambda: json.dumps(pres.to_json(), indent=2), 1, 5)
    sizes["cli.json"] = {"equations_terms": [len(e.terms) for e in pres.equations]}

    m["links.pretzel3333_ms"] = 1e3 * per_call(pretzel3333_presentation, 1, 3)

    t, lam, mu = 2.6 + 0.2j, 1.8 - 0.4j, 0.9 + 0.1j
    a1, a2 = special("h1", t, lam, -lam * mu), special("h1", t, lam, mu)
    m["mat2.matmul_us"] = 1e6 * per_call(lambda: a1 @ a2, 2000, 5)
    m["mat2.chebyshev_us"] = 1e6 * per_call(lambda: chebyshev(7, 0.4 + 1.1j), 2000, 5)
    m["mat2.decompose_pair_us"] = 1e6 * per_call(lambda: decompose_pair(a1, a2, t, t), 200, 5)

    rng = random.Random(0)
    tr = 2.6 + 0.3j
    m["oracle.conditioned_pair_us"] = 1e6 * per_call(
        lambda: conditioned_pair(tr, 0.7 + 0.9j, rng), 200, 5)
    m["oracle.build_tangle_rep_ms"] = 1e3 * per_call(
        lambda: build_tangle_rep(worked.body, tr, rng), 5, 5)

    w1, w2 = special("h1", tr, lam, -lam * mu), special("h1", tr, lam, mu)
    t13s = [0.1 + 0.2j, -0.5 + 0.4j, 0.9 - 0.3j, -1.1 - 0.6j, 0.3 + 1.2j]
    m["witness.family_ms"] = 1e3 * per_call(
        lambda: witness_family(w1, w2, tr, 0.7 + 0.9j, -0.8 + 0.4j, -0.7 + 0.5j, t13s), 20, 5)
    return {"metrics": m, "sizes": sizes}
