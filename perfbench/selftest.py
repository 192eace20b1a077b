#!/usr/bin/env python3
"""Self-test of the benchmark's checks, at minimal size.

    python3 perfbench/selftest.py

Shows that each output check rejects a wrong output and accepts the one
change it is meant to accept, that a knot killed at its limit or crashing
is counted as failed with its exit code, and that a killed case leaves no
process behind.  Prints one line per claim; exits 1 if any claim fails.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

import check
import run

FAILED: list[str] = []


def claim(ok: bool, text: str) -> None:
    print(("ok   " if ok else "FAIL ") + text)
    if not ok:
        FAILED.append(text)


def to_json(p: check.Poly) -> dict:
    names = sorted({v for key in p for v, _ in key})
    terms = []
    for key, c in p.items():
        exps = dict(key)
        terms.append({"coef": str(c), "exp": [exps.get(v, 0) for v in names]})
    return {"vars": names, "terms": terms}


def times(a: check.Poly, b: check.Poly) -> check.Poly:
    out: check.Poly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def sorted_key(p: check.Poly) -> check.Poly:
    """Reorder each monomial's variables to the order read_poly produces."""
    return {tuple(sorted(k)): c for k, c in p.items()}


def checks_bite() -> None:
    ref = check.load_reference(run.REFERENCE / "pretzel-333.json.xz")
    claim(check.compare(ref, copy.deepcopy(ref)) == [], "the reference passes against itself")

    out = copy.deepcopy(ref)
    term = out["equations"][2]["terms"][0]
    term["coef"] = str(Fraction(term["coef"]) + 1)
    claim(check.compare(ref, out) != [], "one changed coefficient fails")

    out = copy.deepcopy(ref)
    eq = sorted_key(check.read_poly(out["equations"][3]))
    stray = {(("t", 1),): Fraction(1), (): Fraction(3)}  # t + 3, excluded nowhere
    out["equations"][3] = to_json(times(eq, stray))
    claim(check.compare(ref, out) != [], "an equation times a factor that is not excluded fails")

    out = copy.deepcopy(ref)
    del out["equations"][1]
    claim(check.compare(ref, out) != [], "a dropped equation fails")

    saturated_ref = copy.deepcopy(ref)
    eq = sorted_key(check.read_poly(ref["equations"][3]))
    excluded = sorted_key(check.read_poly(ref["exclusions"][0]))
    saturated_ref["equations"][3] = to_json(times(times(eq, excluded), excluded))
    claim(check.compare(saturated_ref, copy.deepcopy(ref)) == [],
          "an equation with excluded factors divided out passes (saturation)")

    fresh = {"a": "d1", "b": "d2"}
    claim(run.stream_mismatches(["a", "b"], ["d1", "d2", "d1"], fresh) == [],
          "stream emits equal to the fresh-process output pass")
    claim(run.stream_mismatches(["a", "b"], ["d1", "d2", "dX"], fresh) == [2],
          "a stream emit that differs from the fresh-process output fails")

    ops = [{"op": "identities", "rc": 0, "passed": True, "failures": 0},
           {"op": "presentation", "rc": 4, "passed": False, "failures": 1}]
    claim(run.verify_problems(ops[:1]) == [] and len(run.verify_problems(ops)) == 1,
          "a failing oracle suite fails the verify check")


def limits_and_crashes() -> None:
    run.TMP.mkdir(parents=True, exist_ok=True)
    slow = run.LADDER[[k.name for k in run.LADDER].index("montesinos")].expr
    r = run.spawn("selftest-kill", ["emit", "--expr", slow, "--out", str(run.TMP / "selftest.json")], 1.0)
    try:
        os.kill(r.pid, 0)
        gone = False
    except ProcessLookupError:
        gone = True
    claim(r.timed_out and r.rc is None and gone, "a case past its limit is killed and reaped")

    knots = (
        run.Knot("cut", slow, 1.0),
        run.Knot("cut-frontier", slow, 1.0, frontier=True),
        run.Knot("bad-input", "D([0] *v [1])", 10),
        run.Knot("deep", "D(" + "(" * 3000 + "[1]" + ")" * 3000 + " *v [1])", 10),
    )
    p = run.ladder_pass(0, "selftest-ladder", False, knots)
    status = {row["knot"]: (row["status"], row["exit_code"]) for row in p["rows"]}
    claim(status["cut"] == ("timeout", None) and status["cut-frontier"] == ("timeout", None),
          "killed knots are recorded as timeouts")
    claim(status["bad-input"] == ("exit 2", 2), "bad input is recorded with exit code 2")
    claim(status["deep"][1] not in (0, None), f"a crashing knot is recorded with its exit code {status['deep']}")
    claim(p["failed_or_timeout"] == 4 and p["failed"] == 3,
          "every failure counts in fail_share; only the frontier timeout is left out of 'failed'")
    cut = [row for row in p["rows"] if row["status"] == "timeout"]
    claim(all(row["wall_s"] == row["emit_s"] == 1.0 for row in cut),
          "killed knots count at their limit")


def metric_tables() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    claim([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
          and {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
          and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json names the workloads and metrics run.py reports")


def main() -> int:
    if not (run.SRC / "arborchar" / "cli.py").is_file():
        print("error: run from an arborchar checkout", file=sys.stderr)
        return 2
    metric_tables()
    checks_bite()
    limits_and_crashes()
    print(f"{len(FAILED)} claim(s) failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
