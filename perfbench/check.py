"""Exact check of an emitted presentation against a stored reference.

Independent of arborchar: polynomials are read from the JSON payload into
dicts of Fractions.  An emitted presentation passes when

* its variables are the reference's;
* the product of its exclusion polynomials vanishes exactly where the
  product of the reference's does (same irreducible factors);
* it has as many equations as the reference, and each reference equation
  equals the emitted one times a constant and irreducible factors that
  divide the emitted exclusion polynomials.

The last rule accepts saturation by the exclusions (dividing excluded
factors out of an equation, ROADMAP item 2) and rejects any other change
to the zero set.  Identical or proportional polynomials are accepted
without sympy; anything else is decided with sympy, which the benchmark
uses as a tool only.

run.py calls it as a separate process, so the large payloads never enter
the benchmark's own process, whose memory every child's peak RSS would
otherwise inherit at fork:

    python3 perfbench/check.py REFERENCE.json.xz EMITTED.json
"""

from __future__ import annotations

import json
import lzma
import sys
from fractions import Fraction

Poly = dict  # {((name, exponent), ...): Fraction}


def read_poly(data: dict) -> Poly:
    out: Poly = {}
    for term in data["terms"]:
        key = tuple((v, e) for v, e in zip(data["vars"], term["exp"]) if e)
        out[key] = out.get(key, Fraction(0)) + Fraction(term["coef"])
    return {k: c for k, c in out.items() if c}


def terms_and_degree(payload: dict) -> tuple[int, int]:
    """Total terms and highest total degree over the equations."""
    n, deg = 0, 0
    for eq in payload["equations"]:
        n += len(eq["terms"])
        deg = max([deg] + [sum(t["exp"]) for t in eq["terms"]])
    return n, deg


def proportional(a: Poly, b: Poly) -> bool:
    if not a or not b or a.keys() != b.keys():
        return False
    k0 = next(iter(a))
    ratio = a[k0] / b[k0]
    return all(a[k] == ratio * b[k] for k in a)


class _Sym:
    """Sparse sympy polynomials over Q, built only when the fast path fails."""

    def __init__(self, names: list[str]):
        from sympy import QQ, ring

        self.QQ = QQ
        self.names = names
        self.ring, *_ = ring(",".join(names), QQ)

    def poly(self, p: Poly):
        pos = {n: i for i, n in enumerate(self.names)}
        rep = {}
        for key, c in p.items():
            exp = [0] * len(self.names)
            for v, e in key:
                exp[pos[v]] = e
            rep[tuple(exp)] = self.QQ(c.numerator, c.denominator)
        return self.ring.from_dict(rep)

    def factors(self, polys) -> list:
        """Distinct monic irreducible non-constant factors of a product."""
        out: list = []
        for p in polys:
            _, fl = p.factor_list()
            for f, _mult in fl:
                f = f.monic()
                if not f.is_ground and f not in out:
                    out.append(f)
        return out


def compare(ref: dict, out: dict) -> list[str]:
    """Problems found; an empty list means the emitted output passes."""
    if list(out["variables"]) != list(ref["variables"]):
        return [f"variables {out['variables']} != reference {ref['variables']}"]
    ref_eqs = [read_poly(p) for p in ref["equations"]]
    out_eqs = [read_poly(p) for p in out["equations"]]
    ref_ex = [read_poly(p) for p in ref["exclusions"]]
    out_ex = [read_poly(p) for p in out["exclusions"]]
    if len(out_eqs) != len(ref_eqs):
        return [f"{len(out_eqs)} equations, reference has {len(ref_eqs)}"]
    same_ex = len(ref_ex) == len(out_ex) and all(
        any(proportional(a, b) for b in out_ex) for a in ref_ex)
    todo = [i for i, (r, e) in enumerate(zip(ref_eqs, out_eqs)) if not proportional(r, e)]
    if same_ex and not todo:
        return []
    s = _Sym(list(ref["variables"]))
    base = s.factors([s.poly(p) for p in out_ex])
    if not same_ex:
        ref_base = s.factors([s.poly(p) for p in ref_ex])
        if len(ref_base) != len(base) or any(f not in base for f in ref_base):
            return ["exclusion loci differ from the reference"]
    problems = []
    for i in todo:
        if not out_eqs[i]:
            problems.append(f"equation {i} is zero")
            continue
        quo, rem = s.poly(ref_eqs[i]).div(s.poly(out_eqs[i]))
        if rem:
            problems.append(f"equation {i} does not divide its reference equation")
            continue
        for f in base:
            while True:
                q, r = quo.div(f)
                if r:
                    break
                quo = q
        if not quo.is_ground:
            problems.append(f"equation {i} differs from its reference by a factor no exclusion covers")
    return problems


def load_reference(path) -> dict:
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def main(ref_path: str, out_path: str) -> None:
    with open(out_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    terms, degree = terms_and_degree(payload)
    problems = compare(load_reference(ref_path), payload)
    print(json.dumps({"problems": problems, "terms": terms, "max_degree": degree}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
