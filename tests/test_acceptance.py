"""Acceptance gate: ten end-to-end criteria, each reporting one pass/fail line.

Criterion 1 reproduces the worked four-region example (the knot
D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))) against independently transcribed
golden closed forms.  One golden u-check display is known to carry a
transcription slip (a dropped factor (r3+1)/(r3-1)); the test certifies the
corrected form and additionally asserts the uncorrected one fails, so the
discrepancy stays visible.
"""

import random
import time

import numpy as np
import pytest

from arborchar.invariants import (
    InvariantEngine,
    base_invariants,
    closure_equations,
    compose,
    tangle_invariants,
)
from arborchar.oracle import run_suite
from arborchar.ratfun import MultiPoly, RatFun, pseudo_reduce
from arborchar.tangle import (
    ClosureExpr,
    CompH,
    CompV,
    IntTwist,
    VertTwist,
    component_count,
    parse,
)
from arborchar.witness import pairwise_gaps, witness_family
from ratfun_helpers import grlex_terms

FIG_EXPR = "D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))"


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _sym(name: str) -> RatFun:
    return RatFun.var(name)


def _fig_displays():
    """Golden closed forms of the worked example, transcribed by hand."""
    t, r1, r2 = _sym("t"), _sym("r1"), _sym("r2")
    den1 = r1 * r1 - (t * t + 2) * r1 + 2 * t * t + 1
    den3 = t * t * r1 - (r1 + 1) * (r1 + 1)  # r1 plays r3 for the right factor
    r3, r4 = r1, r2
    ud3 = 2 - (r3 + 2 - t * t) * (r3 - 1) * (r3 - 1)
    ud4 = 2 + (r4 - 2) * (r4 + 2 - t * t)
    q3 = (r3 - 2) * (r3 + 1) / (r3 - 1)
    return {
        "den1": den1,
        "den3": den3,
        "u1": (r1 + 2 - t * t) * den1 + t * t - 2,
        "u2": 2 + (r2 - 2) * (r2 + 2 - t * t),
        "ud_left": (r1 * r2 - t * t * r1 - r2 + 2 * t * t) / den1,
        "uc_left": (r1 - 2)
        * (
            (t * t - r1 - 1) * r2
            + t * t * (r2 * r2 - r1 * r2 + 2 * r1 - r2 - 2) / den1
        ),
        "ud3": ud3,
        "ud4": ud4,
        "u_right": r3 * r4 + ((r3 + 1) * r4 - t * t) / den3,
        # corrected golden form: the erroneous transcription replaces q3 by
        # (r3 - 2), losing the factor (r3 + 1)/(r3 - 1)
        "uc_right": (r4 - 2)
        * (r4 + 2 - t * t)
        * ((ud3 + 2) * (r3 * r4 + r4 * q3) - 2 * t * t * (q3 + r4))
        / (2 * (r3 - 2) * den3),
        "uc_right_uncorrected": (r4 - 2)
        * (r4 + 2 - t * t)
        * (r3 * r4 - r4 + t * t * (r4 - 1) / den3),
    }


def _strip_excluded(q: MultiPoly, nonvanishing: list[MultiPoly]) -> MultiPoly:
    """Divide out factors certified nonzero on the excellent part."""
    q = q.primitive()
    changed = True
    while changed and not q.is_const():
        changed = False
        for e in nonvanishing:
            if e.is_const():
                continue
            r = q.divexact(e)
            if r is not None:
                q, changed = r.primitive(), True
                break
    return q


class TestAcceptance:
    def test_criterion_01_golden_example(self):
        start = time.monotonic()
        d = _fig_displays()
        t, r1, r2 = _sym("t"), _sym("r1"), _sym("r2")

        left = tangle_invariants(parse("[[2],[-2]] *v [2]"))
        right = tangle_invariants(parse("[1/3] *h [1/2]"))

        # cross-multiplied polynomial equality of the quoted intermediates
        ok = left.udot.equals(d["ud_left"])
        ok = ok and right.u.equals(d["u_right"])

        # the two u-check intermediates are displayed in reduced form on the
        # locus of the recorded unification constraint; certify equality by
        # exact pseudo-division against the (+-monic in r2) constraint
        con_left = (d["u1"] - d["u2"]).num.primitive()
        ok = ok and pseudo_reduce(
            (left.ucheck - d["uc_left"]).num, con_left, "r2"
        ).is_zero()
        con_right = (d["ud3"] - d["ud4"]).num.primitive()
        ok = ok and pseudo_reduce(
            (right.ucheck - d["uc_right"]).num, con_right, "r2"
        ).is_zero()
        # the uncorrected transcription must NOT pass the same certificate
        ok = ok and not pseudo_reduce(
            (right.ucheck - d["uc_right_uncorrected"]).num, con_right, "r2"
        ).is_zero()

        # final presentation: five equations matching the displayed chains
        pres = closure_equations(parse(FIG_EXPR))
        ok = ok and pres.variables == ("t", "r1", "r2", "r3", "r4")
        ok = ok and len(pres.equations) == 5

        # displayed chains in presentation variables (r3, r4 now literal)
        def promote(f: RatFun) -> RatFun:
            return f.substitute("r1", _sym("zz1")).substitute(
                "r2", _sym("zz2")
            ).substitute("zz1", _sym("r3")).substitute("zz2", _sym("r4"))

        ud3, ud4 = promote(d["ud3"]), promote(d["ud4"])
        u_right = promote(d["u_right"])
        uc_right = promote(d["uc_right"])
        uc_right_bad = promote(d["uc_right_uncorrected"])
        chains = [
            d["u1"] - d["u2"],
            ud3 - ud4,
            d["u1"] - u_right,
            d["ud_left"] - ud3,
        ]

        # factors certified nonzero: exclusions, plus any display denominator
        # factor dividing an exclusion
        r3s, r4s = _sym("r3"), _sym("r4")
        candidates = [
            d["den1"].num,
            promote(RatFun(d["den3"].num)).num,
            (r1 - 2).num,
            (r2 - 2).num,
            (r3s - 2).num,
            (r4s - 2).num,
            (r3s - 1).num,
            (r3s + 1).num,
            (r1 + 2 - t * t).num,
            (r2 + 2 - t * t).num,
            (r3s + 2 - t * t).num,
            (r4s + 2 - t * t).num,
            (t * t - r1 - 1).num,
        ]
        nonvanishing = list(pres.exclusions)
        for c in candidates:
            if any(e.divexact(c) is not None for e in pres.exclusions):
                nonvanishing.append(c)
        for eq, chain in zip(pres.equations[:4], chains):
            dnum = chain.num.primitive()
            quo = eq.primitive().divexact(dnum)
            ok = ok and quo is not None
            if quo is not None:
                ok = ok and _strip_excluded(quo, nonvanishing).is_const()

        # fifth equation (u-checks cancel): verify the corrected chain
        # vanishes on oracle-built closure representations while the
        # uncorrected one does not
        import arborchar.oracle as oracle_mod

        c = parse(FIG_EXPR)
        positions = pres.regions
        chain5 = d["uc_left"] + uc_right
        chain5_bad = d["uc_left"] + uc_right_bad
        good_resid = bad_resid = 0.0
        built = 0
        attempt = 0
        while built < 3 and attempt < 60:
            attempt += 1
            rng = random.Random(f"accept1:{attempt}")
            try:
                rep, tval = oracle_mod._closure_rep(c, rng)
            except Exception:
                continue
            built += 1
            point = {"t": tval}
            for idx, pos in enumerate(positions, start=1):
                point[f"r{idx}"] = rep.region_traces[pos]
            good_resid = max(good_resid, abs(complex(chain5.eval_numeric(point))))
            bad_resid = max(bad_resid, abs(complex(chain5_bad.eval_numeric(point))))
            eq = pres.equations[4]
            eq_val = complex(eq.eval(point))
            # scale by the total mass of the evaluated monomials so the
            # check stays relative at large coordinate values
            scale = max(
                1.0,
                sum(
                    abs(complex(cf))
                    * abs(
                        np.prod(
                            [point[n] ** e for n, e in powers.items() if n in point]
                        )
                    )
                    for powers, cf in eq.named_terms()
                ),
            )
            ok = ok and abs(eq_val) / scale < 1e-8
        ok = ok and built == 3
        ok = ok and good_resid < 1e-7 and bad_resid > 1e-3

        elapsed = time.monotonic() - start
        ok = ok and elapsed < 5.0
        _report(1, f"golden worked example reproduced ({elapsed:.2f}s)", ok)

    def test_criterion_02_base_formulas(self):
        start = time.monotonic()
        rep = run_suite("base", samples=100, seed=7, tol=1e-9)
        ok = rep.passed and rep.max_residual < 1e-9
        # single-crossing sanity: at k = 1 the closed forms swap through
        # u-dot = t^2 - u
        t = _sym("t")
        one = base_invariants(IntTwist(1), var_name="acc_k1")
        ok = ok and one.udot.equals(t * t - one.u)
        one_v = base_invariants(VertTwist(1), var_name="acc_k1v")
        ok = ok and one_v.u.equals(t * t - one_v.udot)
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 10.0
        _report(
            2,
            f"twist closed forms vs crossing propagation, max {rep.max_residual:.2e} ({elapsed:.2f}s)",
            ok,
        )

    def test_criterion_03_identity_suites(self):
        reps = [
            run_suite("identities", samples=1000, seed=42, tol=1e-9),
            run_suite("power", samples=1000, seed=42, tol=1e-9),
            run_suite("tr-h", samples=1000, seed=42, tol=1e-9),
        ]
        worst = max(r.max_residual for r in reps)
        ok = all(r.passed for r in reps) and worst < 1e-9
        _report(3, f"trace identity suites x1000, max {worst:.2e}", ok)

    def test_criterion_04_lemma_round_trips(self):
        k1 = run_suite("key", samples=1000, seed=0, tol=1e-9)
        k2 = run_suite("key2", samples=1000, seed=0, tol=1e-9)
        red = run_suite("reducible", samples=1000, seed=0, tol=1e-9)
        worst = max(k1.max_residual, k2.max_residual)
        ok = (
            k1.passed
            and k2.passed
            and worst < 1e-9
            and red.passed
            and not red.failures
        )
        _report(
            4,
            f"pair decompositions x1000 max {worst:.2e}; reducibility 0 disagreements",
            ok,
        )

    def test_criterion_05_composition(self):
        rep = run_suite("compose", samples=500, seed=0, tol=1e-9)
        ok = rep.passed and rep.max_residual < 1e-9

        rng = random.Random(505)
        checked = 0
        while checked < 50:
            e1 = _small_tangle(rng, composite=False)
            e2 = _small_tangle(rng, composite=rng.random() < 0.5)
            direction = rng.choice(("v", "h"))
            # one engine for both factors, so their twist regions get
            # distinct variables, as in a composed tree
            eng = InvariantEngine()
            i1 = eng.run(e1)
            i2 = eng.run(e2)
            try:
                a = compose(direction, i1, i2)
            except ZeroDivisionError:
                # a degenerate gluing (shared coordinate pinned at 2) must be
                # rejected regardless of operand order
                with pytest.raises(ZeroDivisionError):
                    compose(direction, i2, i1)
                continue
            b = compose(direction, i2, i1)
            same = (
                a.u.equals(b.u)
                and a.udot.equals(b.udot)
                and a.ucheck.equals(b.ucheck)
                and sorted(repr(grlex_terms(p.primitive())) for p in a.constraints)
                == sorted(repr(grlex_terms(p.primitive())) for p in b.constraints)
            )
            ok = ok and same
            checked += 1
        _report(
            5,
            f"composition vs glued products x500 max {rep.max_residual:.2e}; symmetric on 50 ASTs",
            ok,
        )

    def test_criterion_06_move_invariance(self):
        rng = random.Random(606)
        done = 0
        tries = 0
        ok = True
        while done < 20 and tries < 400:
            tries += 1
            expr = _random_closure(rng)
            if expr is None:
                continue
            nodes = _composition_paths(expr.body)
            path = nodes[rng.randrange(len(nodes))]
            swapped = ClosureExpr(expr.kind, _swap_at(expr.body, path))
            try:
                pa = closure_equations(expr)
                pb = closure_equations(swapped)
            except Exception:
                continue
            ok = ok and _presentations_match(pa, pb)
            done += 1
        ok = ok and done == 20
        _report(6, "child swaps leave 20 presentations invariant", ok)

    def test_criterion_07_closure_equivalence(self):
        rep = run_suite("convenient", samples=500, seed=3, tol=1e-9)
        ok = rep.passed and rep.max_residual < 1e-8
        _report(
            7,
            f"closure condition equivalence x500, max {rep.max_residual:.2e}",
            ok,
        )

    def test_criterion_08_identity3_preservation(self):
        corpus = (
            "D([1/1] *v [1/2])",
            "D([1/2] *v [1/3])",
            "N([2] *h [3])",
            FIG_EXPR,
        )
        t = _sym("t")
        ok = True
        records = []
        for text in corpus:
            # process each closure the way the emitter does: the two factors
            # of the top-level composition are computed and then matched,
            # so the records are exactly the data the pipeline produces
            c = parse(text)
            eng = InvariantEngine()
            eng.run(c.body.left)
            eng.run(c.body.right)
            records.extend(eng.history)
        for rec_no, data in enumerate(records):
            if not data.constraints:
                diff = data.ucheck * data.ucheck - (data.u - 2) * (
                    data.udot - 2
                ) * ((data.u + 2) * (data.udot + 2) - 4 * t * t)
                ok = ok and diff.is_zero()
                continue
            rng = random.Random(f"accept8:{rec_no}")
            pts = 0
            attempts = 0
            while pts < 50 and attempts < 1000:
                attempts += 1
                point = _constraint_point(data, rng)
                if point is None:
                    continue
                try:
                    vals = [
                        _conditioned_value(f, point)
                        for f in (data.u, data.udot, data.ucheck)
                    ]
                except Exception:
                    continue
                if any(v is None for v in vals):
                    continue
                uv, dv, cv = vals
                tt = point["t"] * point["t"]
                val = cv * cv - (uv - 2) * (dv - 2) * ((uv + 2) * (dv + 2) - 4 * tt)
                scale = max(1.0, abs(uv), abs(dv), abs(cv), abs(tt)) ** 4
                ok = ok and abs(val) / scale < 1e-8
                pts += 1
            ok = ok and pts == 50
        _report(8, f"trace identity preserved on {len(records)} records", ok)

    def test_criterion_09_pretzel(self):
        rep = run_suite("pretzel", samples=200, seed=0, tol=1e-8)
        ok = rep.passed and rep.max_residual < 1e-8

        # the measured u-check two-form agrees with the product form modulo
        # the defining cubic, certified by exact pseudo-division
        t1, t2, tau, r = (_sym(n) for n in ("t1", "t2", "tau", "racc"))
        cubic = (
            r * r * r
            - t1 * t2 * r * r
            + (t1 * t1 + t2 * t2 - 3) * r
            - t1 * t2
            + tau
        ).num
        two_form = 2 * r * r + (tau - 2 * t1 * t2) * r + t1 * t1 + t2 * t2 - 4
        delta_at_r = r * t1 * t2 - t1 * t1 - t2 * t2 - r * r + 4
        diff = (two_form - delta_at_r * (r * r - 1)).num
        ok = ok and pseudo_reduce(diff, cubic.primitive(), "racc").is_zero()
        _report(
            9,
            f"pretzel presentation x200 max {rep.max_residual:.2e}; u-check forms agree mod cubic",
            ok,
        )

    def test_criterion_10_witness_family(self):
        from arborchar.mat2 import Mat2, special

        start = time.monotonic()
        t = 2.6 + 0.3j
        lam = 1.7 - 0.4j
        a1 = special("h1", t, lam, 1.0 + 0j).to_complex()
        a2 = (
            special("h1", t, lam, 0.3 - 0.8j)
            .conj_by(Mat2(1, 0.5, 0.2, 1.1))
            .to_complex()
        )
        t13s = [1.1 + 0.2j, 0.6 - 0.5j, -0.4 + 0.8j, 1.5 - 0.9j, -1.2 - 0.3j]
        fam = witness_family(
            a1,
            a2,
            t,
            t23=0.7 + 0.9j,
            t34=-0.8 + 0.4j,
            t14=-0.7 + 0.5j,
            t13_samples=t13s,
        )
        ok = len(fam) == 5
        for s, t13 in zip(fam, t13s):
            table = s.trace_table()
            ok = ok and abs(s.gram_det4) < 1e-8
            ok = ok and abs(table["t13"] - t13) < 1e-9
            ok = ok and abs(table["t23"] - (0.7 + 0.9j)) < 1e-9
            ok = ok and abs(table["t34"] - (-0.8 + 0.4j)) < 1e-9
            ok = ok and abs(table["t14"] - (-0.7 + 0.5j)) < 1e-9
            for m in s.quadruple:
                ok = ok and abs(complex(m.trace()) - t) < 1e-9
        gaps = pairwise_gaps(fam)
        ok = ok and min(gaps) > 1e-3
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 2.0
        _report(
            10,
            f"5-member witness family, min gap {min(gaps):.3f} ({elapsed:.2f}s)",
            ok,
        )


# ---------------------------------------------------------------------------
# helpers for criteria 5, 6, 8
# ---------------------------------------------------------------------------


def _small_atom(rng: random.Random):
    k = rng.choice((1, 2, -1, -2))
    return IntTwist(k) if rng.random() < 0.5 else VertTwist(k)


def _small_tangle(rng: random.Random, composite: bool):
    if not composite:
        return _small_atom(rng)
    left, right = _small_atom(rng), _small_atom(rng)
    return CompV(left, right) if rng.random() < 0.5 else CompH(left, right)


def _random_closure(rng: random.Random):
    """A random knot closure of depth at most 4, or None to resample."""
    kind = rng.choice(("D", "N"))
    want = CompV if kind == "D" else CompH
    left = _small_tangle(rng, rng.random() < 0.6)
    right = _small_tangle(rng, rng.random() < 0.6)
    body = want(left, right)
    c = ClosureExpr(kind, body)
    if component_count(c) != 1:
        return None
    return c


def _composition_paths(expr, path=()):
    out = []
    if isinstance(expr, (CompV, CompH)):
        out.append(path)
        out.extend(_composition_paths(expr.left, path + ("left",)))
        out.extend(_composition_paths(expr.right, path + ("right",)))
    return out


def _swap_at(expr, path):
    if not path:
        cls = type(expr)
        return cls(expr.right, expr.left)
    cls = type(expr)
    if path[0] == "left":
        return cls(_swap_at(expr.left, path[1:]), expr.right)
    return cls(expr.left, _swap_at(expr.right, path[1:]))


def _var_fingerprint(pres, name: str):
    rows = []
    for eq in pres.equations:
        rows.append((eq.degree_in(name), eq.total_degree(), len(eq.terms)))
    return tuple(sorted(rows))


def _eq_keys(equations):
    return sorted(repr(grlex_terms(p.primitive())) for p in equations)


def _rename_equations(equations, mapping):
    """Simultaneous variable renaming."""
    return [p.relabel(mapping) for p in equations]


def _presentations_match(pa, pb) -> bool:
    """True when some variable bijection makes the equation sets identical."""
    va = [v for v in pa.variables if v != "t"]
    vb = [v for v in pb.variables if v != "t"]
    if len(va) != len(vb) or len(pa.equations) != len(pb.equations):
        return False
    target = _eq_keys(pa.equations)
    fa = {v: _var_fingerprint(pa, v) for v in va}
    fb = {v: _var_fingerprint(pb, v) for v in vb}
    cands = {v: [w for w in va if fa[w] == fb[v]] for v in vb}
    order = sorted(vb, key=lambda v: len(cands[v]))

    def backtrack(i, used, mapping):
        if i == len(order):
            renamed = _rename_equations(pb.equations, mapping)
            return _eq_keys(renamed) == target
        v = order[i]
        for w in cands[v]:
            if w in used:
                continue
            if backtrack(i + 1, used | {w}, {**mapping, v: w}):
                return True
        return False

    return backtrack(0, frozenset(), {})


def _eval_mass(p: MultiPoly, point) -> tuple[complex, float]:
    """Value of p at point together with the total monomial mass there."""
    val = 0.0 + 0.0j
    mass = 0.0
    for powers, cf in p.named_terms():
        mono = 1.0 + 0.0j
        for name, e in powers.items():
            mono *= point[name] ** e
        term = complex(cf) * mono
        val += term
        mass += abs(term)
    return val, mass


def _conditioned_value(f: RatFun, point):
    """f(point), or None when either side suffers heavy cancellation."""
    nv, nm = _eval_mass(f.num, point)
    dv, dm = _eval_mass(f.den, point)
    if abs(dv) < 1e-4 * max(1.0, dm) or abs(nv) < 1e-9 * nm:
        return None
    return nv / dv


def _constraint_point(data, rng: random.Random):
    """A random numeric point satisfying every recorded constraint."""
    point = {"t": complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)) + 1.4}
    for v in data.vars:
        point[v] = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
    # each constraint is solved for its variable latest in data.vars, in
    # the order of that variable (t first)
    order = {"t": 0, **{v: i for i, v in enumerate(data.vars, 1)}}
    cons = sorted(data.constraints, key=lambda c: max(map(order.__getitem__, c.variables())))
    for c in cons:
        solvable = [v for v in c.variables() if v in data.vars]
        if not solvable:
            return None
        top = max(solvable, key=order.__getitem__)
        parts = c.coeffs_in(top)
        deg = max(parts)
        if deg == 0:
            return None
        coeffs = []
        for k in range(deg, -1, -1):
            if k in parts:
                need = {v: point[v] for v in parts[k].variables()}
                coeffs.append(complex(parts[k].eval(need)))
            else:
                coeffs.append(0.0 + 0.0j)
        if abs(coeffs[0]) < 1e-12:
            return None
        roots = np.roots(coeffs)
        root = complex(roots[rng.randrange(len(roots))])
        # polish with a few Newton steps against the exact coefficients
        dcoeffs = np.polyder(np.array(coeffs))
        for _ in range(5):
            fv = np.polyval(coeffs, root)
            dv = np.polyval(dcoeffs, root)
            if abs(dv) < 1e-12:
                break
            root -= fv / dv
        point[top] = complex(root)
    # verify all constraints vanish to near machine precision, relative to
    # the monomial mass at the point
    for c in data.constraints:
        val, mass = _eval_mass(c, point)
        if abs(val) > 1e-10 * max(1.0, mass):
            return None
    return point
