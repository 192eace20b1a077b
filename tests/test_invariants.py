"""Symbolic trace-coordinate calculus: base cases, composition, closures."""

import ast
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arborchar import invariants
from arborchar.cli import _json_text
from arborchar.errors import DomainError, StructureError, WrongEngineError
from arborchar.invariants import (
    InvariantData,
    InvariantEngine,
    Presentation,
    _glue,
    _rewrite_check,
    _shared,
    alpha,
    base_invariants,
    closure_equations,
    compose,
    fg,
    recover_grave_acute,
    tangle_invariants,
)
from arborchar.ratfun import FactoredRatFun, MultiPoly, RatFun, pseudo_reduce
from arborchar.tangle import (
    MAX_TWIST,
    CompV,
    IntTwist,
    VertTwist,
    parse,
)
from ratfun_helpers import reduce_by, reference_truediv
from test_acceptance import _random_closure

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "golden"))
import make_golden as golden  # noqa: E402

# the ladder knots small enough to run in-process
SMALL_KNOTS = ["trefoil", "n-2-3", "pretzel-333", "vchain-5", "worked"]


def _t():
    return RatFun.var("t")


class TestBase:
    def test_alpha_small_k(self):
        t = _t()
        r = RatFun.var("q")
        # alpha_1(r) = t^2 - r; alpha_2(r) = 2 + (r-2)(r+2-t^2)
        assert alpha(1, r).equals(t * t - r)
        assert alpha(-1, r).equals(t * t - r)
        assert alpha(2, r).equals(2 + (r - 2) * (r + 2 - t * t))
        assert alpha(-2, r).equals(2 + (r - 2) * (r + 2 - t * t))
        # alpha_3(r) = t^2 (r-1)^2 - r^3 + 3r
        assert alpha(3, r).equals(t * t * (r - 1) * (r - 1) - r * r * r + 3 * r)

    def test_alpha_polynomial(self):
        r = RatFun.var("q")
        for k in range(-5, 6):
            if k:
                assert alpha(k, r).is_poly()

    def test_twist_triples(self):
        t = _t()
        d = base_invariants(VertTwist(2), var_name="s")
        s = RatFun.var("s")
        assert d.u.equals(s)
        assert d.udot.equals(2 + (s - 2) * (s + 2 - t * t))
        assert d.ucheck.equals(s * (s - 2) * (s + 2 - t * t))
        d2 = base_invariants(IntTwist(-2), var_name="s2")
        s2 = RatFun.var("s2")
        assert d2.udot.equals(s2)
        assert d2.u.equals(2 + (s2 - 2) * (s2 + 2 - t * t))
        assert d2.ucheck.equals(s2 * (2 - s2) * (s2 + 2 - t * t))

    def test_base_identity3_exact(self):
        t = _t()
        for atom in (IntTwist(3), VertTwist(2), IntTwist(-4), VertTwist(-3)):
            d = base_invariants(atom, "s")
            lhs = d.ucheck * d.ucheck
            rhs = (d.u - 2) * (d.udot - 2) * ((d.u + 2) * (d.udot + 2) - 4 * t * t)
            assert lhs.equals(rhs)

    def test_rejects_non_atom(self):
        with pytest.raises(DomainError):
            base_invariants(parse("[2] *v [3]"), "s")
        with pytest.raises(DomainError):
            base_invariants(IntTwist(0), "s")


class TestCompose:
    def test_fg_shapes(self):
        t = _t()
        a, b1, c1, b2, c2 = (RatFun.var(n) for n in ("fa", "fb1", "fc1", "fb2", "fc2"))
        f, g = fg(a, b1, c1, b2, c2)
        # f, g symmetric in the two factors
        f2, g2 = fg(a, b2, c2, b1, c1)
        assert f.equals(f2) and g.equals(g2)

    def test_compose_bare_substitution(self):
        # *v between [1/2] and [1/3]: both u-coordinates bare, so the later
        # variable is eliminated and no constraint is recorded
        I1 = base_invariants(VertTwist(2), "c1")
        I2 = base_invariants(VertTwist(3), "c2")
        out = compose("v", I1, I2)
        assert out.constraints == ()
        assert len(out.vars) == 1

    def test_bare_tie_goes_by_region_name_not_registration(self):
        # both u-coordinates bare: the later twist region's variable goes,
        # q10 after q2 by name, although q10 is registered first; in either
        # operand order
        I10 = base_invariants(VertTwist(3), "q10")
        I2 = base_invariants(VertTwist(2), "q2")
        for out in (compose("v", I2, I10), compose("v", I10, I2)):
            assert out.vars == ("q2",)
            assert out.u.equals(RatFun.var("q2"))

    def test_compose_constraint_when_not_bare(self):
        I1 = base_invariants(IntTwist(2), "c1")
        I2 = base_invariants(IntTwist(3), "c2")
        out = compose("v", I1, I2)  # u = alpha_k(r) on both sides: constraint
        assert len(out.constraints) == 1
        assert len(out.vars) == 2
        # p = 0 and -p = 0 are one equation: recorded in both factors, it
        # is kept once
        p = (_t() * _t() - 3).num
        out2 = compose(
            "v",
            InvariantData(I1.vars, I1.u, I1.udot, I1.ucheck, (p,), I1.exclusions, ("p",)),
            InvariantData(I2.vars, I2.u, I2.udot, I2.ucheck, (-p,), I2.exclusions, ("-p",)),
        )
        assert out2.constraints == (p,) + out.constraints

    def test_compose_symmetry_with_substitution(self):
        I1 = base_invariants(IntTwist(2), "c1")
        I2 = base_invariants(VertTwist(3), "c2")
        a = compose("v", I1, I2)
        b = compose("v", I2, I1)
        assert a.u.equals(b.u)
        assert a.udot.equals(b.udot)
        assert a.ucheck.equals(b.ucheck)

    def test_identity3_preserved_exactly(self):
        t = _t()
        d = compose("v", base_invariants(VertTwist(2), "c1"), base_invariants(VertTwist(3), "c2"))
        lhs = d.ucheck * d.ucheck
        rhs = (d.u - 2) * (d.udot - 2) * ((d.u + 2) * (d.udot + 2) - 4 * t * t)
        assert lhs.equals(rhs)

    def test_recover_grave_acute(self):
        t = _t()
        d = base_invariants(IntTwist(2), "c1")
        ug, ua = recover_grave_acute(d)
        assert (ug + ua + d.u * d.udot).equals(2 * t * t)
        assert (ug - ua).equals(d.ucheck)

    def test_direction_validated(self):
        with pytest.raises(DomainError):
            compose("x", base_invariants(IntTwist(2), "c1"), base_invariants(IntTwist(3), "c2"))

    def test_shared_variable_rejected(self):
        # records of two engines both name their first twist region r1;
        # composing them would identify two different twist regions
        I1 = InvariantEngine().run(parse("[2] *v [3]"))
        I2 = InvariantEngine().run(parse("[1/3]"))
        assert set(I1.vars) & set(I2.vars)
        for d in ("v", "h"):
            with pytest.raises(DomainError, match="share a twist-region variable"):
                compose(d, I1, I2)

    # trefoil and n-2-3 compose only in their closure
    @pytest.mark.parametrize("name", ["pretzel-333", "vchain-5", "worked"])
    def test_records_are_cancelled_by_their_exclusions(self, name):
        """Every composed record's u-check, and its u-dot after *v, has no
        exclusion factor left to cancel, and equals the uncancelled rules."""
        body = parse(golden.KNOTS[name][0]).body
        eng = InvariantEngine()
        eng.run(body.left)
        eng.run(body.right)
        records = iter(eng.history)
        steps = []

        def walk(expr):  # the engine's depth-first order, with each node's inputs
            if isinstance(expr, (IntTwist, VertTwist)):
                return next(records)
            I1, I2 = walk(expr.left), walk(expr.right)
            out = next(records)
            steps.append(("v" if isinstance(expr, CompV) else "h", I1, I2, out))
            return out

        walk(body.left)
        walk(body.right)
        assert next(records, None) is None and steps
        for d, I1, I2, out in steps:
            a, J1, J2, *_ = _glue(d, I1, I2)
            c1 = _rewrite_check(J1.ucheck, _shared(J1, d), a)
            c2 = _rewrite_check(J2.ucheck, _shared(J2, d), a)
            b1, b2 = (J1.udot, J2.udot) if d == "v" else (J1.u, J2.u)
            f, g = fg(a, b1, c1, b2, c2)
            cancelled = [out.ucheck] + ([out.udot] if d == "v" else [])
            for x in cancelled:
                y = reduce_by(x, out.exclusions)
                assert (y.num, y.den) == (x.num, x.den)
            assert out.ucheck.equals(g)
            assert (out.udot if d == "v" else out.u).equals(f)

    # knots whose compose divides by records that have denominators
    @pytest.mark.parametrize("expr", [
        golden.KNOTS["worked"][0],
        golden.KNOTS["montesinos"][0],
        "D([1/2] *v [[2],[3]] *v [[3],[2]])",
        "D([2] *v ([1/3] *h [1/2]) *v [[2],[-2]])",
        "D(([2] *h [3]) *v ([1/2] *h [1/3]) *v [2])",
    ])
    def test_division_by_exponents_matches_multiplying_in(self, expr, monkeypatch):
        """A FactoredRatFun quotient that cancels the divisor's denominator
        in its exponent map gives the payload that multiplying it into the
        numerator and dividing it out again gave, byte for byte."""
        closure = parse(expr)
        got = _json_text(closure_equations(closure)._json_fields(lambda p: p))
        divisors = []

        def multiply_in(f, other):
            divisors.append(f._coerce(other))
            return reference_truediv(f, other)

        monkeypatch.setattr(FactoredRatFun, "__truediv__", multiply_in)
        want = _json_text(closure_equations(closure)._json_fields(lambda p: p))
        assert got == want
        assert any(o.exps for o in divisors)


def test_invariants_leaves_variable_indices_to_ratfun():
    # ratfun alone maps variable names to exponent positions; the engine
    # works by name through its public surface
    source = inspect.getsource(invariants)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.module in ("ratfun", "arborchar.ratfun")
        for alias in node.names
    ]
    assert "RatFun" in imported
    assert [name for name in imported if name == "REGISTRY" or name.startswith("_")] == []
    assert "REGISTRY" not in source


class TestRecords:
    def test_keywords_and_defaults(self):
        u = _t()
        rec = InvariantData(vars=("q",), u=u, udot=u, ucheck=u)
        assert rec == InvariantData(("q",), u, u, u, (), (), ())
        assert (rec.constraints, rec.exclusions, rec.notes) == ((), (), ())
        p = (u * u - 3).num
        pres = Presentation(("t",), (p,), exclusions=(), notes=("p",))
        assert pres == Presentation(("t",), (p,), (), ("p",), (), ())
        assert (pres.traces, pres.regions) == ((), ())
        assert Presentation(("t",), (p,), (), ("p",), regions=(0,)).regions == (0,)

    @pytest.mark.parametrize(
        "build",
        [
            lambda u: InvariantData(("q",), u, u),
            lambda u: InvariantData(("q",), u, u, u, vars=("q",)),
            lambda u: InvariantData(("q",), u, u, u, extra=()),
            lambda u: Presentation(("t",), (), ()),
            lambda u: Presentation(("t",), (), (), (), (), (), ()),
        ],
        ids=["missing", "repeated", "unknown", "missing-notes", "too-many"],
    )
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build(_t())


class TestEngine:
    def test_history_and_atom_vars(self):
        eng = InvariantEngine()
        eng.run(parse("[[2],[-2]] *v [2]"))
        # three atoms ([1/2], [-2], [2]) plus two compositions
        assert len(eng.atom_vars) == 3
        assert len(eng.history) == 5

    @pytest.mark.parametrize("expr", ["[[2],[-2]] *v [2]", "([1/3] *h [1/2]) *v [3]"])
    def test_engines_name_alike(self, expr):
        a, b = InvariantEngine(), InvariantEngine()
        ra, rb = a.run(parse(expr)), b.run(parse(expr))
        assert a.atom_vars == b.atom_vars == [f"r{i}" for i in range(1, len(a.atom_vars) + 1)]
        assert ra.vars == rb.vars
        assert ra.u.equals(rb.u) and ra.udot.equals(rb.udot) and ra.ucheck.equals(rb.ucheck)

    def test_tangle_invariants_renames(self):
        d = tangle_invariants(parse("[2] *v [3]"))
        assert d.vars == ("r1", "r2")


def _layout(rec: InvariantData) -> tuple:
    """A record's fields with every polynomial as its list of terms, so that
    two records compare equal only with the same term order."""
    def terms(p):
        return list(p.terms.items())

    return (
        rec.vars,
        [(terms(f.num), terms(f.den)) for f in (rec.u, rec.udot, rec.ucheck)],
        [terms(p) for p in rec.constraints],
        [terms(p) for p in rec.exclusions],
        rec.notes,
    )


def _twist_atoms(expr) -> list:
    """The twist atoms of a tangle, in the order an engine runs them."""
    if isinstance(expr, (IntTwist, VertTwist)):
        return [expr]
    return _twist_atoms(expr.left) + _twist_atoms(expr.right)


class TestTwistRecordCache:
    """base_invariants builds each (atom kind, k, region name) record once per
    process; the cached record must stay what a fresh build gives."""

    ATOMS = [kind(k) for kind in (IntTwist, VertTwist) for k in (-3, -1, 1, 2, 5)]

    @staticmethod
    def _fresh(kind, k, name):
        return invariants._twist_record.__wrapped__(kind, k, name)

    @pytest.mark.parametrize("atom", ATOMS, ids=repr)
    def test_cached_record_is_a_fresh_build(self, atom):
        first = base_invariants(atom, "rc1")
        assert base_invariants(type(atom)(atom.k), "rc1") is first
        fresh = self._fresh(type(atom), atom.k, "rc1")
        assert fresh is not first
        assert _layout(fresh) == _layout(first)
        # records compare by value: their RatFun fields compare (num, den)
        assert fresh == first and hash(fresh) == hash(first)

    def test_engines_share_records(self):
        a, b = InvariantEngine(), InvariantEngine()
        a.run(parse("[3] *v [1/2]"))
        b.run(parse("[3] *v [1/2]"))
        assert a.history[0] is b.history[0] and a.history[1] is b.history[1]
        assert a.history[2] is not b.history[2]  # compositions are not cached
        assert a.history[0] is not a.history[1]
        assert base_invariants(IntTwist(3), "r2") is not a.history[0]  # region is in the key

    def test_records_survive_repeated_emits(self):
        # the benchmark's six stream knots and the small ladder knots,
        # emitted twice in this process: the second pass reuses every twist
        # record of the first, and afterwards each cached record is still
        # what a fresh build gives, term order included
        stream = ["D([1/2] *v [1/3])", "D([3] *v [1/-2])", "D([1/-3] *v [1/3] *v [1/1])"]
        exprs = [golden.KNOTS[name][0] for name in SMALL_KNOTS] + stream
        passes, keys = [], set()
        for _ in range(2):
            out = []
            for expr in exprs:
                eng = InvariantEngine()
                out.append(closure_equations(parse(expr), eng).to_json())
                atoms = _twist_atoms(parse(expr).body)
                keys.update((type(a), a.k, name)
                            for a, name in zip(atoms, eng.atom_vars, strict=True))
            passes.append(out)
        assert passes[0] == passes[1]
        for name, payload in zip(SMALL_KNOTS, passes[0]):
            assert payload == golden.stored(name), name
        cache = invariants._twist_record
        size = cache.cache_info().currsize
        for key in sorted(keys, key=repr):
            assert _layout(cache(*key)) == _layout(self._fresh(*key)), key
        assert cache.cache_info().currsize == size  # every key was cached

    @pytest.mark.parametrize(
        "atom",
        [CompV(IntTwist(2), IntTwist(3)), IntTwist(0), VertTwist(0),
         IntTwist(MAX_TWIST + 1), VertTwist(-MAX_TWIST - 1)],
        ids=repr,
    )
    def test_rejected_atoms_leave_no_entry(self, atom):
        size = invariants._twist_record.cache_info().currsize
        with pytest.raises(DomainError):
            base_invariants(atom, "rbad")
        assert invariants._twist_record.cache_info().currsize == size

    def test_oracle_keyword_call(self):
        # the oracle's base suite asks for base_invariants(atom, var_name="r")
        rec = base_invariants(VertTwist(-2), var_name="r")
        assert rec is base_invariants(VertTwist(-2), "r")
        assert _layout(rec) == _layout(self._fresh(VertTwist, -2, "r"))


def _sign_repeats(polys) -> list[tuple[int, int]]:
    """Index pairs (i, j), j < i, with polys[i] equal to +-polys[j]."""
    return [(i, j) for i, p in enumerate(polys) for j, q in enumerate(polys[:i])
            if p == q or p == -q]


def _fresh_emits(setup: str, exprs: list[str] | None = None) -> list[dict]:
    """The payloads of exprs (by default SMALL_KNOTS), emitted in one fresh
    interpreter after it runs the code setup."""
    code = (
        "import json, sys\n"
        "from arborchar.invariants import closure_equations\n"
        "from arborchar.tangle import parse\n"
        + setup
        + "for expr in json.loads(sys.argv[1]):\n"
        "    print(json.dumps(closure_equations(parse(expr)).to_json()))\n"
    )
    if exprs is None:
        exprs = [golden.KNOTS[name][0] for name in SMALL_KNOTS]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", code, json.dumps(exprs)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return [json.loads(line) for line in res.stdout.splitlines()]


def _up_to_sign(payload: dict) -> dict:
    """payload with each polynomial replaced by the pair of its term sets
    under both signs, so neither sign nor term order counts."""
    def poly(p: dict) -> frozenset:
        terms = frozenset(
            (frozenset((v, e) for v, e in zip(p["vars"], t["exp"]) if e), Fraction(t["coef"]))
            for t in p["terms"]
        )
        return frozenset((terms, frozenset((m, -c) for m, c in terms)))

    return {**payload, "equations": [poly(p) for p in payload["equations"]],
            "exclusions": [poly(p) for p in payload["exclusions"]]}


class TestClosure:
    # a knot whose closure keeps a representative ranked by _local_sig
    RANKED = "N([1/-2] *v [1/-1] *h ([-2] *v [1]))"

    # every ladder knot but link-3333, which links.py emits
    @pytest.mark.parametrize("name", [n for n in golden.KNOTS if n != "link-3333"])
    def test_ladder_exclusions_distinct_up_to_sign(self, name):
        pres = closure_equations(parse(golden.KNOTS[name][0]))
        assert _sign_repeats(pres.exclusions) == []

    def test_random_closure_exclusions_distinct_up_to_sign(self):
        # criterion 06's generator; p != 0 and -p != 0 are one exclusion
        rng = random.Random(1)
        emitted = 0
        while emitted < 150:
            c = _random_closure(rng)
            if c is None:
                continue
            try:
                pres = closure_equations(c)
            except ZeroDivisionError:
                # a few closures stop on an identically zero denominator
                # while the engine substitutes; they emit nothing to check
                continue
            assert _sign_repeats(pres.exclusions) == [], c
            emitted += 1

    def test_knot_gate(self):
        with pytest.raises(WrongEngineError):
            closure_equations(parse("D([1/2])"))  # two components
        with pytest.raises(WrongEngineError):
            closure_equations(parse("D([3] *v [3] *v [3] *v [3])"))

    def test_structure_gate(self):
        with pytest.raises(StructureError):
            closure_equations(parse("N([1/1] *v [1/2])"))
        with pytest.raises(StructureError):
            closure_equations(parse("D([3])"))

    def test_trefoil_presentation(self):
        t = RatFun.var("t")
        pres = closure_equations(parse("D([1/1] *v [1/2])"))
        assert pres.variables == ("t", "r1")
        assert len(pres.equations) == 2
        r1 = RatFun.var("r1")
        # u-dot match: alpha_1(r1) = alpha_2(r1), after clearing
        diff = (t * t - r1) - (2 + (r1 - 2) * (r1 + 2 - t * t))
        assert pres.equations[0] == diff.num.primitive() or pres.equations[0] == (-diff).num.primitive()

    def test_zero_equations_are_dropped(self):
        # this closure's u-checks cancel identically; 0 = 0 holds everywhere,
        # so it is dropped together with its note
        pres = closure_equations(parse("D(([1/-2] *v [1/-2]) *v ([-2] *h [2]))"))
        assert pres.notes == ("closure: u-dot coordinates match",)
        assert [str(eq) for eq in pres.equations] == ["r1 - 2"]

    @pytest.mark.parametrize(
        "expr, regions",
        [
            ("D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))", (0, 2, 3, 4)),
            ("D([1/3] *v [1/3] *v [1/3] *v [1/3] *v [1/3])", (0,)),
            ("D([3] *v [3] *v [3])", (0, 1, 2)),
            ("D([[2],[3]] *v [[3],[2]])", (0, 2)),
            ("D([[2],[3]] *v [[3],[2]] *v [1/2])", (0, 2)),
        ],
        ids=["worked", "vchain-5", "pretzel-333", "two-rationals", "montesinos"],
    )
    def test_regions_name_surviving_twist_regions(self, expr, regions):
        pres = closure_equations(parse(expr))
        assert pres.regions == regions
        assert pres.variables == ("t",) + tuple(f"r{i}" for i in range(1, len(regions) + 1))

    def test_regions_count_from_the_closures_first_atom(self):
        eng = InvariantEngine()
        eng.run(parse("[2] *v [3]"))
        pres = closure_equations(parse("D([3] *v [3] *v [3])"), eng)
        assert pres.regions == (0, 1, 2)
        assert len(eng.atom_vars) == 5

    def test_output_does_not_depend_on_earlier_link_presentation(self):
        # the link presentation is the first to register the names r1..r4;
        # the emits follow in the same process
        setup = "from arborchar.links import pretzel3333_presentation\npretzel3333_presentation()\n"
        for name, payload in zip(SMALL_KNOTS, _fresh_emits(setup), strict=True):
            assert payload == golden.stored(name), name

    @pytest.mark.parametrize("names", [("_v3", "_v2", "_v1"), ("r3", "r2", "r1")],
                             ids=["v-names", "r-names"])
    def test_output_does_not_depend_on_registration_order(self, names):
        # names registered in reverse before any emit reverse their place in
        # the monomial order, which may flip an equation's sign and reorder
        # its terms; the twist regions are named, ordered and glued by name
        # alone, so nothing else changes
        setup = "from arborchar.ratfun import MultiPoly\n" + "".join(
            f"MultiPoly.var({n!r})\n" for n in names)
        for name, payload in zip(SMALL_KNOTS, _fresh_emits(setup), strict=True):
            assert _up_to_sign(payload) == _up_to_sign(golden.stored(name)), name

    @pytest.mark.parametrize("names", [("_sig2", "_sig1", "_sig0"), ("r5", "r4", "r3", "r2", "r1")],
                             ids=["sig-names", "r-names"])
    def test_kept_representative_does_not_depend_on_registration_order(self, names):
        # the first knot's gluing ranks two shared coordinates that are not
        # bare variables; the ranking renders them in an order of its own,
        # so names registered before the emit, placeholder names among
        # them, change at most the sign and term order of the payload
        exprs = [self.RANKED, golden.KNOTS["worked"][0], golden.KNOTS["montesinos"][0]]
        clean = [golden.emit([self.RANKED]), golden.stored("worked"), golden.stored("montesinos")]
        setup = "from arborchar.ratfun import MultiPoly\n" + "".join(
            f"MultiPoly.var({n!r})\n" for n in names)
        for expr, payload, want in zip(exprs, _fresh_emits(setup, exprs), clean, strict=True):
            assert _up_to_sign(payload) == _up_to_sign(want), expr

    def test_repeated_emits_register_no_names(self):
        # a fresh interpreter emits the knots twice; every engine names its
        # twist regions r1, r2, ..., and ranks shared coordinates without
        # registering a name, so the registry holds t and the region names
        # alone, the second pass adds nothing to it, and both passes give
        # what each knot emits in an interpreter of its own.  The knots are
        # the seven knot rows of the benchmark ladder and the extra knots of
        # its emit stream, whose RatFuns are nearly all polynomials sharing
        # one denominator object: a change to it in place would show as a
        # difference between the passes
        code = (
            "import json, sys\n"
            "from arborchar.invariants import closure_equations\n"
            "from arborchar.ratfun import REGISTRY\n"
            "from arborchar.tangle import parse\n"
            "exprs = json.loads(sys.argv[1])\n"
            "for _ in range(2):\n"
            "    for expr in exprs:\n"
            "        print(json.dumps(closure_equations(parse(expr)).to_json()))\n"
            "    print(json.dumps([REGISTRY.name(i) for i in range(len(REGISTRY))]))\n"
        )
        names = [name for name in golden.KNOTS if name != "link-3333"]
        extra = ["D([1/2] *v [1/3])", "D([3] *v [1/-2])", "D([1/-3] *v [1/3] *v [1/1])"]
        exprs = [golden.KNOTS[name][0] for name in names] + extra
        fresh = [golden.stored(name) for name in names] + [golden.emit([e]) for e in extra]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        res = subprocess.run([sys.executable, "-c", code, json.dumps(exprs)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 2 * (len(exprs) + 1)
        first, second = lines[: len(exprs) + 1], lines[len(exprs) + 1:]
        regions = ["t", "r1", "r2", "r3", "r4", "r5"]
        assert json.loads(first[-1]) == json.loads(second[-1]) == regions
        for expr, a, b, want in zip(exprs, first, second, fresh):
            assert json.loads(a) == json.loads(b) == want, expr

    def test_presentation_json_round_trip(self):
        from arborchar.invariants import Presentation

        pres = closure_equations(parse("D([1/2] *v [1/3])"))
        back = Presentation.from_json(pres.to_json())
        assert back.variables == pres.variables
        assert all(a == b for a, b in zip(back.equations, pres.equations))

    def test_equations_vanish_on_samples(self):
        # numeric spot check on the trefoil: t = 1, r1 solving both closure
        # equations simultaneously must exist among the resultant roots
        import numpy as np

        pres = closure_equations(parse("D([1/1] *v [1/2])"))
        tval = 1.3 + 0.2j
        eq0 = pres.equations[0]
        # roots of the first equation in r1 at fixed t
        parts = eq0.coeffs_in("r1")
        deg = max(parts)
        coeffs = [complex(parts.get(k, 0 * eq0).eval({"t": tval})) if parts.get(k) is not None else 0 for k in range(deg, -1, -1)]
        roots = np.roots(coeffs)
        assert len(roots) >= 1
        for r in roots:
            assert abs(complex(eq0.eval({"t": tval, "r1": complex(r)}))) < 1e-8
