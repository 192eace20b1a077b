"""Numeric matrix oracle: frozen crossing conventions and verification suites."""

import ast
import inspect
import random
import time

import pytest

import arborchar.oracle as oracle
from arborchar.errors import ConditioningError, DomainError
from arborchar.invariants import base_invariants
from arborchar.mat2 import Mat2, special
from arborchar.oracle import (
    SUITE_NAMES,
    _SECANT_PATIENCE,
    _closure_rep,
    _crand,
    _secant,
    build_tangle_rep,
    conditioned_pair,
    default_samples,
    dot_quadruple,
    h_quadruple,
    run_suite,
    sample_in_Gt,
    sample_t,
    twist_rep,
)
from arborchar.tangle import IntTwist, VertTwist, parse


def _pair(t, r, seed=0):
    return conditioned_pair(t, r, random.Random(seed))


class TestSampling:
    def test_sample_in_Gt(self):
        rng = random.Random(1)
        t = sample_t(rng)
        for _ in range(10):
            m = sample_in_Gt(t, rng)
            assert abs(complex(m.trace()) - t) < 1e-12
            assert abs(complex(m.det()) - 1) < 1e-10

    def test_sample_in_Gt_draws_unchanged(self):
        # where a moderate matrix is found, it is the first acceptable draw
        for seed in range(20):
            t = sample_t(random.Random(seed))
            ref = random.Random(seed + 100)
            while True:
                a, b = _crand(ref), _crand(ref)
                if abs(b) < 1e-3:
                    continue
                want = Mat2(a, b, (a * (t - a) - 1) / b, t - a)
                if want.norm() <= 2.2:
                    break
            got = sample_in_Gt(t, random.Random(seed + 100))
            assert got.entries() == want.entries()

    @pytest.mark.parametrize("t", [5 + 0j, 4.3j, 1e6 + 0j])
    def test_sample_in_Gt_ends_without_moderate_matrices(self, t):
        start = time.monotonic()
        try:
            m = sample_in_Gt(t, random.Random(0))
        except ConditioningError:
            pass
        else:
            assert abs(complex(m.trace()) - t) < 1e-12
            assert abs(complex(m.det()) - 1) < 1e-10
        assert time.monotonic() - start < 1.0

    def test_sample_in_Gt_rejects_nan_trace(self):
        with pytest.raises(ConditioningError):
            sample_in_Gt(complex("nan"), random.Random(0))

    def test_conditioned_pair(self):
        t, r = 2.4 + 0.3j, 1.1 - 0.7j
        x, y = _pair(t, r)
        assert abs(complex((x @ y).trace()) - r) < 1e-9
        assert abs(complex(x.trace()) - t) < 1e-10
        assert abs(complex(y.trace()) - t) < 1e-10


class TestFrozenConventions:
    """The crossing step maps are frozen; these literal values pin them."""

    def test_single_horizontal_crossing(self):
        t, r = 2.4 + 0.3j, 1.1 - 0.7j
        x, y = _pair(t, r)
        rep = twist_rep(IntTwist(1), x, y, t)
        assert abs(rep.udot() - r) < 1e-9
        assert abs(rep.u() - (t * t - r)) < 1e-9
        assert abs(rep.ucheck() - (2 - r) * (r + 2 - t * t)) < 1e-8
        assert rep.boundary_residual() < 1e-9

    def test_single_vertical_crossing(self):
        t, r = 2.4 + 0.3j, 1.1 - 0.7j
        x, y = _pair(t, r)
        rep = twist_rep(VertTwist(1), x, y, t)
        assert abs(rep.u() - r) < 1e-9
        assert abs(rep.udot() - (t * t - r)) < 1e-9
        assert abs(rep.ucheck() - (2 - r) * (r + 2 - t * t)) < 1e-8
        assert rep.boundary_residual() < 1e-9

    def test_negative_crossings_match_closed_forms(self):
        t, r = 2.4 + 0.3j, 1.1 - 0.7j
        for atom in (IntTwist(-1), VertTwist(-1), IntTwist(-3), VertTwist(2)):
            x, y = _pair(t, r, seed=3)
            rep = twist_rep(atom, x, y, t)
            d = base_invariants(atom, var_name=f"reg{atom.k}")
            vals = {"t": t, f"reg{atom.k}": r}
            assert abs(rep.u() - complex(d.u.eval_numeric(vals))) < 1e-8
            assert abs(rep.udot() - complex(d.udot.eval_numeric(vals))) < 1e-8
            assert abs(rep.ucheck() - complex(d.ucheck.eval_numeric(vals))) < 1e-7
            assert rep.boundary_residual() < 1e-8

    def test_side_traces_agree(self):
        # tr(x_nw x_sw) = tr(x_ne x_se) on every built tangle
        from arborchar.oracle import _tr2

        rng = random.Random(17)
        t = sample_t(rng)
        for text in ("[2] *v [3]", "[1/2] *h [3]", "[[2],[-2]] *v [2]"):
            rep = build_tangle_rep(parse(text), t, rng)
            assert abs(_tr2(rep.x_nw, rep.x_sw) - _tr2(rep.x_ne, rep.x_se)) < 1e-7
            assert rep.boundary_residual() < 1e-7

    def test_closure_rejected(self):
        with pytest.raises(DomainError):
            build_tangle_rep(parse("D([2] *v [3])"), 2.5 + 0j, random.Random(0))


class TestQuadruples:
    def test_h_quadruple_diagonal_product(self):
        t, lam, mu, nu = 2.3 + 0.2j, 1.5 - 0.3j, 0.8 + 0.1j, -0.4 + 0.6j
        rep = h_quadruple(t, lam, mu, nu)
        assert (rep.x_nw @ rep.x_ne - special("d", lam)).norm() < 1e-12
        assert abs(rep.u() - (lam + 1 / lam)) < 1e-10
        assert rep.boundary_residual() < 1e-10

    def test_dot_quadruple_diagonal_product(self):
        t, lam, mu, nu = 2.3 + 0.2j, 1.5 - 0.3j, 0.8 + 0.1j, -0.4 + 0.6j
        rep = dot_quadruple(t, lam, mu, nu)
        assert (rep.x_ne @ rep.x_se - special("d", lam)).norm() < 1e-12
        assert abs(rep.udot() - (lam + 1 / lam)) < 1e-10
        assert rep.boundary_residual() < 1e-10


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("bogus")

    def test_default_samples(self):
        assert default_samples("identities") == 200
        assert default_samples("base") == 100
        assert default_samples("pretzel") == 60
        assert default_samples("pretzel", 7) == 7

    def test_deterministic(self):
        a = run_suite("identities", samples=5, seed=9)
        b = run_suite("identities", samples=5, seed=9)
        assert a.max_residual == b.max_residual
        assert a.rejected == b.rejected

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_each_suite_small(self, name):
        samples = 3 if name in ("presentation", "pretzel") else 10
        tol = 1e-8
        rep = run_suite(name, samples=samples, seed=1, tol=tol)
        assert rep.passed, rep.failures
        assert rep.max_residual <= tol

    def test_report_json(self):
        rep = run_suite("identities", samples=2, seed=0)
        blob = rep.to_json()
        assert blob["suite"] == "identities" and blob["passed"] is True
        assert set(blob) >= {"samples", "seed", "tol", "max_residual", "rejected"}


class TestClosureSearch:
    FIG = "D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))"

    def test_search_carries_nothing_between_calls(self):
        # the secant warm starts live in one search: earlier searches,
        # failed ones included, do not change where a later one lands
        c = parse(self.FIG)
        alone = _closure_rep(c, random.Random(9))[1]
        for seed in (1, 11, 20):
            try:
                _closure_rep(c, random.Random(seed))
            except ConditioningError:
                pass
        assert _closure_rep(c, random.Random(9))[1] == alone

    def test_stalled_secant_stops_early(self):
        calls = []

        def fn(s):
            calls.append(s)
            return 1.0 + 0.1 * (len(calls) % 3)

        with pytest.raises(ConditioningError):
            _secant(fn, 0.3 + 0.1j, 0.4 + 0.2j)
        assert len(calls) <= 3 + _SECANT_PATIENCE

    def test_secant_accepts_a_root_start(self):
        assert _secant(lambda s: s - 1.5, 1.5, 2.0) == 1.5


class TestPresentationSuite:
    def test_oracle_imports_no_private_engine_name(self):
        # the oracle checks the engine, so it uses only its public surface
        tree = ast.parse(inspect.getsource(oracle))
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module in ("invariants", "arborchar.invariants")
            for alias in node.names
        ]
        assert "closure_equations" in imported
        assert [name for name in imported if name.startswith("_")] == []

    def test_each_corpus_presentation_is_built_once(self, monkeypatch):
        calls = []
        real = oracle.closure_equations

        def counting(c, engine=None):
            calls.append(c)
            return real(c, engine)

        monkeypatch.setattr(oracle, "closure_equations", counting)
        oracle._corpus_presentation.cache_clear()
        try:
            rep = run_suite("presentation", seed=0)
        finally:
            oracle._corpus_presentation.cache_clear()
        assert rep.passed, rep.failures
        assert len(calls) == len(set(calls)) <= len(oracle._PRESENTATION_CORPUS)
