"""Numeric matrix oracle: frozen crossing conventions and verification suites."""

import ast
import cmath
import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import arborchar.oracle as oracle
from arborchar import RESIDUAL_TOL
from arborchar.errors import ConditioningError, DomainError
from arborchar.invariants import alpha, base_invariants, closure_equations
from arborchar.links import pretzel3333_presentation
from arborchar.mat2 import Mat2, special
from arborchar.oracle import (
    SUITE_NAMES,
    _PRESENTATION_CORPUS,
    _SECANT_PATIENCE,
    _NumericPoly,
    _alpha_coeffs,
    _alpha_preimages,
    _closure_rep,
    _crand,
    _cubic_family,
    _sample_lam,
    _null_vector,
    _secant,
    _solve_conjugator,
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
from arborchar.ratfun import MultiPoly, RatFun
from arborchar.tangle import IntTwist, VertTwist, parse


_GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify-seed0.json"


def _draw_keys(name, seed, samples):
    """{first draw of an attempt's stream: (sample, attempt)} for a suite."""
    return {
        random.Random(f"{name}:{seed}:{i}:{a}").random(): (i, a)
        for i in range(samples)
        for a in range(oracle._ATTEMPTS)
    }


def _pair(t, r, seed=0):
    return conditioned_pair(t, r, random.Random(seed))


# The sampler loops as they were before `_crand` and `_moderate` were inlined,
# kept verbatim as the reference for the draws they make.
def _ref_crand(rng, radius=1.5):
    a, span = -radius, radius - -radius
    return complex(a + span * rng.random(), a + span * rng.random())


def _ref_moderate(a, b, c, d):
    return abs(a) <= 2.2 and abs(b) <= 2.2 and abs(c) <= 2.2 and abs(d) <= 2.2


def _ref_sample_in_Gt(t, rng):
    for _ in range(oracle._GT_DRAWS):
        a = _ref_crand(rng)
        b = _ref_crand(rng)
        if abs(b) < 1e-3:
            continue
        c = (a * (t - a) - 1) / b
        d = t - a
        if _ref_moderate(a, b, c, d):
            return Mat2(a, b, c, d)
    raise ConditioningError(
        f"no matrix with trace {complex(t):.4g} and entries of modulus <= 2.2 "
        f"in {oracle._GT_DRAWS} draws"
    )


def _ref_conditioned_pair(t, r, rng):
    for _ in range(60):
        x = _ref_sample_in_Gt(t, rng)
        a = _ref_crand(rng)
        # tr(xy) = r with y = [[a, b], [(a(t-a)-1)/b, t-a]]: quadratic in b
        qa = complex(x.a21)
        qb = complex(x.a11) * a + complex(x.a22) * (t - a) - r
        qc = complex(x.a12) * (a * (t - a) - 1)
        for b in oracle._quad_roots(qa, qb, qc):
            if abs(b) >= 1e-3:
                c, d = (a * (t - a) - 1) / b, t - a
                if _ref_moderate(a, b, c, d):
                    return x, Mat2(a, b, c, d)
    raise ConditioningError("could not condition a pair on tr(xy) = r")


def _bits(*mats):
    return [(z.real.hex(), z.imag.hex()) for m in mats for z in map(complex, m.entries())]


def _outcome(fn, *args):
    """(matrix bits or error text, the generator's next draw)."""
    rng = random.Random(args[-1])
    try:
        got = fn(*args[:-1], rng)
    except ConditioningError as exc:
        got = str(exc)
    else:
        got = _bits(*got) if isinstance(got, tuple) else _bits(got)
    return got, rng.random().hex()


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

    def test_sampler_draws_match_the_reference_loops(self):
        # 2,400 (t, seed) cases, a third of them with |t| in [2.9, 3.1]
        gen = random.Random(7)
        for case in range(2400):
            if case % 3:
                t = sample_t(gen)
            else:
                t = cmath.rect(gen.uniform(2.9, 3.1), gen.uniform(-math.pi, math.pi))
            r = _crand(gen, 2.0)
            seed = gen.getrandbits(32)
            want = _outcome(_ref_sample_in_Gt, t, seed)
            assert _outcome(sample_in_Gt, t, seed) == want, (t, seed)
            want = _outcome(_ref_conditioned_pair, t, r, seed)
            assert _outcome(conditioned_pair, t, r, seed) == want, (t, r, seed)

    def test_sampler_exhaustion_matches_the_reference_loops(self):
        want = _outcome(_ref_sample_in_Gt, 5 + 0j, 3)
        assert want[0].startswith("no matrix with trace")
        assert _outcome(sample_in_Gt, 5 + 0j, 3) == want
        want = _outcome(_ref_conditioned_pair, 5 + 0j, 1 + 0j, 3)
        assert want[0].startswith("no matrix with trace")
        assert _outcome(conditioned_pair, 5 + 0j, 1 + 0j, 3) == want

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
        from arborchar.mat2 import trace_of_product as tr

        rng = random.Random(17)
        t = sample_t(rng)
        for text in ("[2] *v [3]", "[1/2] *h [3]", "[[2],[-2]] *v [2]"):
            rep = build_tangle_rep(parse(text), t, rng)
            assert abs(tr(rep.x_nw, rep.x_sw) - tr(rep.x_ne, rep.x_se)) < 1e-7
            assert rep.boundary_residual() < 1e-7

    def test_closure_rejected(self):
        with pytest.raises(DomainError):
            build_tangle_rep(parse("D([2] *v [3])"), 2.5 + 0j, random.Random(0))

    def test_degenerate_builds_name_every_reason(self, monkeypatch):
        # ten failed attempts: each reason with its count, in first-seen order
        reasons = iter(["b"] * 3 + ["a"] + ["b"] * 4 + ["c"] * 2)

        def build(*args):
            raise ConditioningError(next(reasons))

        monkeypatch.setattr(oracle, "_build", build)
        with pytest.raises(ConditioningError) as info:
            build_tangle_rep(parse("[2] *v [3]"), 2.5 + 0j, random.Random(0))
        assert str(info.value) == "tangle build kept degenerating: b (x7); a (x1); c (x2)"
        assert next(reasons, None) is None


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
        assert type(rep.max_residual) is float  # not a numpy scalar

    def test_report_json(self):
        rep = run_suite("identities", samples=2, seed=0)
        blob = rep.to_json()
        assert blob["suite"] == "identities" and blob["passed"] is True
        assert set(blob) >= {
            "samples", "seed", "tol", "max_residual", "rejected", "rejected_by_reason"
        }

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_matches_golden_report(self, name):
        """Seed 0 at the default sample counts reproduces the stored report.

        ``tests/golden/verify-seed0.json`` is the output of
        ``arborchar verify --suite all --seed 0 --out``.  The counts must
        match exactly, and the residual bit for bit: every suite is plain
        IEEE arithmetic in a fixed order, with no platform library on the
        way.
        """
        stored = json.loads(_GOLDEN_VERIFY.read_text())["reports"]
        want = next(r for r in stored if r["suite"] == name)
        got = run_suite(name, seed=0).to_json()
        for key in ("samples", "rejected", "rejected_by_reason", "failures"):
            assert got[key] == want[key], key
        assert got["max_residual"].hex() == want["max_residual"].hex()

    def test_rejections_counted_by_reason(self, monkeypatch):
        # sample 0 is rejected twice, then passes; sample 1 never passes,
        # so its last error ends the sample instead of being a rejection.
        # The fake reads (sample, attempt) from its draw, not from a counter,
        # so it answers the same in whichever process a sample runs.
        draws = _draw_keys("fake", 0, 2)

        def suite(rng):
            sample, attempt = draws[rng.random()]
            if (sample, attempt) == (0, 0):
                raise ConditioningError("first")
            if (sample, attempt) == (0, 2):
                return 0.0
            raise ConditioningError("second")

        monkeypatch.setitem(oracle._SUITES, "fake", suite)
        rep = run_suite("fake", samples=2)
        assert rep.rejected == 2 + 11
        assert rep.rejected_by_reason == {"first": 1, "second": 12}
        assert rep.failures == [{"sample": 1, "error": "kept degenerating"}]
        assert rep.to_json()["rejected_by_reason"] == {"first": 1, "second": 12}

    def test_failed_check_is_a_counted_failure(self, monkeypatch):
        # key2's sign-trick check is part of the residual, not an assert:
        # a wrong decomposition fails the sample instead of raising
        real = oracle.decompose_pair

        def unflipped(*args):
            return dataclasses.replace(real(*args), sign_flipped=False)

        monkeypatch.setattr(oracle, "decompose_pair", unflipped)
        rep = run_suite("key2", samples=1)
        assert not rep.passed
        assert rep.failures[0]["sample"] == 0 and rep.max_residual > rep.tol

    def test_changed_pretzel_coefficient_fails(self, monkeypatch):
        # the compiled equations still catch a wrong one: one coefficient of
        # the large equation raised by 1
        pres = pretzel3333_presentation()
        big = max(pres.equations, key=lambda p: len(list(p.named_terms())))
        powers, _ = next(big.named_terms())
        monomial = math.prod(
            (MultiPoly.var(name) ** p for name, p in powers.items()), start=MultiPoly.const(1)
        )
        equations = tuple(_NumericPoly(p + monomial if p is big else p) for p in pres.equations)
        exclusions = tuple(map(_NumericPoly, pres.exclusions))
        monkeypatch.setattr(oracle, "_pretzel_pres", lambda: (equations, exclusions))
        rep = run_suite("pretzel", samples=5)
        assert not rep.passed and rep.max_residual > 1.0

    def test_library_has_no_assert(self):
        # checks must hold under python -O and end as counted failures
        src = Path(oracle.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            assert asserts == [], (path.name, asserts)

    def test_base_builds_each_twist_triple_once(self, monkeypatch):
        # the suite asks for its 16 twist records in every sample; the
        # engine builds each (kind, k, region) record once per process
        from arborchar import invariants

        calls = []
        build = invariants._twist_record.__wrapped__

        def counting(*key):
            calls.append(key)
            return build(*key)

        monkeypatch.setattr(invariants, "_twist_record", functools.cache(counting))
        rep = run_suite("base", seed=0)
        assert rep.passed, rep.failures
        assert len(calls) == len(set(calls)) == 16

    def test_pretzel_rejections_pinned(self):
        # every rejection comes from the lam search along the tracked roots
        rep = run_suite("pretzel", seed=0)
        assert rep.passed, rep.failures
        assert rep.rejected == 39
        assert rep.rejected_by_reason == {"no pretzel variety point found": 39}

    def test_worst_keeps_a_nan_in_any_position(self):
        assert oracle._worst(0.0, 2.0, 1.0) == 2.0
        for parts in ((math.nan, 1.0, 2.0), (0.0, math.nan, 2.0), (0.0, 1.0, math.nan)):
            assert math.isnan(oracle._worst(*parts))

    def test_nan_part_after_the_first_fails_its_sample(self, monkeypatch):
        # compose's u-check formula is the last part of its residual, where
        # max() would drop a NaN
        monkeypatch.setattr(oracle, "_g_num", lambda *args: complex("nan"))
        rep = run_suite("compose", samples=2)
        assert [f["sample"] for f in rep.failures] == [0, 1]
        assert all(math.isnan(f["residual"]) for f in rep.failures)

    def test_secant_tolerance_is_a_constant(self):
        # one value in use: the closure search's node builds
        assert list(inspect.signature(_secant).parameters) == ["fn", "s0", "s1"]
        assert oracle._SECANT_TOL == 1e-11


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """Descriptors open in this process, or None where /proc cannot tell."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def _report_text(rep):
    return json.dumps(rep.to_json())  # keeps key order, floats exactly


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestShares:
    """A suite's samples run in k shares that pull them from one queue:
    share 0 runs in the calling process, the others in forked children, and
    which share runs a sample depends on timing.  These call the share
    runner with k set, so they fork on a 1-CPU machine too."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_report_same_for_every_share_count(self, name, seed):
        n = {"presentation": 8, "pretzel": 12}.get(name, 20)
        want = _report_text(oracle._run_shares(name, n, seed, RESIDUAL_TOL, 1))
        fds = _open_fds()
        for k in (2, 3):
            got = _report_text(oracle._run_shares(name, n, seed, RESIDUAL_TOL, k))
            assert got == want, k
            _no_child_left()
            assert _open_fds() == fds

    def test_idle_share_takes_the_remaining_samples(self, monkeypatch, tmp_path):
        # sample 0 is slow: whichever share takes it, the other one pulls
        # every later sample meanwhile (a split i % 2 would run the odd ones)
        n = 12
        draws = _draw_keys("fake", 0, n)

        def suite(rng):
            sample, _ = draws[rng.random()]
            if sample == 0:
                time.sleep(0.5)
            (tmp_path / str(sample)).write_text(str(os.getpid()))
            return 0.0

        monkeypatch.setitem(oracle._SUITES, "fake", suite)
        fds = _open_fds()
        assert oracle._run_shares("fake", n, 0, RESIDUAL_TOL, 2).passed
        _no_child_left()
        assert _open_fds() == fds
        pids = [(tmp_path / str(i)).read_text() for i in range(n)]
        assert set(pids[1:]) == {pids[1]}
        assert pids[1] != pids[0]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [5000, 5003])
    def test_blocks_past_the_token_budget(self, monkeypatch, tmp_path, n, k):
        # 5,000 samples need blocks of 5 per 4-byte token to fit in 4 KiB,
        # and 5,003 a short last block; each (sample, attempt) runs once, and
        # the report is the serial one
        draws = {
            random.Random(f"fake:0:{i}:{a}").random(): (i, a) for i in range(n) for a in (0, 1)
        }

        def suite(rng):
            sample, attempt = draws[rng.random()]
            os.write(log, f"{sample} {attempt}\n".encode())
            if attempt == 0 and sample % 7 == 3:
                raise ConditioningError(f"r{sample % 3}")
            return sample * 1e-16

        monkeypatch.setitem(oracle._SUITES, "fake", suite)
        runs = []
        for shares in (1, k):
            path = tmp_path / f"log{shares}"
            log = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                runs.append(_report_text(oracle._run_shares("fake", n, 0, RESIDUAL_TOL, shares)))
            finally:
                os.close(log)
            _no_child_left()
            ran = path.read_text().splitlines()
            assert len(ran) == len(set(ran)) == n + len(range(3, n, 7))
        assert runs[1] == runs[0]

    def test_reasons_merge_in_sample_order(self, monkeypatch):
        # sample 1 is rejected for "x" and sample 2 for "y": "x" is counted
        # first, although sample 2 runs in this process and sample 1 does not
        draws = _draw_keys("fake", 0, 3)

        def suite(rng):
            sample, attempt = draws[rng.random()]
            if attempt == 0 and sample:
                raise ConditioningError("xy"[sample - 1])
            return 0.0

        monkeypatch.setitem(oracle._SUITES, "fake", suite)
        for k in (1, 2, 3):
            rep = oracle._run_shares("fake", 3, 0, RESIDUAL_TOL, k)
            assert list(rep.to_json()["rejected_by_reason"].items()) == [("x", 1), ("y", 1)]
            _no_child_left()

    def test_sample_error_raises_as_a_serial_run(self, monkeypatch):
        # samples 3 and 4 raise; a serial run meets sample 3 first, while with
        # shares either one may be met first, here or in a child
        draws = _draw_keys("fake", 0, 6)

        def suite(rng):
            sample, _ = draws[rng.random()]
            if sample in (3, 4):
                raise ValueError(f"sample {sample}")
            return 0.0

        monkeypatch.setitem(oracle._SUITES, "fake", suite)
        for k in (1, 2, 3):
            with pytest.raises(ValueError, match="^sample 3$"):
                oracle._run_shares("fake", 6, 0, RESIDUAL_TOL, k)
            _no_child_left()

    def test_error_here_stops_the_children(self, monkeypatch):
        parent = os.getpid()

        def suite(rng):
            if os.getpid() != parent:
                time.sleep(30)
            raise ValueError("sample 0")

        monkeypatch.setitem(oracle._SUITES, "fake", suite)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(ValueError, match="^sample 0$"):
            oracle._run_shares("fake", 4, 0, RESIDUAL_TOL, 3)
        assert time.monotonic() - start < 10
        _no_child_left()
        assert _open_fds() == fds

    @pytest.mark.parametrize("how", ["raise", "kill"])
    def test_failed_child_is_run_again_here(self, monkeypatch, how):
        parent = os.getpid()
        draws = _draw_keys("fake", 0, 7)

        def suite(rng):
            sample, attempt = draws[rng.random()]
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("only in a child")
            if attempt == 0 and sample % 2:
                raise ConditioningError(f"odd {sample}")
            return sample * 1e-12

        monkeypatch.setitem(oracle._SUITES, "fake", suite)
        want = _report_text(oracle._run_shares("fake", 7, 0, RESIDUAL_TOL, 1))
        fds = _open_fds()
        for k in (2, 3):
            assert _report_text(oracle._run_shares("fake", 7, 0, RESIDUAL_TOL, k)) == want
            _no_child_left()
            assert _open_fds() == fds

    def test_nan_residual_fails_its_sample(self, monkeypatch):
        draws = _draw_keys("fake", 0, 4)

        def suite(rng):
            sample, _ = draws[rng.random()]
            return float("nan") if sample == 1 else 1e-12

        monkeypatch.setitem(oracle._SUITES, "fake", suite)
        for k in (1, 2):
            rep = oracle._run_shares("fake", 4, 0, RESIDUAL_TOL, k)
            assert not rep.passed
            assert [f["sample"] for f in rep.failures] == [1]
            assert math.isnan(rep.failures[0]["residual"])
            assert math.isnan(rep.max_residual)  # not hidden by later samples

    def test_share_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert oracle._share_count(3) == 3
        assert oracle._share_count(500) == oracle._MAX_SHARES
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait, args=(10,))
        worker.start()
        try:
            assert oracle._share_count(500) == 1  # fork is unsafe with threads
        finally:
            stop.set()
            worker.join(10)
        assert not worker.is_alive()
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert oracle._share_count(500) == 2
        monkeypatch.delattr(os, "fork")
        assert oracle._share_count(500) == 1


def _cubic_roots(a, b, c):
    return _cubic_family(a, b)(c)


def _cubic_value(x, a, b, c):
    return ((x + a) * x + b) * x + c


def _same_multiset(xs, ys, tol):
    return min(
        max(abs(x - y) for x, y in zip(xs, perm)) for perm in itertools.permutations(ys)
    ) < tol


class TestCubicRoots:
    def _check(self, a, b, c):
        roots = _cubic_roots(a, b, c)
        assert all(type(x) is complex for x in roots)
        ref = [complex(z) for z in np.roots([1, a, b, c])]
        assert _same_multiset(roots, ref, 1e-9), (roots, ref)
        bound = 1e-10 * max(1.0, abs(a), abs(b), abs(c))
        assert max(abs(_cubic_value(x, a, b, c)) for x in roots) < bound
        # each root solves the cubic to rounding at the size of its terms
        for x in roots:
            terms = abs(x) ** 3 + abs(a * x * x) + abs(b * x) + abs(c)
            assert abs(_cubic_value(x, a, b, c)) <= 1e-14 * terms, x

    def test_random_cubics_match_numpy(self):
        rng = random.Random(5)
        for _ in range(1000):
            a, b, c = (_crand(rng, 4.0) for _ in range(3))
            self._check(a, b, c)

    def test_pretzel_family(self):
        rng = random.Random(6)
        for _ in range(200):
            t1, t2 = sample_t(rng), sample_t(rng)
            lam = _sample_lam(rng, t1)
            tau = lam + 1 / lam
            self._check(-t1 * t2, t1 * t1 + t2 * t2 - 3, -t1 * t2 + tau)

    def test_near_double_root(self):
        r1, r2, r3 = 1 + 0.5j, 1 + 0.5j + 1e-5, -2 + 0j
        a = -(r1 + r2 + r3)
        b = r1 * r2 + r1 * r3 + r2 * r3
        c = -r1 * r2 * r3
        self._check(a, b, c)
        assert _same_multiset(_cubic_roots(a, b, c), [r1, r2, r3], 1e-9)

    @pytest.mark.parametrize("b, c", [(1e-7, 1.0), (-3e-8, 2j), (1e4, 1e-3)])
    def test_cancellation(self, b, c):
        # a tiny p makes one square-root branch cancel to nothing; a large
        # one makes Cardano's small root cancel, which the Newton step repairs
        self._check(0j, complex(b), complex(c))

    def test_triple_root(self):
        assert _cubic_roots(0j, 0j, 0j) == [0j, 0j, 0j]
        self._check(0j, 0j, 0j)


def _pretzel_cubic(t1, t2, lam):
    """(a, b, c) of the pretzel suite's cubic x^3 + a x^2 + b x + c at lam,
    with c = a + tau rounded as the suite rounds it."""
    a = -t1 * t2
    return a, t1 * t1 + t2 * t2 - 3, a + (lam + 1 / lam)


class TestPretzelSearch:
    def test_lam_plus_minus_one_solves_every_branch(self):
        # there N(r) no longer depends on r and equals -lam delta, so every
        # rho is -lam and prod rho = 1 whichever roots are picked: the
        # reason a search that drifts to lam = +-1 is abandoned
        rng = random.Random(3)
        for _ in range(20):
            t1, t2 = sample_t(rng), sample_t(rng)
            for lam in (1 + 0j, -1 + 0j):
                a, b, c = _pretzel_cubic(t1, t2, lam)
                roots = _cubic_family(a, b)(c)
                dl = complex(oracle.delta_two_trace(t1, t2, lam))
                rhos = [oracle._rho_numerator(t1, t2, lam, r)[0] / dl for r in roots]
                assert max(abs(rho + lam) for rho in rhos) < 1e-12
                for picks in itertools.product(range(3), repeat=4):
                    assert abs(math.prod(rhos[p] for p in picks) - 1) < 1e-12

    def test_accepted_points_solve_the_cubic(self, monkeypatch):
        found = []
        real = oracle._pretzel_point

        def recording(t1, t2, picks, rng):
            lam, rs = real(t1, t2, picks, rng)
            found.append((t1, t2, lam, rs))
            return lam, rs

        monkeypatch.setattr(oracle, "_pretzel_point", recording)
        rep = oracle._run_shares("pretzel", 60, 0, RESIDUAL_TOL, 1)
        assert rep.passed and len(found) == 60
        for t1, t2, lam, rs in found:
            a, b, c = _pretzel_cubic(t1, t2, lam)
            for r in rs:
                terms = abs(r) ** 3 + abs(a * r * r) + abs(b * r) + abs(c)
                assert abs(_cubic_value(r, a, b, c)) <= 12 * 2.0**-52 * terms
            tau = lam + 1 / lam
            assert abs(oracle.delta_two_trace(t1, t2, lam)) > 0.05
            assert abs(tau * tau - 4) > 0.05

    def test_shifted_root_is_a_counted_failure(self, monkeypatch):
        # the realized matrices re-measure every root, so a root that is
        # off by 1e-6 fails its sample; it is not rejected and redrawn
        real = oracle._pretzel_point
        want = run_suite("pretzel", samples=3)

        def shifted(*args):
            lam, rs = real(*args)
            return lam, [rs[0] + 1e-6, *rs[1:]]

        monkeypatch.setattr(oracle, "_pretzel_point", shifted)
        rep = run_suite("pretzel", samples=3)
        assert [f["sample"] for f in rep.failures] == [0, 1, 2]
        assert all(1e-9 < f["residual"] < 1 for f in rep.failures)
        assert rep.rejected == want.rejected

    def test_polish_reaches_rounding_level(self):
        a, b, c = _pretzel_cubic(1.1 + 0.3j, -0.7 + 0.9j, 0.8 - 0.4j)
        for root in _cubic_family(a, b)(c):
            r, d = oracle._polish_root(root + 1e-3, a, b, c)
            terms = abs(r) ** 3 + abs(a * r * r) + abs(b * r) + abs(c)
            assert abs(_cubic_value(r, a, b, c)) <= 12 * 2.0**-52 * terms
            assert d == (3 * r + 2 * a) * r + b

    def test_polish_rejects_a_zero_derivative(self):
        # x^3 + 1 from r = 0, where its derivative vanishes
        with pytest.raises(ConditioningError, match="zero of the derivative"):
            oracle._polish_root(0j, 0j, 0j, 1 + 0j)

    def test_polish_rejects_a_slow_root(self):
        # Newton converges only linearly to the triple root of x^3
        with pytest.raises(ConditioningError, match="did not converge"):
            oracle._polish_root(1 + 0j, 0j, 0j, 0j)


class TestNumericPoly:
    @pytest.mark.parametrize("text", ("pretzel (3,3,3,3) link",) + _PRESENTATION_CORPUS)
    def test_matches_exact_evaluation(self, text):
        if text in _PRESENTATION_CORPUS:
            pres = closure_equations(parse(text))
        else:
            pres = pretzel3333_presentation()
        rng = random.Random(text)
        for poly in pres.equations + pres.exclusions:
            compiled = _NumericPoly(poly)
            for _ in range(3):
                point = {name: _crand(rng) for name in compiled.names}
                got = compiled(point)
                want = complex(poly.eval(point))
                assert type(got) is complex
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), str(poly)[:60]

    def test_pretzel_equation_at_rational_points(self):
        # dyadic points convert to floats exactly, so the only error left is
        # each term's rounding, bounded by the sum of the terms' moduli
        big = max(pretzel3333_presentation().equations, key=lambda p: len(list(p.named_terms())))
        compiled = _NumericPoly(big)
        assert len(compiled.names) == 8
        rng = random.Random(11)
        for _ in range(4):
            point = {name: Fraction(rng.randrange(-48, 49), 16) for name in compiled.names}
            want = big.eval(point)
            size = sum(
                abs(c) * math.prod(abs(point[name]) ** p for name, p in powers.items())
                for powers, c in big.named_terms()
            )
            got = compiled({name: float(v) for name, v in point.items()})
            assert got.imag == 0
            assert abs(Fraction(got.real) - want) <= Fraction(1e-14) * size

    def test_constant_polynomial(self):
        assert _NumericPoly(MultiPoly.const(-3))({}) == -3
        assert _NumericPoly(MultiPoly.const(-3)).scale == 3.0
        assert _NumericPoly(MultiPoly.zero())({}) == 0

    def test_oracle_reads_no_term_dict(self):
        # the oracle compiles polynomials by variable name, through
        # MultiPoly.named_terms, and never sees exponent positions
        tree = ast.parse(inspect.getsource(oracle))
        reads = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "terms"
        ]
        assert reads == []


def _poly_value(coeffs, r):
    value = 0
    for c in coeffs:
        value = value * r + c
    return value


class TestAlphaPreimages:
    @pytest.mark.parametrize("k", [k for k in range(-12, 13) if k])
    def test_coefficients_are_exact(self, k):
        # over Fractions the coefficients are exact, and equal those of the
        # engine's alpha_k at the same t
        t = Fraction(3, 7)
        got = _alpha_coeffs(k, t)
        want = [Fraction(0)] * (abs(k) + 1)
        for powers, c in alpha(k, RatFun.var("r")).as_poly().named_terms():
            want[abs(k) - powers.get("r", 0)] += c * t ** powers.get("t", 0)
        assert got == want

    @pytest.mark.parametrize("k", [1, -1, 2, -2, 3, -4, 7, 12, 25, -25])
    def test_roots_solve_alpha(self, k):
        rng = random.Random(k)
        for _ in range(5):
            t, v = sample_t(rng), _crand(rng, 3.0)
            coeffs = _alpha_coeffs(k, t)
            coeffs[-1] -= v
            roots = _alpha_preimages(k, t, v)
            assert len(roots) == abs(k)
            assert all(type(r) is complex for r in roots)
            assert [abs(r) for r in roots] == sorted(map(abs, roots), reverse=True)
            for r in roots:
                scale = _poly_value([abs(c) for c in coeffs], abs(r))
                assert abs(_poly_value(coeffs, r)) <= 1e-13 * scale, (r, scale)

    @pytest.mark.parametrize("k", [1, -1, 2, -2, 3, 5, -6])
    def test_roots_match_numpy(self, k):
        # the same roots as a companion-matrix solve; for |k| <= 2 also in
        # the same order, which keeps the oracle's random draws
        rng = random.Random(100 + k)
        for _ in range(20):
            t, v = sample_t(rng), _crand(rng, 3.0)
            coeffs = _alpha_coeffs(k, t)
            coeffs[-1] -= v
            ref = [complex(z) for z in np.roots(coeffs)]
            got = _alpha_preimages(k, t, v)
            assert all(min(abs(z - w) for w in ref) < 1e-8 for z in got)
            assert all(min(abs(z - w) for w in got) < 1e-8 for z in ref)
            if abs(k) <= 2:
                assert max(abs(z - w) for z, w in zip(got, ref)) < 1e-8

    @pytest.mark.parametrize("k", [3, 25])
    def test_unconverged_iteration_raises(self, monkeypatch, k):
        monkeypatch.setattr(oracle, "_ABERTH_STEPS", 1)
        start = time.monotonic()
        with pytest.raises(ConditioningError, match="did not converge"):
            _alpha_preimages(k, 1.3 + 0.4j, 0.7 - 0.2j)
        assert time.monotonic() - start < 1.0


def _rank_deficient(rng, rank):
    left = np.array([[_crand(rng) for _ in range(rank)] for _ in range(8)])
    right = np.array([[_crand(rng) for _ in range(4)] for _ in range(rank)])
    return left @ right


class TestNullVector:
    def test_matches_svd_on_rank_3_systems(self):
        rng = random.Random(21)
        for _ in range(200):
            a = _rank_deficient(rng, 3)
            got = np.array(_null_vector([[complex(x) for x in row] for row in a]))
            want = np.linalg.svd(a)[2][-1].conj()
            assert abs(np.linalg.norm(got) - 1) < 1e-12
            assert np.linalg.norm(a @ got) < 1e-12 * np.linalg.norm(a)
            # the same unit vector up to a phase
            assert abs(abs(np.vdot(want, got)) - 1) < 1e-9

    def test_rank_2_system_is_not_unique(self):
        rng = random.Random(22)
        for _ in range(20):
            rows = [[complex(x) for x in row] for row in _rank_deficient(rng, 2)]
            with pytest.raises(ConditioningError, match="not unique"):
                _null_vector(rows)
        # rank 0 ends at the first pivot, with no division by zero
        with pytest.raises(ConditioningError, match="not unique"):
            _null_vector([[0] * 4 for _ in range(8)])

    def test_conjugator_solve(self):
        rng = random.Random(23)
        t = sample_t(rng)
        x, y = conditioned_pair(t, 0.4 + 0.9j, rng)
        c = sample_in_Gt(sample_t(rng), rng)
        conj = lambda m: c @ m @ c.inv()
        got = _solve_conjugator([(x, conj(x)), (y, conj(y))])
        # the conjugator is unique up to sign
        assert min((got - c).norm(), (got + c).norm()) < 1e-9

    def test_reducible_pairs_fail(self):
        # a commuting pair is centralized by every diagonal matrix, so its
        # conjugator is not unique
        rng = random.Random(24)
        x, y = special("d", 1.3 + 0.2j), special("d", 0.6 - 0.5j)
        c = sample_in_Gt(sample_t(rng), rng)
        conj = lambda m: c @ m @ c.inv()
        with pytest.raises(ConditioningError, match="not unique"):
            _solve_conjugator([(x, conj(x)), (y, conj(y))])
        # a non-commuting reducible pair has the traces of its diagonal
        # part but is not conjugate to it: the only solution is singular
        pairs = [
            (special("u_plus", 1.3 + 0.2j, 0.7), special("d", 1.3 + 0.2j)),
            (special("u_plus", 0.6 - 0.5j, -0.4j), special("d", 0.6 - 0.5j)),
        ]
        with pytest.raises(ConditioningError, match="degenerate"):
            _solve_conjugator(pairs)


class TestStdlibOnly:
    """The package runs on the standard library alone; numpy is a test aid."""

    def test_suites_leave_numpy_unloaded(self):
        # the test modules import numpy, so this must run in a fresh process
        code = (
            "import sys\n"
            "from arborchar.oracle import run_suite\n"
            "for name in ('presentation', 'pretzel'):\n"
            "    assert run_suite(name, samples=1).passed, name\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(oracle.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_package_imports_no_numpy(self):
        for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names]
            imported += [node.module or "" for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)]
            assert [m for m in imported if m.split(".")[0] == "numpy"] == [], path.name

    def test_no_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        path = Path(oracle.__file__).parents[2] / "pyproject.toml"
        project = tomllib.loads(path.read_text())["project"]
        assert project.get("dependencies", []) == []


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

    def test_perturbed_end_matrix_fails(self, monkeypatch):
        # the end checks are relative to the end matrices' norm squared;
        # one entry of x_se off by 1e-6 relative must still fail
        real = oracle._closure_rep

        def perturbed(c, rng):
            rep, t = real(c, rng)
            m = rep.x_se
            bad = Mat2(m.a11 * (1 + 1e-6), m.a12, m.a21, m.a22)
            return dataclasses.replace(rep, x_se=bad), t

        monkeypatch.setattr(oracle, "_closure_rep", perturbed)
        for seed in (0, 3):
            rep = run_suite("presentation", seed=seed)
            assert not rep.passed and rep.max_residual > 1e-7, seed
