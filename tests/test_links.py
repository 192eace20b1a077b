"""Two-component engine: odd-twist triples, h-parameter ratios, pretzel presentations."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import arborchar
from arborchar.errors import DomainError, UnsupportedShapeError, WrongEngineError
from arborchar.links import (
    delta,
    link_presentation,
    mu_ratio,
    odd_twist_invariants,
    pretzel3333_presentation,
)
from arborchar.ratfun import RatFun
from arborchar.tangle import parse


def _traces():
    return RatFun.var("t1"), RatFun.var("t2")


class TestOddTwist:
    def test_k3_closed_forms(self):
        w = RatFun.var("wv")
        u, ucheck = odd_twist_invariants(3, udot_var="wv")
        t1, t2 = _traces()
        u_expect = 3 * w - w * w * w + (w * w + 1) * t1 * t2 - w * (t1 * t1 + t2 * t2)
        assert u.equals(u_expect)
        uc_expect = (4 - w * w + w * t1 * t2 - t1 * t1 - t2 * t2) * (w * w - 1)
        assert ucheck.equals(uc_expect)

    def test_k1_base(self):
        w = RatFun.var("wb")
        u, ucheck = odd_twist_invariants(1, udot_var="wb")
        t1, t2 = _traces()
        assert u.equals(t1 * t2 - w)
        assert ucheck.equals(w * t1 * t2 - t1 * t1 - t2 * t2 - w * w + 4)

    def test_even_rejected(self):
        with pytest.raises(DomainError):
            odd_twist_invariants(2)
        with pytest.raises(DomainError):
            odd_twist_invariants(0)

    def test_three_term_recursion(self):
        # traces along powers obey the Cayley-Hamilton recursion:
        # u_{k+2} + u_{k-2} = (w^2 - 2) u_k, and likewise for ucheck
        w = RatFun.var("wr")
        u1, c1 = odd_twist_invariants(1, udot_var="wr")
        u3, c3 = odd_twist_invariants(3, udot_var="wr")
        u5, c5 = odd_twist_invariants(5, udot_var="wr")
        mult = w * w - 2
        assert (c5 + c1).equals(mult * c3)
        # the u-family carries an affine correction: with v_k = u_k - t1 t2 + w,
        # v_{k+2} + v_{k-2} = (w^2 - 2) v_k + delta(tau -> w) * w
        t1, t2 = _traces()
        shift = t1 * t2 - w
        dl = w * t1 * t2 - t1 * t1 - t2 * t2 - w * w + 4
        v1, v3, v5 = u1 - shift, u3 - shift, u5 - shift
        assert (v5 + v1).equals(mult * v3 + dl * w)
        um1, _ = odd_twist_invariants(-1, udot_var="wr")
        vm1 = um1 - shift
        assert (v3 + vm1).equals(mult * v1 + dl * w)


class TestDelta:
    def test_tau_slot(self):
        t1, t2 = _traces()
        tau, w = RatFun.var("tau"), RatFun.var("wd")
        assert delta().equals(tau * t1 * t2 - t1 * t1 - t2 * t2 - tau * tau + 4)
        assert delta(w).equals(w * t1 * t2 - t1 * t1 - t2 * t2 - w * w + 4)


class TestMuRatio:
    def test_denominator_is_delta(self):
        r = RatFun.var("rmu")
        f = mu_ratio(r)
        assert f.den == delta().num

    def test_lam_inv_convention(self):
        # the inverse eigenvalue 1/lam is written tau - lam
        r = RatFun.var("rli")
        t1, t2 = _traces()
        lam = RatFun.var("lam")
        lam_inv = RatFun.var("tau") - lam
        num = (lam - lam_inv) * (r * r + (lam_inv - t1 * t2) * r - 2) + lam * (
            t1 * t1 + t2 * t2
        ) - 2 * t1 * t2
        assert (mu_ratio(r) * delta()).equals(num)


class TestPretzelPresentation:
    def test_structure(self):
        pres = pretzel3333_presentation()
        assert pres.variables == ("t1", "t2", "tau", "lam", "r1", "r2", "r3", "r4")
        assert len(pres.equations) == 6
        assert len(pres.exclusions) == 2
        assert pres.traces == ("t1", "t2")

    def test_twist_relations(self):
        # each twist relation is the cubic
        # r^3 - t1t2 r^2 + (t1^2+t2^2-3) r - t1t2 + tau, written out here
        # independently of odd_twist_invariants
        pres = pretzel3333_presentation()
        t1, t2 = _traces()
        tau = RatFun.var("tau")
        for i, eq in enumerate(pres.equations[:4], start=1):
            r = RatFun.var(f"r{i}")
            cubic = r ** 3 - t1 * t2 * r * r + (t1 * t1 + t2 * t2 - 3) * r - t1 * t2 + tau
            assert eq == cubic.num
            assert pres.notes[i - 1] == f"twist relation for r{i}"

    def test_gates(self):
        with pytest.raises(WrongEngineError):
            link_presentation(parse("D([1/1] *v [1/2])"))  # a knot
        with pytest.raises(UnsupportedShapeError):
            link_presentation(parse("N([2])"))  # two components, wrong shape
        with pytest.raises(UnsupportedShapeError):
            link_presentation(parse("D([3] *v [3] *v [5] *v [3])"))

    def test_supported_shape(self):
        pres = link_presentation(parse("D([3] *v [3] *v [3] *v [3])"))
        assert len(pres.equations) == 6


# one-token mutations of the link formulas, each of which the pretzel
# suite must catch: (name, the text in links.py, its replacement)
_MUTATIONS = [
    ("mu-ratio-sign", ") - 2 * t1 * t2", ") + 2 * t1 * t2"),
    ("delta-constant", "- w * w + 4", "- w * w + 3"),
    ("twist-sign", "- w - RatFun", "+ w - RatFun"),
    ("eigenvalue-sign", "lam * lam - tau * lam + 1", "lam * lam + tau * lam + 1"),
]


class TestMutationGate:
    """`verify --suite pretzel --seed 0` in a fresh process, on a copy of
    the package with one token of `links.py` changed, exits 4 (a failed
    check)."""

    @staticmethod
    def _verify_copy(tmp_path: Path, old: str | None = None, new: str = "") -> int:
        package = tmp_path / "arborchar"
        shutil.copytree(
            Path(arborchar.__file__).parent, package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        if old is not None:
            links = package / "links.py"
            text = links.read_text()
            assert text.count(old) == 1
            links.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        done = subprocess.run(
            [sys.executable, "-m", "arborchar", "verify", "--suite", "pretzel", "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert "Traceback" not in done.stderr, done.stderr
        return done.returncode

    def test_unchanged_copy_passes(self, tmp_path):
        assert self._verify_copy(tmp_path) == 0

    @pytest.mark.parametrize("old, new", [m[1:] for m in _MUTATIONS], ids=[m[0] for m in _MUTATIONS])
    def test_mutation_fails(self, tmp_path, old, new):
        assert self._verify_copy(tmp_path, old, new) == 4
