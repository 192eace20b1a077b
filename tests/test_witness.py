"""Numeric trace-pairing machinery and positive-dimensional witness families."""

import cmath
import random

import numpy as np
import pytest

from arborchar.errors import DomainError, GenericityError, InconsistencyError
from arborchar.mat2 import Mat2, special
from arborchar.witness import (
    GramData,
    complete_fourth,
    gram,
    pairwise_gaps,
    solve_s24,
    third_with_traces,
    witness_family,
)

T = 2.6 + 0.3j


def _pair():
    lam = 1.7 - 0.4j
    a1 = special("h1", T, lam, 1.0 + 0j)
    a2 = special("h1", T, lam, 0.3 - 0.8j).conj_by(Mat2(1, 0.5, 0.2, 1.1))
    return a1.to_complex(), a2.to_complex()


class TestGram:
    def test_diagonal_and_symmetry(self):
        a1, a2 = _pair()
        g = gram([a1, a2], [T, T])
        assert abs(g.S[0][0] - (T * T / 2 - 2)) < 1e-10
        assert abs(g.S[1][1] - (T * T / 2 - 2)) < 1e-10
        assert abs(g.S[0][1] - g.S[1][0]) < 1e-12
        # s_12 = tr(a1 a2) - t^2/2
        t12 = complex((a1 @ a2).trace())
        assert abs(g.S[0][1] - (t12 - T * T / 2)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_det_matches_numpy(self, n):
        # barred matrices are trace-free, so any four are dependent and
        # their Gram matrix singular: use random symmetric matrices
        rng = random.Random(n)
        for _ in range(50):
            S = [[0j] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    S[i][j] = S[j][i] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g = GramData((), (), (), tuple(map(tuple, S)))
            want = complex(np.linalg.det(np.array(S)))
            assert abs(g.det() - want) <= 1e-12 * abs(want)

    def test_trace_mismatch_rejected(self):
        a1, a2 = _pair()
        with pytest.raises(DomainError):
            gram([a1, a2], [T, T + 1])


class TestThird:
    def test_prescribed_traces(self):
        a1, a2 = _pair()
        t13, t23 = 1.4 - 0.2j, 0.7 + 0.9j
        a3 = third_with_traces(a1, a2, T, t13, t23)
        assert abs(complex(a3.trace()) - T) < 1e-8
        assert abs(complex(a3.det()) - 1) < 1e-8
        assert abs(complex((a1 @ a3).trace()) - t13) < 1e-8
        assert abs(complex((a2 @ a3).trace()) - t23) < 1e-8

    def test_genericity_gate(self):
        a1, a2 = _pair()
        t23 = 0.7 + 0.9j
        with pytest.raises(GenericityError):
            third_with_traces(a1, a2, T, t23, t23)
        with pytest.raises(GenericityError):
            third_with_traces(a1, a2, T, T * T - t23, t23)

    def test_commuting_pair_rejected(self):
        a1, _ = _pair()
        with pytest.raises(DomainError):
            third_with_traces(a1, a1, T, 1.0 + 0j, 2.0 + 0j)


class TestFourth:
    def _triple_gram(self):
        a1, a2 = _pair()
        a3 = third_with_traces(a1, a2, T, 1.4 - 0.2j, 0.7 + 0.9j)
        return a1, a2, a3, gram([a1, a2, a3], [T, T, T])

    def test_solve_s24_roots_kill_det(self):
        _, _, _, g = self._triple_gram()
        s14, s34 = 0.4 - 0.6j, -0.9 + 0.3j
        for s24 in solve_s24(g, s14, s34, T):
            S4 = np.empty((4, 4), dtype=complex)
            S4[:3, :3] = g.S
            col = np.array([s14, s24, s34])
            S4[:3, 3] = S4[3, :3] = col
            S4[3, 3] = T * T / 2 - 2
            scale = max(1.0, float(np.max(np.abs(S4))) ** 4)
            assert abs(np.linalg.det(S4)) < 1e-9 * scale

    def test_complete_fourth(self):
        a1, a2, a3, g = self._triple_gram()
        s14, s34 = 0.4 - 0.6j, -0.9 + 0.3j
        s24 = solve_s24(g, s14, s34, T)[0]
        a4 = complete_fourth(g, s14, s24, s34, T)
        assert abs(complex(a4.det()) - 1) < 1e-7
        assert abs(complex(a4.trace()) - T) < 1e-7
        # prescribed pairings: tr(a_i a4) = s_i4 + t^2/2
        for ai, si in ((a1, s14), (a2, s24), (a3, s34)):
            assert abs(complex((ai.to_complex() @ a4).trace()) - (si + T * T / 2)) < 1e-7

    def test_wrong_s24_rejected(self):
        _, _, _, g = self._triple_gram()
        s14, s34 = 0.4 - 0.6j, -0.9 + 0.3j
        s24 = solve_s24(g, s14, s34, T)[0]
        with pytest.raises(InconsistencyError):
            complete_fourth(g, s14, s24 + 1.0, s34, T)


class TestFamily:
    def test_family_and_gaps(self):
        a1, a2 = _pair()
        t13s = [1.1 + 0.2j, 0.6 - 0.5j, -0.4 + 0.8j]
        fam = witness_family(
            a1, a2, T, t23=0.7 + 0.9j, t34=-0.8 + 0.4j, t14=-0.7 + 0.5j,
            t13_samples=t13s,
        )
        assert len(fam) == 3
        for s, t13 in zip(fam, t13s):
            tt = s.trace_table()
            assert abs(tt["t13"] - t13) < 1e-7
            assert abs(tt["t23"] - (0.7 + 0.9j)) < 1e-7
            assert abs(tt["t34"] - (-0.8 + 0.4j)) < 1e-6
            assert abs(tt["t14"] - (-0.7 + 0.5j)) < 1e-6
            assert abs(s.gram_det4) < 1e-7 * max(1.0, abs(s.gram_det3) ** 2)
        gaps = pairwise_gaps(fam)
        assert len(gaps) == 3
        assert min(gaps) > 1e-3

    def test_cofactors_once_per_member(self, monkeypatch):
        # det S and adj(S) are computed once per Gram matrix and shared by
        # solve_s24, complete_fourth and the recorded gram_det3
        from arborchar import witness

        calls = {"det": 0, "adj": 0}
        det, adj = witness._det, witness._adj

        def counted_adj(m):
            calls["adj"] += 1
            return adj(m)

        def counted_det(m):
            calls["det"] += len(m) > 2  # the 3x3 and 4x4 expansions, not minors
            return det(m)

        monkeypatch.setattr(witness, "_adj", counted_adj)
        monkeypatch.setattr(witness, "_det", counted_det)
        a1, a2 = _pair()
        fam = witness_family(
            a1, a2, T, t23=0.7 + 0.9j, t34=-0.8 + 0.4j, t14=-0.7 + 0.5j,
            t13_samples=[1.1 + 0.2j, 0.6 - 0.5j, -0.4 + 0.8j],
        )
        assert len(fam) == 3
        # per member: one adjugate of S, det S, and the 4x4 det with its
        # four 3x3 minors
        assert calls == {"adj": 3, "det": 3 * (1 + 1 + 4)}

    def test_side_condition_gate(self):
        a1, a2 = _pair()
        with pytest.raises(GenericityError):
            witness_family(a1, a2, T, t23=2.0 + 0j, t34=1.0, t14=1.0, t13_samples=[1.0])

    def test_pair_outside_G_t_rejected(self):
        a1, a2 = _pair()
        off_det = Mat2(a1.a11, 1.01 * a1.a12, a1.a21, a1.a22)
        off_trace = a1 + Mat2.identity().scale(1e-6)
        for bad in (off_det, off_trace):
            with pytest.raises(GenericityError, match="a1 must have trace t"):
                witness_family(bad, a2, T, t23=0.7 + 0.9j, t34=-0.8 + 0.4j,
                               t14=-0.7 + 0.5j, t13_samples=[1.1 + 0.2j])

    def test_commuting_pair_is_a_side_condition(self):
        # a1 and its inverse lie in G(t) and commute: refused up front, as
        # the other side conditions are, not by the construction of a3
        a1, _ = _pair()
        for a2 in (a1, a1.inv()):
            with pytest.raises(GenericityError, match="a1 and a2 must not commute"):
                witness_family(a1, a2, T, t23=0.7 + 0.9j, t34=-0.8 + 0.4j,
                               t14=-0.7 + 0.5j, t13_samples=[1.1 + 0.2j])

    @pytest.mark.parametrize(
        "t13s",
        [[1.1 + 0.2j, 1.1 + 0.2j], [1.1 + 0.2j, 0.6 - 0.5j, 1.1 + 0.2j + 5e-10j]],
        ids=["equal", "within-tol"],
    )
    def test_repeated_t13_rejected(self, t13s):
        # two equal t13 values would give the same quadruple twice, and the
        # members must be pairwise non-conjugate
        a1, a2 = _pair()
        with pytest.raises(GenericityError, match="t13 values must differ pairwise"):
            witness_family(a1, a2, T, t23=0.7 + 0.9j, t34=-0.8 + 0.4j,
                           t14=-0.7 + 0.5j, t13_samples=t13s)

    def test_json_shape(self):
        a1, a2 = _pair()
        fam = witness_family(
            a1, a2, T, t23=0.7 + 0.9j, t34=-0.8 + 0.4j, t14=-0.7 + 0.5j,
            t13_samples=[1.1 + 0.2j],
        )
        blob = fam[0].to_json()
        assert set(blob) >= {"t13", "s24", "gram_det4", "matrices", "traces"}
        assert len(blob["matrices"]) == 4
