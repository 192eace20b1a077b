"""Trace-form machinery for exhibiting positive-dimensional families.

Working numerically with matrices in G(t): Gram matrices of the pairing
s_ij = tr(abar_i abar_j) of trace-normalized matrices abar = a - (t/2)e,
construction of a third matrix with two prescribed pair traces,
completion of a fourth matrix from a vanishing 4x4 Gram determinant, and
the t13-parameterized family whose members are pairwise non-conjugate.

The Gram algebra is in closed form: determinants by cofactor expansion,
and the 4x4 conditions through the bordered-determinant identity
det [[S, s], [s^T, s44]] = s44 det S - s^T adj(S) s, which is quadratic in
s24 and gives the completing coefficients adj(S) s / det S.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ConditioningError,
    DomainError,
    GenericityError,
    InconsistencyError,
)
from .mat2 import IDENTITY, TOL, Mat2, kappa_of_trace, trace_of_product

#: |sqrt(t^2 - 4)| = |kappa - 1/kappa| below this is t = +-2, where a1
#: cannot be diagonalized
DIAG_FLOOR = 1e-6

#: bound on the extended 4x4 Gram determinant in `complete_fourth`,
#: relative to the scale of its entries
GRAM_DET_TOL = 1e-8

__all__ = [
    "GramData",
    "gram",
    "third_with_traces",
    "complete_fourth",
    "solve_s24",
    "witness_family",
    "WitnessSample",
]


def _bar(a: Mat2, t: complex) -> Mat2:
    return a.to_complex() - IDENTITY.scale(t / 2)


def _tr_prod(x: Mat2, y: Mat2) -> complex:
    return x.a11 * y.a11 + x.a12 * y.a21 + x.a21 * y.a12 + x.a22 * y.a22


Rows = tuple[tuple[complex, ...], ...]  # a square matrix, by rows


def _minor(m: Rows, i: int, j: int) -> Rows:
    """m without row i and column j."""
    return tuple(row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i)


def _det(m: Rows) -> complex:
    """Determinant by cofactor expansion along the first row; meant for the
    n <= 4 Gram matrices here."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * m[0][j] * _det(_minor(m, 0, j)) for j in range(len(m)))


def _adj(m: Rows) -> Rows:
    """Adjugate: adj[i][j] is the (j, i) cofactor."""
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j) * _det(_minor(m, j, i)) for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class GramData:
    """Pair-trace data of some matrices; det S and adj(S) are computed once,
    when first asked for, and shared by ``solve_s24`` and ``complete_fourth``."""

    matrices: tuple[Mat2, ...]
    traces: tuple[complex, ...]
    barred: tuple[Mat2, ...]
    S: Rows  # symmetric matrix of pair traces

    def det(self) -> complex:
        return self._det_S

    @cached_property
    def _det_S(self) -> complex:
        return _det(self.S)

    @cached_property
    def adj(self) -> Rows:
        """The adjugate of S."""
        return _adj(self.S)


def gram(matrices: list[Mat2], traces: list[complex]) -> GramData:
    """Pairing data s_ij = tr(abar_i abar_j); s_ii = t_i^2/2 - 2."""
    if len(matrices) != len(traces):
        raise DomainError("one trace per matrix required")
    for a, t in zip(matrices, traces):
        if abs(complex(a.trace()) - complex(t)) > TOL:
            raise DomainError("matrix trace does not match the stated value")
    barred = tuple(_bar(a, t) for a, t in zip(matrices, traces))
    n = len(barred)
    S = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = _tr_prod(barred[i], barred[j])
    return GramData(
        tuple(m.to_complex() for m in matrices),
        tuple(map(complex, traces)),
        barred,
        tuple(map(tuple, S)),
    )


def third_with_traces(a1: Mat2, a2: Mat2, t: complex, t13: complex, t23: complex) -> Mat2:
    """A matrix a3 in G(t) with tr(a1 a3) = t13 and tr(a2 a3) = t23.

    Works in a frame where a1 is diagonal with eigenvalue kappa; the
    diagonal of a3 is then forced and the off-diagonal entries solve a
    linear-plus-quadratic system.
    """
    if abs(t13 - t23) <= TOL or abs(t13 - (t * t - t23)) <= TOL:
        raise GenericityError("t13 must avoid {t23, t^2 - t23}")
    comm = (a1 @ a2 - a2 @ a1).norm()
    if comm <= TOL:
        raise DomainError("a1 and a2 must not commute")
    t = complex(t)
    kappa = kappa_of_trace(t)
    ki = 1 / kappa
    if abs(kappa - ki) < DIAG_FLOOR:
        raise ConditioningError("t too close to +-2 for diagonalization")
    c = _diagonalizer(a1.to_complex(), kappa)
    b2 = a2.to_complex().conj_by(c)

    b11 = (t13 - ki * t) / (kappa - ki)
    b22 = (kappa * t - t13) / (kappa - ki)
    rhs = t23 - b2.a11 * b11 - b2.a22 * b22
    dd = b11 * b22 - 1  # = b12 * b21 from det = 1
    b12, b21 = _solve_offdiag(b2.a12, b2.a21, rhs, dd)
    a3 = Mat2(b11, b12, b21, b22).conj_by(c.inv())
    for val, want in (
        (a3.trace(), t), (trace_of_product(a1, a3), t13), (trace_of_product(a2, a3), t23)
    ):
        if abs(complex(val) - complex(want)) > 1e-6:
            raise InconsistencyError("constructed a3 fails a trace check")
    return a3


def _diagonalizer(a: Mat2, kappa: complex) -> Mat2:
    """c with (c a c^{-1}) = d(kappa); columns of c^{-1} are eigenvectors."""
    vs = []
    for lam in (kappa, 1 / kappa):
        r1 = (a.a11 - lam, a.a12)
        r2 = (a.a21, a.a22 - lam)
        row = r1 if abs(r1[0]) + abs(r1[1]) >= abs(r2[0]) + abs(r2[1]) else r2
        if abs(row[0]) + abs(row[1]) <= TOL:
            vs.append((1.0, 0.0) if lam == kappa else (0.0, 1.0))
        else:
            vs.append((-row[1], row[0]))
    cinv = Mat2(vs[0][0], vs[1][0], vs[0][1], vs[1][1])
    d = complex(cinv.det())
    if abs(d) < 1e-9:
        raise ConditioningError("eigenvectors nearly parallel")
    s = cmath.sqrt(1 / d)
    cinv = cinv.scale(s)
    return cinv.inv()


def _solve_offdiag(
    a12: complex, a21: complex, rhs: complex, dd: complex
) -> tuple[complex, complex]:
    """Solve a12*b21 + a21*b12 = rhs, b12*b21 = dd."""
    if abs(a12) > 1e-9:
        # quadratic in b21: a12*x^2 - rhs*x + a21*dd = 0
        disc = cmath.sqrt(rhs * rhs - 4 * a12 * a21 * dd)
        for x in ((rhs + disc) / (2 * a12), (rhs - disc) / (2 * a12)):
            if abs(x) > 1e-9:
                return dd / x, x
            if abs(dd) <= 1e-9 and abs(a21) > 1e-9:
                return rhs / a21, 0.0
        raise ConditioningError("off-diagonal system nearly degenerate")
    if abs(a21) > 1e-9:
        b12, b21 = _solve_offdiag(a21, a12, rhs, dd)
        return b21, b12
    raise DomainError("a2 is diagonal in the a1-eigenframe (commuting pair)")


def complete_fourth(g: GramData, s14: complex, s24: complex, s34: complex, t4: complex) -> Mat2:
    """a4 = c1 abar_1 + c2 abar_2 + c3 abar_3 + (t4/2) e with prescribed
    pairings, c = adj(S) s / det S; requires the extended 4x4 Gram
    determinant s44 det S - s^T adj(S) s to vanish."""
    if len(g.matrices) != 3:
        raise DomainError("complete_fourth needs exactly three matrices")
    detS = g.det()
    if abs(detS) < 1e-6:
        raise GenericityError("barred matrices are not linearly independent")
    s4 = (complex(s14), complex(s24), complex(s34))
    s44 = t4 * t4 / 2 - 2
    adj_s = [sum(a * x for a, x in zip(row, s4)) for row in g.adj]
    d4 = s44 * detS - sum(x * y for x, y in zip(s4, adj_s))
    entries = [z for row in g.S for z in row] + [*s4, s44]
    scale = max(1.0, max(map(abs, entries)) ** 4)
    if abs(d4) > GRAM_DET_TOL * scale:
        raise InconsistencyError(
            f"extended Gram determinant must vanish; got {d4:.3e}"
        )
    a4 = IDENTITY.scale(t4 / 2)
    for y, bar in zip(adj_s, g.barred):
        a4 = a4 + bar.scale(y / detS)
    if abs(complex(a4.det()) - 1) > 1e-6:
        raise InconsistencyError("completed matrix is not unimodular")
    return a4


def solve_s24(
    g: GramData, s14: complex, s34: complex, t4: complex
) -> tuple[complex, complex]:
    """Both values of s24 making the extended Gram determinant vanish.

    The determinant s44 det S - s^T adj(S) s with s = (s14, s24, s34) is
    quadratic in s24, and adj(S) gives its coefficients.
    """
    adj = g.adj
    qa = -adj[1][1]
    qb = -2 * (adj[0][1] * s14 + adj[1][2] * s34)
    qc = (t4 * t4 / 2 - 2) * g.det() - (
        adj[0][0] * s14 * s14 + 2 * adj[0][2] * s14 * s34 + adj[2][2] * s34 * s34
    )
    if abs(qa) < 1e-9:
        raise DomainError("Gram determinant degenerates in s24 (not quadratic)")
    disc = cmath.sqrt(qb * qb - 4 * qa * qc)
    roots = sorted(
        ((-qb + disc) / (2 * qa), (-qb - disc) / (2 * qa)),
        key=lambda z: (z.real, z.imag),
    )
    return roots[0], roots[1]


@dataclass(frozen=True)
class WitnessSample:
    t13: complex
    quadruple: tuple[Mat2, Mat2, Mat2, Mat2]
    s24: complex
    gram_det3: complex
    gram_det4: complex

    def trace_table(self) -> dict:
        a1, a2, a3, a4 = self.quadruple
        return {
            "t13": trace_of_product(a1, a3),
            "t23": trace_of_product(a2, a3),
            "t14": trace_of_product(a1, a4),
            "t34": trace_of_product(a3, a4),
            "t24": trace_of_product(a2, a4),
            "t12": trace_of_product(a1, a2),
        }

    def to_json(self) -> dict:
        return {
            "t13": _c2l(self.t13),
            "s24": _c2l(self.s24),
            "gram_det3": _c2l(self.gram_det3),
            "gram_det4": _c2l(self.gram_det4),
            "matrices": [
                [_c2l(complex(x)) for x in m.entries()] for m in self.quadruple
            ],
            "traces": {k: _c2l(v) for k, v in self.trace_table().items()},
        }


def _c2l(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def witness_family(
    a1: Mat2,
    a2: Mat2,
    t: complex,
    t23: complex,
    t34: complex,
    t14: complex,
    t13_samples: list[complex],
) -> list[WitnessSample]:
    """One quadruple per admissible t13 value, pairwise non-conjugate; each
    takes the first root of ``solve_s24``.

    Side conditions: a1 and a2 lie in G(t), with trace t and determinant 1
    to within TOL, and do not commute; t avoids +-2 (|sqrt(t^2 - 4)| >=
    DIAG_FLOOR); t23, t34, t14 avoid {2, t^2 - 2}; the t13 values differ
    pairwise by more than TOL; each t13 avoids {t23, t^2 - t23} and keeps
    the 3x3 Gram determinant nonzero.
    """
    tc = complex(t)
    for name, a in (("a1", a1), ("a2", a2)):
        if abs(complex(a.trace()) - tc) > TOL or not a.in_G():
            raise GenericityError(f"{name} must have trace t and determinant 1")
    if (a1 @ a2 - a2 @ a1).norm() <= TOL:
        raise GenericityError("a1 and a2 must not commute")
    if abs(cmath.sqrt(tc * tc - 4)) < DIAG_FLOOR:
        raise GenericityError("t must avoid +-2")
    for name, val in (("t23", t23), ("t34", t34), ("t14", t14)):
        for bad in (2, t * t - 2):
            if abs(complex(val) - complex(bad)) <= TOL:
                raise GenericityError(f"{name} must avoid {{2, t^2 - 2}}")
    t13s = [complex(v) for v in t13_samples]
    if any(abs(a - b) <= TOL for i, a in enumerate(t13s) for b in t13s[:i]):
        raise GenericityError("t13 values must differ pairwise")
    out = []
    for t13 in t13_samples:
        a3 = third_with_traces(a1, a2, t, t13, t23)
        g = gram([a1, a2, a3], [t, t, t])
        s14 = t14 - t * t / 2
        s34 = t34 - t * t / 2
        s24 = solve_s24(g, s14, s34, t)[0]
        a4 = complete_fourth(g, s14, s24, s34, t)
        g4 = gram([a1, a2, a3, a4], [t, t, t, t])
        out.append(
            WitnessSample(
                complex(t13),
                (a1.to_complex(), a2.to_complex(), a3, a4),
                s24,
                g.det(),
                g4.det(),
            )
        )
    return out


def pairwise_gaps(samples: list[WitnessSample]) -> list[float]:
    """Infinity-norm gaps between the distinguishing traces tr(a1 a3)."""
    vals = [s.trace_table()["t13"] for s in samples]
    gaps = []
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            gaps.append(abs(vals[i] - vals[j]))
    return gaps
