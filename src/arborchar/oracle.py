"""Monte-Carlo verification of every symbolic formula against matrices.

Two independent pillars:

* explicit crossing-by-crossing builds of tangle representations (random
  strand matrices propagated through the over-strand conjugation rule,
  composite tangles glued by numerically solved conjugators), and
* direct samplers for the h/k matrix families.

Each suite draws per-sample RNG streams keyed by (suite, seed, index), so
runs are reproducible and order-independent, and `run_suite` spreads a
suite's samples over forked processes, one per usable CPU, that pull them
from one queue, with the report of a serial run.  The suite names are
`arborchar.SUITE_NAMES`, in the order of `_SUITES`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import marshal
import math
import os
import random
import signal
import threading
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter, mul

from . import RESIDUAL_TOL, SUITE_NAMES
from .errors import ConditioningError, DomainError
from .invariants import Presentation, base_invariants, closure_equations
from .mat2 import (
    IDENTITY,
    Mat2,
    cayley_power,
    chebyshev,  # noqa: F401  (unused here; perfbench/spans.py wraps oracle.chebyshev)
    closed_trace,
    decompose_pair,
    delta_two_trace,
    has_common_eigenvector,
    is_reducible,
    kappa_of_trace,
    special,
    trace_of_product,
)
from .tangle import (
    ClosureExpr,
    CompH,
    CompV,
    IntTwist,
    TangleExpr,
    VertTwist,
    expand_rational,  # noqa: F401  (unused here; perfbench/spans.py wraps it)
    parse,
)

__all__ = [
    "TangleRep",
    "SuiteReport",
    "sample_in_Gt",
    "conditioned_pair",
    "build_tangle_rep",
    "run_suite",
    "SUITE_NAMES",
]


# ---------------------------------------------------------------------------
# sampling in G(t)
# ---------------------------------------------------------------------------


def _crand(rng: random.Random, radius: float = 1.5) -> complex:
    # rng.uniform(-radius, radius) twice, inlined in its exact form
    # a + (b - a) * rng.random(), so the draws stay the same
    a, span = -radius, radius - -radius
    return complex(a + span * rng.random(), a + span * rng.random())


def sample_t(rng: random.Random) -> complex:
    """Generic trace value: |t| in [0.5, 3], away from 0 and +-2."""
    while True:
        t = _crand(rng, 2.2)
        if 0.5 <= abs(t) <= 3 and abs(t - 2) >= 0.3 and abs(t + 2) >= 0.3:
            return t


# draws sample_in_Gt makes before it gives up.  Every sampler keeps |t| <= 3,
# where about one draw in 18 is accepted; at |t| = 3.5 it is one in 400.
_GT_DRAWS = 20_000


def sample_in_Gt(t: complex, rng: random.Random) -> Mat2:
    """Random matrix with trace t and determinant 1.

    Entries are kept moderate so that products of several samples stay
    well-conditioned.  No such matrix exists for |t| > 4.4 and they are
    rare from |t| of about 3.8 on, so after a fixed number of draws this
    raises ConditioningError instead of drawing forever.
    """
    # a and b are _crand(rng) inlined, so |a|, |b| <= 1.5 * sqrt(2) < 2.2
    # and only c and d can break Mat2(a, b, c, d).norm() <= 2.2; a NaN
    # entry fails its comparison here as it fails the norm's
    rand = rng.random
    for _ in range(_GT_DRAWS):
        a = complex(-1.5 + 3.0 * rand(), -1.5 + 3.0 * rand())
        b = complex(-1.5 + 3.0 * rand(), -1.5 + 3.0 * rand())
        if abs(b) < 1e-3:
            continue
        d = t - a
        if abs(d) <= 2.2:
            c = (a * d - 1) / b
            if abs(c) <= 2.2:
                return Mat2(a, b, c, d)
    raise ConditioningError(
        f"no matrix with trace {complex(t):.4g} and entries of modulus <= 2.2 "
        f"in {_GT_DRAWS} draws"
    )


def conditioned_pair(t: complex, r: complex, rng: random.Random) -> tuple[Mat2, Mat2]:
    """(x, y) in G(t) x G(t) with tr(xy) = r."""
    rand = rng.random
    for _ in range(60):
        x = sample_in_Gt(t, rng)
        a = complex(-1.5 + 3.0 * rand(), -1.5 + 3.0 * rand())  # _crand(rng)
        d = t - a
        if not abs(d) <= 2.2:  # no moderate y has this a (nor a NaN d)
            continue
        # tr(xy) = r with y = [[a, b], [(ad-1)/b, d]]: quadratic in b
        ad1 = a * d - 1
        qa = complex(x.a21)
        qb = complex(x.a11) * a + complex(x.a22) * d - r
        qc = complex(x.a12) * ad1
        for b in _quad_roots(qa, qb, qc):
            if 1e-3 <= abs(b) <= 2.2:
                c = ad1 / b
                if abs(c) <= 2.2:
                    return x, Mat2(a, b, c, d)
    raise ConditioningError("could not condition a pair on tr(xy) = r")


def _quad_roots(qa: complex, qb: complex, qc: complex) -> list[complex]:
    if abs(qa) < 1e-12:
        if abs(qb) < 1e-12:
            return []
        return [-qc / qb]
    disc = cmath.sqrt(qb * qb - 4 * qa * qc)
    return [(-qb + disc) / (2 * qa), (-qb - disc) / (2 * qa)]


def sample_with_product(
    m: Mat2, t1: complex, t2: complex, rng: random.Random
) -> tuple[Mat2, Mat2]:
    """(a1, a2) with traces (t1, t2) and a1 @ a2 = m exactly."""
    m11, m12 = complex(m.a11), complex(m.a12)
    m21, m22 = complex(m.a21), complex(m.a22)
    for _ in range(60):
        if abs(m12) < 1e-12 and abs(m21) < 1e-12:
            # diagonal product: trace condition is linear in a1's diagonal
            if abs(m22 - m11) < 1e-9:
                raise DomainError("product +-e leaves the pair unconstrained")
            a = (m11 * t1 - t2) / (m11 - m22)
            b = _crand(rng)
            if abs(b) < 1e-3:
                continue
        else:
            a = _crand(rng)
            qa = -m21
            qb = (t1 - a) * m11 + a * m22 - t2
            qc = -m12 * (a * (t1 - a) - 1)
            roots = [b for b in _quad_roots(qa, qb, qc) if abs(b) >= 1e-3]
            if not roots:
                continue
            b = rng.choice(roots)
        c = (a * (t1 - a) - 1) / b
        a1 = Mat2(a, b, c, t1 - a)
        a2 = a1.inv() @ m
        if abs(complex(a2.trace()) - t2) < 1e-8:
            return a1, a2
    raise ConditioningError("could not condition a pair on its product")


# ---------------------------------------------------------------------------
# crossing-by-crossing tangle representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TangleRep:
    """End matrices of a built representation, all directed outward."""

    x_nw: Mat2
    x_ne: Mat2
    x_sw: Mat2
    x_se: Mat2
    t: complex
    region_traces: tuple[complex, ...] = ()

    def u(self) -> complex:
        return trace_of_product(self.x_nw, self.x_ne)

    def udot(self) -> complex:
        return trace_of_product(self.x_ne, self.x_se)

    def ugrave(self) -> complex:
        return trace_of_product(self.x_nw, self.x_se)

    def uacute(self) -> complex:
        return trace_of_product(self.x_sw, self.x_ne)

    def ucheck(self) -> complex:
        return self.ugrave() - self.uacute()

    def boundary_residual(self) -> float:
        prod = self.x_nw @ self.x_ne @ self.x_se @ self.x_sw
        return (prod - IDENTITY).norm()


# The over-strand conjugation rule fixes each crossing sign; these step
# maps are the frozen conventions (regression-tested against the closed
# twist-region forms, including the sign of u-check).
def _step_int(sign: int, top: Mat2, bot: Mat2) -> tuple[Mat2, Mat2]:
    if sign > 0:
        return top @ bot @ top.inv(), top
    return bot, bot.inv() @ top @ bot


def _step_vert(sign: int, left: Mat2, right: Mat2) -> tuple[Mat2, Mat2]:
    if sign > 0:
        return left.inv() @ right @ left, left
    return right, right @ left @ right.inv()


def twist_rep(atom: TangleExpr, x: Mat2, y: Mat2, t: complex) -> TangleRep:
    """Representation of [k] or [1/k] from its two entering strands."""
    sign = 1 if atom.k > 0 else -1
    r = trace_of_product(x, y)
    a, b = x, y
    for _ in range(abs(atom.k)):
        if isinstance(atom, IntTwist):
            a, b = _step_int(sign, a, b)
        else:
            a, b = _step_vert(sign, a, b)
    if isinstance(atom, IntTwist):
        return TangleRep(x.inv(), a, y.inv(), b, t, (r,))
    return TangleRep(x.inv(), y.inv(), a, b, t, (r,))


def _null_vector(rows: list[list[complex]]) -> list[complex]:
    """Unit v with rows @ v = 0 for rank-3 rows in 4 unknowns, by elimination
    with complete pivoting (reorders ``rows`` in place).  A pivot below 1e-6
    of the first (or of 1) means a rank below 3: ConditioningError."""
    cols = [0, 1, 2, 3]
    for s in range(3):
        i, j = max(itertools.product(range(s, len(rows)), range(s, 4)),
                   key=lambda ij: abs(rows[ij[0]][ij[1]]))
        rows[s], rows[i], cols[s], cols[j] = rows[i], rows[s], cols[j], cols[s]
        for row in rows:
            row[s], row[j] = row[j], row[s]
        if abs(rows[s][s]) < 1e-6 * max(1.0, abs(rows[0][0])):
            raise ConditioningError("conjugator not unique (nearly reducible pair)")
        for row in rows[s + 1:]:
            f = row[s] / rows[s][s]
            for c in range(s + 1, 4):
                row[c] -= f * rows[s][c]
    x = [0j, 0j, 0j, 1 + 0j]
    for s in (2, 1, 0):
        x[s] = -sum(rows[s][c] * x[c] for c in range(s + 1, 4)) / rows[s][s]
    norm = math.sqrt(math.fsum(abs(z) ** 2 for z in x))
    return [x[cols.index(c)] / norm for c in range(4)]


def _solve_conjugator(pairs: list[tuple[Mat2, Mat2]]) -> Mat2:
    """c with c@x@c^{-1} = target for every (x, target), via the null
    vector of the linearized system."""
    rows = []
    for x, tg in pairs:
        x11, x12, x21, x22 = (complex(v) for v in x.entries())
        t11, t12, t21, t22 = (complex(v) for v in tg.entries())
        rows.append([x11 - t11, x21, -t12, 0])
        rows.append([x12, x22 - t11, 0, -t12])
        rows.append([-t21, 0, x11 - t22, x21])
        rows.append([0, -t21, x12, x22 - t22])
    c = Mat2(*_null_vector(rows))
    det = complex(c.det())
    if abs(det) < 1e-8:
        raise ConditioningError("degenerate conjugator candidate")
    c = c.scale(1 / cmath.sqrt(det))
    for x, tg in pairs:
        if (c @ x @ c.inv() - tg).norm() > 1e-6 * (1 + tg.norm()):
            raise ConditioningError("conjugator residual too large")
    return c


def _glue(direction: str, r1: TangleRep, r2: TangleRep, t: complex) -> TangleRep:
    if direction == "v":
        pairs = [(r2.x_nw, r1.x_sw.inv()), (r2.x_ne, r1.x_se.inv())]
    else:
        pairs = [(r2.x_nw, r1.x_ne.inv()), (r2.x_sw, r1.x_se.inv())]
    c = _solve_conjugator(pairs)
    conj = lambda m: c @ m @ c.inv()
    if direction == "v":
        out = TangleRep(
            r1.x_nw, r1.x_ne, conj(r2.x_sw), conj(r2.x_se), t,
            r1.region_traces + r2.region_traces,
        )
    else:
        out = TangleRep(
            r1.x_nw, conj(r2.x_ne), r1.x_sw, conj(r2.x_se), t,
            r1.region_traces + r2.region_traces,
        )
    if out.boundary_residual() > 1e-6:
        raise ConditioningError("glued ends violate the boundary relation")
    return out


def _alpha_coeffs(k: int, t: complex) -> list[complex]:
    """Coefficients of alpha_k(r), highest first, built exactly: the integer
    polynomial p(r) = theta_k(-r) has p(-2) = 2, and alpha_k =
    (2t^2 + (r+2-t^2) p) / (r+2) = p + t^2 (2-p) / (r+2)."""
    prev, p = [2], [0, -1]  # theta_0(-r), theta_1(-r), lowest degree first
    for _ in range(abs(k) - 1):
        prev, p = p, [-a - b for a, b in itertools.zip_longest([0] + p, prev, fillvalue=0)]
    p.reverse()
    q = [0]  # (2 - p) / (r + 2) by synthetic division, aligned with p
    for a in p[:-1]:
        q.append(-a - 2 * q[-1])
    return [a + t * t * b for a, b in zip(p, q)]


#: most Aberth sweeps one root solve takes
_ABERTH_STEPS = 100


def _alpha_preimages(k: int, t: complex, v: complex) -> list[complex]:
    """All r with alpha_k(r) = v, in descending modulus, by Aberth's iteration
    (Bini, Numer. Algorithms 1996) from a circle around the roots.  A root
    stops once its residual is at the rounding level of its terms, then
    takes one Newton step; ConditioningError if one has not stopped after
    _ABERTH_STEPS sweeps."""
    c = _alpha_coeffs(k, t)
    c[-1] -= v
    c = [a / c[0] for a in c]
    n = len(c) - 1

    def horner(z: complex) -> tuple[complex, complex, float]:
        p, d, s, az = 1 + 0j, 0j, 1.0, abs(z)  # p(z), p'(z) and the sum of |terms|
        for a in c[1:]:
            p, d, s = p * z + a, d * z + p, s * az + abs(a)
        return p, d, s

    radius = max(abs(a) ** (1 / i) for i, a in enumerate(c) if i)
    zs = [radius * cmath.exp(1j * (2 * cmath.pi * i / n + 0.4)) for i in range(n)]
    active = set(range(n))
    for _ in range(_ABERTH_STEPS):
        if not active:
            break
        for i in list(active):
            z = zs[i]
            p, d, s = horner(z)
            if abs(p) <= 4 * n * 2.0**-52 * s:
                active.discard(i)
            elif den := d - p * sum(1 / (z - w) for j, w in enumerate(zs) if j != i):
                zs[i] = z - p / den
    if active:
        raise ConditioningError("alpha root iteration did not converge")
    zs = [z - p / d if d else z for z, (p, d, _) in zip(zs, map(horner, zs))]
    return sorted(zs, key=abs, reverse=True)


def _generic_param(rng: random.Random, t: complex) -> complex:
    while True:
        r = _crand(rng, 1.6)
        if min(abs(r - 2), abs(r + 2), abs(r - (t * t - 2))) >= 0.25:
            return r


#: most secant steps one root search takes
_SECANT_STEPS = 60

# secant steps without a new smallest |fn| after which the iteration has
# stalled or wandered off; a converging secant improves at every step
_SECANT_PATIENCE = 8


#: |fn| at which a secant search has found its root
_SECANT_TOL = 1e-11


def _secant(fn, s0: complex, s1: complex) -> complex:
    """Root of fn from two starting points.

    Returns the first iterate with |fn| < _SECANT_TOL.  When the iteration
    runs out of steps or stalls (see _SECANT_PATIENCE), returns the best
    iterate if |fn| < 1e-7 there, and raises ConditioningError otherwise.
    """
    f0 = fn(s0)
    if abs(f0) < _SECANT_TOL:
        return s0
    f1 = fn(s1)
    best, best_f = (s0, abs(f0)) if abs(f0) < abs(f1) else (s1, abs(f1))
    stale = 0
    for _ in range(_SECANT_STEPS):
        if abs(f1) < _SECANT_TOL:
            return s1
        if abs(f1 - f0) < 1e-15 or stale >= _SECANT_PATIENCE:
            break
        s0, s1, f0 = s1, s1 - f1 * (s1 - s0) / (f1 - f0), f1
        f1 = fn(s1)
        if abs(f1) < best_f:
            best, best_f, stale = s1, abs(f1), 0
        else:
            stale += 1
    if best_f < 1e-7:
        return best
    raise ConditioningError("secant iteration did not converge")


def build_tangle_rep(expr: TangleExpr, t: complex, rng: random.Random) -> TangleRep:
    """Random representation of an arborescent tangle.

    Twist regions are built from conditioned strand pairs; compositions
    prescribe the shared coordinate on both factors and glue with a solved
    conjugator.  Near-degenerate draws are rejected and resampled.
    """
    if isinstance(expr, ClosureExpr):
        raise DomainError("build_tangle_rep expects an open tangle")
    t = complex(t)
    reasons: Counter[str] = Counter()
    for _ in range(10):
        seed = rng.getrandbits(48)
        try:
            return _build(expr, t, seed, None, 0, {})
        except ConditioningError as exc:
            reasons[str(exc)] += 1
    named = "; ".join(f"{reason} (x{count})" for reason, count in reasons.items())
    raise ConditioningError(f"tangle build kept degenerating: {named}")


def _build(
    expr: TangleExpr,
    t: complex,
    seed: int,
    coord: str | None,
    value: complex,
    knobs: dict[int, complex],
) -> TangleRep:
    """Representation of ``expr`` drawn from ``seed``, with ``coord``
    prescribed to ``value`` when it is given.

    ``knobs`` maps the seed of each node whose coordinate was reached
    through its shared knob to the knob value found there last; the next
    build of that node starts its secant there.  A search that builds the
    same nodes at nearby values passes one map to all of them, so each knob
    follows one branch of solutions.
    """
    rng = random.Random(f"build:{seed}")
    if isinstance(expr, (IntTwist, VertTwist)):
        own = "udot" if isinstance(expr, IntTwist) else "u"
        if coord is None:
            r = _generic_param(rng, t)
        elif coord == own:
            r = value
        else:
            roots = [
                z for z in _alpha_preimages(expr.k, t, value)
                if min(abs(z - 2), abs(z + 2), abs(z - (t * t - 2))) >= 1e-4
            ]
            if not roots:
                raise ConditioningError("no admissible twist parameter")
            r = roots[rng.randrange(len(roots))]
        x, y = conditioned_pair(t, r, rng)
        return twist_rep(expr, x, y, t)

    direction = "v" if isinstance(expr, CompV) else "h"
    shared = "u" if direction == "v" else "udot"
    sl, sr = rng.getrandbits(48), rng.getrandbits(48)

    def mk(s: complex) -> TangleRep:
        left = _build(expr.left, t, sl, shared, s, knobs)
        right = _build(expr.right, t, sr, shared, s, knobs)
        return _glue(direction, left, right, t)

    if coord == shared:
        return mk(value)
    if coord is None:
        return mk(_generic_param(rng, t))
    # prescribe the non-shared coordinate through the shared knob
    getter = (lambda rep: rep.udot()) if coord == "udot" else (lambda rep: rep.u())
    s0 = _generic_param(rng, t)
    s1 = s0 + 0.1 + 0.07j
    if seed in knobs:
        s0 = knobs[seed]
        s1 = s0 + 1e-4 + 0.7e-4j
    knobs[seed] = _secant(lambda s: getter(mk(s)) - value, s0, s1)
    return mk(knobs[seed])


# ---------------------------------------------------------------------------
# h-parameterized end quadruples
# ---------------------------------------------------------------------------


def h_quadruple(t: complex, lam: complex, mu: complex, nu: complex) -> TangleRep:
    """End quadruple with g = x_nw x_ne = d(lam), so u = lam + 1/lam."""
    h = lambda m: special("h1", t, lam, m)
    return TangleRep(
        h(-lam * nu), h(nu), h(-lam * mu).inv(), h(mu).inv(), t
    )


def dot_quadruple(t: complex, lam: complex, mu: complex, nu: complex) -> TangleRep:
    """End quadruple with g-dot = x_ne x_se = d(lam)."""
    h = lambda m: special("h1", t, lam, m)
    return TangleRep(
        h(-lam * nu).inv(), h(-lam * mu), h(nu).inv(), h(mu), t
    )


def _sample_lam(rng: random.Random, t: complex) -> complex:
    """lam with u = lam + 1/lam away from +-2 and t^2 - 2."""
    while True:
        lam = _crand(rng, 1.6)
        if abs(lam) < 0.3 or abs(lam) > 2.5:
            continue
        u = lam + 1 / lam
        if min(abs(u - 2), abs(u + 2), abs(u - (t * t - 2))) >= 0.25:
            return lam


def _nonzero(rng: random.Random) -> complex:
    while True:
        z = _crand(rng)
        if 0.1 <= abs(z) <= 2.5:
            return z


# the cube roots of unity; Cardano's formula turns one cube root into three
_OMEGA = complex(-0.5, 3**0.5 / 2)
_UNITY = (1, _OMEGA, _OMEGA.conjugate())


def _cubic_family(a: complex, b: complex):
    """The roots of the monic cubic x^3 + a x^2 + b x + c as a function of c.

    Cardano's formula on the depressed cubic y^3 + p y + q, x = y - a/3,
    taking the square-root branch that avoids cancellation in -q/2 +- s;
    each root is then polished by one Newton step on the original cubic.
    The terms that do not depend on c are computed once, here.
    """
    p = b - a * a / 3
    k = (2 * a * a - 9 * b) * a / 27  # q = k + c
    p3 = p * p * p / 27
    a3, a2 = a / 3, 2 * a

    def roots(c: complex) -> list[complex]:
        q = k + c
        s = cmath.sqrt(q * q / 4 + p3)
        h = -q / 2
        w = max(h + s, h - s, key=abs)
        u = w ** (1 / 3)
        if u:
            ys = [u * z - p / (3 * u * z) for z in _UNITY]
        else:  # p = q = 0: a triple root
            ys = [0j, 0j, 0j]
        out = []
        for y in ys:
            x = y - a3
            d = (3 * x + a2) * x + b
            if d:
                x -= (((x + a) * x + b) * x + c) / d
            out.append(x)
        return out

    return roots


class _NumericPoly:
    """A polynomial compiled once for numeric evaluation.

    ``names`` holds its variables and ``scale`` the largest coefficient
    modulus, at least 1.  Calling it at a point (a map from variable name
    to value) gives the polynomial's value there.

    The variables are split into two halves, and each term into its parts
    over them, the coefficient going with the second.  The polynomial is
    the sum, over first parts f, of f times the sum of the second parts
    that go with f.  A call builds each half's distinct parts from
    per-variable power tables in C-level ``map`` calls, and adds both
    levels of sums with ``math.fsum``, which rounds each sum once.  At
    points of the pretzel link's variety the terms of its large equation
    are up to about 10^6 times its coefficient scale and cancel, so these
    exact sums leave only the rounding of the parts in the residual.
    """

    def __init__(self, poly) -> None:
        # two passes over the terms, so that no per-term copy is kept
        cols: dict[str, int] = {}
        for powers, _ in poly.named_terms():
            for name in powers:
                cols.setdefault(name, len(cols))
        self.names = tuple(cols)
        first, second = self.names[: len(cols) // 2], self.names[len(cols) // 2:]
        # each first part -> the positions of its terms' second parts, and
        # each second part, as (exponents, coefficient) -> its position
        runs: dict[tuple, list[int]] = {}
        seconds: dict[tuple, int] = {}
        for powers, coef in poly.named_terms():
            key = (tuple([powers.get(name, 0) for name in second]), coef)
            run = runs.setdefault(tuple([powers.get(name, 0) for name in first]), [])
            run.append(seconds.setdefault(key, len(seconds)))
        # one getter per first part, for its second parts and a final 0.0,
        # which keeps the result a tuple for a single second part
        self._gets = [itemgetter(*run, len(seconds)) for run in runs.values()]
        # per half: the start values, and (name, top power, column) per variable
        self._groups = [
            (starts, [(name, max(col), col) for name, col in zip(names, zip(*exps))])
            for names, starts, exps in (
                (first, [1 + 0j] * len(runs), runs),
                (second, [complex(c) for _, c in seconds], [e for e, _ in seconds]),
            )
        ]
        self.scale = max([1.0, *map(abs, self._groups[1][0])])

    def __call__(self, point) -> complex:
        parts = []
        for values, columns in self._groups:
            for name, top, col in columns:
                v = complex(point[name])
                powers = list(itertools.accumulate(itertools.repeat(v, top), mul, initial=1 + 0j))
                values = list(map(mul, values, map(powers.__getitem__, col)))
            parts.append(values)
        left, right = parts
        reals = [*map(attrgetter("real"), right), 0.0]
        imags = [*map(attrgetter("imag"), right), 0.0]
        sums = [complex(math.fsum(get(reals)), math.fsum(get(imags))) for get in self._gets]
        terms = list(map(mul, left, sums))
        return complex(math.fsum(map(attrgetter("real"), terms)),
                       math.fsum(map(attrgetter("imag"), terms)))


def _f_num(t, a, b1, c1, b2, c2):
    return ((a + 2) * b1 * b2 + 2 * t * t * (2 - b1 - b2) + c1 * c2 / (a - 2)) / (
        2 * (a + 2 - t * t)
    )


def _g_num(t, a, b1, c1, b2, c2):
    return ((a + 2) * (b1 * c2 + b2 * c1) - 2 * t * t * (c1 + c2)) / (
        2 * (a + 2 - t * t)
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _rel(err: float, scale: float) -> float:
    return err / max(1.0, scale)


def _worst(*parts: float) -> float:
    """The largest of a residual's parts, or NaN if any part is NaN (``max``
    keeps a NaN only when it comes first)."""
    return math.nan if any(map(math.isnan, parts)) else max(parts)


def _suite_identities(rng: random.Random) -> float:
    t = sample_t(rng)
    lam = _sample_lam(rng, t)
    mu, nu = _nonzero(rng), _nonzero(rng)
    q = h_quadruple(t, lam, mu, nu)
    u, ud = q.u(), q.udot()
    ug, ua, uc = q.ugrave(), q.uacute(), q.ucheck()
    t2 = t * t
    scale = max(abs(u), abs(ud), abs(ug), abs(ua), abs(t2)) ** 2 + abs(t2) ** 2
    res = [
        abs(ug + ua + u * ud - 2 * t2),
        abs(uc**2 - (u - 2) * (ud - 2) * ((u + 2) * (ud + 2) - 4 * t2)),
        abs(
            u**2 + ud**2 + ug**2 + u * ud * ug
            - 2 * t2 * (u + ud + ug) + t2**2 + 4 * t2 - 4
        ),
        abs((ug - 2) * (ua - 2) - (u + ud - t2) ** 2),
        # parametrized form of u-dot, validating the sign conventions
        abs((u + 2) * ud - 2 * t2 - (u + 2 - t2) * (nu / mu + mu / nu)),
        abs(complex((q.x_nw @ q.x_ne - special("d", lam)).norm())),
    ]
    return _worst(*[_rel(e, scale) for e in res])


def _suite_tr_h(rng: random.Random) -> float:
    t = sample_t(rng)
    lam = _sample_lam(rng, t)
    mu, nu = _nonzero(rng), _nonzero(rng)
    h = lambda m: special("h1", t, lam, m)
    direct = trace_of_product(h(mu).inv(), h(nu))
    closed = complex(closed_trace("h1_inv_h1", t=t, lam=lam, mu=mu, nu=nu))
    res = abs(direct - closed)

    # two-trace closed forms over the h2/k2 families
    t1, tt2 = sample_t(rng), sample_t(rng)
    lam2 = _sample_lam(rng, t1)
    m2, n2 = _nonzero(rng), _nonzero(rng)
    h2a = lambda m: special("h2", t1, tt2, lam2, m)
    h2b = lambda m: special("h2", tt2, t1, lam2, m)
    res = _worst(
        res,
        abs(
            trace_of_product(h2a(m2).inv(), h2a(n2))
            - complex(closed_trace("h2_inv_h2_same", t1=t1, t2=tt2, lam=lam2, mu=m2, nu=n2))
        ),
        abs(
            trace_of_product(h2a(m2).inv(), h2b(n2))
            - complex(closed_trace("h2_inv_h2_swapped", t1=t1, t2=tt2, lam=lam2, mu=m2, nu=n2))
        ),
    )
    al, be = _crand(rng), _crand(rng)
    if abs(t1 + tt2) > 0.2:
        k2a = lambda x: special("k2", t1, tt2, x)
        k2b = lambda x: special("k2", tt2, t1, x)
        res = _worst(
            res,
            abs(
                trace_of_product(k2a(al).inv(), k2a(be))
                - complex(closed_trace("k2_inv_k2_same", alpha=al, beta=be))
            ),
            abs(
                trace_of_product(k2a(al).inv(), k2b(be))
                - complex(closed_trace("k2_inv_k2_swapped", t1=t1, t2=tt2, alpha=al, beta=be))
            ),
        )
    return _rel(res, 10.0)


def _suite_power(rng: random.Random) -> float:
    r = sample_t(rng)
    z = sample_in_Gt(r, rng)
    res = 0.0
    direct = IDENTITY
    # accumulate the inverse from z^{-1} directly: inverting the full power
    # loses digits to cancellation in its determinant
    zi = z.inv()
    neg = IDENTITY
    for n in range(1, 9):
        direct = direct @ z
        res = _worst(res, (direct - cayley_power(z, n)).norm() / max(1.0, direct.norm()))
        neg = neg @ zi
        res = _worst(res, (neg - cayley_power(z, -n)).norm() / max(1.0, neg.norm()))
    return res


def _pair_error(a1: Mat2, a2: Mat2, rep) -> float:
    r1, r2 = rep.rebuilt
    if rep.sign_flipped:
        r1 = -r1
    return _worst((r1 - a1).norm(), (r2 - a2).norm())


def _suite_key(rng: random.Random) -> float:
    t = sample_t(rng)
    res = 0.0
    # (a) product d(lam)
    lam = _sample_lam(rng, t)
    a1, a2 = sample_with_product(special("d", lam), t, t, rng)
    res = _worst(res, _pair_error(a1, a2, decompose_pair(a1, a2, t, t)))
    # (b) product +p
    kap = kappa_of_trace(t)
    xi = _crand(rng)
    b1, b2 = special("u_plus", 1 / kap, xi), special("u_plus", kap, kap - xi)
    res = _worst(res, (b1 @ b2 - special("p")).norm())
    res = _worst(res, _pair_error(b1, b2, decompose_pair(b1, b2, t, t)))
    # (c) product -p
    al = _crand(rng)
    c1, c2 = special("k1", t, al), special("k1", t, al - t)
    res = _worst(res, (c1 @ c2 + special("p")).norm())
    res = _worst(res, _pair_error(c1, c2, decompose_pair(c1, c2, t, t)))
    return _rel(res, 10.0)


def _suite_key2(rng: random.Random) -> float:
    t1 = sample_t(rng)
    t2 = sample_t(rng)
    if abs(t1 - t2) < 0.2 or abs(t1 + t2) < 0.2:
        t2 = t2 + 0.5
    res = 0.0
    kap1, kap2 = kappa_of_trace(t1), kappa_of_trace(t2)
    # (a) product d(lam), generic lam
    while True:
        lam = _sample_lam(rng, t1)
        if min(abs(lam - kap1**e1 * kap2**e2) for e1 in (1, -1) for e2 in (1, -1)) > 0.1:
            break
    a1, a2 = sample_with_product(special("d", lam), t1, t2, rng)
    res = _worst(res, _pair_error(a1, a2, decompose_pair(a1, a2, t1, t2)))
    # (b) product d(kappa1^e1 kappa2^e2), both triangular forms
    e1, e2 = rng.choice([1, -1]), rng.choice([1, -1])
    al = _nonzero(rng)
    k1e, k2e = kap1**e1, kap2**e2
    b1 = special("u_plus", k1e, -k1e * al)
    b2 = special("u_plus", k2e, al / k2e)
    res = _worst(res, _pair_error(b1, b2, decompose_pair(b1, b2, t1, t2)))
    b1m = special("u_minus", k1e, -al / k1e)
    b2m = special("u_minus", k2e, k2e * al)
    res = _worst(res, _pair_error(b1m, b2m, decompose_pair(b1m, b2m, t1, t2)))
    # (c) product -p with t1 + t2 = 0
    eps = rng.choice([1, -1])
    xi = _crand(rng)
    c2 = special("u_plus", kap2**eps, xi + kap2**eps)
    c1 = special("u_plus", -(kap2 ** (-eps)), xi)
    res = _worst(res, (c1 @ c2 + special("p")).norm())
    res = _worst(res, _pair_error(c1, c2, decompose_pair(c1, c2, -t2, t2)))
    # (d) product -p with t1 + t2 != 0
    d1, d2 = sample_with_product(-special("p"), t1, t2, rng)
    res = _worst(res, _pair_error(d1, d2, decompose_pair(d1, d2, t1, t2)))
    # +p through the sign trick
    f1, f2 = sample_with_product(special("p"), t1, t2, rng)
    rep = decompose_pair(f1, f2, t1, t2)
    res = _worst(res, 0.0 if rep.sign_flipped else 1.0, _pair_error(f1, f2, rep))
    return _rel(res, 10.0)


def _suite_reducible(rng: random.Random) -> float:
    t1 = sample_t(rng)
    t2 = sample_t(rng) if rng.random() < 0.5 else t1
    mode = rng.randrange(3)
    if mode == 0:
        a1, a2 = sample_in_Gt(t1, rng), sample_in_Gt(t2, rng)
    elif mode == 1:
        # shared eigenvector: conjugated upper-triangular pair
        c = sample_in_Gt(sample_t(rng), rng)
        a1 = c @ special("u_plus", kappa_of_trace(t1), _crand(rng)) @ c.inv()
        a2 = c @ special("u_plus", kappa_of_trace(t2), _crand(rng)) @ c.inv()
    else:
        # single-trace pair on the reducibility locus tr(xy) in {2, t^2-2}
        t2 = t1
        r = 2 if rng.random() < 0.5 else t1 * t1 - 2
        a1, a2 = conditioned_pair(t1, r, rng)
    flag = is_reducible(a1, a2)
    eig = has_common_eigenvector(a1, a2)
    return 0.0 if flag == eig else 1.0


def _suite_base(rng: random.Random) -> float:
    t = sample_t(rng)
    res = 0.0
    for k in (1, -1, 2, -2, 3, -3, 4, -4):
        for atom in (IntTwist(k), VertTwist(k)):
            r = _generic_param(rng, t)
            x, y = conditioned_pair(t, r, rng)
            rep = twist_rep(atom, x, y, t)
            data = base_invariants(atom, var_name="r")
            pt = {"t": t, "r": r}
            exp_u = complex(data.u.eval_numeric(pt))
            exp_ud = complex(data.udot.eval_numeric(pt))
            exp_uc = complex(data.ucheck.eval_numeric(pt))
            scale = max(abs(exp_u), abs(exp_ud), abs(exp_uc), 1.0)
            res = _worst(
                res,
                abs(rep.u() - exp_u) / scale,
                abs(rep.udot() - exp_ud) / scale,
                abs(rep.ucheck() - exp_uc) / scale,
                *_end_residuals(rep),
            )
    return res


def _end_residuals(rep: TangleRep) -> tuple[float, float]:
    """x_nw x_ne x_se x_sw = 1 and tr(x_nw x_sw) = u-dot, each relative to
    the largest end matrix's norm squared, the scale of their rounding."""
    scale = max(m.norm() for m in (rep.x_nw, rep.x_ne, rep.x_sw, rep.x_se)) ** 2
    trace = abs(trace_of_product(rep.x_nw, rep.x_sw) - rep.udot())
    return _rel(rep.boundary_residual(), scale), _rel(trace, scale)


def _suite_compose(rng: random.Random) -> float:
    t = sample_t(rng)
    lam = _sample_lam(rng, t)
    mu1, nu1, mu2 = _nonzero(rng), _nonzero(rng), _nonzero(rng)
    res = 0.0
    # *v: factors share g = d(lam); the matched frame needs nu2 = mu1
    q1 = h_quadruple(t, lam, mu1, nu1)
    q2 = h_quadruple(t, lam, mu2, mu1)
    res = _worst(res, (q2.x_nw - q1.x_sw.inv()).norm())
    comp = TangleRep(q1.x_nw, q1.x_ne, q2.x_sw, q2.x_se, t)
    a = q1.u()
    fd = _f_num(t, a, q1.udot(), q1.ucheck(), q2.udot(), q2.ucheck())
    gd = _g_num(t, a, q1.udot(), q1.ucheck(), q2.udot(), q2.ucheck())
    scale = max(abs(fd), abs(gd), 1.0)
    res = _worst(res, abs(comp.udot() - fd) / scale, abs(comp.ucheck() - gd) / scale)
    # *h: factors share g-dot = d(lam)
    p1 = dot_quadruple(t, lam, mu1, nu1)
    p2 = dot_quadruple(t, lam, mu2, mu1)
    res = _worst(res, (p2.x_nw - p1.x_ne.inv()).norm())
    comph = TangleRep(p1.x_nw, p2.x_ne, p1.x_sw, p2.x_se, t)
    ad = p1.udot()
    fh = _f_num(t, ad, p1.u(), p1.ucheck(), p2.u(), p2.ucheck())
    gh = _g_num(t, ad, p1.u(), p1.ucheck(), p2.u(), p2.ucheck())
    scale = max(abs(fh), abs(gh), 1.0)
    res = _worst(res, abs(comph.u() - fh) / scale, abs(comph.ucheck() - gh) / scale)
    return res


def _suite_convenient(rng: random.Random) -> float:
    t = sample_t(rng)
    lam = _sample_lam(rng, t)
    mu1, nu1 = _nonzero(rng), _nonzero(rng)
    q1 = h_quadruple(t, lam, mu1, nu1)
    res = 0.0
    # forward: mu2 = nu1 makes g-dot of the composite the identity
    q2 = h_quadruple(t, lam, nu1, mu1)
    gdot = q1.x_ne @ q2.x_se
    res = _worst(res, _rel((gdot - IDENTITY).norm(), 1.0))
    res = _worst(res, _rel(abs(q1.udot() - q2.udot()), abs(q1.udot())))
    res = _worst(res, _rel(abs(q1.ucheck() + q2.ucheck()), abs(q1.ucheck())))
    # converse: impose udot2 = udot1, ucheck2 = -ucheck1 and recover mu2
    dl = lam - 1 / lam
    u = q1.u()
    ratio = ((u + 2) * (q1.udot() - q1.ucheck() / dl) - 2 * t * t) / (
        2 * (u + 2 - t * t)
    )
    q2c = h_quadruple(t, lam, ratio * mu1, mu1)
    res = _worst(res, _rel(abs(q2c.udot() - q1.udot()), abs(q1.udot())))
    res = _worst(res, _rel(abs(q2c.ucheck() + q1.ucheck()), abs(q1.ucheck())))
    gdot_c = q1.x_ne @ q2c.x_se
    res = _worst(res, _rel((gdot_c - IDENTITY).norm(), 1.0))
    return res


_PRESENTATION_CORPUS = (
    "D([1/1] *v [1/2])",
    "D([1/2] *v [1/3])",
    "N([2] *h [3])",
    "D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))",
)


def _closure_rep(c: ClosureExpr, rng: random.Random):
    """Newton search (over t and the shared coordinate) for a representation
    of the closed-up diagram, using the trace form of the closure condition."""
    body = c.body
    direction = "v" if c.kind == "D" else "h"
    shared = "u" if direction == "v" else "udot"
    sl, sr = rng.getrandbits(48), rng.getrandbits(48)
    knobs: dict[int, complex] = {}  # warm starts, for this search only

    def factors(t: complex, s: complex):
        left = _build(body.left, t, sl, shared, s, knobs)
        right = _build(body.right, t, sr, shared, s, knobs)
        return left, right

    def F(t: complex, s: complex) -> tuple[complex, complex]:
        l, r = factors(t, s)
        if direction == "v":
            return l.udot() - r.udot(), l.ucheck() + r.ucheck()
        return l.u() - r.u(), l.ucheck() + r.ucheck()

    t = sample_t(rng)
    s = _generic_param(rng, t)
    for _ in range(40):
        f1, f2 = F(t, s)
        if _worst(abs(f1), abs(f2)) < 1e-10:
            l, r = factors(t, s)
            return _glue(direction, l, r, t), t
        eps = 1e-6
        # the forward-difference Jacobian [[a, b], [c, d]], and Cramer's rule
        # for the Newton step (dt, ds) that solves J step = -f
        (g1, g2), (h1, h2) = F(t + eps, s), F(t, s + eps)
        a, b, c, d = (g1 - f1) / eps, (h1 - f1) / eps, (g2 - f2) / eps, (h2 - f2) / eps
        det = a * d - b * c
        if not det:
            raise ConditioningError("closure Newton search hit a singular Jacobian")
        dt, ds = (b * f2 - d * f1) / det, (c * f1 - a * f2) / det
        big = max(abs(dt), abs(ds))
        if big > 2.0:
            dt, ds = dt / big * 2.0, ds / big * 2.0
        t, s = t + dt, s + ds
    raise ConditioningError("closure Newton search did not converge")


@functools.lru_cache(maxsize=len(_PRESENTATION_CORPUS))
def _corpus_presentation(text: str) -> tuple[Presentation, tuple[_NumericPoly, ...]]:
    """The presentation of a corpus knot and its compiled equations."""
    pres = closure_equations(parse(text))
    return pres, tuple(map(_NumericPoly, pres.equations))


def _suite_presentation(rng: random.Random) -> float:
    text = _PRESENTATION_CORPUS[rng.randrange(len(_PRESENTATION_CORPUS))]
    c = parse(text)
    pres, equations = _corpus_presentation(text)
    rep, t = _closure_rep(c, rng)
    point = {"t": t}
    for name, pos in zip(pres.variables[1:], pres.regions):
        point[name] = rep.region_traces[pos]
    res = 0.0
    for eq in equations:
        res = _worst(res, abs(eq(point)) / eq.scale)
    return _worst(res, *_end_residuals(rep))


@functools.lru_cache(maxsize=1)
def _pretzel_pres() -> tuple[tuple[_NumericPoly, ...], tuple[_NumericPoly, ...]]:
    """The compiled equations and exclusions of the pretzel (3,3,3,3) link."""
    from .links import pretzel3333_presentation

    pres = pretzel3333_presentation()
    return tuple(map(_NumericPoly, pres.equations)), tuple(map(_NumericPoly, pres.exclusions))


#: most Newton steps one pretzel lam search takes from its start
_LAM_STEPS = 30

#: a Newton step moves lam by at most this fraction of |lam|: far out,
#: log prod rho grows only like log |lam|, so a full step would be about
#: |lam| log |lam| long and overshoot
_LAM_STEP_CAP = 0.5

#: |log prod rho| at which a lam search has found a variety point
_LAM_TOL = 1e-12

#: most Newton steps that carry one cubic root to the next lam
_ROOT_STEPS = 8

#: starts of a pretzel lam search, each from its own drawn lam, per attempt
_LAM_STARTS = 25


def _polish_root(r: complex, a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """The root of x^3 + a x^2 + b x + c that Newton's method reaches from r,
    and the cubic's derivative there.

    Newton stops once the residual is at the rounding level of the cubic's
    terms; ConditioningError if it meets a zero derivative or has not
    stopped after _ROOT_STEPS steps."""
    za, zb, zc = abs(a), abs(b), abs(c)
    for _ in range(_ROOT_STEPS):
        d = (3 * r + 2 * a) * r + b
        if not d:
            raise ConditioningError("tracked cubic root at a zero of the derivative")
        p = ((r + a) * r + b) * r + c
        z = abs(r)
        if abs(p) <= 12 * 2.0**-52 * (((z + za) * z + zb) * z + zc):
            return r, d
        r -= p / d
    raise ConditioningError("tracked cubic root did not converge")


def _rho_numerator(t1: complex, t2: complex, lam: complex, r: complex):
    """N(r) of the pretzel's mu-ratio rho = N(r) / delta(lam), with its
    partial derivatives in lam and in r."""
    li = 1 / lam
    ld, lb = lam - li, li - t1 * t2
    q = r * r + lb * r - 2
    s12 = t1 * t1 + t2 * t2
    n = ld * q + lam * s12 - 2 * t1 * t2
    return n, (1 + li * li) * q - ld * li * li * r + s12, ld * (2 * r + lb)


def _pretzel_point(t1: complex, t2: complex, picks: list[int], rng: random.Random):
    """A point (lam, [r_1, .., r_4]) of the pretzel link's variety: each r_i
    the cubic's root number picks[i] (sorted by (real, imag)) at a drawn lam,
    carried along lam, and prod N(r_i) / delta = 1.

    From each of _LAM_STARTS drawn starts this runs Newton's method on
    log prod rho, which is zero exactly where the product is 1, with the
    derivative of each root from the cubic (path tracking; Allgower and
    Georg, Introduction to Numerical Continuation Methods, 2003).  Every
    root is polished at every lam.  lam = +-1 solves prod rho = 1 on every
    branch, so a search that drifts there is abandoned, as is a point with
    delta or tau^2 - 4 too small to realize."""
    a, b = -t1 * t2, t1 * t1 + t2 * t2 - 3
    cubic = _cubic_family(a, b)
    for _ in range(_LAM_STARTS):
        lam = _sample_lam(rng, t1)
        try:
            roots = sorted(cubic(a + lam + 1 / lam), key=lambda z: (z.real, z.imag))
            tracked = {p: roots[p] for p in picks}  # the distinct picked roots
            for _ in range(_LAM_STEPS):
                if min(abs(lam - 1), abs(lam + 1), abs(lam)) < 0.04:
                    raise ConditioningError("lam drifted to a degenerate value")
                li = 1 / lam
                tau = lam + li
                dl = complex(delta_two_trace(t1, t2, lam))
                ddl = (1 - li * li) * t1 * t2 - 2 * (lam - li) * (1 + li * li)
                # N and dN/dlam per root; the cubic moves with tau, so
                # dr/dlam = -(1 - 1/lam^2) / C'(r)
                terms = {}
                for p, r in tracked.items():
                    tracked[p], dc = _polish_root(r, a, b, a + tau)
                    n, dn_lam, dn_r = _rho_numerator(t1, t2, lam, tracked[p])
                    terms[p] = n, dn_lam - dn_r * (1 - li * li) / dc
                prod = math.prod(terms[p][0] for p in picks)
                if not (prod and dl):
                    raise ConditioningError("prod rho is zero or infinite")
                g = cmath.log(prod / dl**4)
                if abs(g) < _LAM_TOL:
                    if abs(dl) > 0.05 and abs(tau * tau - 4) > 0.05:
                        return lam, [tracked[p] for p in picks]
                    break
                dg = sum(terms[p][1] / terms[p][0] for p in picks) - 4 * ddl / dl
                if not dg:
                    raise ConditioningError("log prod rho has a zero derivative")
                step = -g / dg
                if abs(step) > _LAM_STEP_CAP * abs(lam):
                    step *= _LAM_STEP_CAP * abs(lam) / abs(step)
                lam += step
        except ConditioningError:
            pass
    raise ConditioningError("no pretzel variety point found")


def _suite_pretzel(rng: random.Random) -> float:
    t1 = sample_t(rng)
    t2 = sample_t(rng)
    picks = [rng.randrange(3) for _ in range(4)]
    lam, rs = _pretzel_point(t1, t2, picks, rng)
    tau = lam + 1 / lam
    dl = complex(delta_two_trace(t1, t2, lam))
    nums = [_rho_numerator(t1, t2, lam, r)[0] for r in rs]

    # realize the point by explicit matrices and re-measure everything
    mus = [1.0 + 0j]
    for i in range(3):
        mus.append(mus[-1] * dl / nums[i])
    xs = []
    for i, mu in enumerate(mus):
        if i % 2 == 0:
            nw = special("h2", t1, t2, lam, -lam * mu)
            ne = special("h2", t2, t1, lam, mu)
        else:
            nw = special("h2", t2, t1, lam, -lam * mu)
            ne = special("h2", t1, t2, lam, mu)
        xs.append((nw, ne))
    res = 0.0
    for i in range(4):
        nw, ne = xs[i]
        nw_n, ne_n = xs[(i + 1) % 4]
        res = _worst(res, _rel((nw @ ne - special("d", lam)).norm(), 1.0))
        r_meas = trace_of_product(ne_n.inv(), ne)
        res = _worst(res, _rel(abs(r_meas - rs[i]), abs(rs[i])))
        uc_meas = trace_of_product(ne_n.inv(), nw) - trace_of_product(nw_n.inv(), ne)
        two_form = 2 * rs[i] ** 2 + (tau - 2 * t1 * t2) * rs[i] + t1 * t1 + t2 * t2 - 4
        res = _worst(res, _rel(abs(uc_meas - two_form), abs(two_form)))

    equations, exclusions = _pretzel_pres()
    point = {
        "t1": t1, "t2": t2, "tau": tau, "lam": lam,
        "r1": rs[0], "r2": rs[1], "r3": rs[2], "r4": rs[3],
    }
    for eq in equations:
        res = _worst(res, abs(eq(point)) / max(eq.scale, abs(dl) ** 4))
    for ex in exclusions:
        if abs(ex(point)) < 1e-8:
            res = _worst(res, 1.0)
    return res


_SUITES = {
    "identities": _suite_identities,
    "tr-h": _suite_tr_h,
    "power": _suite_power,
    "key": _suite_key,
    "key2": _suite_key2,
    "base": _suite_base,
    "compose": _suite_compose,
    "convenient": _suite_convenient,
    "reducible": _suite_reducible,
    "presentation": _suite_presentation,
    "pretzel": _suite_pretzel,
}

# heavier suites get fewer default samples
_DEFAULT_SAMPLES = {
    "base": 100,
    "presentation": 8,
    "pretzel": 60,
}


@dataclass
class SuiteReport:
    suite: str
    samples: int
    seed: int
    tol: float
    max_residual: float = 0.0
    failures: list = field(default_factory=list)
    rejected: int = 0
    rejected_by_reason: Counter[str] = field(default_factory=Counter)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "rejected": self.rejected,
            "rejected_by_reason": dict(self.rejected_by_reason),
            "passed": self.passed,
            "failures": self.failures,
        }


def default_samples(name: str, requested: int | None = None) -> int:
    if requested is not None:
        return requested
    return _DEFAULT_SAMPLES.get(name, 200)


def run_suite(
    name: str, samples: int | None = None, seed: int = 0, tol: float = RESIDUAL_TOL
) -> SuiteReport:
    """Run one verification suite; deterministic for a given seed.

    The samples are spread over up to `_share_count` processes, which pull
    them from one queue until it is empty (see `_records`); with one usable
    CPU all run in this process.  The report is the same for every count."""
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
    n = default_samples(name, samples)
    return _run_shares(name, n, seed, tol, _share_count(n))


# the most processes one suite's samples are spread over
_MAX_SHARES = 8
_ATTEMPTS = 12


def _share_count(samples: int) -> int:
    """Processes for `samples` samples: one per usable CPU, or just this one
    where fork is missing or unsafe (another thread is running)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(samples, cpus, _MAX_SHARES))


def _sample(fn, name: str, seed: int, i: int) -> tuple:
    """Sample `i`: `(i, residual or None, rejection reasons in attempt order)`.

    Each attempt draws from its own stream keyed by (suite, seed, index,
    attempt), so a sample's record does not depend on which process or in
    which order it runs.  The last attempt's error ends the sample and is
    not a rejection."""
    reasons = []
    for attempt in range(_ATTEMPTS):
        try:
            return i, fn(random.Random(f"{name}:{seed}:{i}:{attempt}")), reasons
        except ConditioningError as exc:
            if attempt < _ATTEMPTS - 1:
                reasons.append(str(exc))
    return i, None, reasons


def _pull(fn, name: str, seed: int, n: int, queue: int, size: int) -> list:
    """Records of the samples this process takes from the queue `queue`,
    one token at a time until the queue is empty.

    A 4-byte token names the `size` samples that start at its number times
    `size`.  The queue holds whole tokens and the kernel serves each pipe
    read whole, so no two processes share a token; a short read raises, and
    the caller then runs every sample itself."""
    records = []
    while token := os.read(queue, 4):
        if len(token) != 4:
            raise OSError("short read from the sample queue")
        start = int.from_bytes(token, "little") * size
        records += [_sample(fn, name, seed, i) for i in range(start, min(start + size, n))]
    return records


def _fork_share(fn, name: str, seed: int, n: int, queue: int, size: int):
    """Fork a child that pulls samples from the queue `queue` until it is
    empty and then writes their records to a pipe with `marshal`; return its
    pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                out.write(marshal.dumps(_pull(fn, name, seed, n, queue, size)))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _records(name: str, seed: int, n: int, k: int) -> list:
    """Every sample's record, in sample order, run in k shares that pull
    their samples from one queue.

    Before the first fork the sample numbers go into a pipe, one 4-byte
    token each, and its write end is closed; share 0 in this process and
    each other share in a forked child then take one token at a time until
    the pipe is empty, so a share that meets slow samples takes fewer of
    them and no process waits on another.  The tokens fit in 4 KiB, which a
    pipe holds without blocking: past 1024 samples a token names a block of
    ceil(n / 1024) consecutive ones.  If a sample raises here or a child
    fails, the children are stopped and reaped and every sample runs here,
    so the error raised is the one a serial run raises."""
    fn = _SUITES[name]
    if k == 1:
        return [_sample(fn, name, seed, i) for i in range(n)]
    size = -(-n // 1024) or 1  # samples per token
    tokens = memoryview(b"".join(j.to_bytes(4, "little") for j in range(-(-n // size))))
    children = []  # (pid, read end of its pipe)
    blobs = []
    records = None
    queue = None
    try:
        queue, w = os.pipe()
        try:
            while tokens:
                tokens = tokens[os.write(w, tokens):]
        finally:
            os.close(w)
        for _ in range(1, k):
            children.append(_fork_share(fn, name, seed, n, queue, size))
        records = _pull(fn, name, seed, n, queue, size)
        for _, src in children:
            blobs.append(src.read())
    except Exception:  # a sample raised, or fork or a pipe failed
        records = None
    finally:
        if queue is not None:
            os.close(queue)
        unread = len(blobs) < len(children)  # a child may still be running
        for pid, src in children:
            src.close()
            if unread:
                os.kill(pid, signal.SIGKILL)
            if os.waitpid(pid, 0)[1] != 0:
                records = None
    if records is None:
        return [_sample(fn, name, seed, i) for i in range(n)]
    for blob in blobs:
        records += marshal.loads(blob)
    records.sort(key=itemgetter(0))
    return records


def _run_shares(name: str, n: int, seed: int, tol: float, k: int) -> SuiteReport:
    """The report of `n` samples run in `k` shares; the same for every k."""
    report = SuiteReport(name, n, seed, tol)
    for i, residual, reasons in _records(name, seed, n, k):
        report.rejected += len(reasons)
        report.rejected_by_reason.update(reasons)
        if residual is None:
            report.failures.append({"sample": i, "error": "kept degenerating"})
            continue
        # a NaN residual fails its sample and makes the maximum NaN
        if residual > report.max_residual or residual != residual:
            report.max_residual = residual
        if not residual <= tol:
            report.failures.append({"sample": i, "residual": residual})
    return report
