"""Two-trace extension for two-component links.

When the closed-up diagram has two components, end arcs carry one of two
meridian traces t1, t2.  This module provides the shared context (tau and
the discriminant delta), the closed forms for odd twist regions, the
mu-ratio recursion, and the presentation of the vertical four-strand
pretzel made of four [3] twist regions.

Arbitrary multi-component shapes are out of scope and rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chebyshev import chebyshev
from .errors import DomainError, UnsupportedShapeError, WrongEngineError
from .invariants import Presentation
from .ratfun import MultiPoly, RatFun
from .tangle import ClosureExpr, CompV, IntTwist, TangleExpr, component_count

__all__ = [
    "TwoTraceContext",
    "odd_twist_invariants",
    "mu_ratio",
    "pretzel3333_presentation",
    "link_presentation",
]


@dataclass(frozen=True)
class TwoTraceContext:
    """Trace variables of a two-component link plus tau = lam + 1/lam.

    delta = tau*t1*t2 - t1^2 - t2^2 - tau^2 + 4; the inverse eigenvalue is
    always rewritten as 1/lam = tau - lam, keeping everything polynomial.
    """

    t1: str = "t1"
    t2: str = "t2"
    tau: str = "tau"
    lam: str = "lam"

    def t1v(self) -> RatFun:
        return RatFun.var(self.t1)

    def t2v(self) -> RatFun:
        return RatFun.var(self.t2)

    def tauv(self) -> RatFun:
        return RatFun.var(self.tau)

    def lamv(self) -> RatFun:
        return RatFun.var(self.lam)

    def lam_inv(self) -> RatFun:
        # valid modulo lam^2 - tau*lam + 1 = 0
        return self.tauv() - self.lamv()

    def delta(self) -> RatFun:
        t1, t2, tau = self.t1v(), self.t2v(), self.tauv()
        return tau * t1 * t2 - t1 * t1 - t2 * t2 - tau * tau + 4


def _delta_at(ctx: TwoTraceContext, w: RatFun) -> RatFun:
    """delta with the tau slot evaluated at w."""
    t1, t2 = ctx.t1v(), ctx.t2v()
    return w * t1 * t2 - t1 * t1 - t2 * t2 - w * w + 4


def odd_twist_invariants(
    k: int, ctx: TwoTraceContext, udot_var: str = "ud"
) -> tuple[RatFun, RatFun]:
    """(u, u-check) of the twist region [k] as polynomials in u-dot.

    u = t1*t2 - ud - delta*(theta_k(-ud) + ud)/(ud^2 - 4) — the quotient is
    exact for odd k since theta_k(-(+-2)) + (+-2) = 0 — and
    u-check = delta * omega_k(-ud), with delta evaluated at tau = ud.
    Even k mixes the two components within the twist region and is
    rejected.
    """
    if k % 2 == 0:
        raise DomainError("two-trace twist regions require odd k")
    w = RatFun.var(udot_var)
    wp = w.as_poly()
    cheb = chebyshev(k, -wp)
    om, th = cheb.omega, cheb.theta
    dl = _delta_at(ctx, w).as_poly()
    ratio = (th + wp).divexact(wp * wp - MultiPoly.const(4))
    if ratio is None:
        raise DomainError("twist-trace numerator unexpectedly not divisible")
    u = ctx.t1v() * ctx.t2v() - w - RatFun(dl * ratio)
    ucheck = RatFun(dl * om)
    return u, ucheck


def _mu_ratio_num(r_i: RatFun, ctx: TwoTraceContext) -> RatFun:
    """Numerator of the consecutive h-parameter ratio (denominator delta)."""
    lam, lam_inv = ctx.lamv(), ctx.lam_inv()
    t1, t2 = ctx.t1v(), ctx.t2v()
    return (lam - lam_inv) * (r_i * r_i + (lam_inv - t1 * t2) * r_i - 2) + lam * (
        t1 * t1 + t2 * t2
    ) - 2 * t1 * t2


def mu_ratio(r_i: RatFun, ctx: TwoTraceContext) -> RatFun:
    """Ratio of consecutive h-parameters around the pretzel.

    ((lam - 1/lam)(r_i^2 + (1/lam - t1*t2) r_i - 2) + lam(t1^2+t2^2)
     - 2 t1 t2) / delta, with 1/lam rewritten as tau - lam.
    """
    return _mu_ratio_num(r_i, ctx) / ctx.delta()


def _eq29(r: RatFun, ctx: TwoTraceContext) -> MultiPoly:
    """r^3 - t1t2 r^2 + (t1^2+t2^2-3) r - t1t2 + tau = 0."""
    t1, t2, tau = ctx.t1v(), ctx.t2v(), ctx.tauv()
    val = r ** 3 - t1 * t2 * r * r + (t1 * t1 + t2 * t2 - 3) * r - t1 * t2 + tau
    return val.num


def pretzel3333_presentation() -> Presentation:
    """Excellent-part presentation of the vertical pretzel of four [3]s.

    Equations: the cubic twist relation for each r_i, the eigenvalue
    relation lam^2 - tau*lam + 1 = 0, and the cleared product condition
    prod(mu_i/mu_{i+1}) = 1, i.e. prod(numerators) = delta^4.
    """
    ctx = TwoTraceContext()
    rs = [RatFun.var(f"r{i}") for i in range(1, 5)]
    equations: list[MultiPoly] = []
    notes: list[str] = []
    for i, r in enumerate(rs, start=1):
        equations.append(_eq29(r, ctx))
        notes.append(f"twist relation for r{i}")
    lam, tau = ctx.lamv(), ctx.tauv()
    equations.append((lam * lam - tau * lam + 1).num)
    notes.append("eigenvalue relation lam + 1/lam = tau")
    prod = RatFun.const(1)
    for r in rs:
        prod = prod * RatFun(_mu_ratio_num(r, ctx).num)
    delta = ctx.delta()
    equations.append((prod - delta ** 4).num)
    notes.append("holonomy product condition around the pretzel")
    exclusions = (
        delta.num,
        (tau * tau - 4).num,
    )
    return Presentation(
        (ctx.t1, ctx.t2, ctx.tau, ctx.lam, "r1", "r2", "r3", "r4"),
        tuple(equations),
        exclusions,
        tuple(notes),
        traces=(ctx.t1, ctx.t2),
    )


def _is_pretzel3333(body: TangleExpr) -> bool:
    atoms: list[TangleExpr] = []
    node = body
    while isinstance(node, CompV):
        atoms.append(node.right)
        node = node.left
    atoms.append(node)
    return len(atoms) == 4 and all(
        isinstance(a, IntTwist) and a.k == 3 for a in atoms
    )


def link_presentation(c: ClosureExpr) -> Presentation:
    """Presentation for the supported two-component link shapes."""
    n = component_count(c)
    if n == 1:
        raise WrongEngineError("single-component input: use the knot engine")
    if n != 2:
        raise UnsupportedShapeError(
            f"{n}-component links are out of scope (two traces only)"
        )
    if c.kind == "D" and _is_pretzel3333(c.body):
        return pretzel3333_presentation()
    raise UnsupportedShapeError(
        "only the vertical (3,3,3,3)-pretzel link shape is implemented"
    )
