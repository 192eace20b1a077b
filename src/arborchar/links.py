"""Two-trace extension for two-component links.

When the closed-up diagram has two components, end arcs carry one of two
meridian traces t1, t2.  The variables have fixed names: t1, t2, tau =
lam + 1/lam and lam.  This module provides the discriminant delta, the
closed forms for odd twist regions, the mu-ratio recursion, and the
presentation of the vertical four-strand pretzel made of four [3] twist
regions, whose twist relations are the odd-twist closed form at u-dot =
r_i set equal to tau.

Arbitrary multi-component shapes are out of scope and rejected.
"""

from __future__ import annotations

from .chebyshev import chebyshev
from .errors import DomainError, UnsupportedShapeError, WrongEngineError
from .invariants import Presentation
from .ratfun import MultiPoly, RatFun
from .tangle import ClosureExpr, CompV, IntTwist, TangleExpr, component_count

__all__ = [
    "delta",
    "odd_twist_invariants",
    "mu_ratio",
    "pretzel3333_presentation",
    "link_presentation",
]


def delta(w: RatFun | None = None) -> RatFun:
    """tau*t1*t2 - t1^2 - t2^2 - tau^2 + 4, with w in the tau slot if given."""
    t1, t2 = RatFun.var("t1"), RatFun.var("t2")
    if w is None:
        w = RatFun.var("tau")
    return w * t1 * t2 - t1 * t1 - t2 * t2 - w * w + 4


def odd_twist_invariants(k: int, udot_var: str = "ud") -> tuple[RatFun, RatFun]:
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
    dl = delta(w).as_poly()
    ratio = (cheb.theta + wp).divexact(wp * wp - MultiPoly.const(4))
    if ratio is None:
        raise DomainError("twist-trace numerator unexpectedly not divisible")
    u = RatFun.var("t1") * RatFun.var("t2") - w - RatFun(dl * ratio)
    return u, RatFun(dl * cheb.omega)


def _mu_ratio_num(r_i: RatFun) -> RatFun:
    """Numerator of the consecutive h-parameter ratio (denominator delta).

    1/lam is written tau - lam, which holds modulo lam^2 - tau*lam + 1.
    """
    lam = RatFun.var("lam")
    lam_inv = RatFun.var("tau") - lam
    t1, t2 = RatFun.var("t1"), RatFun.var("t2")
    return (lam - lam_inv) * (r_i * r_i + (lam_inv - t1 * t2) * r_i - 2) + lam * (
        t1 * t1 + t2 * t2
    ) - 2 * t1 * t2


def mu_ratio(r_i: RatFun) -> RatFun:
    """Ratio of consecutive h-parameters around the pretzel.

    ((lam - 1/lam)(r_i^2 + (1/lam - t1*t2) r_i - 2) + lam(t1^2+t2^2)
     - 2 t1 t2) / delta, with 1/lam rewritten as tau - lam.
    """
    return _mu_ratio_num(r_i) / delta()


def pretzel3333_presentation() -> Presentation:
    """Excellent-part presentation of the vertical pretzel of four [3]s.

    Equations: the twist relation u_3(r_i) = tau for each r_i, the
    eigenvalue relation lam^2 - tau*lam + 1 = 0, and the cleared product
    condition prod(mu_i/mu_{i+1}) = 1, i.e. prod(numerators) = delta^4.
    """
    # r1..r4 are registered before t1, t2, tau and lam: registration order
    # is the payload's variable order
    rs = [RatFun.var(f"r{i}") for i in range(1, 5)]
    equations: list[MultiPoly] = []
    notes: list[str] = []
    for i in range(1, 5):
        u, _ = odd_twist_invariants(3, udot_var=f"r{i}")
        equations.append((RatFun.var("tau") - u).num)
        notes.append(f"twist relation for r{i}")
    lam, tau = RatFun.var("lam"), RatFun.var("tau")
    equations.append((lam * lam - tau * lam + 1).num)
    notes.append("eigenvalue relation lam + 1/lam = tau")
    prod = RatFun.const(1)
    for r in rs:
        prod = prod * RatFun(_mu_ratio_num(r).num)
    dl = delta()
    equations.append((prod - dl ** 4).num)
    notes.append("holonomy product condition around the pretzel")
    return Presentation(
        ("t1", "t2", "tau", "lam", "r1", "r2", "r3", "r4"),
        tuple(equations),
        (dl.num, (tau * tau - 4).num),
        tuple(notes),
        traces=("t1", "t2"),
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
