"""Trace-coordinate calculus for arborescent tangles.

Each subtangle carries a triple of trace coordinates (u, u-dot, u-check)
as exact rational functions in the meridian trace t and one variable per
twist region.  An InvariantEngine names the i-th twist region it meets
r{i}, so two engines running the same expression give the same records,
and regions are ordered by name alone (_region_key).
Twist regions get closed forms through Chebyshev-like recursions; each
twist-region record is built once per process, and every engine that meets
the same atom as the same region shares it (base_invariants);
compositions combine triples through the f/g rules, sharing one
coordinate; closures turn the shared data into polynomial equations.
"""

from __future__ import annotations

import functools
from typing import Callable

from . import _Record
from .chebyshev import chebyshev
from .errors import DomainError, StructureError, WrongEngineError
from .ratfun import FactoredRatFun, MultiPoly, RatFun, clear_denominators
from .tangle import (
    MAX_TWIST,
    ClosureExpr,
    CompH,
    CompV,
    IntTwist,
    TangleExpr,
    VertTwist,
    component_count,
    expand_rational,  # noqa: F401  (unused here; perfbench/spans.py wraps it)
)

__all__ = [
    "InvariantData",
    "Presentation",
    "InvariantEngine",
    "alpha",
    "base_invariants",
    "fg",
    "compose",
    "recover_grave_acute",
    "tangle_invariants",
    "closure_equations",
]

def _t() -> RatFun:
    return RatFun.var("t")


class InvariantData(_Record):
    """Per-subtangle symbolic record.

    vars lists the retained twist-region variables in depth-first order;
    constraints are polynomials required to vanish, exclusions polynomials
    required to stay nonzero (the non-degeneracy loci; each list holds a
    polynomial once up to sign); notes parallel the constraints.  A
    composed record's u-check, and its u-dot after *v, have no exclusion
    left that divides both numerator and denominator.
    """

    __slots__ = ("vars", "u", "udot", "ucheck", "constraints", "exclusions", "notes")
    _defaults = ((), (), ())  # constraints, exclusions, notes
    vars: tuple[str, ...]
    u: RatFun
    udot: RatFun
    ucheck: RatFun
    constraints: tuple[MultiPoly, ...]
    exclusions: tuple[MultiPoly, ...]
    notes: tuple[str, ...]


class Presentation(_Record):
    """Emitted character-variety data: denominator-free equations plus the
    genericity loci they are taken relative to.

    For a knot, regions[i] is the depth-first index of the twist region
    whose trace variables[i + 1] is (twist regions eliminated by the
    closure have no variable).  It is not part of the JSON payload.
    """

    __slots__ = ("variables", "equations", "exclusions", "notes", "traces", "regions")
    _defaults = ((), ())  # traces, regions
    variables: tuple[str, ...]
    equations: tuple[MultiPoly, ...]
    exclusions: tuple[MultiPoly, ...]
    notes: tuple[str, ...]
    traces: tuple[str, ...]  # per-component trace variables (links)
    regions: tuple[int, ...]

    def to_json(self) -> dict:
        return self._json_fields(MultiPoly.to_json)

    def _json_fields(self, poly: Callable[[MultiPoly], object]) -> dict:
        """The JSON payload's fields in their order, each polynomial p given
        as poly(p): `to_json` passes `MultiPoly.to_json`, and the CLI keeps
        the polynomials, which its JSON writer writes itself."""
        out = {
            "variables": list(self.variables),
            "equations": list(map(poly, self.equations)),
            "exclusions": list(map(poly, self.exclusions)),
            "notes": list(self.notes),
        }
        if self.traces:
            out["traces"] = list(self.traces)
        return out

    @staticmethod
    def from_json(data: dict) -> "Presentation":
        return Presentation(
            tuple(data["variables"]),
            tuple(MultiPoly.from_json(p) for p in data["equations"]),
            tuple(MultiPoly.from_json(p) for p in data["exclusions"]),
            tuple(data["notes"]),
            tuple(data.get("traces", ())),
        )

    def render_text(self) -> str:
        lines = ["variables: " + ", ".join(self.variables)]
        for eq, note in zip(self.equations, self.notes):
            lines.append(f"0 = {eq}    # {note}")
        for ex in self.exclusions:
            lines.append(f"0 != {ex}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# base cases
# ---------------------------------------------------------------------------


def alpha(k: int, r: RatFun) -> RatFun:
    """The twist-region trace polynomial (2t^2 + (r+2-t^2)*theta_k(-r))/(r+2).

    The numerator is divisible by r+2 for every integer k (theta_k at -2 is
    2*(-1)^k, killing the numerator at r = -2), so the result is returned
    as the exact polynomial quotient.
    """
    if not r.is_poly():
        raise DomainError("alpha expects a polynomial argument")
    rp = r.as_poly()
    t = MultiPoly.var("t")
    th = chebyshev(k, -rp).theta
    num = 2 * t * t + (rp + 2 - t * t) * th
    q = num.divexact(rp + MultiPoly.const(2))
    if q is None:
        raise DomainError("twist-trace numerator unexpectedly not divisible")
    return RatFun(q)


def base_invariants(atom: TangleExpr, var_name: str) -> InvariantData:
    """Closed-form triple for a single twist region [k] or [1/k], whose
    trace is the variable var_name.

    Every call with the same kind of atom, k and var_name returns the same
    record object, built once per process (see _twist_record)."""
    if not isinstance(atom, (IntTwist, VertTwist)):
        raise DomainError("base_invariants expects a twist atom")
    if atom.k == 0:
        raise DomainError("twist parameter must be nonzero")
    if abs(atom.k) > MAX_TWIST:
        raise DomainError(f"twist region with more than {MAX_TWIST} crossings")
    return _twist_record(type(atom), atom.k, var_name)


@functools.cache
def _twist_record(kind: type, k: int, var_name: str) -> InvariantData:
    """The record of base_invariants, for a validated atom.

    The cache holds values of a pure function, so sharing them cannot
    change any output: records and polynomials are never changed in place,
    and the variable registry is append-only, so a cached record's exponents
    keep their meaning; a registry per computation would have to be part
    of the key.  The keys are bounded by the two atom kinds,
    |k| <= MAX_TWIST and the region names r1..rn an engine uses."""
    r = RatFun.var(var_name)
    rp = r.as_poly()
    t = MultiPoly.var("t")
    om = chebyshev(k, -rp).omega
    ucheck = RatFun((2 - rp) * (rp + 2 - t * t) * om)
    ak = alpha(k, r)
    if issubclass(kind, VertTwist):
        u, udot = r, ak
    else:
        u, udot = ak, r
    return InvariantData((var_name,), u, udot, ucheck)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def fg(a: RatFun, b1: RatFun, c1: RatFun, b2: RatFun, c2: RatFun) -> tuple[RatFun, RatFun]:
    """The shared-coordinate composition rules.

    f = ((a+2)b1b2 + 2t^2(2-b1-b2) + c1c2/(a-2)) / (2(a+2-t^2)),
    g = ((a+2)(b1c2+b2c1) - 2t^2(c1+c2)) / (2(a+2-t^2)).
    """
    t2 = _t() * _t()
    return _f(a, b1, c1, b2, c2, t2), _g(a, b1, c1, b2, c2, t2)


def _f(a, b1, c1, b2, c2, t2):
    return ((a + 2) * b1 * b2 + 2 * t2 * (2 - b1 - b2) + c1 * c2 / (a - 2)) / (2 * (a + 2 - t2))


def _g(a, b1, c1, b2, c2, t2):
    return ((a + 2) * (b1 * c2 + b2 * c1) - 2 * t2 * (c1 + c2)) / (2 * (a + 2 - t2))


def _subst_data(I: InvariantData, var: str, value: RatFun) -> InvariantData:
    # constraints and exclusions are integer polynomials, so RatFun(p).num is p
    def sub_poly(p: MultiPoly) -> MultiPoly:
        return RatFun(p).substitute(var, value).num

    return InvariantData(
        tuple(v for v in I.vars if v != var),
        I.u.substitute(var, value),
        I.udot.substitute(var, value),
        I.ucheck.substitute(var, value),
        tuple(sub_poly(p) for p in I.constraints),
        tuple(sub_poly(p) for p in I.exclusions),
        I.notes,
    )


def _shared(I: InvariantData, direction: str) -> RatFun:
    return I.u if direction == "v" else I.udot


def _bare_own_var(I: InvariantData, direction: str) -> str | None:
    name = _shared(I, direction).is_bare_var()
    return name if name in I.vars else None


def _local_sig(s: RatFun, own: tuple[str, ...]) -> tuple:
    """Order-free fingerprint of a shared coordinate.

    The texts of its numerator and denominator in an explicit variable
    order: t, then the factor's own twist-region variables in depth-first
    order, written as the placeholders _sig0, _sig1, ...  So the
    fingerprint depends neither on where in the tree the factor sits nor
    on what the process registered before, and no name is registered.
    Higher-degree coordinates sort first; this matches the representative
    conventions of the simplified twist-chain closed forms.
    """
    order = {"t": "t", **{v: f"_sig{i}" for i, v in enumerate(own)}}
    return (-s.num.total_degree(), *s.texts(order))


def _region_key(name: str) -> tuple[int, str]:
    """Twist regions in the order an engine names them: r2 before r10."""
    return (len(name), name)


def _keep_first(s1: RatFun, I1: InvariantData, s2: RatFun, I2: InvariantData) -> bool:
    """Canonical representative choice; invariant under swapping factors.

    Ties go to the factor whose first twist region comes first.
    """
    return ((_local_sig(s1, I1.vars), min(map(_region_key, I1.vars)))
            < (_local_sig(s2, I2.vars), min(map(_region_key, I2.vars))))


def _rewrite_check(c: RatFun, own_shared: RatFun, a: RatFun) -> RatFun:
    """Express a factor's u-check through the shared representative.

    When u-check is exactly divisible (as a polynomial) by its own shared
    coordinate minus 2, the factor (own-2) is replaced by (a-2); on the
    constraint locus this is the same function, and it reproduces the
    simplified closed forms of twist chains.
    """
    if own_shared.equals(a):
        return c
    if not (c.is_poly() and own_shared.is_poly()):
        return c
    q = c.as_poly().divexact(own_shared.as_poly() - MultiPoly.const(2))
    if q is None:
        return c
    return RatFun(q) * (a - 2)


def _nondegeneracy(a: RatFun) -> tuple[MultiPoly, MultiPoly]:
    t = _t()
    return ((a - 2).num, (a + 2 - t * t).num)


def _loci(polys: tuple[MultiPoly, ...]) -> list[int]:
    """Positions of the polynomials that repeat no earlier one up to sign
    (p = 0 and -p = 0 are one equation, p != 0 and -p != 0 one locus)."""
    return [i for i, p in enumerate(polys) if p not in polys[:i] and -p not in polys[:i]]


def _glue(
    direction: str, I1: InvariantData, I2: InvariantData
) -> tuple[RatFun, InvariantData, InvariantData, tuple[MultiPoly, ...], tuple[str, ...],
           tuple[MultiPoly, ...]]:
    """The gluing step of compose and closure_equations.

    Identifies the shared coordinate of the two factors, eliminating by
    substitution when a side's shared coordinate is a bare twist-region
    variable (when both are, the later twist region's variable goes);
    otherwise records a vanishing constraint and keeps a canonically
    chosen representative, so the result does not depend on the order of
    the factors.  Returns the representative, the unified factors, the
    merged constraints with their notes and the merged exclusions with the
    representative's non-degeneracy loci, each held once up to sign.
    """
    if set(I1.vars) & set(I2.vars):
        raise DomainError("factors share a twist-region variable")
    s1, s2 = _shared(I1, direction), _shared(I2, direction)
    v1, v2 = _bare_own_var(I1, direction), _bare_own_var(I2, direction)
    extra: tuple[MultiPoly, ...] = ()
    extra_notes: tuple[str, ...] = ()
    if v2 and not (v1 and _region_key(v1) > _region_key(v2)):
        a, I2 = s1, _subst_data(I2, v2, s1)
    elif v1:
        a, I1 = s2, _subst_data(I1, v1, s2)
    else:
        extra = ((s1 - s2).num,)
        extra_notes = (f"shared {'u' if direction == 'v' else 'u-dot'} coordinate match",)
        a = s1 if _keep_first(s1, I1, s2, I2) else s2
    constraints = I1.constraints + I2.constraints + extra
    notes = I1.notes + I2.notes + extra_notes
    exclusions = I1.exclusions + I2.exclusions + _nondegeneracy(a)
    kept, loci = _loci(constraints), _loci(exclusions)
    return (a, I1, I2, tuple(constraints[i] for i in kept), tuple(notes[i] for i in kept),
            tuple(exclusions[i] for i in loci))


def compose(direction: str, I1: InvariantData, I2: InvariantData) -> InvariantData:
    """Combine two factor records across *v (shared u) or *h (shared u-dot)."""
    if direction not in ("v", "h"):
        raise DomainError("direction must be 'v' or 'h'")
    a, J1, J2, constraints, notes, exclusions = _glue(direction, I1, I2)
    if direction == "v":
        b1, b2 = J1.udot, J2.udot
    else:
        b1, b2 = J1.u, J2.u
    c1 = _rewrite_check(J1.ucheck, _shared(J1, direction), a)
    c2 = _rewrite_check(J2.ucheck, _shared(J2, direction), a)
    # u-check, and u-dot after *v, are computed with denominators kept over
    # the exclusions and cancelled by them; u after *h stays as the plain
    # rules give it, because _keep_first ranks it by its representation
    t2 = _t() * _t()
    base = list(exclusions)
    args = [FactoredRatFun.lift(x, base) for x in (a, b1, c1, b2, c2, t2)]
    g = _g(*args).to_ratfun()
    if direction == "v":
        u, udot = a, _f(*args).to_ratfun()
    else:
        u, udot = _f(a, b1, c1, b2, c2, t2), a
    return InvariantData(J1.vars + J2.vars, u, udot, g, constraints, exclusions, notes)


def recover_grave_acute(I: InvariantData) -> tuple[RatFun, RatFun]:
    """The remaining two end-arc traces from (u, u-dot, u-check)."""
    t = _t()
    s = 2 * t * t - I.u * I.udot
    half = RatFun(1, 2)
    return (s + I.ucheck) * half, (s - I.ucheck) * half


# ---------------------------------------------------------------------------
# engine and closures
# ---------------------------------------------------------------------------


class InvariantEngine:
    """DFS evaluator; keeps every produced record for audit.

    The engine is the naming scope of its twist regions: the i-th twist
    atom it runs, counted over all its runs, gets the variable r{i}.
    """

    def __init__(self) -> None:
        self.history: list[InvariantData] = []
        self.atom_vars: list[str] = []  # variable per twist atom, DFS order

    def run(self, expr: TangleExpr) -> InvariantData:
        if isinstance(expr, (IntTwist, VertTwist)):
            data = base_invariants(expr, f"r{len(self.atom_vars) + 1}")
            self.atom_vars.append(data.vars[0])
        elif isinstance(expr, (CompV, CompH)):
            d = "v" if isinstance(expr, CompV) else "h"
            data = compose(d, self.run(expr.left), self.run(expr.right))
        else:
            raise DomainError(f"not a tangle node: {expr!r}")
        self.history.append(data)
        return data


def _region_names(names: tuple[str, ...]) -> dict[str, str]:
    """The relabel map from twist-region variables, in depth-first order,
    onto r1..rn: the identity unless a twist region was eliminated or the
    engine ran an earlier tangle."""
    return dict(zip(names, (f"r{i}" for i in range(1, len(names) + 1))))


def _rename_data(I: InvariantData) -> InvariantData:
    moves = _region_names(I.vars)
    return InvariantData(
        tuple(moves.values()),
        I.u.relabel(moves),
        I.udot.relabel(moves),
        I.ucheck.relabel(moves),
        tuple(p.relabel(moves) for p in I.constraints),
        tuple(p.relabel(moves) for p in I.exclusions),
        I.notes,
    )


def tangle_invariants(expr: TangleExpr) -> InvariantData:
    """Invariant record of a tangle with variables renamed to r1..rn in
    twist-region order."""
    return _rename_data(InvariantEngine().run(expr))


def closure_equations(c: ClosureExpr, engine: InvariantEngine | None = None) -> Presentation:
    """Defining equations of the excellent part of a knot closure.

    D closes over a top-level vertical composition, N over a horizontal
    one; the two factors share the unified coordinate and the closure
    forces the other coordinate to match and the u-checks to cancel.
    """
    n = component_count(c)
    if n != 1:
        raise WrongEngineError(
            f"closure has {n} components; this engine handles knots only"
        )
    body = c.body
    want = CompV if c.kind == "D" else CompH
    if not isinstance(body, want):
        raise StructureError(
            f"{c.kind}-closure needs a top-level {'*v' if c.kind == 'D' else '*h'} "
            "composition; re-express the tangle accordingly"
        )
    direction = "v" if c.kind == "D" else "h"
    eng = engine if engine is not None else InvariantEngine()
    first_atom = len(eng.atom_vars)
    _, J1, J2, constraints, notes, exclusions = _glue(
        direction, eng.run(body.left), eng.run(body.right)
    )

    if direction == "v":
        diff = J1.udot - J2.udot
        diff_note = "closure: u-dot coordinates match"
    else:
        diff = J1.u - J2.u
        diff_note = "closure: u coordinates match"
    total = J1.ucheck + J2.ucheck

    equations, notes = list(constraints), list(notes)
    for val, note in ((diff, diff_note), (total, "closure: u-checks cancel")):
        num, exclusions = clear_denominators(val, exclusions)
        equations.append(num)
        notes.append(note)
    # an identically zero equation holds everywhere: dropping it keeps the
    # zero set
    kept = [(p, note) for p, note in zip(equations, notes) if not p.is_zero()]

    atoms = eng.atom_vars[first_atom:]
    surviving = J1.vars + J2.vars
    moves = _region_names(surviving)
    return Presentation(
        ("t",) + tuple(moves.values()),
        tuple(p.relabel(moves) for p, _ in kept),
        tuple(p.relabel(moves) for p in exclusions if not p.is_const()),
        tuple(note for _, note in kept),
        regions=tuple(atoms.index(v) for v in surviving),
    )
