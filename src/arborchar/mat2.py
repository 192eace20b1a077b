"""2x2 matrix algebra over SL(2,C), special constructors, matrix powers
and pair decompositions.

The Chebyshev recursion behind `cayley_power` lives in `arborchar.chebyshev`,
which the exact engine imports without this module; `ChebyshevPair` and
`chebyshev` are re-exported here.  Of the CLI's subcommands only `verify`
and `witness` load this module.

One Mat2 class serves three scalar backends: exact Fractions (golden-value
tests), GF(p) elements `ModP` (the `pretzel` suite) and complex doubles
(Monte-Carlo sampling).  All constructors keep det = 1 identically, so exact
inputs give exact unimodular output; over GF(p) only those that do not halve
run (`d`, `h1`, `h2`, `u_*`), and the float helpers take no GF(p) entries.

The complex backend is the oracle's inner loop, so Mat2 is a plain
``__slots__`` class rather than a frozen dataclass, and the scalar helpers
test ``type(x) is complex`` before the slower ``isinstance`` check against
the exact types.  These fast paths do the same floating-point operations in
the same order as the generic ones, so results do not change in the last
bit.  A Mat2's entries are read-only by convention: nothing assigns to them
after ``__init__`` (a test guards this).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

# ChebyshevPair and chebyshev are re-exported: callers of the matrix
# algebra import them from here
from .chebyshev import ChebyshevPair, Number, chebyshev  # noqa: F401
from .errors import ClassificationError, DomainError, GenericityError

#: absolute tolerance on entries and traces in double mode
TOL = 1e-9

#: bound of a pair decomposition's rebuild checks, which take a couple of
#: extra arithmetic steps
REBUILD_TOL = 100 * TOL

#: |trace criterion| bound of `is_reducible`
REDUCIBLE_TOL = 1e-7

#: bound of `has_common_eigenvector` on kernel rows and cross products
EIGENVECTOR_TOL = 1e-5

#: samples closer than this to a vanishing denominator are rejected
CONDITION_FLOOR = 1e-6


class ModP:
    """The element ``v`` in range(p) of the prime field GF(p), read-only by
    convention.  Ints mix in as residues; elements of another GF(q), floats,
    complex numbers and Fractions are refused.  Unhashable, as it equals ints."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int) -> None:
        self.v = v % p
        self.p = p

    def _residue(self, o: object) -> int | None:  # None: o does not mix in
        if type(o) is ModP:
            if o.p != self.p:
                raise DomainError(f"GF({self.p}) and GF({o.p}) elements do not mix")
            return o.v
        return o if type(o) is int else None

    def _lift(op):
        def method(self, o):
            v = self._residue(o)
            return NotImplemented if v is None else ModP(op(self.v, v), self.p)
        return method

    __add__ = __radd__ = _lift(operator.add)
    __sub__ = _lift(operator.sub)
    __rsub__ = _lift(lambda a, b: b - a)
    __mul__ = __rmul__ = _lift(operator.mul)

    def __truediv__(self, o: object) -> "ModP":
        v = self._residue(o)
        return NotImplemented if v is None else self * ModP(v, self.p).inv()

    def __rtruediv__(self, o: object) -> "ModP":
        return self.inv() * o

    def __neg__(self) -> "ModP":
        return ModP(-self.v, self.p)

    def __pow__(self, n: int) -> "ModP":
        return ModP(pow(self.v, n, self.p), self.p) if n >= 0 else self.inv() ** -n

    def inv(self) -> "ModP":
        if not self.v:
            raise DomainError(f"inverse of 0 in GF({self.p})")
        return ModP(pow(self.v, -1, self.p), self.p)

    def __eq__(self, o: object) -> bool:
        v = self._residue(o)
        return NotImplemented if v is None else self.v == v % self.p

    def __bool__(self) -> bool:
        return self.v != 0

    def __int__(self) -> int:
        return self.v

    def __repr__(self) -> str:
        return f"ModP({self.v}, {self.p})"


def _is_exact(x: Number) -> bool:
    if type(x) is complex or type(x) is float:
        return False
    return isinstance(x, (int, Fraction, ModP))


def _inv(x: Number) -> Number:
    if type(x) is not complex and _is_exact(x):
        if x == 0:
            raise DomainError("exact division by zero")
        return x.inv() if type(x) is ModP else Fraction(1) / Fraction(x)
    return 1.0 / x


def _near(x: Number, y: Number) -> bool:
    if type(x) is not complex and _is_exact(x) and _is_exact(y):
        return x == y
    return abs(complex(x) - complex(y)) <= TOL


class Mat2:
    """A 2x2 matrix; entries may be exact or complex, and are read-only by
    convention.  Equality, hash and repr are those of a dataclass with the
    fields a11, a12, a21, a22."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: Number, a12: Number, a21: Number, a22: Number) -> None:
        self.a11 = a11
        self.a12 = a12
        self.a21 = a21
        self.a22 = a22

    def __eq__(self, o: object) -> bool:
        if o.__class__ is not self.__class__:
            return NotImplemented
        return self.entries() == o.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return (
            f"Mat2(a11={self.a11!r}, a12={self.a12!r}, "
            f"a21={self.a21!r}, a22={self.a22!r})"
        )

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def __matmul__(self, o: "Mat2") -> "Mat2":
        a11, a12, a21, a22 = self.a11, self.a12, self.a21, self.a22
        b11, b12, b21, b22 = o.a11, o.a12, o.a21, o.a22
        return Mat2(
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )

    def __add__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 + o.a11, self.a12 + o.a12, self.a21 + o.a21, self.a22 + o.a22
        )

    def __sub__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 - o.a11, self.a12 - o.a12, self.a21 - o.a21, self.a22 - o.a22
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def scale(self, c: Number) -> "Mat2":
        return Mat2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def trace(self) -> Number:
        return self.a11 + self.a22

    def det(self) -> Number:
        return self.a11 * self.a22 - self.a12 * self.a21

    def inv(self) -> "Mat2":
        """Inverse; the adjugate scaled by 1/det, entry by entry."""
        a11, a12, a21, a22 = self.a11, self.a12, self.a21, self.a22
        d = a11 * a22 - a12 * a21
        if type(d) is not complex and _is_exact(d):
            if d == 0:
                raise DomainError("singular matrix")
        elif abs(complex(d)) < CONDITION_FLOOR:
            raise DomainError("numerically singular matrix")
        c = _inv(d)
        return Mat2(c * a22, c * -a12, c * -a21, c * a11)

    def conj_by(self, c: "Mat2") -> "Mat2":
        """c * self * c^{-1}."""
        return c @ self @ c.inv()

    def entries(self) -> tuple[Number, Number, Number, Number]:
        return (self.a11, self.a12, self.a21, self.a22)

    def norm(self) -> float:
        """Largest entry modulus as a float, or NaN when an entry is NaN, so
        that every ``<=`` bound rejects the matrix (``max`` alone skips a NaN
        that is not first)."""
        a11, a12, a21, a22 = self.a11, self.a12, self.a21, self.a22
        if (
            type(a11) is complex and type(a12) is complex
            and type(a21) is complex and type(a22) is complex
        ):
            m11, m12, m21, m22 = abs(a11), abs(a12), abs(a21), abs(a22)
        else:
            m11, m12, m21, m22 = (abs(complex(x)) for x in (a11, a12, a21, a22))
        if m11 != m11 or m12 != m12 or m21 != m21 or m22 != m22:
            return math.nan
        # max(m11, m12, m21, m22) without the call
        m = m11
        if m12 > m:
            m = m12
        if m21 > m:
            m = m21
        if m22 > m:
            m = m22
        return m

    def approx_eq(self, o: "Mat2", tol: float = TOL) -> bool:
        return (self - o).norm() <= tol

    def in_G(self) -> bool:
        """Unimodularity check: |det - 1| <= TOL (exact equality if exact)."""
        return _near(self.det(), 1)

    def to_complex(self) -> "Mat2":
        return Mat2(*(complex(x) for x in self.entries()))


IDENTITY = Mat2.identity()


def trace_of_product(x: Mat2, y: Mat2) -> complex | ModP:
    """tr(x @ y) from the two diagonal entries of the product: a GF(p)
    element for GF(p) entries, else a complex number."""
    tr = (x.a11 * y.a11 + x.a12 * y.a21) + (x.a21 * y.a12 + x.a22 * y.a22)
    return tr if type(tr) is ModP else complex(tr)


# ---------------------------------------------------------------------------
# special matrices
# ---------------------------------------------------------------------------


def w() -> Mat2:
    return Mat2(0, 1, -1, 0)


def p() -> Mat2:
    return Mat2(1, 1, 0, 1)


def d(lam: Number) -> Mat2:
    return Mat2(lam, 0, 0, _inv(lam))


def u_plus(kappa: Number, xi: Number) -> Mat2:
    return Mat2(kappa, xi, 0, _inv(kappa))


def u_minus(kappa: Number, xi: Number) -> Mat2:
    return Mat2(kappa, 0, xi, _inv(kappa))


def h1(t: Number, lam: Number, mu: Number) -> Mat2:
    """Trace-t matrix pairing with d(lam); needs lam != -1 and mu != 0."""
    if _near(lam, -1):
        raise DomainError("h-matrix undefined at lam = -1")
    if _near(mu, 0):
        raise DomainError("h-matrix undefined at mu = 0")
    s = _inv(lam + 1)
    return Mat2(
        s * lam * t,
        s * mu,
        s * (t * t - lam - _inv(lam) - 2) * lam * _inv(mu),
        s * t,
    )


def h2(t1: Number, t2: Number, lam: Number, mu: Number) -> Mat2:
    """Two-trace h-matrix; trace t1; needs lam != +-1 and mu != 0."""
    if _near(lam, 1) or _near(lam, -1):
        raise DomainError("two-trace h-matrix undefined at lam = +-1")
    if _near(mu, 0):
        raise DomainError("two-trace h-matrix undefined at mu = 0")
    li = _inv(lam)
    dl = delta_two_trace(t1, t2, lam)
    s = _inv(lam - li)
    return Mat2(
        s * (lam * t1 - t2),
        s * mu,
        s * dl * _inv(mu),
        s * (t2 - li * t1),
    )


def delta_two_trace(t1: Number, t2: Number, lam: Number) -> Number:
    li = _inv(lam)
    return (lam + li) * t1 * t2 - t1 * t1 - t2 * t2 - (lam - li) ** 2


def k1(t: Number, alpha: Number) -> Mat2:
    """Trace-t matrix pairing with -p; needs t != 0."""
    if _near(t, 0):
        raise DomainError("k-matrix undefined at t = 0")
    half = _half(t)
    return Mat2(
        alpha + half,
        _inv(2 * t) * (half * half - 1 - alpha * alpha),
        2 * t,
        -alpha + half,
    )


def k2(t1: Number, t2: Number, alpha: Number) -> Mat2:
    """Two-trace k-matrix; trace t1; needs t1 + t2 != 0."""
    if _near(t1 + t2, 0):
        raise DomainError("two-trace k-matrix undefined at t1 + t2 = 0")
    half = _half(t1)
    return Mat2(
        alpha + half,
        _inv(t1 + t2) * (half * half - 1 - alpha * alpha),
        t1 + t2,
        -alpha + half,
    )


def k_lambda(t: Number, lam: Number, alpha: Number) -> Mat2:
    """Limit form interpolating k1 (lam = -1) and the h-parametrization.

    The top-right entry is solved from det = 1, which needs the bottom-left
    entry to be nonzero.
    """
    li = _inv(lam)
    half = _half(t)
    c21 = (lam - li) * alpha + (2 - lam - li) * half
    if _near(c21, 0):
        raise DomainError(
            "k-lambda matrix needs (lam - 1/lam)*alpha + (2 - lam - 1/lam)*t/2 != 0"
        )
    star = (half * half - alpha * alpha - 1) * _inv(c21)
    return Mat2(alpha + half, star, c21, -alpha + half)


def _half(t: Number) -> Number:
    return Fraction(t) / 2 if _is_exact(t) else t / 2


_SPECIAL = {
    "w": lambda: w(),
    "p": lambda: p(),
    "d": d,
    "u_plus": u_plus,
    "u_minus": u_minus,
    "h1": h1,
    "h2": h2,
    "k1": k1,
    "k2": k2,
    "k_lambda": k_lambda,
}


def special(kind: str, *params: Number) -> Mat2:
    """Uniform entry point for the named constructors."""
    try:
        ctor = _SPECIAL[kind]
    except KeyError:
        raise DomainError(f"unknown special matrix kind {kind!r}") from None
    return ctor(*params)


# ---------------------------------------------------------------------------
# matrix powers
# ---------------------------------------------------------------------------


def cayley_power(z: Mat2, n: int) -> Mat2:
    """z^n via the trace recursion instead of repeated multiplication."""
    if not z.in_G():
        raise DomainError("cayley_power requires det = 1")
    r = z.trace()
    om_n = chebyshev(n, r).omega
    om_prev = chebyshev(n - 1, r).omega
    return z.scale(om_n) - IDENTITY.scale(om_prev)


# ---------------------------------------------------------------------------
# pair decompositions (single- and two-trace)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    lemma: str  # "single" or "two_trace"
    case: str  # "a" | "b" | "c" | "d"
    params: dict = field(default_factory=dict)
    sign_flipped: bool = False  # +p handled through (-a1)a2 = -p
    rebuilt: tuple[Mat2, Mat2] | None = None


def _sqrt(x: Number) -> complex:
    return cmath.sqrt(complex(x))


def kappa_of_trace(t: Number) -> complex:
    """One eigenvalue kappa with kappa + 1/kappa = t."""
    t = complex(t)
    return (t + _sqrt(t * t - 4)) / 2


def is_reducible(a1: Mat2, a2: Mat2) -> bool:
    """Trace criterion for a shared eigenvector.

    tau^2 - t1*t2*tau + t1^2 + t2^2 - 4 = 0, which at t1 = t2 = t factors
    as (tau - 2)(tau - (t^2 - 2)).
    """
    t1 = a1.trace()
    t2 = a2.trace()
    tau = (a1 @ a2).trace()
    val = tau * tau - t1 * t2 * tau + t1 * t1 + t2 * t2 - 4
    if _is_exact(val):
        return val == 0
    return abs(complex(val)) <= REDUCIBLE_TOL


def has_common_eigenvector(a1: Mat2, a2: Mat2) -> bool:
    """Direct eigenvector search; the oracle's independent reducibility test."""
    m2 = a2.to_complex()
    for v in _eigenvectors(a1.to_complex()):
        w_ = (m2.a11 * v[0] + m2.a12 * v[1], m2.a21 * v[0] + m2.a22 * v[1])
        cross = w_[0] * v[1] - w_[1] * v[0]
        if abs(cross) <= EIGENVECTOR_TOL * max(1.0, abs(w_[0]) + abs(w_[1])):
            return True
    return False


def _eigenvectors(m: Mat2) -> list[tuple[complex, complex]]:
    tr = complex(m.trace())
    disc = _sqrt(tr * tr - 4 * complex(m.det()))
    out = []
    for lam in ((tr + disc) / 2, (tr - disc) / 2):
        # rows of m - lam*e are proportional; take a kernel vector
        r1 = (complex(m.a11) - lam, complex(m.a12))
        r2 = (complex(m.a21), complex(m.a22) - lam)
        row = r1 if abs(r1[0]) + abs(r1[1]) >= abs(r2[0]) + abs(r2[1]) else r2
        if abs(row[0]) + abs(row[1]) <= EIGENVECTOR_TOL:
            out.extend([(1.0, 0.0), (0.0, 1.0)])
        else:
            out.append((-row[1], row[0]))
    return out


def decompose_pair(a1: Mat2, a2: Mat2, t1: Number, t2: Number) -> DecompositionReport:
    """Classify a1*a2 against the canonical forms and recover parameters.

    Single-trace products d(lam), p, -p and two-trace products d(lam),
    d(kappa1^e1 * kappa2^e2), -p are recognized; +p is routed through the
    sign trick (-a1)a2 = -p and flagged.  Rebuilding the pair from the
    report reproduces the input.
    """
    if not _near(a1.trace(), t1) or not _near(a2.trace(), t2):
        raise DomainError("matrix traces do not match the stated t1, t2")
    single = _near(t1, t2)
    m = a1 @ a2

    diag = abs(complex(m.a12)) <= TOL and abs(complex(m.a21)) <= TOL
    if diag:
        lam = m.a11
        if single:
            return _decompose_single_diag(a1, a2, t1, lam)
        return _decompose_two_diag(a1, a2, t1, t2, lam)

    if m.approx_eq(-p()):
        return _decompose_minus_p(a1, a2, t1, t2, flipped=False)
    if m.approx_eq(p()):
        if single:
            # single-trace pairs with product exactly +p: u+ parametrization
            return _decompose_single_p(a1, a2, t1)
        # two-trace +p handled through (-a1)*a2 = -p
        return _decompose_minus_p(-a1, a2, -t1, t2, flipped=True)
    raise ClassificationError("product is not d(lam), p, or -p")


def _decompose_single_diag(a1: Mat2, a2: Mat2, t: Number, lam: Number) -> DecompositionReport:
    s = lam + _inv(lam)
    for bad, label in ((2, "lam + 1/lam = 2"), (-2, "lam + 1/lam = -2"),
                       (t * t - 2, "lam + 1/lam = t^2 - 2")):
        if _near(s, bad):
            raise GenericityError(f"excluded diagonal product: {label}")
    mu = a2.a12 * (lam + 1)
    rebuilt = (h1(t, lam, -lam * mu), h1(t, lam, mu))
    _check_rebuilt(rebuilt, a1, a2, "h-parametrization failed to rebuild the pair")
    return DecompositionReport("single", "a", {"lam": lam, "mu": mu}, False, rebuilt)


def _decompose_single_p(a1: Mat2, a2: Mat2, t: Number) -> DecompositionReport:
    kappa = a2.a11
    xi = a1.a12
    rebuilt = (u_plus(_inv(kappa), xi), u_plus(kappa, kappa - xi))
    _check_rebuilt(rebuilt, a1, a2, "u+ parametrization failed to rebuild the pair")
    return DecompositionReport("single", "b", {"kappa": kappa, "xi": xi}, False, rebuilt)


def _decompose_minus_p(
    a1: Mat2, a2: Mat2, t1: Number, t2: Number, flipped: bool
) -> DecompositionReport:
    single = _near(t1, t2)
    if single:
        if _near(t1, 0):
            raise GenericityError("-p decomposition needs t != 0")
        alpha = a1.a11 - _half(t1)
        rebuilt = (k1(t1, alpha), k1(t1, alpha - t1))
        _check_rebuilt(rebuilt, a1, a2, "k-parametrization failed to rebuild the pair")
        rep = DecompositionReport("single", "c", {"alpha": alpha}, flipped, rebuilt)
        return rep
    if _near(t1 + t2, 0):
        # two-trace case (c): a2 upper-triangular with eigenvalue entry
        eps_base = a2.a11
        xi = a2.a12 - eps_base
        rebuilt = (u_plus(-_inv(eps_base), xi), u_plus(eps_base, xi + eps_base))
        _check_rebuilt(rebuilt, a1, a2, "u+ parametrization failed (two-trace -p)")
        return DecompositionReport(
            "two_trace", "c", {"kappa2_eps": eps_base, "xi": xi}, flipped, rebuilt
        )
    alpha = a2.a11 - _half(t2)
    rebuilt = (k2(t1, t2, alpha + _half(t1 + t2)), k2(t2, t1, alpha))
    _check_rebuilt(rebuilt, a1, a2, "k-parametrization failed (two-trace -p)")
    return DecompositionReport("two_trace", "d", {"alpha": alpha}, flipped, rebuilt)


def _decompose_two_diag(
    a1: Mat2, a2: Mat2, t1: Number, t2: Number, lam: Number
) -> DecompositionReport:
    if _near(lam, 1) or _near(lam, -1):
        raise GenericityError("excluded diagonal product: lam = +-1")
    kap1 = kappa_of_trace(t1)
    kap2 = kappa_of_trace(t2)
    for e1 in (1, -1):
        for e2 in (1, -1):
            if abs(complex(lam) - kap1**e1 * kap2**e2) <= REBUILD_TOL:
                return _decompose_two_diag_uform(a1, a2, kap1**e1, kap2**e2)
    mu = a2.a12 * (lam - _inv(lam))
    rebuilt = (h2(t1, t2, lam, -lam * mu), h2(t2, t1, lam, mu))
    _check_rebuilt(rebuilt, a1, a2, "two-trace h-parametrization failed to rebuild")
    return DecompositionReport("two_trace", "a", {"lam": lam, "mu": mu}, False, rebuilt)


def _decompose_two_diag_uform(
    a1: Mat2, a2: Mat2, k1e: complex, k2e: complex
) -> DecompositionReport:
    if abs(complex(a2.a21)) <= REBUILD_TOL:
        alpha = k2e * complex(a2.a12)
        rebuilt = (u_plus(k1e, -k1e * alpha), u_plus(k2e, alpha / k2e))
        form = "u_plus"
    else:
        alpha = complex(a2.a21) / k2e
        rebuilt = (u_minus(k1e, -alpha / k1e), u_minus(k2e, k2e * alpha))
        form = "u_minus"
    _check_rebuilt(rebuilt, a1, a2, "triangular parametrization failed to rebuild")
    return DecompositionReport(
        "two_trace",
        "b",
        {"kappa1_eps": k1e, "kappa2_eps": k2e, "alpha": alpha, "form": form},
        False,
        rebuilt,
    )


def _check_rebuilt(rebuilt: tuple[Mat2, Mat2], a1: Mat2, a2: Mat2, failure: str) -> None:
    """Raise ClassificationError(failure) unless rebuilt reproduces (a1, a2)."""
    if not (rebuilt[0].approx_eq(a1, REBUILD_TOL) and rebuilt[1].approx_eq(a2, REBUILD_TOL)):
        raise ClassificationError(failure)


# ---------------------------------------------------------------------------
# closed-form traces
# ---------------------------------------------------------------------------


def closed_trace(form: str, **kw: Number) -> Number:
    """Closed forms for tr(m^{-1} m') over the h/k families."""
    if form == "h1_inv_h1":
        t, lam, mu, nu = kw["t"], kw["lam"], kw["mu"], kw["nu"]
        s = lam + _inv(lam) + 2
        if _near(s, 0) or _near(s, 4):
            raise DomainError("degenerate denominator: lam + 1/lam = +-2")
        return _inv(s) * (
            2 * t * t + (s - t * t) * (mu * _inv(nu) + _inv(mu) * nu)
        )
    if form in ("h2_inv_h2_same", "h2_inv_h2_swapped"):
        t1, t2, lam, mu, nu = kw["t1"], kw["t2"], kw["lam"], kw["mu"], kw["nu"]
        tau = lam + _inv(lam)
        if _near(tau, 2) or _near(tau, -2):
            raise DomainError("degenerate denominator: tau = +-2")
        dl = delta_two_trace(t1, t2, lam)
        ratio = mu * _inv(nu) + _inv(mu) * nu
        if form == "h2_inv_h2_same":
            return 2 - dl * (ratio - 2) * _inv(tau * tau - 4)
        return t1 * t2 - tau - dl * (ratio + tau) * _inv(tau * tau - 4)
    if form == "k2_inv_k2_same":
        alpha, beta = kw["alpha"], kw["beta"]
        return (alpha - beta) ** 2 + 2
    if form == "k2_inv_k2_swapped":
        t1, t2, alpha, beta = kw["t1"], kw["t2"], kw["alpha"], kw["beta"]
        quarter = _half(_half(1))
        return (alpha - beta) ** 2 + 2 - quarter * (t1 - t2) ** 2
    raise DomainError(f"unknown closed-trace form {form!r}")
