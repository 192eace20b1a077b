"""The Chebyshev-like sequences omega_n and theta_n of a twist region.

One recursion serves the exact engine (`invariants`, `links`, on
polynomial arguments) and the matrix algebra (`mat2.cayley_power`, the
oracle, on numbers).  It lives apart from `mat2` so that `emit` does not
load the matrix module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from . import _Record

Number = Union[int, Fraction, float, complex]


class ChebyshevPair(_Record):
    """omega_n and theta_n at a common argument r = eta + 1/eta."""

    __slots__ = ("omega", "theta")
    omega: Number
    theta: Number


def chebyshev(n: int, r: Number) -> ChebyshevPair:
    """Evaluate both second- and first-kind sequences at integer n.

    omega_0 = 0, omega_1 = 1; theta_0 = 2, theta_1 = r; both satisfy
    s_{n+1} = r*s_n - s_{n-1}, extended to negative n by omega_{-n} =
    -omega_n and theta_{-n} = theta_n.  Works for any scalar (or
    polynomial) argument, including the degenerate r = +-2.
    """
    m = abs(n)
    om_prev, om = 0, 1  # omega_0, omega_1
    th_prev, th = 2, r  # theta_0, theta_1
    if m == 0:
        return ChebyshevPair(0 * r, 2 + 0 * r)
    for _ in range(m - 1):
        om_prev, om = om, r * om - om_prev
        th_prev, th = th, r * th - th_prev
    if n < 0:
        om = -om
    return ChebyshevPair(om, th)
