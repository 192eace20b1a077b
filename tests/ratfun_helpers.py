"""Exact-kernel helpers that only the tests use."""

from typing import Iterable

from arborchar.ratfun import MultiPoly, RatFun


def reduce_by(f: RatFun, candidates: Iterable[MultiPoly]) -> RatFun:
    """Cancel exact common factors of f drawn from a known candidate list."""
    num, den = f.num, f.den
    for c in candidates:
        if c.is_const() or c.is_zero():
            continue
        while True:
            qd = den.divexact(c)
            if qd is None:
                break
            qn = num.divexact(c)
            if qn is None:
                break
            num, den = qn, qd
    return RatFun(num, den)
