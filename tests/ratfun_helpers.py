"""Exact-kernel helpers that only the tests use."""

from fractions import Fraction
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


# -- a tuple-keyed reference for the packed kernel ---------------------------
#
# Plain tuple arithmetic with exponents padded to one width, as the kernel
# was written before it packed monomials into ints.  The kernel must give
# the same terms, in the same insertion order, with the same coefficient
# types.


def _padded(exp: tuple, width: int) -> tuple:
    return tuple(exp) + (0,) * (width - len(exp))


def _trimmed(exp: tuple) -> tuple:
    exp = list(exp)
    while exp and not exp[-1]:
        exp.pop()
    return tuple(exp)


def _canonical(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _width(*polys: MultiPoly) -> int:
    return max((len(e) for p in polys for e in p.terms), default=0)


def grlex_key(exp: tuple, width: int) -> tuple:
    """Graded lexicographic order: total degree, then exponents with the
    earliest-registered variable first."""
    return (sum(exp), _padded(exp, width))


def reference_mul(a: MultiPoly, b: MultiPoly) -> dict:
    """Terms of a * b, accumulated pair by pair in the operands' order."""
    width = _width(a, b)
    out: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(_padded(e1, width), _padded(e2, width)))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return {_trimmed(e): _canonical(c) for e, c in out.items()}


def reference_divexact(a: MultiPoly, d: MultiPoly) -> dict | None:
    """Terms of a / d by schoolbook division at the remainder's leading
    term, or None when a step needs a negative exponent."""
    width = _width(a, d)
    lead = _padded(max(d.terms, key=lambda e: grlex_key(e, width)), width)
    dc = d.terms[_trimmed(lead)]
    rem = {_padded(e, width): c for e, c in a.terms.items()}
    quo: dict = {}
    while rem:
        m = max(rem, key=lambda e: grlex_key(e, width))
        q = tuple(x - y for x, y in zip(m, lead))
        if any(x < 0 for x in q):
            return None
        qc = Fraction(rem[m]) / dc
        quo[_trimmed(q)] = _canonical(qc)
        for e, c in d.terms.items():
            k = tuple(x + y for x, y in zip(q, _padded(e, width)))
            v = rem.get(k, 0) - qc * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quo
