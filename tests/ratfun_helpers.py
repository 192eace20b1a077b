"""Exact-kernel helpers that only the tests use."""

from fractions import Fraction
from typing import Iterable

from arborchar.ratfun import FactoredRatFun, MultiPoly, RatFun


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


def tuple_terms(p: MultiPoly) -> dict:
    """p's terms keyed by trimmed exponent tuples, in p's term order: the
    kernel's public tuple view."""
    return dict(p.exponent_terms())


def _width(*polys: MultiPoly) -> int:
    return max((len(e) for p in polys for e in tuple_terms(p)), default=0)


def grlex_key(exp: tuple, width: int) -> tuple:
    """Graded lexicographic order: total degree, then exponents with the
    earliest-registered variable first."""
    return (sum(exp), _padded(exp, width))


def grlex_terms(p: MultiPoly) -> list:
    """p's (exponents, coefficient) terms in decreasing graded
    lexicographic order."""
    width = _width(p)
    return sorted(tuple_terms(p).items(), key=lambda kv: grlex_key(kv[0], width), reverse=True)


def written_terms(p: MultiPoly) -> list:
    """p's (exponents, coefficient) terms in the order the kernel writes
    them: ``MultiPoly._rows`` with each row put back at its registry
    positions."""
    used, coefs, rows = p._rows()
    out = []
    for coef, row in zip(coefs, rows):
        exp = [0] * (used[-1] + 1)
        for i, x in zip(used, row):
            exp[i] = x
        out.append((_trimmed(exp), coef))
    return out


def reference_mul(a: MultiPoly, b: MultiPoly) -> dict:
    """Terms of a * b, accumulated pair by pair in the operands' order."""
    width = _width(a, b)
    out: dict = {}
    for e1, c1 in tuple_terms(a).items():
        for e2, c2 in tuple_terms(b).items():
            e = tuple(x + y for x, y in zip(_padded(e1, width), _padded(e2, width)))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return {_trimmed(e): _canonical(c) for e, c in out.items()}


def reference_sum(a: MultiPoly, b: MultiPoly) -> dict:
    """Terms of a + b: a's terms in their order, then b's new ones."""
    out = tuple_terms(a)
    for e, c in tuple_terms(b).items():
        s = out.get(e, 0) + c
        if s:
            out[e] = _canonical(s)
        else:
            out.pop(e)
    return out


def reference_divexact(a: MultiPoly, d: MultiPoly) -> dict | None:
    """Terms of a / d by schoolbook division at the remainder's leading
    term, or None when a step needs a negative exponent."""
    width = _width(a, d)
    divisor = tuple_terms(d)
    lead = _padded(max(divisor, key=lambda e: grlex_key(e, width)), width)
    dc = divisor[_trimmed(lead)]
    rem = {_padded(e, width): c for e, c in tuple_terms(a).items()}
    quo: dict = {}
    while rem:
        m = max(rem, key=lambda e: grlex_key(e, width))
        q = tuple(x - y for x, y in zip(m, lead))
        if any(x < 0 for x in q):
            return None
        qc = Fraction(rem[m]) / dc
        quo[_trimmed(q)] = _canonical(qc)
        for e, c in divisor.items():
            k = tuple(x + y for x, y in zip(q, _padded(e, width)))
            v = rem.get(k, 0) - qc * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quo


# -- the general RatFun normalisation ------------------------------------------
#
# RatFun as it normalises every fraction, with no shortcut for polynomials:
# a fraction is a (num, den) pair of MultiPolys.  The kernel's shortcuts
# must give the same terms, in the same insertion order, with the same
# coefficient types.


def reference_ratfun(num, den=1) -> tuple:
    """(num, den) after the monomial and content passes of RatFun."""
    n, d = MultiPoly._coerce(num), MultiPoly._coerce(den)
    if n.is_zero():
        return MultiPoly.zero(), MultiPoly.const(1)
    shared = tuple(map(min, zip(*tuple_terms(n), *tuple_terms(d))))
    if any(shared):
        mono = MultiPoly({_trimmed(shared): 1})
        n, d = n.divexact(mono), d.divexact(mono)
    c = d.content()
    if d.leading()[1] < 0:
        c = -c
    s = Fraction(c) / (Fraction(n.content()) / c).denominator
    if s != 1:
        n, d = n._divscalar(_canonical(s)), d._divscalar(_canonical(s))
    return n, d


def reference_add(a: tuple, b: tuple) -> tuple:
    return reference_ratfun(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def reference_neg(a: tuple) -> tuple:
    return reference_ratfun(-a[0], a[1])


def reference_times(a: tuple, b: tuple) -> tuple:
    return reference_ratfun(a[0] * b[0], a[1] * b[1])


def reference_substitute(a: tuple, var: str, value: tuple) -> tuple:
    """a with value put for var: Horner over fractions in num and den, then
    one division."""
    if var not in a[0].variables() | a[1].variables():
        return a

    def horner(p: MultiPoly) -> tuple:
        parts = p.coeffs_in(var)
        top = max(parts)
        result = reference_ratfun(parts[top])
        for k in range(top - 1, -1, -1):
            result = reference_add(reference_times(result, value),
                                   reference_ratfun(parts.get(k, MultiPoly.zero())))
        return result

    n, d = horner(a[0]), horner(a[1])
    return reference_ratfun(n[0] * d[1], n[1] * d[0])


# -- FactoredRatFun division by multiplying in ---------------------------------
#
# Division as it was written before quotients cancelled the divisor's
# denominator in their exponent map: every power of the divisor's
# denominator is multiplied into the numerator, and ``to_ratfun`` divides it
# back out.  ``to_ratfun`` of a quotient must give the same num and den.


def reference_truediv(f: FactoredRatFun, other) -> FactoredRatFun:
    o = f._coerce(other)
    if o.num.is_zero():
        raise ZeroDivisionError("division by the zero rational function")
    exps, scale = f._factor(o.num, f.base)
    for j, e in f.exps.items():
        exps[j] = exps.get(j, 0) + e
    num = f.num
    for j, e in o.exps.items():
        num = num * f.base[j] ** e
    return FactoredRatFun(num, _canonical(Fraction(f.coef) / (o.coef * scale)), exps, f.base)
