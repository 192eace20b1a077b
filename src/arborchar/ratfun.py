"""Exact multivariate polynomial and rational-function arithmetic over Q.

Polynomials are sparse: a dict from packed monomials to coefficients.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` only when
it is not (see ``_canon``), so arithmetic on the integer polynomials that
``RatFun`` normalises to builds no Fraction.  Exponents are indexed against
a global, append-only variable registry.  The monomial order is graded
lexicographic with earlier-registered variables taking priority.

Each monomial is one int (``_Packing``; Johnson, SIGSAM Bull. 1974; Monagan
and Pearce, CASC 2007): a total-degree field on top, then one 16-bit field
per registry position up to the polynomial's last used variable, its
``width``.  Empty trailing fields are trimmed, so equal polynomials have
equal dicts.  A product of monomials is then an int sum, a divisibility
test is one mask, and int order is the monomial order, which ``leading``,
exact division and the JSON writers (``to_json`` and the text that
``arborchar emit`` writes) use.  An operand narrower than the other is
aligned with one left shift of its keys.  Exponent tuples appear only where
a polynomial is built from them (``MultiPoly(mapping)``, ``from_json``)
or shown as them (``exponent_terms``, ``leading``).  A
factor with a single term is applied as a key shift and a coefficient
scale: no two of its products can collide.  ``FactoredRatFun`` keeps a
rational scalar apart from its numerator, so the integer numerators that
``RatFun`` normalises to stay integer through its arithmetic.  A
``FactoredRatFun`` quotient cancels the divisor's denominator in its
exponent map and multiplies into the numerator only the powers whose
exponent would go negative.

This module is the only one that maps variable names to exponent
positions.  Other modules work by name: ``relabel`` takes a
``{old_name: new_name}`` map, ``RatFun.substitute``, ``degree_in`` and
``coeffs_in`` name their variable, and ``variables`` and
``MultiPoly.named_terms`` report names.  ``str`` writes terms in registry
order; ``RatFun.texts`` writes them in an explicit variable order its
caller gives, so a ranking by text depends on names alone and registers
none (the engine registers only t and its twist-region names).  Both go
through one term formatter, ``_text``.

Fractions of polynomials are reduced only by integer content, common
monomial factors, and exact trial division by explicitly supplied factor
candidates; there is no general multivariate GCD.  One routine,
``FactoredRatFun._factor``, does that trial division of a denominator
over a list of known factors, for ``FactoredRatFun`` and for
``clear_denominators`` alike.

A ``RatFun`` whose denominator is 1 holds the module's one-polynomial
``_ONE`` as its denominator, so ``den is _ONE`` tells such a fraction in
O(1).  Its numerator has int coefficients, as every normalised numerator
does, and for such a fraction the monomial and content passes change
nothing.  So a polynomial with int coefficients over 1 is stored as it
comes, and ``+``, ``-`` and ``*`` on two polynomials, and substitution of
a polynomial, combine numerators only.  Most fractions the engine builds
for small knots are such polynomials.  No polynomial is changed in place,
so all of them can share ``_ONE``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd, lcm
from operator import and_, itemgetter, lshift, neg, or_, rshift
from struct import Struct
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import ConditioningError, DomainError

Scalar = Union[int, Fraction]
Coercible = Union["MultiPoly", int, Fraction]


class VarRegistry:
    """Append-only mapping between variable names and stable indices."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}

    def add(self, name: str) -> int:
        """Register ``name`` (idempotent) and return its index."""
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
        return self._index[name]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DomainError(f"unregistered variable {name!r}") from None

    def name(self, index: int) -> str:
        return self._names[index]

    def __len__(self) -> int:
        return len(self._names)


#: The session-wide registry.  Variables are never re-indexed once created.
#: The meridian trace t comes first, so it leads the monomial order whatever
#: a process computes before its first emit.
REGISTRY = VarRegistry()
REGISTRY.add("t")


def _canon(c) -> Scalar:
    """c as an exact scalar: an int when it is integral, else a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a / b, canonical as in ``_canon``; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _trim(exp: Sequence[int]) -> tuple[int, ...]:
    """exp without its trailing zeros."""
    # length up to the last nonzero exponent, found without a Python loop
    return tuple(exp[: next(compress(range(len(exp), 0, -1), reversed(exp)), 0)])


#: Bits of one field of a packed monomial, guard bit included.
_BITS = 16
_FIELD = (1 << _BITS) - 1
#: Every total degree, and so every exponent, is below this: the guard bit
#: of each field stays clear.
_DEGREE_LIMIT = 1 << (_BITS - 1)


class _Packing:
    """The layout of the packed monomials of a polynomial of one width.

    Fields, most significant first: the total degree, then the exponent of
    each registry variable below ``width``.  Each field is 16 bits, and
    every total degree is below 32768, so the top bit of each field, its
    guard bit, is clear in every monomial; a product or a polynomial of a
    larger degree raises ``DomainError``.  So int order is the monomial
    order and a product of monomials is a sum of ints.  For packed a and b,
    ``(a - b) & guard`` is then nonzero exactly when some exponent of a is
    less than that of b: the least significant such field is the first to
    borrow, which sets its guard bit, and with no such field nothing
    borrows.  ``guard`` masks the exponent fields' guard bits."""

    __slots__ = ("width", "guard", "_size", "_fields")

    def __init__(self, width: int):
        self.width = width
        self.guard = int.from_bytes(b"\x80\0" * width, "big")
        self._size = 2 * (width + 1)
        self._fields = Struct(f">2x{width}H").unpack

    def exponents(self, keys: Iterable[int]) -> Iterator[tuple[int, ...]]:
        """The exponent fields of packed monomials, in their order: for each,
        one exponent per registry position below the width."""
        return map(self._fields, map(int.to_bytes, keys, repeat(self._size), repeat("big")))

    def rows(self, keys: Iterable[int], used: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """The exponents of packed monomials at the registry positions
        ``used``, an increasing sequence, in their order: one unpack that
        skips the degree field and every other position."""
        used = set(used)
        fields = Struct(">2x" + "".join("H" if i in used else "2x" for i in range(self.width)))
        return map(fields.unpack, map(int.to_bytes, keys, repeat(self._size), repeat("big")))


_packing = lru_cache(maxsize=None)(_Packing)


def _poly(terms: dict[int, Scalar], width: int) -> "MultiPoly":
    """The polynomial of packed terms of this width, whose last field some
    term uses (or an empty width for a constant)."""
    p = MultiPoly.__new__(MultiPoly)
    p.terms = terms
    p.width = width
    return p


def _trimmed(terms: dict[int, Scalar], width: int) -> "MultiPoly":
    """The polynomial of packed terms of this width, with the trailing
    fields that no term uses dropped."""
    # the lowest set bit of all keys' bitwise or is in the last used field;
    # with no exponent field used, every key is 0
    used = reduce(or_, terms, 0)
    empty = ((used & -used).bit_length() - 1) // _BITS if used else width
    if empty:
        terms = dict(zip(map(rshift, terms, repeat(_BITS * empty)), terms.values()))
    return _poly(terms, width - empty)


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients, each
    an int when integral and a Fraction otherwise.  ``terms`` maps packed
    monomials of ``width`` fields (see ``_Packing``) to coefficients."""

    __slots__ = ("terms", "width")

    def __init__(self, terms: Mapping[Sequence[int], Scalar] | None = None):
        """The polynomial of a map from exponent tuples, indexed by registry
        position, to coefficients."""
        pairs = []
        width = 0
        for exp, coef in (terms or {}).items():
            c = _canon(coef)
            if c:
                exp = _trim(exp)
                width = max(width, len(exp))
                pairs.append((exp, c))
        pack = Struct(f">{width + 1}H").pack
        clean: dict[int, Scalar] = {}
        for exp, c in pairs:
            degree = sum(exp)
            if degree >= _DEGREE_LIMIT or min(exp, default=0) < 0:
                raise DomainError(f"cannot pack the exponents {exp}")
            key = pack(degree, *exp, *repeat(0, width - len(exp)))
            clean[int.from_bytes(key, "big")] = c
        self.terms = clean
        self.width = width

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _poly({}, 0)

    @staticmethod
    def const(c: Scalar) -> "MultiPoly":
        c = _canon(c)
        return _poly({0: c} if c else {}, 0)

    @staticmethod
    def var(name: str) -> "MultiPoly":
        width = REGISTRY.add(name) + 1
        # degree 1 in the degree field, exponent 1 in the last field
        return _poly({(1 << _BITS * width) + 1: 1}, width)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        # trailing fields are trimmed, so only a constant has no field
        return not self.width

    def const_value(self) -> Scalar:
        if not self.terms:
            return 0
        if not self.is_const():
            raise DomainError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max(self.terms, default=0) >> _BITS * self.width

    def degree_in(self, var: str) -> int:
        i = REGISTRY.index(var)
        if i >= self.width:
            return 0
        shift = _BITS * (self.width - 1 - i)
        return max(map(and_, map(rshift, self.terms, repeat(shift)), repeat(_FIELD)), default=0)

    def _positions(self) -> list[int]:
        """The registry positions some term uses, in increasing order: the
        nonzero fields of the keys' bitwise or."""
        used = reduce(or_, self.terms, 0)
        width = self.width
        return [i for i in range(width) if used >> _BITS * (width - 1 - i) & _FIELD]

    def variables(self) -> set[str]:
        return set(map(REGISTRY.name, self._positions()))

    def exponent_terms(self) -> Iterator[tuple[tuple[int, ...], Scalar]]:
        """Each term as (exponent tuple, coefficient), in the terms' order:
        the exponent of the registry variable at position i is entry i,
        and trailing zeros are trimmed."""
        return zip(map(_trim, _packing(self.width).exponents(self.terms)), self.terms.values())

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        """The greatest term, as (exponent tuple, coefficient)."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        key = max(self.terms)
        (exp,) = _packing(self.width).exponents([key])
        return _trim(exp), self.terms[key]

    def _rows(self) -> tuple[list[int], Iterator[Scalar], Iterator[Sequence[int]]]:
        """The terms in decreasing monomial order, as the registry positions
        that some term uses, then each term's coefficient, then each term's
        exponents in the used variables: the one projection that both JSON
        forms write."""
        keys = sorted(self.terms, reverse=True)
        used = self._positions()
        rows = _packing(self.width).rows(keys, used)
        return used, map(self.terms.__getitem__, keys), rows

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other: Coercible) -> "MultiPoly":
        if type(other) is MultiPoly:
            return other
        if type(other) is int:
            # an int is already canonical
            return _poly({0: other} if other else {}, 0)
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _aligned(self, width: int) -> dict[int, Scalar]:
        """The terms packed in ``width`` fields, at least this polynomial's
        own: one left shift of every key."""
        if width == self.width:
            return self.terms
        shift = _BITS * (width - self.width)
        return dict(zip(map(lshift, self.terms, repeat(shift)), self.terms.values()))

    def __add__(self, other: Coercible) -> "MultiPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        width = max(self.width, o.width)
        out = dict(self._aligned(width))
        cancelled = False
        for k, c in o._aligned(width).items():
            s = out.get(k, 0) + c
            if s:
                out[k] = _canon(s)
            else:
                del out[k]
                cancelled = True
        # a cancelled term may have been the last to use a field
        return _trimmed(out, width) if cancelled else _poly(out, width)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _poly(dict(zip(self.terms, map(neg, self.terms.values()))), self.width)

    def __sub__(self, other: Coercible) -> "MultiPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Coercible) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: Coercible) -> "MultiPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.terms or not o.terms:
            return _poly({}, 0)
        # the product of two nonzero polynomials uses the last field of the
        # wider one, so it keeps that width
        width = max(self.width, o.width)
        a, b = self._aligned(width), o._aligned(width)
        if (max(a) + max(b)) >> _BITS * width >= _DEGREE_LIMIT:
            raise DomainError(f"total degree {self.total_degree() + o.total_degree()} is too large to pack")
        if len(a) == 1 or len(b) == 1:
            # a monomial factor shifts keys: no two products collide
            if len(b) == 1:
                terms, ((m, cm),) = a, b.items()
            else:
                terms, ((m, cm),) = b, a.items()
            return _poly({k + m: _canon(c * cm) for k, c in terms.items()}, width)
        # products are inserted pair by pair in the operands' term order,
        # which fixes the order of the product's terms (named_terms yields
        # them in that order)
        right = list(b.items())
        out: dict[int, Scalar] = {}
        for k1, c1 in a.items():
            for k2, c2 in right:
                k = k1 + k2
                s = out.get(k)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        if {int} != set(map(type, out.values())):
            out = dict(zip(out, map(_canon, out.values())))
        return _poly(out, width)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise DomainError("negative power of a polynomial")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- division ----------------------------------------------------------

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Return self / divisor if the division is exact, else None.

        Heap-ordered division (Monagan and Pearce, CASC 2007): the remainder
        is updated in place and a heap of its monomials yields the next
        leading term, so no step re-scans or copies the remainder.  Leading
        terms are taken in graded lexicographic order, and the quotient is
        unique, so the result does not depend on the method.

        When the divisor leaves some of self's variables out, self is the
        sum of m * c_m over the monomials m in those variables, and the
        divisor divides self only if it divides each m * c_m.  The terms of
        the greatest m are divided first: one mask, ``max`` and
        ``compress`` pick them out, and a failing trial division usually
        fails there, at a fraction of the cost of the whole.
        """
        if divisor.is_zero():
            raise DomainError("division by the zero polynomial")
        if self.is_zero():
            return MultiPoly.zero()
        if divisor.is_const():
            return self._divscalar(divisor.const_value())
        width = self.width
        if divisor.width > width:
            # a product uses the last variable of each factor
            return None
        tail = dict(divisor._aligned(width))
        dk = max(tail)
        dcoef = tail.pop(dk)
        guard = _packing(width).guard
        # the exponent fields of the variables that the divisor does not use
        used = reduce(or_, tail, dk)
        others = sum(_FIELD << s for s in range(0, _BITS * width, _BITS) if not used >> s & _FIELD)
        if others:
            parts = list(map(and_, self.terms, repeat(others)))
            top = max(parts)
            if top:
                part = dict(compress(self.terms.items(), map(top.__eq__, parts)))
                if len(part) < len(self.terms) and _heap_divide(part, dk, dcoef, tail, guard) is None:
                    return None
        quo = _heap_divide(dict(self.terms), dk, dcoef, tail, guard)
        return None if quo is None else _trimmed(quo, width)

    # -- substitution and evaluation ----------------------------------------

    def coeffs_in(self, var: str) -> dict[int, "MultiPoly"]:
        """Split into coefficients of powers of one variable."""
        i = REGISTRY.index(var)
        width = self.width
        if i >= width:
            return {0: self} if self.terms else {}
        shift = _BITS * (width - 1 - i)
        top = _BITS * width
        out: dict[int, dict[int, Scalar]] = {}
        for k, c in self.terms.items():
            p = k >> shift & _FIELD
            out.setdefault(p, {})[k - (p << shift) - (p << top)] = c
        return {p: _trimmed(t, width) for p, t in out.items()}

    def subs_poly(self, var_index: int, value: "MultiPoly") -> "MultiPoly":
        """Substitute value for the variable at registry index var_index.

        The last public method that takes a registry index rather than a
        name; it stays while callers outside the package hold indices."""
        parts = self.coeffs_in(REGISTRY.name(var_index))
        result = MultiPoly.zero()
        for p, coef in parts.items():
            result = result + coef * value**p
        return result

    def relabel(self, names: Mapping[str, str]) -> "MultiPoly":
        """Substitute variable ``names[v]`` for variable ``v``, for every key
        at once, by moving exponent fields; no coefficient arithmetic
        unless two monomials land on the same one.  New names are
        registered in the map's order."""
        moves = {REGISTRY.index(old): REGISTRY.add(new) for old, new in names.items()}
        if not moves or not self.terms:
            return self
        # moved fields only, each read from the key before any move
        shift = [(i, j) for i, j in moves.items() if i < self.width and i != j]
        if not shift:
            return self
        width = max(self.width, max(j for _, j in shift) + 1)
        shift = [(_BITS * (width - 1 - i), _BITS * (width - 1 - j)) for i, j in shift]
        out: dict[int, Scalar] = {}
        for k, c in self._aligned(width).items():
            key = k
            for i, j in shift:
                e = k >> i & _FIELD
                if e:
                    key += (e << j) - (e << i)
            if key in out:
                s = out[key] + c
                if s:
                    out[key] = _canon(s)
                else:
                    del out[key]
            else:
                out[key] = c
        return _trimmed(out, width)

    def eval(self, point: Mapping[str, complex | Scalar]) -> complex | Scalar:
        """Evaluate at a point given by variable name."""
        total: complex | Scalar = 0
        values = {REGISTRY.index(n): v for n, v in point.items()}
        for e, c in zip(_packing(self.width).exponents(self.terms), self.terms.values()):
            term: complex | Scalar = c
            for i, p in enumerate(e):
                if p:
                    if i not in values:
                        raise DomainError(
                            f"no value supplied for variable {REGISTRY.name(i)!r}"
                        )
                    term = term * values[i] ** p
            total = total + term
        return total

    def named_terms(self) -> Iterator[tuple[dict[str, int], Scalar]]:
        """Each term as ({variable name: power}, coefficient)."""
        for e, c in zip(_packing(self.width).exponents(self.terms), self.terms.values()):
            yield {REGISTRY.name(i): p for i, p in enumerate(e) if p}, c

    # -- normalization helpers ----------------------------------------------

    def content(self) -> Scalar:
        """Positive rational c such that self/c has coprime integer coeffs."""
        if not self.terms:
            return 1
        values = self.terms.values()
        if all(map(isinstance, values, repeat(int))):
            # the normalised case, in one call
            return gcd(*values)
        num_gcd = 0
        den_lcm = 1
        for c in values:
            if type(c) is int:
                num_gcd = gcd(num_gcd, c)
            else:
                num_gcd = gcd(num_gcd, c.numerator)
                den_lcm = lcm(den_lcm, c.denominator)
        return _div(num_gcd, den_lcm)

    def primitive(self) -> "MultiPoly":
        """Divide out content and make the leading coefficient positive."""
        if self.is_zero():
            return self
        c = self.content()
        if self.leading()[1] < 0:
            c = -c
        return self if c == 1 else self._divscalar(c)

    def _divscalar(self, c: Scalar) -> "MultiPoly":
        """self / c for a nonzero scalar c."""
        return _poly({k: _div(v, c) for k, v in self.terms.items()}, self.width)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        used, coefs, rows = self._rows()
        return _text(list(map(REGISTRY.name, used)), coefs, rows)

    def _rows_in(self, order: Sequence[str]) -> tuple[list[Scalar], list[tuple[int, ...]]]:
        """The terms in decreasing monomial order for the variable order
        ``order`` instead of the registry's, as each term's coefficient and
        its exponents in the variables of ``order``."""
        known = set(order)
        pairs = []
        for powers, c in self.named_terms():
            if not powers.keys() <= known:
                raise DomainError(f"variables {sorted(powers.keys() - known)} are not in the order")
            pairs.append((tuple(powers.get(v, 0) for v in order), c))
        # graded lexicographic: total degree first, then the exponents in order
        pairs.sort(key=lambda pair: (sum(pair[0]), pair[0]), reverse=True)
        return [c for _, c in pairs], [row for row, _ in pairs]

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        used, coefs, rows = self._rows()
        return {
            "vars": [REGISTRY.name(i) for i in used],
            "terms": [{"coef": str(c), "exp": list(row)} for c, row in zip(coefs, rows)],
        }

    def _json_text(self, nl: str) -> str:
        """``json.dumps(self.to_json(), indent=2)`` with ``nl[1:]`` before
        every line but the first: the polynomial's text nested in a JSON
        document whose current line prefix is nl.

        Every term's text is one template, built once for the polynomial,
        whose gaps are filled column by column: the coefficients, then the
        exponents of each used variable from a table of decimal strings.
        ``str.format`` on each term takes about twice as long: it parses the
        template and converts every exponent anew."""
        if not self.terms:
            return "{" + nl + '  "vars": [],' + nl + '  "terms": []' + nl + "}"
        used, coefs, rows = self._rows()
        rows = list(rows)
        n1, n2, n3, n4 = (nl + "  " * depth for depth in range(1, 5))
        if used:
            names = "[" + n2 + ("," + n2).join(map(_encode_str, map(REGISTRY.name, used))) + n1 + "]"
            texts = ['",' + n3 + '"exp": [' + n4] + ["," + n4] * (len(used) - 1) + [n3 + "]" + n2 + "}"]
        else:
            names = "[]"
            texts = ['",' + n3 + '"exp": []' + n2 + "}"]
        decimal = list(map(str, range(self.total_degree() + 1)))
        columns = [map(str, coefs)]
        columns += [map(decimal.__getitem__, map(itemgetter(k), rows)) for k in range(len(used))]
        pieces = [repeat("{" + n3 + '"coef": "')]
        for column, text in zip(columns, texts):
            pieces += column, repeat(text)
        terms = ("," + n2).join(map("".join, zip(*pieces)))
        return "{" + n1 + '"vars": ' + names + "," + n1 + '"terms": [' + n2 + terms + n1 + "]" + nl + "}"

    @staticmethod
    def from_json(data: dict) -> "MultiPoly":
        idx = [REGISTRY.add(n) for n in data["vars"]]
        terms: dict[tuple[int, ...], Scalar] = {}
        for t in data["terms"]:
            exp = [0] * (max(idx) + 1 if idx else 0)
            for k, p in enumerate(t["exp"]):
                exp[idx[k]] = p
            terms[tuple(exp)] = Fraction(t["coef"])
        return MultiPoly(terms)


def _heap_divide(rem: dict[int, Scalar], dk: int, dcoef: Scalar, tail: dict[int, Scalar],
                 guard: int) -> dict[int, Scalar] | None:
    """The quotient's terms of the packed dividend rem by the divisor with
    leading term (dk, dcoef) and other terms tail, or None when a step
    needs a negative exponent; rem is used up."""
    # the heap holds the remainder's monomials negated, so its least entry
    # is the greatest monomial
    heap = [-k for k in rem]
    heapify(heap)
    quo: dict[int, Scalar] = {}
    while heap:
        lk = -heappop(heap)
        lcoef = rem.pop(lk, None)
        if lcoef is None:  # cancelled, or a repeated heap entry
            continue
        qk = lk - dk
        if qk & guard:  # an exponent of the quotient term is negative
            return None
        qc = _div(lcoef, dcoef)
        quo[qk] = qc
        for k, c in tail.items():
            m = qk + k
            v = rem.get(m)
            if v is None:
                rem[m] = -qc * c
                heappush(heap, -m)
            else:
                v -= qc * c
                if v:
                    rem[m] = v
                else:
                    del rem[m]
    return quo


def _text(names: Sequence[str], coefs: Iterable[Scalar], rows: Iterable[Sequence[int]]) -> str:
    """The text of a polynomial whose terms, in decreasing monomial order,
    have these coefficients and these exponents in the variables ``names``:
    the one term formatter of ``MultiPoly.__str__`` and ``RatFun.texts``."""
    pieces: list[str] = []
    for coef, row in zip(coefs, rows):
        mono = "*".join(v + (f"^{p}" if p > 1 else "") for v, p in zip(names, row) if p)
        a = abs(coef)
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        pieces.append(("- " if coef < 0 else "+ ") + body)
    if not pieces:
        return "0"
    out = " ".join(pieces)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


#: The denominator of every ``RatFun`` whose denominator is 1, so ``den is
#: _ONE`` tests for one in O(1).  Like every polynomial it is never changed
#: in place.
_ONE = MultiPoly.const(1)

#: ``RatFun.eval_numeric`` refuses a denominator of smaller magnitude.
_MIN_DEN = 1e-6


class RatFun:
    """A fraction of MultiPolys, normalized by content only.

    ``equals`` is the exact mathematical test, by cross-multiplication.
    ``==`` and ``hash`` compare the normalised representations (num, den),
    as ``MultiPoly``'s do its terms: equal representations are equal
    functions, but a fraction that is not reduced by a common polynomial
    factor can equal another function without ``==``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Coercible, den: Coercible = 1):
        n = MultiPoly._coerce(num)
        d = MultiPoly._coerce(den)
        if d.terms == _ONE.terms and all(type(c) is int for c in n.terms.values()):
            # both passes below are the identity here: den's only key is
            # 0, so no monomial is shared, and num's content is an int,
            # so the scale s is 1
            self.num = n
            self.den = _ONE
            return
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero():
            self.num = MultiPoly.zero()
            self.den = _ONE
            return
        # common monomial factor, none when a constant term (key 0) is
        # there; a variable past the narrower width has exponent 0 there
        if 0 not in n.terms and 0 not in d.terms:
            shared = tuple(map(min, zip(*_packing(n.width).exponents(n.terms),
                                        *_packing(d.width).exponents(d.terms))))
            if any(shared):
                mono = MultiPoly({shared: 1})
                n = n.divexact(mono)  # type: ignore[assignment]
                d = d.divexact(mono)  # type: ignore[assignment]
        # joint content normalization: num and den are divided by one scalar
        # s, so that num gets integer coefficients and den becomes the least
        # integer multiple of its primitive part (positive leading
        # coefficient) that allows it; a constant den becomes a positive int
        c = d.content()
        if d.leading()[1] < 0:
            c = -c
        s = _div(c, _div(n.content(), c).denominator)
        if s != 1:
            n = n._divscalar(s)
            d = d._divscalar(s)
        self.num = n
        self.den = _ONE if d.terms == _ONE.terms else d

    @staticmethod
    def _polynomial(num: MultiPoly) -> "RatFun":
        """num over _ONE, for a num with int coefficients: what __init__
        returns for it, without the call."""
        r = RatFun.__new__(RatFun)
        r.num = num
        r.den = _ONE
        return r

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _coerce(other: "RatFun | Coercible") -> "RatFun":
        if type(other) is RatFun:
            return other
        if type(other) is int:
            return RatFun._polynomial(MultiPoly._coerce(other))
        if isinstance(other, (MultiPoly, int, Fraction)):
            return RatFun(other)
        return NotImplemented  # type: ignore[return-value]

    @staticmethod
    def var(name: str) -> "RatFun":
        return RatFun(MultiPoly.var(name))

    @staticmethod
    def const(c: Scalar) -> "RatFun":
        return RatFun(MultiPoly.const(c))

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_const()

    def as_poly(self) -> MultiPoly:
        if self.den is _ONE:
            return self.num
        if not self.is_poly():
            raise DomainError("rational function is not polynomial")
        return self.num.divexact(self.den)  # type: ignore[return-value]

    def is_bare_var(self) -> str | None:
        """Name of the variable if self is exactly one variable, else None."""
        if not self.is_poly():
            return None
        p = self.as_poly()
        if len(p.terms) != 1:
            return None
        (key, coef), = p.terms.items()
        # trimmed, a variable is the last field, and degree 1
        if coef != 1 or key != (1 << _BITS * p.width) + 1:
            return None
        return REGISTRY.name(p.width - 1)

    def variables(self) -> set[str]:
        return self.num.variables() | self.den.variables()

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return RatFun._polynomial(self.num + o.num)
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        if self.den is _ONE:
            return RatFun._polynomial(-self.num)
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return RatFun._polynomial(self.num * o.num)
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            return RatFun(self.den, self.num) ** (-n)
        return RatFun(self.num**n, self.den**n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- the spec surface ----------------------------------------------------

    def equals(self, other: "RatFun | Coercible") -> bool:
        o = self._coerce(other)
        return (self.num * o.den - o.num * self.den).is_zero()

    def substitute(self, var: str, value: "RatFun") -> "RatFun":
        if var not in self.variables():
            return self
        n = _poly_subs_ratfun(self.num, var, value)
        if self.den is _ONE:
            # n / 1 renormalises the normalised n, which changes nothing
            return n
        d = _poly_subs_ratfun(self.den, var, value)
        if d.is_zero():
            raise ZeroDivisionError(
                "substitution produced an identically-zero denominator"
            )
        return n / d

    def relabel(self, names: Mapping[str, str]) -> "RatFun":
        """Simultaneous variable relabel by name (see MultiPoly.relabel)."""
        return RatFun(self.num.relabel(names), self.den.relabel(names))

    def eval_numeric(self, point: Mapping[str, complex]) -> complex:
        dv = complex(self.den.eval(point))
        if abs(dv) < _MIN_DEN:
            raise ConditioningError(
                f"denominator magnitude {abs(dv):.3g} below {_MIN_DEN:g}"
            )
        return complex(self.num.eval(point)) / dv

    def texts(self, order: Mapping[str, str]) -> tuple[str, str]:
        """The texts of numerator and denominator in the variable order of
        ``order``'s keys, each variable written as its value: what ``str``
        gives of both, were this fraction normalised with that order as the
        monomial order.  That normalisation can only negate both, when the
        denominator's leading coefficient in that order is negative.  No
        registry position is compared and no name is registered."""
        names, variables = list(order.values()), list(order)
        (ncoefs, nrows), (dcoefs, drows) = self.num._rows_in(variables), self.den._rows_in(variables)
        if dcoefs[0] < 0:
            ncoefs, dcoefs = [-c for c in ncoefs], [-c for c in dcoefs]
        return _text(names, ncoefs, nrows), _text(names, dcoefs, drows)

    def __str__(self) -> str:
        if self.is_poly():
            return str(self.num) if self.den == 1 else f"({self.num})/{self.den}"
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFun({self})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data: dict) -> "RatFun":
        return RatFun(
            MultiPoly.from_json(data["num"]), MultiPoly.from_json(data["den"])
        )


class FactoredRatFun:
    """A rational function coef * num / prod(base[j] ** exps[j]) whose
    denominator is kept as powers of factors from a shared list.

    Sums are taken over the least common denominator, not the product of
    the two, and ``to_ratfun`` cancels each factor as often as it divides
    the numerator, so a calculation whose denominators come from known
    factors never builds the powers that a plain ``RatFun`` sum would have
    to divide out again.  A denominator factor that is not in the list is
    appended to it.  A quotient cancels the divisor's denominator powers
    against its own exponents and multiplies into the numerator only a
    power whose remainder is negative; over pairwise coprime factors
    ``to_ratfun`` then gives the num and den that multiplying every power
    in and dividing it out again would give.

    The rational scalar ``coef`` is kept apart from the numerator, so a
    numerator lifted from a ``RatFun`` keeps integer coefficients through
    every operation: scalars meet the numerator only as integer multipliers.
    """

    __slots__ = ("num", "coef", "exps", "base")

    def __init__(
        self, num: MultiPoly, coef: Scalar, exps: dict[int, int], base: list[MultiPoly]
    ):
        self.num = num
        self.coef = coef
        self.exps = exps
        self.base = base

    @staticmethod
    def lift(x: RatFun, base: list[MultiPoly]) -> "FactoredRatFun":
        """x with its denominator factored over base."""
        exps, scale = FactoredRatFun._factor(x.den, base)
        return FactoredRatFun(x.num, _div(1, scale), exps, base)

    @staticmethod
    def _factor(p: MultiPoly, base: list[MultiPoly]) -> tuple[dict[int, int], Scalar]:
        """Exponents e and a scalar s with p = s * prod(base[j] ** e[j]), by
        exact trial division; a rest that no base factor divides is
        appended to base."""
        exps: dict[int, int] = {}
        for j, c in enumerate(base):
            if p.is_const():
                break
            if c.is_const():
                continue
            while (q := p.divexact(c)) is not None:
                exps[j] = exps.get(j, 0) + 1
                p = q
        if p.is_const():
            return exps, p.const_value()
        base.append(p.primitive())
        exps[len(base) - 1] = 1
        return exps, _div(p.leading()[1], base[-1].leading()[1])

    def _coerce(self, other) -> "FactoredRatFun":
        if isinstance(other, FactoredRatFun):
            return other
        return FactoredRatFun(MultiPoly._coerce(other), 1, {}, self.base)

    def _raised(self, exps: Mapping[int, int], m: int) -> MultiPoly:
        """m times the numerator over the denominator with exponents exps."""
        n = self.num if m == 1 else self.num * m
        for j in sorted(exps):
            k = exps[j] - self.exps.get(j, 0)
            if k:
                n = n * self.base[j] ** k
        return n

    def __add__(self, other) -> "FactoredRatFun":
        o = self._coerce(other)
        exps = {j: max(self.exps.get(j, 0), o.exps.get(j, 0))
                for j in self.exps.keys() | o.exps.keys()}
        # the common scalar g / d leaves an integer multiplier on each side
        a, b = self.coef, o.coef
        g = gcd(a.numerator, b.numerator)
        d = lcm(a.denominator, b.denominator)
        num = (self._raised(exps, a.numerator // g * (d // a.denominator))
               + o._raised(exps, b.numerator // g * (d // b.denominator)))
        return FactoredRatFun(num, _div(g, d), exps, self.base)

    __radd__ = __add__

    def __neg__(self) -> "FactoredRatFun":
        return FactoredRatFun(self.num, -self.coef, self.exps, self.base)

    def __sub__(self, other) -> "FactoredRatFun":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FactoredRatFun":
        return (-self) + other

    def __mul__(self, other) -> "FactoredRatFun":
        o = self._coerce(other)
        exps = dict(self.exps)
        for j, e in o.exps.items():
            exps[j] = exps.get(j, 0) + e
        return FactoredRatFun(self.num * o.num, self.coef * o.coef, exps, self.base)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FactoredRatFun":
        o = self._coerce(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        exps, scale = self._factor(o.num, self.base)
        for j, e in self.exps.items():
            exps[j] = exps.get(j, 0) + e
        # o's denominator powers cancel against the quotient's own; only a
        # power that o's denominator has in excess is multiplied in
        num = self.num
        for j, e in o.exps.items():
            k = exps.get(j, 0) - e
            if k < 0:
                num = num * self.base[j] ** -k
                k = 0
            exps[j] = k
        return FactoredRatFun(num, _div(self.coef, o.coef * scale), exps, self.base)

    def to_ratfun(self) -> RatFun:
        """The RatFun, with every base factor cancelled as often as it
        divides both numerator and denominator."""
        num, den = self.num, MultiPoly.const(self.coef.denominator)
        for j in sorted(self.exps):
            e = self.exps[j]
            while e and (q := num.divexact(self.base[j])) is not None:
                num, e = q, e - 1
            if e:
                den = den * self.base[j] ** e
        if self.coef.numerator != 1:
            num = num * self.coef.numerator
        return RatFun(num, den)


def _poly_subs_ratfun(p: MultiPoly, var: str, value: RatFun) -> RatFun:
    parts = p.coeffs_in(var)
    if not parts:
        return RatFun(0)
    top = max(parts)
    # Horner in the substituted value
    result = RatFun(parts.get(top, MultiPoly.zero()))
    for k in range(top - 1, -1, -1):
        result = result * value + RatFun(parts.get(k, MultiPoly.zero()))
    return result


def clear_denominators(
    eq: RatFun, known_factors: Iterable[MultiPoly] = ()
) -> tuple[MultiPoly, list[MultiPoly]]:
    """Split eq into a denominator-free equation and tracked exclusion factors.

    Returns the primitive numerator and a new factor list: the known
    factors, unchanged and in their order, then the primitive rest of the
    denominator that none of them divides, if it is not constant (the trial
    division of ``FactoredRatFun._factor``).
    """
    factors = list(known_factors)
    FactoredRatFun._factor(eq.den, factors)
    return eq.num.primitive(), factors


def pseudo_reduce(p: MultiPoly, c: MultiPoly, var: str) -> MultiPoly:
    """Pseudo-remainder of p modulo c with respect to one variable.

    When the leading coefficient of c in var is a nonzero constant this is
    an exact reduction, so a zero result certifies ideal membership.
    """
    dc = c.degree_in(var)
    if dc == 0:
        raise DomainError(f"constraint has no {var!r} dependence")
    lc = c.coeffs_in(var)[dc]
    x = MultiPoly.var(var)
    while True:
        dp = p.degree_in(var)
        if dp < dc:
            return p
        lp = p.coeffs_in(var)[dp]
        p = lc * p - lp * x ** (dp - dc) * c
