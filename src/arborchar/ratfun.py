"""Exact multivariate polynomial and rational-function arithmetic over Q.

Polynomials are sparse: a dict from exponent tuples to coefficients.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` only when
it is not (see ``_canon``), so arithmetic on the integer polynomials that
``RatFun`` normalises to builds no Fraction.  Exponent tuples are indexed
against a global, append-only variable registry and stored with trailing
zeros trimmed, so values stay canonical when later variables are
registered.  The monomial order is graded lexicographic with
earlier-registered variables taking priority.

Products and exact divisions pack exponent tuples into ints for the span of
one operation (``_Packing``; Johnson, SIGSAM Bull. 1974; Monagan and
Pearce, CASC 2007): a total-degree field, then one field per variable, each
with a guard bit.  A product of monomials is then an int sum, a
divisibility test is one mask, and int order is the monomial order, which
``leading`` and the JSON writers (``to_json`` and the text that
``arborchar emit`` writes) use as well.  Operands and results
keep their tuple keys.  A factor with a single term is applied as an exponent
shift and a coefficient scale, without packing: no two of its products can
collide.  ``FactoredRatFun`` keeps a rational scalar apart from its
numerator, so the integer numerators that ``RatFun`` normalises to stay
integer through its arithmetic.  A ``FactoredRatFun`` quotient cancels the
divisor's denominator in its exponent map and multiplies into the
numerator only the powers whose exponent would go negative.

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
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd, lcm
from operator import add, and_, itemgetter, lshift, or_
from typing import Collection, Iterable, Iterator, Mapping, Sequence, Union

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


#: The keys of a constant polynomial's terms are a subset of this set.
_CONST_KEYS = frozenset({()})


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


def _trim(exp: tuple[int, ...]) -> tuple[int, ...]:
    if exp and not exp[-1]:
        # length up to the last nonzero exponent, found without a Python loop
        return exp[: next(compress(range(len(exp), 0, -1), reversed(exp)), 0)]
    return exp


def _pad(exp: tuple[int, ...], n: int) -> tuple[int, ...]:
    return exp + (0,) * (n - len(exp))


class _Packing:
    """Exponent tuples packed into ints, for the span of one operation.

    Fields, most significant first: the total degree, then the exponent of
    each variable in registry order.  So int order is the monomial order and
    a product of monomials is a sum of ints.  A field is one byte when the
    operation's degree bound is below 128 and two bytes below 32768, so its
    top bit, the guard bit, is clear in every monomial of the operation.
    For packed a and b, ``(a - b) & guard`` is then nonzero exactly when
    some exponent of a is less than that of b: the least significant such
    field is the first to borrow, which sets its guard bit, and with no such
    field nothing borrows.  ``guard`` masks the exponent fields' guard bits.
    """

    __slots__ = ("guard", "_bytes", "_width", "_ends", "_top")

    def __init__(self, degree: int, width: int):
        """A packing for monomials in at most ``width`` variables whose total
        degree is at most ``degree``."""
        if degree < 1 << 7:
            size = 1
        elif degree < 1 << 15:
            size = 2
        else:
            raise DomainError(f"total degree {degree} is too large to pack")
        bits = 8 * size
        self._bytes = size
        self._width = width
        # _ends[n] is the shift of variable n - 1's field, so it places a
        # tuple of length n whose fields are laid out end to end (an empty
        # tuple packs to 0 under any shift); _ends[1:] places each field
        self._ends = range(bits * width, -1, -bits)
        self._top = bits * width
        self.guard = int.from_bytes(b"\x80".ljust(size, b"\0") * width, "big")

    def pack(self, exps: Collection[tuple[int, ...]]) -> Iterator[int]:
        """The packed monomials of a collection of exponent tuples, in its
        order.  With one-byte fields every step is a builtin mapped over the
        collection, with no Python frame per monomial; so is ``unpack``."""
        if self._bytes == 1:
            fields = map(int.from_bytes, map(bytes, exps), repeat("big"))
            low = map(lshift, fields, map(self._ends.__getitem__, map(len, exps)))
        else:
            shifts = self._ends[1:]
            low = (sum(map(lshift, e, shifts)) for e in exps)
        return map(add, low, map(lshift, map(sum, exps), repeat(self._top)))

    def fields(self, keys: Iterable[int]) -> Iterator[Sequence[int]]:
        """The exponent fields of packed monomials, in their order: for each,
        one exponent per variable of the packing's width, trailing zeros
        included, so that a variable's exponent is at its registry position.
        With one-byte fields these are ``bytes``, else tuples."""
        size = self._bytes
        # the exponent fields, without the degree field above them
        fields = map(int.to_bytes, map(and_, keys, repeat((1 << self._top) - 1)),
                     repeat(size * self._width), repeat("big"))
        if size == 1:
            return fields
        return (tuple(map(add, map(lshift, f[::2], repeat(8)), f[1::2])) for f in fields)

    def unpack(self, keys: Iterable[int]) -> Iterator[tuple[int, ...]]:
        """The trimmed exponent tuples of packed monomials, in their order."""
        if self._bytes == 1:
            return map(tuple, map(bytes.rstrip, self.fields(keys), repeat(b"\0")))
        return map(_trim, self.fields(keys))


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients, each
    an int when integral and a Fraction otherwise."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        clean: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for exp, coef in terms.items():
                c = _canon(coef)
                if c:
                    clean[_trim(tuple(exp))] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def const(c: Scalar) -> "MultiPoly":
        return MultiPoly({(): c})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        i = REGISTRY.add(name)
        return MultiPoly({(0,) * i + (1,): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        # exponents are trimmed, so a constant term's exponent is ()
        return self.terms.keys() <= _CONST_KEYS

    def const_value(self) -> Scalar:
        if not self.terms:
            return 0
        if not self.is_const():
            raise DomainError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def degree_in(self, var: str) -> int:
        i = REGISTRY.index(var)
        return max((e[i] if i < len(e) else 0 for e in self.terms), default=0)

    def _positions(self) -> set[int]:
        """The exponent positions some term uses."""
        return {i for e in self.terms for i, p in enumerate(e) if p}

    def variables(self) -> set[str]:
        return set(map(REGISTRY.name, self._positions()))

    def _width(self) -> int:
        return max(map(len, self.terms), default=0)

    def _packing(self) -> _Packing:
        return _Packing(self.total_degree(), self._width())

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        packing = self._packing()
        (exp,) = packing.unpack([max(packing.pack(self.terms))])
        return exp, self.terms[exp]

    def _rows(self) -> tuple[list[int], Iterator[Scalar], Iterator[Sequence[int]]]:
        """The terms in decreasing monomial order, as the registry positions
        that some term uses, then each term's coefficient, then each term's
        exponents in the used variables: the one projection that both JSON
        forms write."""
        packing = self._packing()
        keys = list(packing.pack(self.terms))
        coefs = list(self.terms.values())
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        rows = packing.fields(map(keys.__getitem__, order))
        # a field of the keys' bitwise or is nonzero when some term uses it
        (mask,) = packing.fields([reduce(or_, keys, 0)])
        used = list(compress(range(len(mask)), mask))
        if len(used) < len(mask):
            # a gap below the last used position; a one-item itemgetter
            # would give an int, so the one-variable case takes a slice
            project = itemgetter(*used) if len(used) > 1 else itemgetter(slice(used[0], used[0] + 1))
            rows = map(project, rows)
        return used, map(coefs.__getitem__, order), rows

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other: Coercible) -> "MultiPoly":
        if type(other) is MultiPoly:
            return other
        if type(other) is int:
            # an int is already canonical, and () is already trimmed
            p = MultiPoly.__new__(MultiPoly)
            p.terms = {(): other} if other else {}
            return p
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Coercible) -> "MultiPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _canon(s)
            else:
                out.pop(e, None)
        p = MultiPoly.__new__(MultiPoly)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        p = MultiPoly.__new__(MultiPoly)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

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
        p = MultiPoly.__new__(MultiPoly)
        if len(self.terms) == 1 or len(o.terms) == 1:
            # a monomial factor shifts exponents: no two products collide.
            # The sum of trimmed tuples, with the longer one's tail, is
            # trimmed.
            if len(o.terms) == 1:
                terms, ((m, cm),) = self.terms, o.terms.items()
            else:
                terms, ((m, cm),) = o.terms, self.terms.items()
            if m:
                n = len(m)
                p.terms = {
                    tuple(map(add, e, m)) + e[n:] + m[len(e):]: _canon(c * cm)
                    for e, c in terms.items()
                }
            else:
                p.terms = {e: _canon(c * cm) for e, c in terms.items()}
            return p
        # products are inserted pair by pair in the operands' term order,
        # which fixes the order of the product's terms (named_terms yields
        # them in that order)
        packing = _Packing(
            self.total_degree() + o.total_degree(), max(self._width(), o._width())
        )
        right = list(zip(packing.pack(o.terms), o.terms.values()))
        out: dict[int, Scalar] = {}
        for k1, c1 in zip(packing.pack(self.terms), self.terms.values()):
            for k2, c2 in right:
                k = k1 + k2
                s = out.get(k)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        p.terms = dict(zip(packing.unpack(out), map(_canon, out.values())))
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise DomainError("negative power of a polynomial")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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
        """
        if divisor.is_zero():
            raise DomainError("division by the zero polynomial")
        if self.is_zero():
            return MultiPoly.zero()
        if divisor.is_const():
            return self._divscalar(divisor.const_value())
        # no monomial of the division has a higher degree than the dividend
        # or the divisor
        packing = _Packing(
            max(self.total_degree(), divisor.total_degree()),
            max(self._width(), divisor._width()),
        )
        tail = dict(zip(packing.pack(divisor.terms), divisor.terms.values()))
        dk = max(tail)
        dcoef = tail.pop(dk)
        # remainder keyed by packed monomials; the heap holds them negated,
        # so its least entry is the greatest monomial
        rem = dict(zip(packing.pack(self.terms), self.terms.values()))
        heap = [-k for k in rem]
        heapify(heap)
        guard = packing.guard
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
        p = MultiPoly.__new__(MultiPoly)
        p.terms = dict(zip(packing.unpack(quo), quo.values()))
        return p

    # -- substitution and evaluation ----------------------------------------

    def coeffs_in(self, var: str) -> dict[int, "MultiPoly"]:
        """Split into coefficients of powers of one variable."""
        i = REGISTRY.index(var)
        out: dict[int, dict[tuple[int, ...], Scalar]] = {}
        for e, c in self.terms.items():
            p = e[i] if i < len(e) else 0
            rest = list(_pad(e, i + 1))
            rest[i] = 0
            out.setdefault(p, {})[_trim(tuple(rest))] = c
        return {p: MultiPoly(t) for p, t in out.items()}

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
        at once, by moving exponent positions; no coefficient arithmetic
        unless two monomials land on the same one.  New names are
        registered in the map's order."""
        moves = {REGISTRY.index(old): REGISTRY.add(new) for old, new in names.items()}
        if not moves or not self.terms:
            return self
        n = self._width()
        # moved positions only: a wide exponent tuple is copied, not walked
        shift = [(i, j) for i, j in moves.items() if i < n and i != j]
        if not shift:
            return self
        zeros = [0] * max(n, max(j for _, j in shift) + 1)
        out: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            new = list(e)
            new += zeros[len(e):]
            for i, j in shift:
                if i < len(e) and e[i]:
                    new[i] -= e[i]
                    new[j] += e[i]
            key = _trim(tuple(new))
            if key in out:
                s = out[key] + c
                if s:
                    out[key] = _canon(s)
                else:
                    del out[key]
            else:
                out[key] = c
        p = MultiPoly.__new__(MultiPoly)
        p.terms = out
        return p

    def eval(self, point: Mapping[str, complex | Scalar]) -> complex | Scalar:
        """Evaluate at a point given by variable name."""
        total: complex | Scalar = 0
        values = {REGISTRY.index(n): v for n, v in point.items()}
        for e, c in self.terms.items():
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
        for e, c in self.terms.items():
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
        p = MultiPoly.__new__(MultiPoly)
        p.terms = {e: _div(v, c) for e, v in self.terms.items()}
        return p

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
            terms[_trim(tuple(exp))] = Fraction(t["coef"])
        return MultiPoly(terms)


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
            # both passes below are the identity here: den's only exponent
            # is (), so no monomial is shared, and num's content is an int,
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
        # common monomial factor: exponents are trimmed, so a variable past
        # the end of any exponent tuple has exponent 0 there
        shared = tuple(map(min, zip(*n.terms, *d.terms)))
        if any(shared):
            mono = MultiPoly({_trim(shared): 1})
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
        (exp, coef), = p.terms.items()
        if coef != 1 or sum(exp) != 1:
            return None
        return REGISTRY.name(exp.index(1))

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
