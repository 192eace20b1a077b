"""Tangle expressions: grammar, parser, printer, continued fractions,
rational-tangle expansion, and component counts by tangle parity.

The parser reads a rational tangle [[k1],...,[ks]] as its twist chain
(``expand_rational``), so a tree has four node kinds and no later stage a
rational-tangle case.

Grammar (whitespace between tokens is ignored, also inside "[[", "],[",
"]]", "[1/", "*v", "*h", "D(" and "N("; not inside an integer)::

    expr   := ("D(" | "N(") tangle ")" | tangle
    tangle := atom | tangle ("*v" | "*h") tangle      (left-associative)
    atom   := "[" int "]" | "[1/" int "]"
            | "[[" int ("],[" int)* "]]" | "(" tangle ")"
    int    := ["+" | "-"] ("0" | "1" | ... | "9")+      (ASCII digits only)

Ends of a tangle are labeled nw, ne, sw, se, and its strands join them in
pairs.  The pairing is the tangle's parity in {0, 1, INF} (nw joined to ne,
se or sw), and a composition's parity follows from its factors' by a
three-value rule (Conway 1970; Kauffman and Lambropoulou 2004), counting
the closed loops the gluing makes (vertical: bottom of the left factor to
top of the right factor; horizontal: east of the left factor to west of
the right factor).  The two closures join the four ends in the two planar
ways.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from . import _Record
from .errors import TangleParseError

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class IntTwist(_Record):
    """[k] — a horizontal twist region of k crossings."""

    __slots__ = ("k",)
    k: int


class VertTwist(_Record):
    """[1/k] — a vertical twist region of k crossings."""

    __slots__ = ("k",)
    k: int


class CompV(_Record):
    """Vertical composition: right factor placed below the left one."""

    __slots__ = ("left", "right")
    left: "TangleExpr"
    right: "TangleExpr"


class CompH(_Record):
    """Horizontal composition: right factor placed east of the left one."""

    __slots__ = ("left", "right")
    left: "TangleExpr"
    right: "TangleExpr"


TangleExpr = Union[IntTwist, VertTwist, CompV, CompH]


class ClosureExpr(_Record):
    """D(body) or N(body) — the denominator or numerator closure."""

    __slots__ = ("kind", "body")
    kind: str  # "D" or "N"
    body: TangleExpr


#: Deepest expression accepted by ``parse``.  A composition adds one level
#: to the deeper of its factors, so a rational tangle [[k1],...,[ks]] has s
#: levels, and parentheses may not nest deeper either.  The parser,
#: connectivity, engine and printer recurse once or twice per level, so
#: this keeps every stage well inside Python's recursion limit.
MAX_DEPTH = 200

#: Largest crossing count |k| of a twist region the invariant engine takes.
#: Its Chebyshev recursion runs |k| steps on polynomials of growing degree,
#: so its time grows faster than k^2: on a 2-core machine D([200] *v [1/3])
#: emits in about a second and D([400] *v [1/3]) in about five.  Component
#: counts come from parity and take any count.
MAX_TWIST = 200


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.nesting = 0

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def accept(self, token: str) -> bool:
        """Read token if the text continues with it, whitespace allowed
        before each of its characters: "[ 1 / 2 ]" reads as "[1/" 2 "]"."""
        text, j = self.text, self.i
        for ch in token:
            while j < len(text) and text[j].isspace():
                j += 1
            if not text.startswith(ch, j):
                return False
            j += 1
        self.i = j
        return True

    def expect(self, token: str) -> None:
        if not self.accept(token):
            self.skip_ws()
            raise TangleParseError(f"expected {token!r}", self.i)

    def parse_twist(self, pos: int | None = None) -> int:
        """A nonzero integer; a zero is reported at pos, by default where
        the integer starts."""
        self.skip_ws()
        j = self.i
        if j < len(self.text) and self.text[j] in "+-":
            j += 1
        k = j
        while k < len(self.text) and "0" <= self.text[k] <= "9":
            k += 1
        if k == j:
            raise TangleParseError("expected an integer", self.i)
        val = int(self.text[self.i:k])
        if val == 0:
            raise TangleParseError(
                "twist parameter must be nonzero", self.i if pos is None else pos
            )
        self.i = k
        return val

    def parse_expr(self) -> ClosureExpr | TangleExpr:
        for kind in ("D", "N"):
            if self.accept(kind + "("):
                body = self.parse_tangle()
                self.expect(")")
                self.skip_ws()
                if self.i != len(self.text):
                    raise TangleParseError("trailing input after closure", self.i)
                return ClosureExpr(kind, body)
        out = self.parse_tangle()
        self.skip_ws()
        if self.i != len(self.text):
            raise TangleParseError("trailing input", self.i)
        return out

    def parse_tangle(self) -> TangleExpr:
        node = self.parse_atom()
        while True:
            if self.accept("*v"):
                node = CompV(node, self.parse_atom())
            elif self.accept("*h"):
                node = CompH(node, self.parse_atom())
            else:
                return node

    def parse_atom(self) -> TangleExpr:
        self.skip_ws()
        start = self.i
        if self.accept("("):
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise TangleParseError(
                    f"parentheses nested deeper than {MAX_DEPTH}", start
                )
            node = self.parse_tangle()
            self.expect(")")
            self.nesting -= 1
            return node
        if self.accept("[["):
            ks = [self.parse_twist()]
            while self.accept("],["):
                if len(ks) == MAX_DEPTH:
                    raise TangleParseError(
                        f"expression deeper than {MAX_DEPTH} levels", start
                    )
                ks.append(self.parse_twist())
            self.expect("]]")
            return expand_rational(ks)
        for token, twist in (("[1/", VertTwist), ("[", IntTwist)):
            if self.accept(token):
                k = self.parse_twist(start)
                self.expect("]")
                return twist(k)
        raise TangleParseError("expected a tangle atom", start)


def parse(text: str) -> ClosureExpr | TangleExpr:
    """Parse a tangle or closure expression; errors carry a position."""
    if not text.strip():
        raise TangleParseError("empty expression", 0)
    expr = _Parser(text).parse_expr()
    if tree_depth(expr) > MAX_DEPTH:
        raise TangleParseError(f"expression deeper than {MAX_DEPTH} levels", 0)
    return expr


def tree_depth(expr: ClosureExpr | TangleExpr) -> int:
    """Levels of the expression tree; iterative, so any depth can be measured."""
    deepest = 0
    stack = [(expr.body if isinstance(expr, ClosureExpr) else expr, 1)]
    while stack:
        e, level = stack.pop()
        if isinstance(e, (CompV, CompH)):
            stack += ((e.left, level + 1), (e.right, level + 1))
        else:
            deepest = max(deepest, level)
    return deepest


def print_expr(expr: ClosureExpr | TangleExpr) -> str:
    """Canonical text form; parse(print_expr(e)) == e."""
    if isinstance(expr, ClosureExpr):
        return f"{expr.kind}({print_expr(expr.body)})"
    return _print_tangle(expr)


def _print_tangle(e: TangleExpr) -> str:
    if isinstance(e, IntTwist):
        return f"[{e.k}]"
    if isinstance(e, VertTwist):
        return f"[1/{e.k}]"
    op = " *v " if isinstance(e, CompV) else " *h "
    # left-associative: the left child never needs parentheses, the right
    # child does whenever it is itself a composition
    left = _print_tangle(e.left)
    right = _print_tangle(e.right)
    if isinstance(e.right, (CompV, CompH)):
        right = f"({right})"
    return left + op + right


# ---------------------------------------------------------------------------
# continued fractions and rational-tangle expansion
# ---------------------------------------------------------------------------


def continued_fraction(ks: list[int] | tuple[int, ...]) -> Fraction:
    """Value k_s + 1/(k_{s-1} + 1/(... )) built front to back."""
    if not ks:
        raise TangleParseError("empty twist vector", 0)
    val = Fraction(ks[0])
    for k in ks[1:]:
        if val == 0:
            raise TangleParseError("division by zero in continued fraction", 0)
        val = Fraction(k) + 1 / val
    return val


def expand_rational(ks: list[int] | tuple[int, ...]) -> TangleExpr:
    """Structural form of [[k1],...,[ks]] as an alternating twist chain.

    The last atom is always the horizontal twist [k_s]; going left the
    atoms alternate with vertical twists, so for odd s the chain starts
    [k1] *v [1/k2] *h [k3] ... and for even s it starts [1/k1] *h [k2] ...
    Left-associated.
    """
    if not ks:
        raise TangleParseError("empty twist vector", 0)
    s = len(ks)
    for pos, k in enumerate(ks):
        if k == 0:
            raise TangleParseError("twist parameter must be nonzero", pos)

    def atom(j: int) -> TangleExpr:
        # 1-based position; same parity as s means a horizontal twist
        if (j - s) % 2 == 0:
            return IntTwist(ks[j - 1])
        return VertTwist(ks[j - 1])

    node = atom(1)
    for j in range(2, s + 1):
        nxt = atom(j)
        if isinstance(nxt, IntTwist):
            node = CompH(node, nxt)
        else:
            node = CompV(node, nxt)
    return node


# ---------------------------------------------------------------------------
# connectivity by parity
# ---------------------------------------------------------------------------

#: The parity of a 4-ended tangle says which end nw is joined to: 0 for ne,
#: 1 for se, INF for sw.  A small int, so that p -> INF - p swaps 0 and INF.
INF = 2


def parity(expr: TangleExpr) -> tuple[int, int]:
    """(parity, interior closed loops) of a tangle.

    Horizontal composition adds parities mod 2 with INF absorbing, and
    INF *h INF closes a loop; vertical composition is the same rule with 0
    and INF swapped, so 0 *v 0 closes a loop.
    """
    if isinstance(expr, IntTwist):
        return expr.k % 2, 0
    if isinstance(expr, VertTwist):
        return INF - expr.k % 2, 0
    (a, loops_a), (b, loops_b) = parity(expr.left), parity(expr.right)
    vertical = isinstance(expr, CompV)
    if vertical:
        a, b = INF - a, INF - b
    p = INF if INF in (a, b) else a ^ b
    loops = loops_a + loops_b + (a == b == INF)
    return (INF - p if vertical else p), loops


def component_count(c: ClosureExpr) -> int:
    """Number of link components of the closed-up tangle: D joins nw-sw
    and ne-se, so it makes two components from parity INF; N joins nw-ne
    and sw-se, so it makes two from parity 0."""
    p, loops = parity(c.body)
    return loops + (2 if p == (INF if c.kind == "D" else 0) else 1)
