"""Tangle expressions: grammar, parser, printer, continued fractions,
rational-tangle expansion, and strand connectivity.

Grammar (whitespace insensitive)::

    expr   := ("D(" | "N(") tangle ")" | tangle
    tangle := atom | tangle ("*v" | "*h") tangle      (left-associative)
    atom   := "[" int "]" | "[1/" int "]"
            | "[[" int ("],[" int)* "]]" | "(" tangle ")"

Ends of a tangle are labeled nw, ne, sw, se, and a tangle induces a perfect
matching on them.  The single crossing pairs nw-se and ne-sw; compositions
glue matchings by path-following (vertical: bottom of the left factor to
top of the right factor; horizontal: east of the left factor to west of
the right factor), and the two closures join the remaining four ends in
the two planar ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import TangleParseError

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntTwist:
    """[k] — a horizontal twist region of k crossings."""

    k: int


@dataclass(frozen=True)
class VertTwist:
    """[1/k] — a vertical twist region of k crossings."""

    k: int


@dataclass(frozen=True)
class Rational:
    """[[k1],...,[ks]] — a rational tangle given by its twist vector."""

    ks: tuple[int, ...]


@dataclass(frozen=True)
class CompV:
    """Vertical composition: right factor placed below the left one."""

    left: "TangleExpr"
    right: "TangleExpr"


@dataclass(frozen=True)
class CompH:
    """Horizontal composition: right factor placed east of the left one."""

    left: "TangleExpr"
    right: "TangleExpr"


TangleExpr = Union[IntTwist, VertTwist, Rational, CompV, CompH]


@dataclass(frozen=True)
class ClosureExpr:
    kind: str  # "D" or "N"
    body: TangleExpr


#: Deepest expression accepted by ``parse``.  A composition adds one level
#: to the deeper of its factors, a rational tangle [[k1],...,[ks]] counts as
#: its s-atom expansion, and parentheses may not nest deeper either.  The
#: parser, connectivity, engine and printer recurse once or twice per
#: level, so this keeps every stage well inside Python's recursion limit.
MAX_DEPTH = 200


def _check_twist(k: int, pos: int) -> None:
    if k == 0:
        raise TangleParseError("twist parameter must be nonzero", pos)


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

    def peek(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.i)

    def expect(self, s: str) -> None:
        if not self.peek(s):
            raise TangleParseError(f"expected {s!r}", self.i)
        self.i += len(s)

    def parse_int(self) -> int:
        self.skip_ws()
        j = self.i
        if j < len(self.text) and self.text[j] in "+-":
            j += 1
        k = j
        while k < len(self.text) and self.text[k].isdigit():
            k += 1
        if k == j:
            raise TangleParseError("expected an integer", self.i)
        val = int(self.text[self.i:k])
        self.i = k
        return val

    def parse_expr(self) -> ClosureExpr | TangleExpr:
        for kind in ("D", "N"):
            if self.peek(kind + "("):
                self.expect(kind + "(")
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
            if self.peek("*v"):
                self.expect("*v")
                node = CompV(node, self.parse_atom())
            elif self.peek("*h"):
                self.expect("*h")
                node = CompH(node, self.parse_atom())
            else:
                return node

    def parse_atom(self) -> TangleExpr:
        if self.peek("("):
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise TangleParseError(
                    f"parentheses nested deeper than {MAX_DEPTH}", self.i
                )
            self.expect("(")
            node = self.parse_tangle()
            self.expect(")")
            self.nesting -= 1
            return node
        if self.peek("[["):
            start = self.i
            self.expect("[[")
            ks = [self._rational_entry(start)]
            while self.peek("],["):
                self.expect("],[")
                ks.append(self._rational_entry(start))
            self.expect("]]")
            return Rational(tuple(ks))
        if self.peek("[1/"):
            start = self.i
            self.expect("[1/")
            k = self.parse_int()
            _check_twist(k, start)
            self.expect("]")
            return VertTwist(k)
        if self.peek("["):
            start = self.i
            self.expect("[")
            k = self.parse_int()
            _check_twist(k, start)
            self.expect("]")
            return IntTwist(k)
        raise TangleParseError("expected a tangle atom", self.i)

    def _rational_entry(self, start: int) -> int:
        pos = self.i
        k = self.parse_int()
        _check_twist(k, pos)
        return k


def parse(text: str) -> ClosureExpr | TangleExpr:
    """Parse a tangle or closure expression; errors carry a position."""
    if not text.strip():
        raise TangleParseError("empty expression", 0)
    expr = _Parser(text).parse_expr()
    if tree_depth(expr) > MAX_DEPTH:
        raise TangleParseError(f"expression deeper than {MAX_DEPTH} levels", 0)
    return expr


def tree_depth(expr: ClosureExpr | TangleExpr) -> int:
    """Levels of the expression tree, a rational tangle counting as its
    expansion; iterative, so any depth can be measured."""
    deepest = 0
    stack = [(expr.body if isinstance(expr, ClosureExpr) else expr, 1)]
    while stack:
        e, level = stack.pop()
        if isinstance(e, (CompV, CompH)):
            stack += ((e.left, level + 1), (e.right, level + 1))
        elif isinstance(e, Rational):
            deepest = max(deepest, level + len(e.ks) - 1)
        else:
            deepest = max(deepest, level)
    return deepest


def print_expr(expr: ClosureExpr | TangleExpr) -> str:
    """Canonical text form; parse(print_expr(e)) == e."""
    if isinstance(expr, ClosureExpr):
        return f"{expr.kind}({print_expr(expr.body)})"
    return _print_tangle(expr, top=True)


def _print_tangle(e: TangleExpr, top: bool = False) -> str:
    if isinstance(e, IntTwist):
        return f"[{e.k}]"
    if isinstance(e, VertTwist):
        return f"[1/{e.k}]"
    if isinstance(e, Rational):
        return "[[" + "],[".join(str(k) for k in e.ks) + "]]"
    op = " *v " if isinstance(e, CompV) else " *h "
    # left-associative: the left child never needs parentheses, the right
    # child does whenever it is itself a composition
    left = _print_tangle(e.left, top=False)
    right = _print_tangle(e.right, top=False)
    if isinstance(e.right, (CompV, CompH)):
        right = f"({right})"
    return left + op + right


def to_json(expr: ClosureExpr | TangleExpr) -> dict:
    if isinstance(expr, ClosureExpr):
        return {"node": expr.kind, "children": [to_json(expr.body)]}
    if isinstance(expr, IntTwist):
        return {"node": "int_twist", "k": expr.k}
    if isinstance(expr, VertTwist):
        return {"node": "vert_twist", "k": expr.k}
    if isinstance(expr, Rational):
        return {"node": "rational", "ks": list(expr.ks)}
    name = "comp_v" if isinstance(expr, CompV) else "comp_h"
    return {"node": name, "children": [to_json(expr.left), to_json(expr.right)]}


def from_json(data: dict) -> ClosureExpr | TangleExpr:
    node = data["node"]
    if node in ("D", "N"):
        return ClosureExpr(node, from_json(data["children"][0]))
    if node == "int_twist":
        return IntTwist(data["k"])
    if node == "vert_twist":
        return VertTwist(data["k"])
    if node == "rational":
        return Rational(tuple(data["ks"]))
    cls = CompV if node == "comp_v" else CompH
    return cls(from_json(data["children"][0]), from_json(data["children"][1]))


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
# strand connectivity
# ---------------------------------------------------------------------------

ENDS = ("nw", "ne", "sw", "se")


@dataclass(frozen=True)
class StrandPairing:
    """Perfect matching on the four ends plus interior closed loops."""

    pairs: frozenset  # frozenset of frozensets {end, end}
    closed_loops: int

    def partner(self, end: str) -> str:
        for pair in self.pairs:
            if end in pair:
                (other,) = pair - {end}
                return other
        raise KeyError(end)


def _matching(p1: str, q1: str, p2: str, q2: str, loops: int = 0) -> StrandPairing:
    return StrandPairing(
        frozenset({frozenset({p1, q1}), frozenset({p2, q2})}), loops
    )


def strand_pairing(expr: TangleExpr) -> StrandPairing:
    """End-to-end connectivity of a tangle, with interior loop count."""
    if isinstance(expr, IntTwist):
        if expr.k % 2:
            return _matching("nw", "se", "ne", "sw")
        return _matching("nw", "ne", "sw", "se")
    if isinstance(expr, VertTwist):
        if expr.k % 2:
            return _matching("nw", "se", "ne", "sw")
        return _matching("nw", "sw", "ne", "se")
    if isinstance(expr, Rational):
        return strand_pairing(expand_rational(expr.ks))
    left = strand_pairing(expr.left)
    right = strand_pairing(expr.right)
    if isinstance(expr, CompV):
        glue = (("sw", "nw"), ("se", "ne"))
        outer = {("L", "nw"): "nw", ("L", "ne"): "ne",
                 ("R", "sw"): "sw", ("R", "se"): "se"}
    else:
        glue = (("ne", "nw"), ("se", "sw"))
        outer = {("L", "nw"): "nw", ("L", "sw"): "sw",
                 ("R", "ne"): "ne", ("R", "se"): "se"}
    return _glue(left, right, glue, outer)


def _glue(
    left: StrandPairing,
    right: StrandPairing,
    glue: tuple,
    outer: dict,
) -> StrandPairing:
    # adjacency: matching edges inside each factor plus the glue edges
    link: dict[tuple, tuple] = {}
    for side, sp in (("L", left), ("R", right)):
        for pair in sp.pairs:
            a, b = tuple(pair)
            link[(side, a)] = (side, b)
            link[(side, b)] = (side, a)
    glued: dict[tuple, tuple] = {}
    for le, re in glue:
        glued[("L", le)] = ("R", re)
        glued[("R", re)] = ("L", le)

    loops = left.closed_loops + right.closed_loops
    pairs = set()
    seen: set[tuple] = set()
    for start in outer:
        if start in seen:
            continue
        node = start
        seen.add(node)
        while True:
            node = link[node]
            seen.add(node)
            if node in outer:
                break
            node = glued[node]
            seen.add(node)
        pairs.add(frozenset({outer[start], outer[node]}))
    # any glued endpoint not reached from an outer end lies on a closed loop
    interior = [n for n in glued if n not in seen]
    visited: set[tuple] = set()
    for start in interior:
        if start in visited:
            continue
        node = start
        while node not in visited:
            visited.add(node)
            node = link[node]
            visited.add(node)
            node = glued[node]
        loops += 1
    return StrandPairing(frozenset(pairs), loops)


def component_count(c: ClosureExpr) -> int:
    """Number of link components of the closed-up tangle."""
    sp = strand_pairing(c.body)
    if c.kind == "D":
        joins = (("nw", "sw"), ("ne", "se"))
    else:
        joins = (("nw", "ne"), ("sw", "se"))
    partner = {}
    for a, b in joins:
        partner[a] = b
        partner[b] = a
    count = sp.closed_loops
    seen: set[str] = set()
    for start in ENDS:
        if start in seen:
            continue
        node = start
        while node not in seen:
            seen.add(node)
            node = sp.partner(node)
            seen.add(node)
            node = partner[node]
        count += 1
    return count
