"""Tangle grammar, printer, rational expansion, and connectivity."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from arborchar.errors import TangleParseError
from arborchar.tangle import (
    INF,
    MAX_DEPTH,
    ClosureExpr,
    CompH,
    CompV,
    IntTwist,
    VertTwist,
    component_count,
    continued_fraction,
    expand_rational,
    parity,
    parse,
    print_expr,
    tree_depth,
)


class TestParser:
    def test_atoms(self):
        assert parse("[3]") == IntTwist(3)
        assert parse("[-2]") == IntTwist(-2)
        assert parse("[1/4]") == VertTwist(4)
        assert parse("[1/-4]") == VertTwist(-4)
        # a rational tangle is read as its twist chain
        assert parse("[[2],[-3],[1]]") == expand_rational((2, -3, 1))
        assert parse("[[3]]") == parse("[3]") == IntTwist(3)
        assert parse("D([[-2]] *v [1/2])") == parse("D([-2] *v [1/2])")

    def test_compositions_left_associative(self):
        e = parse("[1] *v [2] *h [3]")
        assert e == CompH(CompV(IntTwist(1), IntTwist(2)), IntTwist(3))
        e2 = parse("[1] *v ([2] *h [3])")
        assert e2 == CompV(IntTwist(1), CompH(IntTwist(2), IntTwist(3)))

    def test_closures(self):
        c = parse("D([3] *v [1/2])")
        assert isinstance(c, ClosureExpr) and c.kind == "D"
        assert c.body == CompV(IntTwist(3), VertTwist(2))
        assert parse("N([2])").kind == "N"

    def test_whitespace_insensitive(self):
        assert parse(" D( [2]*v[1/3] ) ") == parse("D([2] *v [1/3])")

    @pytest.mark.parametrize(
        "spaced, compact",
        [
            ("D([[2], [3]] *v [1/2])", "D([[2],[3]] *v [1/2])"),
            ("D([[2] ,[3]] *v [1/2])", "D([[2],[3]] *v [1/2])"),
            ("D([1 /2] *v [1/3])", "D([1/2] *v [1/3])"),
            ("[ 1 ]", "[1]"),
            ("[ 1 / 2 ]", "[1/2]"),
            ("[ [2] , [3] ]", "[[2],[3]]"),
            ("N ( [2] * h [ 1/-3 ] )", "N([2] *h [1/-3])"),
        ],
    )
    def test_whitespace_inside_tokens(self, spaced, compact):
        assert parse(spaced) == parse(compact)

    @pytest.mark.parametrize(
        "bad, position",
        [("[ 1 / 0 ]", 0), ("[[2] , [ 0 ]]", 9), ("[1 2]", 3), ("[ [2] , [3] ] junk", 14)],
    )
    def test_spaced_error_positions(self, bad, position):
        with pytest.raises(TangleParseError) as info:
            parse(bad)
        assert info.value.position == position
        assert 0 <= position < len(bad)

    def test_errors_carry_position(self):
        # integers are ASCII digits only: "²" and "١" are not integers
        for bad in ("", "[0]", "[1/0]", "[2] *v", "D([2]", "[2] junk", "[[2],[0]]",
                    "[²]", "[[1],[²]]", "[1/١]", "[1٠]"):
            with pytest.raises(TangleParseError):
                parse(bad)
        try:
            parse("[2] *x [3]")
        except TangleParseError as exc:
            assert exc.position >= 0

    def test_print_round_trip(self):
        cases = [
            "[3]",
            "[1/-2]",
            "[[2],[-2]]",
            "D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))",
            "N([2] *h [3] *v [1/5])",
        ]
        for text in cases:
            e = parse(text)
            assert parse(print_expr(e)) == e

    def test_tree_depth(self):
        assert tree_depth(parse("[3]")) == 1
        assert tree_depth(parse("D(([3]))")) == 1
        assert tree_depth(parse("[1] *v ([2] *h [3])")) == 3
        # a rational tangle counts as its expansion
        assert tree_depth(parse("[[2],[-3],[1]] *v [1]")) == 4

    def test_depth_limit(self):
        def rational(n):
            return "[[" + "],[".join(["1"] * n) + "]]"

        def nested(n):
            return "(" * n + "[1]" + ")" * n

        assert tree_depth(parse(rational(MAX_DEPTH))) == MAX_DEPTH
        assert parse(nested(MAX_DEPTH)) == IntTwist(1)
        # a long twist vector is refused as it is read, before its chain is built
        for bad in (rational(MAX_DEPTH + 1), rational(100_000), nested(MAX_DEPTH + 1)):
            with pytest.raises(TangleParseError, match=f"deeper than {MAX_DEPTH}"):
                parse(bad)


class TestRecords:
    """Tree nodes behave as frozen dataclasses with their fields would."""

    def test_repr(self):
        assert repr(parse("D([1/1] *v [1/2])")) == (
            "ClosureExpr(kind='D', body=CompV(left=VertTwist(k=1), right=VertTwist(k=2)))"
        )

    def test_equality_needs_the_same_class(self):
        a, b = IntTwist(1), VertTwist(2)
        assert IntTwist(3) != VertTwist(3)
        assert CompV(a, b) != CompH(a, b)
        assert CompV(a, b) == CompV(IntTwist(1), VertTwist(2))
        assert IntTwist(3) != (3,)

    def test_hash_is_that_of_the_field_tuple(self):
        assert hash(IntTwist(3)) == hash((3,))
        assert hash(CompV(IntTwist(1), VertTwist(2))) == hash((IntTwist(1), VertTwist(2)))
        assert len({IntTwist(3), IntTwist(3), VertTwist(3)}) == 2

    def test_keywords(self):
        assert ClosureExpr(kind="N", body=IntTwist(k=2)) == ClosureExpr("N", IntTwist(2))
        with pytest.raises(TypeError):
            CompV(IntTwist(1))
        with pytest.raises(TypeError):
            IntTwist(k=1, j=2)

    def test_frozen(self):
        e = IntTwist(3)
        with pytest.raises(AttributeError):
            e.k = 4
        with pytest.raises(AttributeError):
            del e.k
        with pytest.raises(AttributeError):
            e.extra = 1
        assert e == IntTwist(3)

    def test_copy_and_pickle(self):
        e = parse("D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))")
        assert copy.deepcopy(e) == e
        assert pickle.loads(pickle.dumps(e)) == e


class TestRational:
    def test_continued_fraction(self):
        # built front to back: k_s + 1/(k_{s-1} + 1/(...))
        assert continued_fraction([2]) == 2
        assert continued_fraction([2, 3]) == Fraction(7, 2)
        assert continued_fraction([2, -2, 3]) == Fraction(7, 3)

    def test_expand_alternation(self):
        # the last atom is always horizontal; parity alternates leftwards
        assert expand_rational([3]) == IntTwist(3)
        assert expand_rational([2, 3]) == CompH(VertTwist(2), IntTwist(3))
        assert expand_rational([2, -2]) == CompH(VertTwist(2), IntTwist(-2))
        assert expand_rational([1, 2, 3]) == CompH(
            CompV(IntTwist(1), VertTwist(2)), IntTwist(3)
        )

    def test_expand_rejects_zero(self):
        with pytest.raises(TangleParseError):
            expand_rational([2, 0])
        with pytest.raises(TangleParseError):
            expand_rational([])


class TestConnectivity:
    def test_single_crossing_pairing(self):
        # parity: nw joined to ne (0), se (1) or sw (INF)
        assert parity(IntTwist(1)) == (1, 0)
        assert parity(IntTwist(2)) == (0, 0)
        assert parity(VertTwist(2)) == (INF, 0)

    def test_component_counts(self):
        # knots
        assert component_count(parse("N([3])")) == 1
        assert component_count(parse("D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))")) == 1
        assert component_count(parse("D([1/1] *v [1/2])")) == 1
        # two-component links
        assert component_count(parse("D([1/2])")) == 2
        assert component_count(parse("D([3] *v [3] *v [3] *v [3])")) == 2
        assert component_count(parse("N([2])")) == 2

    def test_closed_loops_counted(self):
        # gluing two even twists along their parallel strands closes a loop
        assert component_count(parse("D([1/2] *h [1/2])")) == 3
        assert component_count(parse("N([2] *v [2])")) == 3
        assert component_count(parse("D([1/2] *h [1/2] *h [1/2])")) == 4
        assert component_count(parse("N([2] *v [2] *v [2])")) == 4
        # [2] *h [2] is the twist [4]: no interior loop
        assert component_count(parse("N([2] *h [2])")) == 2

    def test_pretzel_rule(self):
        # D([p1] *v ... *v [pn]) with m even entries has m components if
        # m > 0, else 1 for odd n and 2 for even n
        rng = random.Random(11)
        for _ in range(500):
            ps = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(rng.randint(1, 8))]
            m = sum(p % 2 == 0 for p in ps)
            want = m if m else 2 - len(ps) % 2
            text = "D(" + " *v ".join(f"[{p}]" for p in ps) + ")"
            assert component_count(parse(text)) == want, text

    def test_rational_rule(self):
        # p/q = continued_fraction(ks): N([[ks]]) has two components iff p
        # is even, D([[ks]]) iff q is even
        rng = random.Random(12)
        checked = 0
        for _ in range(500):
            ks = tuple(rng.choice((-3, -2, -1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 6)))
            try:
                frac = continued_fraction(ks)
            except TangleParseError:
                continue
            checked += 1
            body = expand_rational(ks)
            assert component_count(ClosureExpr("N", body)) == 2 - frac.numerator % 2, ks
            assert component_count(ClosureExpr("D", body)) == 2 - frac.denominator % 2, ks
        assert checked > 400
