"""Exact polynomial and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest

from arborchar.errors import ConditioningError, DomainError
from arborchar.ratfun import (
    FactoredRatFun,
    MultiPoly,
    RatFun,
    REGISTRY,
    clear_denominators,
    pseudo_reduce,
)
from arborchar.ratfun import _ONE
from ratfun_helpers import (
    grlex_terms,
    reduce_by,
    reference_add,
    reference_divexact,
    reference_mul,
    reference_neg,
    reference_ratfun,
    reference_substitute,
    reference_sum,
    reference_times,
    reference_truediv,
    tuple_terms,
    written_terms,
)


def _t():
    return MultiPoly.var("t")


def _x():
    return MultiPoly.var("x")


def _random_poly(rng, names, terms=6, deg=3):
    p = MultiPoly.zero()
    for _ in range(terms):
        mono = MultiPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for name in names:
            mono = mono * MultiPoly.var(name) ** rng.randint(0, deg)
        p = p + mono
    return p


class TestRelabel:
    """A relabel is the substitution of variables for variables."""

    NAMES = ("t", "r1", "r2", "x")

    def _subs_chain(self, p, pairs):
        for old, new in pairs:
            p = RatFun(p).substitute(old, RatFun.var(new)).as_poly()
        return p

    def test_matches_substitution(self):
        rng = random.Random(11)
        y = MultiPoly.var("y")
        for _ in range(25):
            p = _random_poly(rng, self.NAMES)
            # onto a variable p does not use
            assert p.relabel({"r1": "y"}) == self._subs_chain(p, [("r1", "y")])
            # onto one it does use: monomials merge
            assert p.relabel({"x": "t"}) == self._subs_chain(p, [("x", "t")])
            # a swap r1 <-> r2, done as a substitution through temporaries
            swap = {"r1": "r2", "r2": "r1"}
            via = [("r1", "zz1"), ("r2", "zz2"), ("zz1", "r2"), ("zz2", "r1")]
            assert p.relabel(swap) == self._subs_chain(p, via)
        assert y.relabel({}) == y

    def test_new_names_registered_in_map_order(self):
        p = MultiPoly.var("t") * MultiPoly.var("x")
        assert REGISTRY.index("t") < REGISTRY.index("x")
        p.relabel({"x": "zz_late", "t": "zz_early"})
        assert REGISTRY.index("zz_late") < REGISTRY.index("zz_early")

    def test_ratfun_matches_substitution(self):
        rng = random.Random(12)
        swap = {"r1": "r2", "r2": "r1"}
        for _ in range(15):
            f = RatFun(_random_poly(rng, self.NAMES), _random_poly(rng, self.NAMES) + _x())
            g = f
            for old, new in (("r1", "zz1"), ("r2", "zz2"), ("zz1", "r2"), ("zz2", "r1")):
                g = g.substitute(old, RatFun.var(new))
            # the same representation, not only the same function
            h = f.relabel(swap)
            assert h.num == g.num and h.den == g.den


class TestMultiPoly:
    def test_constructors_and_queries(self):
        z = MultiPoly.zero()
        assert z.is_zero() and z.is_const()
        c = MultiPoly.const(Fraction(3, 2))
        assert c.const_value() == Fraction(3, 2)
        t = _t()
        assert t.total_degree() == 1
        assert not t.is_const()
        with pytest.raises(DomainError):
            t.const_value()

    def test_ring_axioms_spot(self):
        t, x = _t(), _x()
        p = t * t - 2 * x + 3
        q = x * x + t
        assert (p + q) - q == p
        assert p * q == q * p
        assert p * (q + 1) == p * q + p
        assert (p - p).is_zero()
        assert p**3 == p * p * p

    def test_divexact(self):
        t, x = _t(), _x()
        p = (t + x) * (t - 2 * x + 1)
        assert p.divexact(t + x) == t - 2 * x + 1
        assert p.divexact(t - 2 * x + 1) == t + x
        assert p.divexact(t + x + 1) is None
        with pytest.raises(DomainError):
            p.divexact(MultiPoly.zero())

    def test_divexact_property(self):
        rng = random.Random(7)
        for _ in range(25):
            p = _random_poly(rng, ("t", "x", "r1"))
            q = _random_poly(rng, ("t", "x", "r1")) + _x() ** 4  # degree 4 in x
            assert (p * q).divexact(q) == p
            assert (p * q + 1).divexact(q) is None

    def test_grlex_rendering(self):
        t, x = _t(), _x()
        p = x * x + t * x + t + 1
        # graded-lex: degree first, then earlier-registered variable priority
        assert str(p) == "t*x + x^2 + t + 1"
        assert str(MultiPoly.zero()) == "0"
        assert str(-t) == "-t"

    def test_eval_and_subs(self):
        t, x = _t(), _x()
        p = t * t * x - 3 * x + 1
        assert p.eval({"t": 2, "x": Fraction(1, 2)}) == Fraction(3, 2)
        assert p.eval({"t": 1j, "x": 1.0}) == -3 + 0j
        q = p.subs_poly(REGISTRY.index("x"), t + 1)
        assert q == t * t * (t + 1) - 3 * (t + 1) + 1
        with pytest.raises(DomainError):
            p.eval({"t": 2})

    def test_content_primitive(self):
        t = _t()
        p = 6 * t * t - 4 * t + 2
        assert p.content() == 2
        assert p.primitive() == 3 * t * t - 2 * t + 1
        assert (-p).primitive() == 3 * t * t - 2 * t + 1
        q = p.primitive()
        assert q.primitive() is q

    def test_json_round_trip(self):
        t, x = _t(), _x()
        p = Fraction(7, 3) * t * x**2 - x + 5
        assert MultiPoly.from_json(p.to_json()) == p


class TestTexts:
    """RatFun.texts renders numerator and denominator in a variable order
    it is given, not in the registry's."""

    def test_registry_order_gives_str(self):
        rng = random.Random(13)
        names = ("t", "r1", "r2", "x")
        for _ in range(20):
            f = RatFun(_random_poly(rng, names), _random_poly(rng, names) + _x())
            registry = [REGISTRY.name(i) for i in range(len(REGISTRY))]
            assert f.texts({v: v for v in registry}) == (str(f.num), str(f.den))
        assert RatFun(0).texts({"t": "t"}) == ("0", "1")
        assert RatFun(7).texts({}) == ("7", "1")

    def test_same_text_whatever_the_registration_order(self):
        # two copies of each fraction over names that this process registers
        # here first, one copy's in the order a, b, c and the other's in
        # reverse: each copy normalises its denominator's sign and orders
        # its terms by its own registry order, and texts undoes both
        forward = [MultiPoly.var(f"zz_fwd_{v}") for v in "abc"]
        backward = [MultiPoly.var(f"zz_bwd_{v}") for v in "cba"][::-1]
        rng = random.Random(14)
        differ = flipped = 0
        for _ in range(20):
            shape = [[(Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                       [rng.randint(0, 2) for _ in range(3)]) for _ in range(5)] for _ in range(2)]

            def build(vs):
                num, den = (sum((c * vs[0] ** i * vs[1] ** j * vs[2] ** k
                                 for c, (i, j, k) in part), MultiPoly.zero()) for part in shape)
                return RatFun(num, den + vs[0] - vs[2])

            f, g = build(forward), build(backward)
            order = {"t": "t", **{f"zz_fwd_{v}": v for v in "abc"}}
            assert f.texts(order) == g.texts({k.replace("fwd", "bwd"): v for k, v in order.items()})
            differ += str(f).replace("zz_fwd_", "") != str(g).replace("zz_bwd_", "")
            flipped += g.den.relabel({f"zz_bwd_{v}": f"zz_fwd_{v}" for v in "abc"}) == -f.den
        assert differ  # str follows the registry order, texts does not
        assert flipped  # some copies were normalised to opposite signs

    def test_negates_both_when_the_denominator_leads_negative(self):
        t, x = _t(), _x()
        f = RatFun(x, t - x)
        assert (str(f.num), str(f.den)) == ("x", "t - x")
        assert f.texts({"x": "x", "t": "t"}) == ("-x", "x - t")
        assert f.texts({"x": "b", "t": "a"}) == ("-b", "b - a")
        assert f.texts({"t": "t", "x": "x"}) == ("x", "t - x")

    def test_every_variable_needs_a_place_in_the_order(self):
        with pytest.raises(DomainError):
            RatFun(_x(), _t() + 1).texts({"t": "t"})

    def test_registers_no_name(self):
        size = len(REGISTRY)
        RatFun(_x() * _t() - 1, _t() + 2).texts({"t": "t", "x": "zz_never_registered"})
        assert len(REGISTRY) == size


def _sparse(rng, names, terms, deg, fractions):
    """A random sparse polynomial in the named variables, with int or, when
    fractions is set, partly Fraction coefficients."""
    idx = [REGISTRY.add(n) for n in names]
    out = {}
    for _ in range(terms):
        exp = [0] * (max(idx) + 1)
        for i in idx:
            if rng.random() < 0.6:
                exp[i] = rng.randint(0, deg)
        c = rng.randint(-9, 9) or 1
        if fractions and rng.random() < 0.5:
            c = Fraction(c, rng.randint(2, 6))
        out[tuple(exp)] = c
    return MultiPoly(out)


def _assert_terms(p, ref):
    """p has the reference's terms, in its insertion order, with the same
    coefficient types."""
    terms = tuple_terms(p)
    assert list(terms) == list(ref)
    assert [(c, type(c)) for c in terms.values()] == [(c, type(c)) for c in ref.values()]


class TestPackedKernel:
    """Products and exact divisions on packed monomials agree with plain
    tuple arithmetic (ratfun_helpers), term order included."""

    NAMES = ("t", "x", "r1", "r2", "kp_a", "kp_b")

    def test_products_match_reference(self):
        rng = random.Random(41)
        for fractions in (False, True):
            for _ in range(40):
                a = _sparse(rng, self.NAMES, rng.randint(1, 7), 4, fractions)
                b = _sparse(rng, self.NAMES[: rng.randint(1, 6)], rng.randint(1, 7), 4, fractions)
                _assert_terms(a * b, reference_mul(a, b))
                _assert_terms(b * a, reference_mul(b, a))

    def test_one_term_factors(self):
        rng = random.Random(42)
        p = _sparse(rng, self.NAMES, 8, 3, True)
        short = _sparse(rng, ("t",), 3, 3, False)
        mono = 3 * MultiPoly.var("r2") ** 2 * _t()
        for one in (mono, MultiPoly.const(5), MultiPoly.const(Fraction(-2, 3)),
                    MultiPoly.var("kp_b") ** 4, _t()):
            for q in (p, short, mono, MultiPoly.zero()):
                _assert_terms(one * q, reference_mul(one, q))
                _assert_terms(q * one, reference_mul(q, one))
        # a Fraction scale that makes coefficients integral leaves ints
        half, q = MultiPoly.const(Fraction(3, 2)), 2 * _x() + 4
        _assert_terms(half * q, reference_mul(half, q))
        assert all(type(c) is int for c in (half * q).terms.values())

    def test_divisions_match_reference(self):
        rng = random.Random(43)
        for fractions in (False, True):
            for _ in range(30):
                a = _sparse(rng, self.NAMES, rng.randint(1, 6), 3, fractions)
                b = _sparse(rng, self.NAMES, rng.randint(2, 4), 3, fractions)
                if b.is_const():
                    continue
                _assert_terms((a * b).divexact(b), reference_divexact(a * b, b))
                for r in (a * b + 1, a * b + _sparse(rng, self.NAMES, 2, 2, fractions), a):
                    got = r.divexact(b)
                    want = reference_divexact(r, b)
                    assert (got is None) == (want is None)
                    if got is not None:
                        _assert_terms(got, want)

    @pytest.mark.parametrize("bound", [127, 128, 32767])
    def test_degree_limits(self, bound):
        # every field is 16 bits with a guard bit, so total degrees up to
        # 32767 pack; 127 and 128 straddle what one byte would hold
        t, x, y = _t(), _x(), MultiPoly.var("r1")
        a = x ** (bound // 2) + 2 * t
        b = y ** (bound - bound // 2) - 3 * x
        assert a.total_degree() + b.total_degree() == bound
        _assert_terms(a * b, reference_mul(a, b))
        p = a * b
        _assert_terms(p.divexact(b), reference_divexact(p, b))
        assert p.divexact(b) == a
        assert (p + t).divexact(b) is None
        c = (x ** (bound - 1) + y) * (x + 1)  # a dividend at the bound itself
        assert c.total_degree() == bound
        _assert_terms(c.divexact(x + 1), reference_divexact(c, x + 1))
        assert (c + 1).divexact(x + 1) is None
        assert written_terms(p) == grlex_terms(p)

    def test_degree_beyond_two_byte_fields(self):
        t, x = _t(), _x()
        a = x ** 16384 + t
        b = t ** 16384 + x
        with pytest.raises(DomainError):
            a * b
        with pytest.raises(DomainError):
            (x ** 32768 + 1).divexact(x + 1)
        # a degree of 32768 is refused wherever it would arise: by a
        # one-term factor, by a power, from exponent tuples
        assert (x ** 32767).total_degree() == 32767
        for a, b in ((x ** 16384, t ** 16384), (x ** 32767, t), (x ** 32767 + 1, t + x)):
            with pytest.raises(DomainError):
                a * b
        with pytest.raises(DomainError):
            x ** 32768
        with pytest.raises(DomainError):
            MultiPoly({(16384, 16384): 1})

    def test_underflow_in_one_exponent_field(self):
        # the total degree fits, so only the guard bit of the one exponent
        # field that underflows can refuse the division; the next more
        # significant field is nonzero, so the borrow stops there
        names = self.NAMES
        width = max(REGISTRY.index(n) for n in names) + 1
        for i in range(width):
            v = [MultiPoly.var(REGISTRY.name(k)) for k in range(width)]
            above = v[i - 1] ** 3 if i else v[(i + 1) % width] ** 3
            below = v[width - 1] if i < width - 1 else MultiPoly.const(1)
            dividend = above * v[i] * below
            divisor = v[i] ** 2
            assert dividend.total_degree() > divisor.total_degree()
            assert reference_divexact(dividend, divisor) is None
            assert dividend.divexact(divisor) is None, i
            assert dividend.divexact(v[i]) == above * below

    def test_leading_and_sorted_terms_in_grlex_order(self):
        rng = random.Random(44)
        for fractions in (False, True):
            for _ in range(20):
                p = _sparse(rng, self.NAMES, rng.randint(1, 9), 5, fractions)
                want = grlex_terms(p)
                assert written_terms(p) == want
                assert p.leading() == want[0]


class TestStoredPacking:
    """Every polynomial keeps its monomials packed, each in as many fields
    as its own last variable needs; results still agree with the tuple
    reference whatever the operands' widths."""

    def test_operands_of_different_widths(self):
        rng = random.Random(45)
        # built before sp_late is registered, so narrower than anything
        # that uses it
        early = _sparse(rng, ("t", "x"), 5, 3, False)
        late = MultiPoly.var("sp_late")
        half = MultiPoly.const(Fraction(1, 2))
        assert early.width < late.width
        for fractions in (False, True):
            for _ in range(15):
                wide = _sparse(rng, ("t", "sp_late"), rng.randint(1, 5), 3, fractions) + late
                for a, b in ((early, wide), (wide, early), (early, late), (late, early), (half, wide)):
                    _assert_terms(a * b, reference_mul(a, b))
                    _assert_terms(a + b, reference_sum(a, b))
                    _assert_terms(b - a, reference_sum(b, -a))
                    _assert_terms((a * b).divexact(b), reference_divexact(a * b, b))
                    if not a.is_const():  # a constant divides term by term
                        _assert_terms((a * b).divexact(a), reference_divexact(a * b, a))
                    got, want = (a * b + 1).divexact(b), reference_divexact(a * b + 1, b)
                    assert (got is None) == (want is None)
                    if got is not None:
                        _assert_terms(got, want)
        # a narrower dividend is never divisible by a wider divisor
        assert early.divexact(late) is None
        assert reference_divexact(early, late) is None

    def test_products_of_degree_128_and_more(self):
        rng = random.Random(46)
        t, x, y = _t(), _x(), MultiPoly.var("r1")
        for degree in (128, 200, 1000):
            a = x ** (degree - 60) + 2 * t * y + _sparse(rng, ("t", "x", "r1"), 4, 5, True)
            b = y ** 60 - 3 * x + _sparse(rng, ("t", "r1"), 3, 5, False)
            assert a.total_degree() + b.total_degree() >= 128
            _assert_terms(a * b, reference_mul(a, b))
            _assert_terms((a * b).divexact(b), reference_divexact(a * b, b))
            assert (a * b).total_degree() == a.total_degree() + b.total_degree()

    def test_equal_polynomials_by_different_routes(self):
        rng = random.Random(48)
        y = MultiPoly.var("sp_route")
        for _ in range(20):
            p = _sparse(rng, ("t", "x", "r1"), rng.randint(1, 6), 3, True)
            q = _sparse(rng, ("t", "r1", "r2"), rng.randint(2, 4), 3, False) + y
            routes = [
                (p * q).divexact(q),
                (p + q) - q,
                (p * y).divexact(y),
                (p + y).relabel({"sp_route": "t"}) - _t(),
                sum((c * _x() ** k for k, c in p.coeffs_in("x").items()), MultiPoly.zero()),
                MultiPoly.from_json(p.to_json()),
                MultiPoly(tuple_terms(p)),
            ]
            for r in routes:
                assert r == p and hash(r) == hash(p)
                assert r.width == p.width and r.terms == p.terms


def _as_fractions(p):
    """p with every coefficient a Fraction, integral ones included."""
    q = MultiPoly.__new__(MultiPoly)
    q.terms = {k: Fraction(c) for k, c in p.terms.items()}
    q.width = p.width
    return q


def _typed_terms(p):
    """p's terms in insertion order, each with its coefficient's type."""
    return [(e, c, type(c)) for e, c in p.exponent_terms()]


def _assert_canonical(*polys):
    """Integral coefficients are ints; a Fraction only for the rest."""
    for p in polys:
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


class TestCoefficients:
    """Coefficients are ints where integral, whatever the operation, and the
    results are those of the same computation on all-Fraction operands."""

    NAMES = ("t", "x", "r1")
    COEFS = (1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3))

    def _poly(self, rng, terms=4, deg=2):
        p = MultiPoly.zero()
        for _ in range(terms):
            mono = MultiPoly.const(rng.choice(self.COEFS))
            for name in self.NAMES:
                mono = mono * MultiPoly.var(name) ** rng.randint(0, deg)
            p = p + mono
        return p

    def test_cancelling_fractions_leave_ints(self):
        t, x = _t(), _x()
        half = Fraction(1, 2) * t
        whole = (half + half, (Fraction(2, 3) * t) * (Fraction(3, 2) * x))
        _assert_canonical(*whole)
        assert whole == (t, t * x)
        assert type(MultiPoly.const(Fraction(4, 2)).const_value()) is int

    def test_polynomial_operations(self):
        rng = random.Random(21)
        for _ in range(30):
            p, q = self._poly(rng), self._poly(rng) + _x() ** 3
            fp, fq = _as_fractions(p), _as_fractions(q)
            prod = p * q
            results = [
                (p + q, fp + fq),
                (p - q, fp - fq),
                (prod, fp * fq),
                (p**3, fp**3),
                (prod.divexact(q), (fp * fq).divexact(fq)),
                (p.divexact(MultiPoly.const(Fraction(7, 3))),
                 fp.divexact(MultiPoly.const(Fraction(7, 3)))),
                (p.divexact(MultiPoly.const(-2)), fp.divexact(MultiPoly.const(Fraction(-2)))),
                (p.primitive(), fp.primitive()),
            ]
            for got, want in results:
                _assert_canonical(got)
                assert got == want
            assert prod.divexact(q) == p
            assert (prod + 1).divexact(q) is None
            assert (_as_fractions(prod) + 1).divexact(fq) is None
            c = p.content()
            assert type(c) is int or c.denominator != 1
            assert c == fp.content()

    def test_ratfun_operations(self):
        rng = random.Random(22)
        for _ in range(20):
            p, q = self._poly(rng), self._poly(rng) + _x()
            a, b = self._poly(rng), self._poly(rng) + 1
            f = RatFun(p, q)
            g = RatFun(_as_fractions(p), _as_fractions(q))
            assert f.num == g.num and f.den == g.den
            h = f.substitute("x", RatFun(a, b))
            k = g.substitute("x", RatFun(_as_fractions(a), _as_fractions(b)))
            assert h.num == k.num and h.den == k.den
            for r in (f, h, f + h, f * h, f / RatFun(a, b), RatFun(p, MultiPoly.const(Fraction(7, 3)))):
                _assert_canonical(r.num, r.den)
            # a RatFun over 1 skips the normalisation passes, and arithmetic
            # on two of them combines numerators only: every result has the
            # general path's terms, in its order, with its coefficient types,
            # and a result over 1 holds _ONE.  6 clears every denominator in
            # COEFS.
            for src in ((6 * p, 6 * q), (p, 6 * q), (p, q)):
                f, g = map(RatFun, src)
                rf, rg = map(reference_ratfun, src)
                cases = [
                    (f, rf),
                    (f + g, reference_add(rf, rg)),
                    (f - g, reference_add(rf, reference_neg(rg))),
                    (-f, reference_neg(rf)),
                    (f * g, reference_times(rf, rg)),
                    (f + 3, reference_add(rf, reference_ratfun(3))),
                    (3 - f, reference_add(reference_neg(rf), reference_ratfun(3))),
                    (f * 0, reference_times(rf, reference_ratfun(0))),
                    (f.substitute("x", g), reference_substitute(rf, "x", rg)),
                    (f.substitute("x", RatFun(a, b)),
                     reference_substitute(rf, "x", reference_ratfun(a, b))),
                    (RatFun(a, b).substitute("x", g),
                     reference_substitute(reference_ratfun(a, b), "x", rg)),
                ]
                for got, (num, den) in cases:
                    assert _typed_terms(got.num) == _typed_terms(num)
                    assert _typed_terms(got.den) == _typed_terms(den)
                    assert (got.den is _ONE) == (den == 1)
                    if got.den is _ONE:
                        assert got.is_poly() and got.as_poly() is got.num


class TestRatFun:
    def test_normalization(self):
        t = _t()
        f = RatFun(2 * t * t, 4 * t)
        # common monomial and content factors cancel
        assert f.num == t and f.den == 2
        with pytest.raises(ZeroDivisionError):
            RatFun(t, MultiPoly.zero())

    def test_equality_cross_multiplication(self):
        t, x = _t(), _x()
        f = RatFun(t * t - x * x, t - x)
        g = RatFun((t + x) * (t + 1), t + 1)
        assert f.equals(g)
        assert not f.equals(RatFun(t + x + 1))
        # == compares normalised representations: f is not reduced by t - x
        assert f != g and f != RatFun(t + x + 1)
        h = RatFun((t + x) * (t + 1), t + 1)
        assert g is not h and g == h and hash(g) == hash(h)
        assert RatFun(2 * t, 4 * x) == RatFun(t, 2 * x)
        assert g != g.num and RatFun(3) != 3

    def test_arithmetic(self):
        t = RatFun.var("t")
        x = RatFun.var("x")
        f = (t + x) / (t - x)
        g = (t - x) / (t + x)
        assert (f * g).equals(1)
        assert (f / f).equals(1)
        assert (f + g - f - g).is_zero()
        assert (f**2).equals(f * f)
        assert (f ** (-1)).equals(g)

    def test_substitute(self):
        t = RatFun.var("t")
        x = RatFun.var("x")
        f = (x * x - 1) / (x + t)
        g = f.substitute("x", t + 1)
        assert g.equals(((t + 1) ** 2 - 1) / (2 * t + 1))

    def test_eval(self):
        t = RatFun.var("t")
        f = (t * t - 1) / (t - 1)
        assert abs(f.eval_numeric({"t": 2.0 + 0j}) - 3) < 1e-12
        with pytest.raises(ConditioningError):
            f.eval_numeric({"t": 1.0 + 1e-9j})

    def test_reduce_candidates(self):
        t = _t()
        x = _x()
        f = RatFun((t - 2) ** 2 * x, (t - 2) * (x + 1))
        g = reduce_by(f, [t - MultiPoly.const(2)])
        assert g.den == x + 1
        assert g.equals(f)

    def test_bare_var_detection(self):
        assert RatFun.var("x").is_bare_var() == "x"
        assert (RatFun.var("x") * 2).is_bare_var() is None
        assert (RatFun.var("x") + 1).is_bare_var() is None

    def test_json_round_trip(self):
        t = RatFun.var("t")
        x = RatFun.var("x")
        f = (t * t - x) / (x + 3)
        assert RatFun.from_json(f.to_json()).equals(f)


class TestFactoredRatFun:
    """Arithmetic over denominators kept as powers of known factors gives
    the RatFun result, with every known factor cancelled that can be."""

    def _base(self):
        t, x = _t(), _x()
        return [t - 2, x + 1, t * x - 3, (t - 2) * (x + 1)]

    def _ratfun(self, rng, base):
        den = MultiPoly.const(rng.choice((1, 2, -3)))
        for f in base:
            den = den * f ** rng.randint(0, 1)
        return RatFun(_random_poly(rng, ("t", "x"), terms=3, deg=2) + 1, den)

    def test_matches_ratfun_arithmetic(self):
        rng = random.Random(31)
        for _ in range(10):
            base = self._base()
            a, b, c = (self._ratfun(rng, base[:3]) for _ in range(3))
            b = b * RatFun(_t() + 3, _x() - 5)  # a factor outside the base
            want = (a + 2) * b * c - (c - a) / (b + 1)
            lifted = [FactoredRatFun.lift(v, base) for v in (a, b, c)]
            fa, fb, fc = lifted
            got = ((fa + 2) * fb * fc - (fc - fa) / (fb + 1)).to_ratfun()
            assert got.equals(want)
            for f in base:
                assert got.den.divexact(f) is None or got.num.divexact(f) is None

    def test_fraction_scalars_match_ratfun_arithmetic(self):
        rng = random.Random(32)
        t, x = _t(), _x()
        for _ in range(10):
            base = self._base()
            dens = (2 * (x + 1), Fraction(3, 2) * (t - 2), -(t * x - 3), MultiPoly.const(7))
            a, b, c = (
                RatFun(_sparse(rng, ("t", "x"), 3, 2, True) + 1, rng.choice(dens))
                for _ in range(3)
            )
            h = Fraction(-5, 3)
            want = (a * h + b) * c / (b - Fraction(1, 2)) - 3 * a / (2 * (c + 1))
            fa, fb, fc = (FactoredRatFun.lift(v, base) for v in (a, b, c))
            got = (fa * h + fb) * fc / (fb - Fraction(1, 2)) - 3 * fa / (2 * (fc + 1))
            assert got.to_ratfun().equals(want)

    def test_integer_numerators_stay_integer(self):
        rng = random.Random(33)
        t, x = _t(), _x()
        for _ in range(10):
            base = self._base()
            a, b = (RatFun(_sparse(rng, ("t", "x"), 3, 2, False) + 1, 2 * (x + 1) * (t - 2))
                    for _ in range(2))
            fa, fb = (FactoredRatFun.lift(v, base) for v in (a, b))
            for f in (fa, fb, fa + fb, 3 * fa - fb, fa * fb, fa / (2 * (fb + 1))):
                assert all(type(c) is int for c in f.num.terms.values())
            assert (fa / (2 * (fb + 1))).to_ratfun().equals(a / (2 * (b + 1)))

    def test_sum_over_least_common_denominator(self):
        base = self._base()
        p = base[0]
        half = FactoredRatFun.lift(RatFun(1, p), base)
        total = (half + half).to_ratfun()
        assert total.den == p and total.num == 2
        # RatFun alone multiplies the denominators and keeps the product
        assert (RatFun(1, p) + RatFun(1, p)).den == p * p

    def test_cancels_known_factors(self):
        base = self._base()
        t, x = _t(), _x()
        f = FactoredRatFun.lift(RatFun(t * t - 4, (t - 2) * (x + 1)), base)
        assert f.to_ratfun().den == x + 1
        assert f.to_ratfun().num == t + 2

    def test_foreign_factor_is_appended(self):
        base = self._base()
        q = 2 * _x() * _x() - 6
        f = FactoredRatFun.lift(RatFun(1, q), base)
        assert len(base) == 5 and base[4] == q.primitive()
        assert f.to_ratfun().equals(RatFun(1, q))

    def test_division_by_zero(self):
        base = self._base()
        one = FactoredRatFun.lift(RatFun(1), base)
        with pytest.raises(ZeroDivisionError):
            one / (one - 1)

    def _lifted(self, rng, base):
        """A random fraction lifted over base: a numerator that may carry
        every base factor, the product (t-2)(x+1) included, over powers 0
        to 2 of the first three, and now and then a factor outside it."""
        t, x = _t(), _x()
        num = _random_poly(rng, ("t", "x"), terms=3, deg=2) + 1
        den = MultiPoly.const(rng.choice((1, 2, -3)))
        for f in base[:4]:
            num = num * f ** rng.randint(0, 1)
        for f in base[:3]:
            den = den * f ** rng.randint(0, 2)
        if rng.random() < 0.2:
            den = den * (t + x + 3)
        return FactoredRatFun.lift(RatFun(num, den), base)

    def test_quotient_matches_multiplying_in(self):
        """Cancelling the divisor's denominator in the exponent map gives
        the num and den that multiplying it in and dividing it out gave,
        term for term.  The base is not coprime, but lift divides by t-2
        and x+1 before it tries their product, so the product never gets
        an exponent."""
        rng = random.Random(34)
        excess = cancelled = 0
        for _ in range(50):
            base = self._base()
            f, g, h = (self._lifted(rng, base) for _ in range(3))
            for q, ref in ((f / g, reference_truediv(f, g)),
                           (f / g / h, reference_truediv(reference_truediv(f, g), h)),
                           (f / (3 * g - h), reference_truediv(f, 3 * g - h)),
                           (f / _t(), reference_truediv(f, _t()))):
                got, want = q.to_ratfun(), ref.to_ratfun()
                assert got.num == want.num and got.den == want.den
            # a power of g's denominator in excess of f's is multiplied in,
            # the rest cancels
            for j, e in g.exps.items():
                if e > f.exps.get(j, 0):
                    excess += 1
                elif e:
                    cancelled += 1
        assert excess > 20 and cancelled > 20

    def test_excess_power_is_multiplied_in(self):
        base = self._base()
        t, x = _t(), _x()
        f = FactoredRatFun.lift(RatFun(x, t - 2), base)
        g = FactoredRatFun.lift(RatFun(1, (t - 2) ** 3 * (x + 1)), base)
        q = f / g
        assert q.exps == {0: 0, 1: 0} and q.num == x * (t - 2) ** 2 * (x + 1)
        assert q.to_ratfun().num == x * (t - 2) ** 2 * (x + 1)
        assert q.to_ratfun().den == 1

    def test_numerator_kept_when_nothing_is_multiplied_in(self):
        base = self._base()
        t, x = _t(), _x()
        f = FactoredRatFun.lift(RatFun(x * x - 2, (t - 2) ** 2 * (x + 1)), base)
        for value in (RatFun(t + x, (t - 2) * (x + 1)), RatFun(x - 7, 5), RatFun(x + 2)):
            q = f / FactoredRatFun.lift(value, base)
            assert q.num is f.num
            assert q.to_ratfun().equals(f.to_ratfun() / value)
        assert (f / 4).num is f.num and (f / (x + 2)).num is f.num

    def test_non_coprime_exponent_maps_stay_equal(self):
        """Over a hand-built exponent map on the product (t-2)(x+1), which
        lift never builds, the two routes cancel the factors in a
        different order: the fractions are equal, not term for term."""
        base = self._base()
        one = MultiPoly.const(1)
        f = FactoredRatFun(one, 1, {0: 1, 3: 1}, base)
        g = FactoredRatFun(one, 1, {3: 1}, base)
        got, want = (f / g).to_ratfun(), reference_truediv(f, g).to_ratfun()
        assert got.num == 1 and got.den == _t() - 2
        assert got.equals(want)


class TestHelpers:
    def test_clear_denominators(self):
        t = _t()
        x = _x()
        eq = RatFun(x - 1, (t - 2) * (x + 2))
        known = (2 - t, x * x + 1)
        num, factors = clear_denominators(eq, known)
        assert num == x - 1
        # the known factors as given, signs included, then the rest; the
        # argument is left alone
        assert factors == [2 - t, x * x + 1, x + 2]
        assert known == (2 - t, x * x + 1)

    def test_pseudo_reduce_certificate(self):
        t, x = _t(), _x()
        c = x * x - t  # monic in x: reduction is exact
        p = (x * x - t) * (x + t * t) + 0
        assert pseudo_reduce(p, c, "x").is_zero()
        q = x * x * x + 1
        assert not pseudo_reduce(q, c, "x").is_zero()
        with pytest.raises(DomainError):
            pseudo_reduce(p, _t() * 2, "x")
