"""2x2 matrix algebra, special constructors, and pair decompositions."""

import ast
import cmath
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import arborchar
from arborchar.errors import ClassificationError, DomainError, GenericityError
from arborchar.mat2 import (
    IDENTITY,
    Mat2,
    ModP,
    _is_exact,
    cayley_power,
    chebyshev,
    closed_trace,
    decompose_pair,
    delta_two_trace,
    has_common_eigenvector,
    is_reducible,
    special,
    trace_of_product,
)


def _rnd(rng):
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))


class TestMat2:
    def test_exact_arithmetic(self):
        a = Mat2(Fraction(2), Fraction(1), Fraction(3), Fraction(2))
        assert a.det() == 1
        assert all(isinstance(x, (int, Fraction)) for x in a.entries())
        b = a.inv()
        assert all(isinstance(x, (int, Fraction)) for x in b.entries())
        assert (a @ b) == IDENTITY
        assert a.trace() == 4

    def test_adjoint_relation(self):
        a = Mat2(2, 5, 1, 3)
        adjugate = Mat2(a.a22, -a.a12, -a.a21, a.a11)
        assert a + adjugate == IDENTITY.scale(a.trace())

    def test_inverse_of_singular(self):
        with pytest.raises(DomainError):
            Mat2(1, 1, 1, 1).inv()

    def test_conjugation(self):
        a = Mat2(2, 1, 1, 1)
        c = Mat2(1, 2, 0, 1)
        assert a.conj_by(c).trace() == a.trace()
        assert a.conj_by(c).det() == a.det()

    def test_in_G(self):
        assert Mat2(2, 1, 1, 1).in_G()
        assert not Mat2(2, 0, 0, 2).in_G()


    def test_norm_with_nan_entry(self):
        nan = float("nan")
        assert cmath.isnan(Mat2(1, nan, 0, 1).norm())
        assert not Mat2(1, nan, 0, 1).norm() <= 2.2
        assert Mat2(1, -3j, 0, 1).norm() == 3


class TestMat2Semantics:
    """Mat2 is a slotted class; it behaves as the frozen dataclass it was."""

    def test_equality_and_hash(self):
        a, b = Mat2(1, 2, 3, 4), Mat2(1, 2, 3, 4)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash((1, 2, 3, 4))
        # equal entries of different types compare and hash alike
        c = Mat2(Fraction(1), 2.0, 3 + 0j, 4)
        assert a == c and hash(a) == hash(c)
        assert a != Mat2(1, 2, 3, 5)
        assert len({a, b, c, IDENTITY, Mat2(1, 0, 0, 1)}) == 2

    def test_equality_with_other_types(self):
        m = Mat2(1, 0, 0, 1)
        assert (m == object()) is False
        assert (m != object()) is True
        assert m.__eq__(object()) is NotImplemented
        assert m != m.entries()

    def test_repr(self):
        m = Mat2(1, Fraction(1, 2), 0.5, 1j)
        assert repr(m) == "Mat2(a11=1, a12=Fraction(1, 2), a21=0.5, a22=1j)"

    def test_no_instance_dict(self):
        m = Mat2(1, 0, 0, 1)
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.extra = 1

    @pytest.mark.parametrize(
        "entries, want",
        [
            ((1, -3, 0, 1), 3.0),
            ((Fraction(-7, 2), 0, Fraction(1, 3), 1), 3.5),
            ((True, 0, 0, 1), 1.0),
        ],
    )
    def test_norm_of_exact_entries_is_float(self, entries, want):
        n = Mat2(*entries).norm()
        assert type(n) is float and n == want

    @pytest.mark.parametrize("pos", range(4))
    @pytest.mark.parametrize("other", [1, 1j, np.complex128(2 - 1j)])
    def test_norm_nan_in_any_position(self, pos, other):
        entries = [other] * 4
        entries[pos] = complex("nan") if pos % 2 else float("nan")
        assert math.isnan(Mat2(*entries).norm())

    def test_norm_matches_entry_moduli(self):
        rng = random.Random(3)
        for _ in range(200):
            entries = [_rnd(rng) for _ in range(4)]
            want = max(abs(complex(x)) for x in entries)
            assert Mat2(*entries).norm() == want
            # numpy scalars take the generic path
            assert Mat2(*map(np.complex128, entries)).norm() == want

    @pytest.mark.parametrize(
        "x, exact",
        [
            (True, True),
            (3, True),
            (Fraction(1, 2), True),
            (0.5, False),
            (1j, False),
            (np.complex128(1j), False),
            (np.float64(0.5), False),
        ],
    )
    def test_is_exact(self, x, exact):
        assert _is_exact(x) is exact


_ENTRIES = {"a11", "a12", "a21", "a22"}
_SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _entry_writes(tree: ast.AST):
    """Lines that assign or delete a Mat2 entry name, or call a setattr."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.attr in _ENTRIES:
                yield node.lineno
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in _SETTERS:
                yield node.lineno


def test_mat2_entries_are_written_only_in_init():
    """Entries are read-only by convention; only Mat2.__init__ assigns them."""
    found = []
    for path in sorted(Path(arborchar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "mat2.py":
            (init,) = (
                f
                for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Mat2"
                for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"
            )
            allowed = set(range(init.lineno, init.end_lineno + 1))
        found += [f"{path.name}:{line}" for line in _entry_writes(tree) if line not in allowed]
    assert found == []


class TestModP:
    P = 101

    def test_field_operations(self):
        p = self.P
        a, b = ModP(7, p), ModP(-3, p)
        assert (a.v, b.v) == (7, 98)
        assert a + b == 4 and a - b == 10 and a * b == -21
        assert 1 - a == -6 and 2 * a == 14 and a + 100 == 6 and -a == 94
        assert a / b * b == a and 1 / a * a == 1
        assert a ** 100 == 1  # Fermat
        assert a ** -1 == a.inv() and a.inv() * 7 == 1
        assert a == 108 and a != 8 and ModP(0, p) == 0
        assert not ModP(p, p) and ModP(1, p)
        assert int(b) == 98 and repr(b) == "ModP(98, 101)"

    def test_every_inverse(self):
        p = self.P
        assert all(ModP(v, p) * ModP(v, p).inv() == 1 for v in range(1, p))

    def test_zero_has_no_inverse(self):
        for fails in (lambda: ModP(0, 5).inv(), lambda: 1 / ModP(5, 5), lambda: ModP(0, 5) ** -1):
            with pytest.raises(DomainError):
                fails()

    def test_mixed_moduli_are_refused(self):
        a, b = ModP(2, 5), ModP(2, 7)
        for fails in (lambda: a + b, lambda: a * b, lambda: a / b, lambda: a == b):
            with pytest.raises(DomainError):
                fails()

    def test_other_scalars_do_not_mix(self):
        a = ModP(2, 5)
        for other in (0.5, 1j, Fraction(1, 2)):
            with pytest.raises(TypeError):
                a + other
        with pytest.raises(TypeError):
            hash(a)

    def test_special_matrices_over_the_field(self):
        p = self.P
        t1, t2, lam, mu = (ModP(v, p) for v in (3, 40, 5, 17))
        h = special("h2", t1, t2, lam, mu)
        g = special("h2", t2, t1, lam, -lam * mu)
        d = special("d", lam)
        assert all(type(x) is ModP for x in h.entries())
        assert h.det() == 1 and d.det() == 1 and h.in_G()
        assert h.trace() == t1 and g @ h == d
        assert h.inv() @ h == IDENTITY
        tr = trace_of_product(h, g)
        assert type(tr) is ModP and tr == (h @ g).trace()
        li = 1 / lam
        assert delta_two_trace(t1, t2, lam) == (lam + li) * t1 * t2 - t1 * t1 - t2 * t2 - (lam - li) ** 2
        with pytest.raises(DomainError):
            special("h2", t1, t2, ModP(p - 1, p), mu)  # lam = -1
        with pytest.raises(DomainError):
            special("h2", t1, t2, lam, ModP(0, p))
        with pytest.raises(DomainError):
            Mat2(ModP(1, p), ModP(2, p), ModP(3, p), ModP(6, p)).inv()


class TestSpecial:
    def test_basic_forms(self):
        assert special("w") @ special("w") == -IDENTITY
        assert special("p") == Mat2(1, 1, 0, 1)
        assert special("d", Fraction(3)).det() == 1
        assert special("u_plus", Fraction(2), 5).det() == 1
        assert special("u_minus", Fraction(2), 5).det() == 1
        with pytest.raises(DomainError):
            special("nope")

    def test_h1_properties(self):
        t, lam, mu = Fraction(3), Fraction(2), Fraction(5, 7)
        a = special("h1", t, lam, mu)
        assert a.trace() == t and a.det() == 1
        # paired h-matrices multiply to the diagonal d(lam)
        b = special("h1", t, lam, -lam * mu)
        assert b @ a == special("d", lam)
        with pytest.raises(DomainError):
            special("h1", t, -1, mu)
        with pytest.raises(DomainError):
            special("h1", t, lam, 0)

    def test_h2_properties(self):
        t1, t2, lam, mu = Fraction(3), Fraction(1), Fraction(2), Fraction(4, 3)
        a = special("h2", t1, t2, lam, mu)
        assert a.trace() == t1 and a.det() == 1
        b = special("h2", t1, t2, lam, -lam * mu)
        c = special("h2", t2, t1, lam, mu)
        assert b @ c == special("d", lam)
        with pytest.raises(DomainError):
            special("h2", t1, t2, 1, mu)

    def test_k1_k2_products(self):
        t, al = Fraction(3), Fraction(2, 5)
        a = special("k1", t, al)
        assert a.trace() == t and a.det() == 1
        b = special("k1", t, al - t)
        assert a @ b == -special("p")
        t2 = Fraction(1)
        c = special("k2", t, t2, al + Fraction(t + t2, 2))
        d = special("k2", t2, t, al)
        assert c.trace() == t and d.trace() == t2
        assert c @ d == -special("p")
        with pytest.raises(DomainError):
            special("k1", 0, al)
        with pytest.raises(DomainError):
            special("k2", 2, -2, al)

    def test_k_lambda_interpolates_k1(self):
        t, al = 3.0 + 0j, 0.7 + 0.2j
        lim = special("k_lambda", t, -1 + 0j, al)
        # at lam = -1 the c21 entry degenerates to 2t, matching k1
        assert lim.approx_eq(special("k1", t, al), 1e-12)

    def test_delta_two_trace(self):
        t1, t2, lam = Fraction(3), Fraction(1), Fraction(2)
        dl = delta_two_trace(t1, t2, lam)
        assert dl == Fraction(5, 2) * 3 - 9 - 1 - Fraction(9, 4)


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev(0, 5).omega == 0 and chebyshev(0, 5).theta == 2
        assert chebyshev(1, 5).omega == 1 and chebyshev(1, 5).theta == 5

    def test_recursion_and_negatives(self):
        r = Fraction(7, 3)
        for n in range(2, 8):
            pair = chebyshev(n, r)
            assert pair.omega == r * chebyshev(n - 1, r).omega - chebyshev(n - 2, r).omega
            assert pair.theta == r * chebyshev(n - 1, r).theta - chebyshev(n - 2, r).theta
            assert chebyshev(-n, r).omega == -pair.omega
            assert chebyshev(-n, r).theta == pair.theta

    def test_closed_form(self):
        eta = 1.7 + 0.4j
        r = eta + 1 / eta
        for n in (2, 5, -3):
            pair = chebyshev(n, r)
            assert abs(pair.omega - (eta**n - eta**-n) / (eta - 1 / eta)) < 1e-10
            assert abs(pair.theta - (eta**n + eta**-n)) < 1e-10

    def test_degenerate_argument(self):
        assert chebyshev(4, 2).omega == 4  # omega_n(2) = n
        assert chebyshev(4, 2).theta == 2

    def test_cayley_power(self):
        rng = random.Random(5)
        a = 0.8 + 0.3j
        b = 1.1 - 0.2j
        m = Mat2(a, b, (a * (2.4 - a) - 1) / b, 2.4 - a)
        direct = IDENTITY
        for n in range(1, 7):
            direct = direct @ m
            assert (cayley_power(m, n) - direct).norm() < 1e-9
            assert (cayley_power(m, -n) - direct.inv()).norm() < 1e-9
        with pytest.raises(DomainError):
            cayley_power(Mat2(2, 0, 0, 2), 3)


class TestDecompose:
    def test_single_diag(self):
        t, lam, mu = 2.6 + 0.2j, 1.8 - 0.4j, 0.9 + 0.1j
        a1 = special("h1", t, lam, -lam * mu)
        a2 = special("h1", t, lam, mu)
        rep = decompose_pair(a1, a2, t, t)
        assert rep.lemma == "single" and rep.case == "a"
        assert abs(rep.params["lam"] - lam) < 1e-9
        assert rep.rebuilt[0].approx_eq(a1, 1e-9)
        assert rep.rebuilt[1].approx_eq(a2, 1e-9)

    def test_single_p_and_minus_p(self):
        t = 2.6 + 0.2j
        kap = (t + cmath.sqrt(t * t - 4)) / 2
        xi = 0.4 - 0.9j
        b1 = special("u_plus", 1 / kap, xi)
        b2 = special("u_plus", kap, kap - xi)
        rep = decompose_pair(b1, b2, t, t)
        assert rep.case == "b" and not rep.sign_flipped
        al = 0.3 + 0.5j
        c1, c2 = special("k1", t, al), special("k1", t, al - t)
        rep = decompose_pair(c1, c2, t, t)
        assert rep.case == "c" and not rep.sign_flipped

    def test_two_trace_plus_p_sign_trick(self):
        # (-a1) a2 = -p with distinct traces: +p is flagged as sign-flipped
        t1, t2 = 2.7 + 0.1j, 1.1 - 0.6j
        al = 0.45 + 0.2j
        a1 = -special("k2", -t1, t2, al + (-t1 + t2) / 2)
        a2 = special("k2", t2, -t1, al)
        assert (a1 @ a2 - special("p")).norm() < 1e-9
        rep = decompose_pair(a1, a2, t1, t2)
        assert rep.sign_flipped and rep.lemma == "two_trace"
        r1, r2 = rep.rebuilt
        assert (-r1).approx_eq(a1, 1e-7) and r2.approx_eq(a2, 1e-7)

    def test_rejects_unclassifiable(self):
        a = Mat2(2.0 + 0j, 1, 1, 1)
        b = Mat2(3.0 + 0j, 1, 2, 1)
        with pytest.raises(ClassificationError):
            decompose_pair(a, b, a.trace(), b.trace())

    def test_rejects_trace_mismatch(self):
        a = Mat2(2.0 + 0j, 1, 1, 1)
        with pytest.raises(DomainError):
            decompose_pair(a, a, 99, 99)

    def test_excluded_locus(self):
        # inverse pairs have diagonal product d(1), on the excluded locus
        t = 2.3 + 0j
        a = 0.8 + 0.4j
        b = 1.2 - 0.1j
        a1 = Mat2(a, b, (a * (t - a) - 1) / b, t - a)
        a2 = a1.inv()
        with pytest.raises(GenericityError):
            decompose_pair(a1, a2, t, t)


class TestReducibility:
    def test_trace_criterion_matches_eigenvectors(self):
        rng = random.Random(11)
        for _ in range(200):
            t1 = _rnd(rng) + 2.5
            a = _rnd(rng)
            b = _rnd(rng) + 1.0
            a1 = Mat2(a, b, (a * (t1 - a) - 1) / b, t1 - a)
            if rng.random() < 0.5:
                c = _rnd(rng)
                dd = _rnd(rng) + 1.0
                a2 = Mat2(c, dd, (c * (t1 - c) - 1) / dd, t1 - c)
            else:
                kap = 1.4 + 0.2j
                a2 = a1 @ special("u_plus", kap, _rnd(rng)) @ a1.inv()
            assert is_reducible(a1, a2) == has_common_eigenvector(a1, a2)

    def test_triangular_pair_is_reducible(self):
        a1 = special("u_plus", 1.7 + 0.1j, 0.4)
        a2 = special("u_plus", 0.6 - 0.3j, 1.1)
        assert is_reducible(a1, a2)
        assert has_common_eigenvector(a1, a2)


class TestClosedTrace:
    def test_h1_form(self):
        t, lam, mu, nu = 2.4 + 0.3j, 1.6 - 0.2j, 0.8, 1.3 + 0.5j
        direct = (special("h1", t, lam, mu).inv() @ special("h1", t, lam, nu)).trace()
        closed = closed_trace("h1_inv_h1", t=t, lam=lam, mu=mu, nu=nu)
        assert abs(complex(direct) - complex(closed)) < 1e-10

    def test_k2_forms(self):
        t1, t2, al, be = 2.2, 0.9, 0.3 + 0.1j, -0.8 + 0.4j
        same = (special("k2", t1, t2, al).inv() @ special("k2", t1, t2, be)).trace()
        assert abs(complex(same) - complex(closed_trace("k2_inv_k2_same", alpha=al, beta=be))) < 1e-10
        sw = (special("k2", t1, t2, al).inv() @ special("k2", t2, t1, be)).trace()
        closed = closed_trace("k2_inv_k2_swapped", t1=t1, t2=t2, alpha=al, beta=be)
        assert abs(complex(sw) - complex(closed)) < 1e-10

    def test_unknown_form(self):
        with pytest.raises(DomainError):
            closed_trace("bogus")
