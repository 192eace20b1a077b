"""Golden outputs: `arborchar emit --format json` against stored payloads.

Each knot is emitted in a fresh interpreter and compared exactly with its
stored payload (`tests/golden/make_golden.py` says which file that is and
rewrites the golden files).  A change to the exact kernel or the engine
that alters any coefficient, exponent, term order or variable name fails
here.

The knots whose stored payload is a golden file differ from the benchmark
reference (`perfbench/reference/`, only read here) because the engine
cancels excluded factors as it composes.  Their payloads are certified
against that reference: every reference equation is a constant times the
stored equation times powers of the stored exclusion polynomials, checked
by exact division, and the exclusion loci agree (`perfbench/check.py`).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from arborchar.ratfun import MultiPoly

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "golden"))
import make_golden as golden  # noqa: E402


@pytest.mark.parametrize("name", sorted(golden.KNOTS))
def test_emit_matches_reference(name):
    assert golden.emit(golden.KNOTS[name]) == golden.stored(name)


def _excluded_product(q: MultiPoly, factors: list[MultiPoly]) -> bool:
    """Whether q is a constant times a product of powers of factors, by a
    depth-first search over exact divisions (factors may share irreducible
    factors, so no single division order is enough)."""
    if q.is_const():
        return True
    return any(
        (d := q.divexact(f)) is not None and _excluded_product(d, factors[i:])
        for i, f in enumerate(factors)
    )


@pytest.mark.parametrize("name", ["montesinos", "vchain-5", "worked"])
def test_golden_certified_by_division(name):
    """Each reference equation is a constant times the stored equation
    times powers of the stored exclusion polynomials."""
    ref = golden.load(golden.REFERENCE / f"{name}.json.xz")
    out = golden.stored(name)
    assert out["variables"] == ref["variables"]
    assert len(out["equations"]) == len(ref["equations"])
    exclusions = [MultiPoly.from_json(p) for p in out["exclusions"]]
    exclusions.sort(key=lambda p: -p.total_degree())
    for r, o in zip(ref["equations"], out["equations"]):
        q = MultiPoly.from_json(r).divexact(MultiPoly.from_json(o))
        assert q is not None and _excluded_product(q, exclusions)


@pytest.mark.parametrize("name", ["vchain-5", "worked"])
def test_golden_exclusion_loci_match_reference(name):
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location("check", ROOT / "perfbench" / "check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    ref = golden.load(golden.REFERENCE / f"{name}.json.xz")
    assert check.compare(ref, golden.stored(name)) == []
