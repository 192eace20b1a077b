"""The CLI's JSON writer against `json.dumps(obj, indent=2)`, byte for byte.

`arborchar.cli._json_text` writes every JSON file and stream of the CLI
(emit, witness, verify --out); the stored payloads and reports must stay
byte-identical to what the standard encoder writes.  A `MultiPoly` in the
payload writes its own text; it must be that of its `to_json()` dict, and
`to_json()` that of the term loop kept here as the reference.
"""

import hashlib
import json
import lzma
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arborchar.cli import EXIT_OK, _json_text, link_presentation, main
from arborchar.errors import UnsupportedShapeError
from arborchar.invariants import closure_equations
from arborchar.ratfun import REGISTRY, MultiPoly
from arborchar.tangle import parse
from ratfun_helpers import grlex_terms
from test_acceptance import _random_closure

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "golden"))
import make_golden as golden  # noqa: E402

STREAM_KNOTS = ["D([1/2] *v [1/3])", "D([3] *v [1/-2])", "D([1/-3] *v [1/3] *v [1/1])"]
EMITS = list(golden.KNOTS.values()) + [[expr] for expr in STREAM_KNOTS]
DEPTHS = ["\n", "\n  ", "\n      "]
STORED = sorted((ROOT / "tests" / "golden").glob("*.json.xz")) + sorted(
    (ROOT / "perfbench" / "reference").glob("*.json.xz")
)

_CHARS = ["a", "Z", " ", "0", '"', "\\", "/", "\n", "\t", "\r", "\b", "\f", "\x00", "\x1f",
          "\x7f", "é", "ß", "日", " ", "\ud800", "\U0001f600"]
_SCALARS = [0, 1, -1, 2**63, -(2**100), 10**300, 0.0, -0.0, 1.5, -2.25, 1e300, 5e-324,
            math.nan, math.inf, -math.inf, True, False, None, ""]
_EDGE_CASES = [
    {}, [], (), [[]], [{}], {"a": {}}, {"a": []}, [[], {}, [[]]], {"": ""},
    [1, True], [True, 1], [0, False], [1, None], [1, 2.0], (1, 2), [-(10**40), 10**40],
    {"é": "日本", "q\"\\": "\x00\x1f"}, "\ud800\U0001f600", True, False, None, math.nan,
    -0.0, 7, "plain",
]


def _random_string(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 4 or roll < 0.4:
        return rng.choice([rng.choice(_SCALARS), _random_string(rng), rng.randint(-10**20, 10**20)])
    n = rng.randrange(5)
    if roll < 0.55:
        # a list of ints, sometimes with one bool, float or None among them
        items = [rng.randint(-5, 5) for _ in range(n)]
        if items and rng.random() < 0.5:
            items[rng.randrange(n)] = rng.choice([True, False, 1.0, None])
        return items
    if roll < 0.8:
        items = [_random_value(rng, depth + 1) for _ in range(n)]
        return tuple(items) if rng.random() < 0.2 else items
    return {_random_string(rng): _random_value(rng, depth + 1) for _ in range(n)}


@pytest.mark.parametrize("value", _EDGE_CASES, ids=repr)
def test_edge_cases(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_bools_are_not_ints():
    assert _json_text([1, True, 0, False]) == "[\n  1,\n  true,\n  0,\n  false\n]"


def test_seeded_random_values():
    rng = random.Random(0)
    for _ in range(2000):
        value = _random_value(rng)
        assert _json_text(value) == json.dumps(value, indent=2)


# SHA-256 of json.dumps(payload, indent=2) for the stored payloads that the
# pure-Python encoder takes seconds to write.  Regenerate a digest with
#   python3 -c "import hashlib, json, sys; sys.path[:0] = ['src', 'tests'];
#   from test_json_text import ROOT, _stored_payload;
#   p = _stored_payload(ROOT / 'perfbench/reference/pretzel-33333.json.xz');
#   print(hashlib.sha256(json.dumps(p, indent=2).encode()).hexdigest())"
TEXT_SHA256 = {
    "reference/pretzel-33333.json.xz": "2e9075d0c309e11754307f4b33b1590860fa4fe7a52868c19140a6df1a00e341",
}


def _stored_payload(path: Path) -> dict:
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["provenance"] = {"tool": "arborchar", "version": "0.1.0",
                             "expression": "D([3] *v [3] *v [3])"}
    return payload


@pytest.mark.parametrize("path", STORED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_stored_payloads(path):
    key = f"{path.parent.name}/{path.name}"
    payload = _stored_payload(path)
    text = _json_text(payload)
    if TEXT_SHA256.get(key) == hashlib.sha256(text.encode()).hexdigest():
        return
    want = json.dumps(payload, indent=2)
    first = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b),
                 min(len(text), len(want)))
    assert text == want, f"the texts differ first at offset {first}"
    assert key not in TEXT_SHA256, "the stored digest is stale: regenerate it"


def test_emit_output(capsys):
    assert main(["emit", "--format", "json", "D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_witness_output(capsys):
    argv = ["witness", "--t", "2.6+0.3j", "--t23", "0.7+0.9j", "--t34=-0.8+0.4j",
            "--t14=-0.7+0.5j", "--t13-count", "5", "--seed", "1"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_verify_report(tmp_path, capsys):
    dest = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--seed", "0", "--out", str(dest)]) == EXIT_OK
    text = dest.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"  # as emit and witness


def _reference_json(p: MultiPoly) -> dict:
    """`MultiPoly.to_json` as a loop over the sorted terms."""
    used = sorted({i for e, _ in p.exponent_terms() for i, x in enumerate(e) if x})
    pos = {i: k for k, i in enumerate(used)}
    terms = []
    for exp, coef in grlex_terms(p):
        proj = [0] * len(used)
        for i, x in enumerate(exp):
            if x:
                proj[pos[i]] = x
        terms.append({"coef": str(coef), "exp": proj})
    return {"vars": [REGISTRY.name(i) for i in used], "terms": terms}


def _reference_payload(pres) -> dict:
    payload = pres.to_json()
    for key in ("equations", "exclusions"):
        assert payload[key] == [_reference_json(p) for p in getattr(pres, key)]
    return payload


def _assert_written(p: MultiPoly) -> None:
    """p's text, alone and nested at several depths, is that of json.dumps."""
    ref = _reference_json(p)
    assert p.to_json() == ref
    for nl in DEPTHS:
        assert p._json_text(nl) == json.dumps(ref, indent=2).replace("\n", nl)
    nested = {"a": [p, [p, {"b": p}]], "c": p}
    assert _json_text(nested) == json.dumps(
        {"a": [ref, [ref, {"b": ref}]], "c": ref}, indent=2)


def _integral_fractions() -> MultiPoly:
    p = MultiPoly.from_json({"vars": ["jx", "t"], "terms": [
        {"coef": "6/3", "exp": [1, 0]}, {"coef": "-4", "exp": [0, 2]},
        {"coef": "1/2", "exp": [0, 0]}]})
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
    return p


def _gaps() -> MultiPoly:
    # jgap1 and jgap2 are registered between t and jgap3, and left unused
    x = [MultiPoly.var(name) for name in ("jgap1", "jgap2", "jgap3")][-1]
    return MultiPoly.var("t") * x**2 - x + 1


def _degree_130() -> MultiPoly:
    x, y, t = MultiPoly.var("jx"), MultiPoly.var("jy"), MultiPoly.var("t")
    p = x**100 * y**30 - t**129 + 2 * y
    assert p.total_degree() >= 128  # exponents past what one byte holds
    return p


_POLYS = {
    "zero": MultiPoly.zero,
    "constant": lambda: MultiPoly.const(7),
    "negative constant": lambda: MultiPoly.const(-12),
    "negative coefficients": lambda: -3 * MultiPoly.var("t") ** 2 * MultiPoly.var("jx")
    + MultiPoly.var("jx") - 5,
    "fractions": lambda: Fraction(-1, 3) * MultiPoly.var("t")
    + Fraction(5, 2) * MultiPoly.var("jx") ** 3,
    "fraction constant": lambda: MultiPoly.const(Fraction(-7, 4)),
    "integral fractions from JSON": _integral_fractions,
    "gaps": _gaps,
    # t, registered first, is unused: a gap before the one variable
    "one variable after a gap": lambda: MultiPoly.var("jx") ** 2 - 3,
    "degree 130": _degree_130,
}


@pytest.mark.parametrize("name", _POLYS)
def test_polynomial_text(name):
    _assert_written(_POLYS[name]())


@pytest.mark.parametrize("args", EMITS, ids=lambda args: " ".join(args))
def test_emit_payloads(args, capsys):
    """emit --format json writes what json.dumps writes for the reference
    payload, on every ladder and stream knot."""
    assert main(["emit", "--format", "json", *args]) == EXIT_OK
    out = capsys.readouterr().out
    closure = parse(args[-1])
    pres = link_presentation(closure) if args[0] == "--link" else closure_equations(closure)
    payload = _reference_payload(pres)
    payload["provenance"] = {"tool": "arborchar", "version": "0.1.0", "expression": args[-1]}
    assert out == json.dumps(payload, indent=2) + "\n"


def test_random_closures():
    rng = random.Random(20)
    drawn = written = 0
    while drawn < 200:
        closure = _random_closure(rng)
        if closure is None:
            continue
        drawn += 1
        try:
            pres = closure_equations(closure)
        except (UnsupportedShapeError, ZeroDivisionError):
            continue
        for p in pres.equations + pres.exclusions:
            _assert_written(p)
        assert _json_text(pres._json_fields(lambda p: p)) == json.dumps(
            _reference_payload(pres), indent=2)
        written += 1
    assert written >= 150
