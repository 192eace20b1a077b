"""The CLI's JSON writer against `json.dumps(obj, indent=2)`, byte for byte.

`arborchar.cli._json_text` writes every JSON file and stream of the CLI
(emit, witness, verify --out); the stored payloads and reports must stay
byte-identical to what the standard encoder writes.
"""

import json
import lzma
import math
import random
from pathlib import Path

import pytest

from arborchar.cli import EXIT_OK, _json_text, main

ROOT = Path(__file__).resolve().parents[1]
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


@pytest.mark.parametrize("path", STORED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_stored_payloads(path):
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["provenance"] = {"tool": "arborchar", "version": "0.1.0",
                             "expression": "D([3] *v [3] *v [3])"}
    assert _json_text(payload) == json.dumps(payload, indent=2)


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
    assert text == json.dumps(json.loads(text), indent=2)  # no trailing newline
