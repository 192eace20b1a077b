"""Golden outputs: `arborchar emit --format json` against stored references.

Each knot is emitted in a fresh interpreter, because term order in the
payload follows the order in which variables were registered, and so
depends on what the process computed earlier.  The references are the
benchmark's (`perfbench/reference/*.json.xz`, payload without provenance);
this test only reads them.  A change to the exact kernel or the engine that
alters any coefficient, exponent, term order or variable name fails here.
"""

import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference"

KNOTS = {
    "trefoil": ["D([1/1] *v [1/2])"],
    "n-2-3": ["N([2] *h [3])"],
    "pretzel-333": ["D([3] *v [3] *v [3])"],
    "vchain-5": ["D([1/3] *v [1/3] *v [1/3] *v [1/3] *v [1/3])"],
    "worked": ["D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))"],
    "montesinos": ["D([[2],[3]] *v [[3],[2]] *v [1/2])"],
    "link-3333": ["--link", "D([3] *v [3] *v [3] *v [3])"],
}


def _emit(args: list[str]) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    res = subprocess.run(
        [sys.executable, "-m", "arborchar.cli", "emit", "--format", "json", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.mark.parametrize("name", sorted(KNOTS))
def test_emit_matches_reference(name):
    with lzma.open(REFERENCE / f"{name}.json.xz", "rt", encoding="utf-8") as fh:
        reference = json.load(fh)
    payload = _emit(KNOTS[name])
    payload.pop("provenance")
    assert payload == reference
