#!/usr/bin/env python3
"""Rewrite the stored golden payloads under tests/golden/.

    python3 tests/golden/make_golden.py [KNOT ...]

``tests/test_golden.py`` compares ``arborchar emit --format json`` for each
knot in KNOTS with a stored payload: ``tests/golden/<knot>.json.xz`` when
that file exists, else the benchmark reference
``perfbench/reference/<knot>.json.xz``, which this script never writes.
The golden files hold the knots whose output is meant to differ from the
benchmark reference (saturation by the exclusions removes factors from
their equations).

Each knot named (by default every knot that has a golden file) is emitted
in a fresh process; the provenance block is dropped and the payload is
written as xz-compressed JSON, but only if ``perfbench/check.py`` accepts
it against the benchmark reference: the same variables, the same
exclusion loci, and equations that differ from the reference's only by a
constant and excluded factors.  Any rejected knot is reported, nothing is
written for it, and the script exits 1.
"""

from __future__ import annotations

import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent
REFERENCE = ROOT / "perfbench" / "reference"

KNOTS = {
    "trefoil": ["D([1/1] *v [1/2])"],
    "n-2-3": ["N([2] *h [3])"],
    "pretzel-333": ["D([3] *v [3] *v [3])"],
    "vchain-5": ["D([1/3] *v [1/3] *v [1/3] *v [1/3] *v [1/3])"],
    "worked": ["D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))"],
    "montesinos": ["D([[2],[3]] *v [[3],[2]] *v [1/2])"],
    "pretzel-33333": ["D([3] *v [3] *v [3] *v [3] *v [3])"],
    "link-3333": ["--link", "D([3] *v [3] *v [3] *v [3])"],
}


def emit(args: list[str]) -> dict:
    """The payload of ``arborchar emit --format json ARGS`` run in a fresh
    interpreter, without its provenance block."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    res = subprocess.run(
        [sys.executable, "-m", "arborchar.cli", "emit", "--format", "json", *args],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if res.returncode != 0:
        raise RuntimeError(f"emit {args} exited {res.returncode}: {res.stderr}")
    payload = json.loads(res.stdout)
    payload.pop("provenance")
    return payload


def load(path: Path) -> dict:
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def stored(name: str) -> dict:
    """The payload the golden test compares knot ``name`` with."""
    path = GOLDEN / f"{name}.json.xz"
    return load(path if path.exists() else REFERENCE / f"{name}.json.xz")


def main(names: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from check import compare

    unknown = [n for n in names if n not in KNOTS]
    if unknown:
        print(f"unknown knot(s): {', '.join(unknown)}; known: {', '.join(KNOTS)}")
        return 2
    names = names or sorted(p.name.removesuffix(".json.xz") for p in GOLDEN.glob("*.json.xz"))
    refused = 0
    for name in names:
        payload = emit(KNOTS[name])
        problems = compare(load(REFERENCE / f"{name}.json.xz"), payload)
        if problems:
            print(f"{name}: not written: {'; '.join(problems)}", flush=True)
            refused += 1
            continue
        with lzma.open(GOLDEN / f"{name}.json.xz", "wt", encoding="utf-8", preset=9) as fh:
            json.dump(payload, fh, separators=(",", ":"))
        print(f"{name}: written", flush=True)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
