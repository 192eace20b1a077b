#!/usr/bin/env python3
"""Write the emit-ladder reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py [KNOT ...]

Each knot is emitted by ``arborchar emit --format json`` in a fresh
process without a time limit; the provenance block is dropped and the
payload is stored as xz-compressed JSON.  The stored files were made at the
commit that defined the benchmark; remaking them later replaces the
reference the ladder is checked against.
"""

from __future__ import annotations

import json
import lzma
import subprocess
import sys

from run import LADDER, REFERENCE, ROOT, child_env


def main(names: list[str]) -> int:
    REFERENCE.mkdir(exist_ok=True)
    for k in LADDER:
        if names and k.name not in names:
            continue
        cmd = [sys.executable, "-m", "arborchar.cli", "emit", "--format", "json"]
        cmd += (["--link"] if k.link else []) + [k.expr]
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                             check=True)
        payload = json.loads(res.stdout)
        payload.pop("provenance")
        with lzma.open(REFERENCE / f"{k.name}.json.xz", "wt", encoding="utf-8", preset=9) as fh:
            json.dump(payload, fh, separators=(",", ":"))
        print(k.name, "written", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
