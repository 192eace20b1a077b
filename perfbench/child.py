"""Fresh-process worker of the benchmark.

run.py starts it as ``python3 perfbench/child.py MODE ... --result PATH``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  It imports
``arborchar.cli`` first and records when that import finished on the
CLOCK_MONOTONIC clock, which run.py reads too, so run.py can time
interpreter start plus import.  It then does one step of a workload and
writes a JSON result.  It uses only arborchar's public functions.

Modes:
  probe    import only
  emit     one ``arborchar emit --format json`` call through cli.main
  stream   in-process emits (parse, closure_equations, to_json) in a cycle
  verify   ``arborchar verify`` for every suite, then one witness family;
           a call that takes under a second is repeated (see do_verify)
  micro    the per-layer microbenches of micro.py

With ``--spans PATH`` the step runs traced (see spans.py) and the spans
are written to PATH.  Every time the child reports is scaled to the
reference speed of speed.py, which samples the machine's speed while the
child works; the measured times are reported next to them (``raw_s``).
run.py scales the start-up time (see speed.reference_start).
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import sys
import time

import arborchar.cli as cli

READY = time.monotonic()

from arborchar import invariants, ratfun, tangle  # noqa: E402  (already loaded by cli)

import rounds  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

SPEED = speed.Speed()

VERIFY_REPEAT_S = 1.0
VERIFY_MAX_REPS = 5
WITNESS_ARGS = ["--t", "2.6+0.3j", "--t23", "0.7+0.9j", "--t34=-0.8+0.4j",
                "--t14=-0.7+0.5j", "--t13-count", "5"]


def call_main(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def timed_main(argv: list[str], rec, timer: speed.Timer) -> tuple[float, int]:
    with timer, rec.span("cli.main", "cli") if rec else contextlib.nullcontext():
        rc = call_main(argv)
    return timer.raw()[-1], rc


def emit_json(expr: str, rec: spans.Recorder | None) -> str:
    """The library path of ``emit --format json``, without provenance."""
    pres = invariants.closure_equations(tangle.parse(expr))
    with rec.span("cli.json", "cli") if rec else contextlib.nullcontext():
        return json.dumps(pres.to_json(), indent=2)


def do_emit(args, rec) -> dict:
    argv = ["emit", "--format", "json", "--out", args.out]
    if args.link:
        argv.append("--link")
    argv.append(args.expr)
    timer = speed.Timer(SPEED)
    _, rc = timed_main(argv, rec, timer)
    return {"emit": timer, "rc": rc}


def do_stream(args, rec) -> dict:
    knots = json.loads(args.knots)
    latencies, digests, errors = speed.Timer(SPEED), [], []
    for i in range(args.count):
        expr = knots[i % len(knots)]
        try:
            with latencies:
                text = emit_json(expr, rec)
        except Exception as exc:  # one failed emit must not end the stream
            digests.append(None)
            errors.append(f"{expr}: {type(exc).__name__}: {exc}")
            continue
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return {"knots": knots, "latencies": latencies, "digests": digests, "errors": errors}


def do_verify(args, rec) -> dict:
    """Every suite, then the witness family, each with its own ``--out``.

    A call that takes under VERIFY_REPEAT_S is run again with the same
    arguments, so the same work, spread over the pass by rounds.spread()
    (never when traced), until it has taken VERIFY_REPEAT_S in all or ran
    VERIFY_MAX_REPS times; the worst exit code is kept."""
    from arborchar.oracle import SUITE_NAMES

    argvs = {name: ["verify", "--suite", name, "--seed", str(args.oracle_seed), "--out",
                    os.path.join(args.outdir, f"verify-{name}.json")] for name in SUITE_NAMES}
    argvs["witness"] = ["witness", *WITNESS_ARGS, "--seed", str(args.witness_seed), "--out",
                        os.path.join(args.outdir, "witness.json")]
    worst: dict = {}
    timers = {name: speed.Timer(SPEED) for name in argvs}

    def run_once(name: str) -> tuple[float, bool]:
        dt, rc = timed_main(argvs[name], rec, timers[name])
        worst[name] = worst.get(name) or rc
        return dt, rc == 0

    rounds.spread(argvs, run_once, VERIFY_REPEAT_S, 1 if rec else VERIFY_MAX_REPS,
                  VERIFY_REPEAT_S)
    ops = []
    for name in SUITE_NAMES:
        with open(argvs[name][-1], encoding="utf-8") as fh:
            report = json.load(fh)["reports"][0]
        ops.append({"op": name, "times": timers[name], "rc": worst[name],
                    "samples": report["samples"], "rejected": report["rejected"],
                    "failures": len(report["failures"]), "passed": report["passed"],
                    "max_residual": report["max_residual"]})
    with open(argvs["witness"][-1], encoding="utf-8") as fh:
        payload = json.load(fh)
    ops.append({"op": "witness", "times": timers["witness"], "rc": worst["witness"],
                "samples": len(payload["samples"]), "rejected": 0,
                "failures": 0 if payload["passed"] else len(payload["samples"]),
                "passed": payload["passed"]})
    return {"ops": ops}


def do_micro(args, rec) -> dict:
    import micro

    return micro.run()


def resolve(obj):
    """Replace each Timer in a result by its scaled and measured times."""
    if isinstance(obj, speed.Timer):
        return {"s": obj.scaled(), "raw_s": obj.raw()}
    if isinstance(obj, dict):
        return {k: resolve(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [resolve(v) for v in obj]
    return obj


MODES = {"probe": lambda args, rec: {}, "emit": do_emit, "stream": do_stream,
         "verify": do_verify, "micro": do_micro}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=tuple(MODES))
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    p.add_argument("--run-id", default="")
    p.add_argument("--expr")
    p.add_argument("--link", action="store_true")
    p.add_argument("--out")
    p.add_argument("--knots")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--outdir")
    p.add_argument("--oracle-seed", type=int, default=0)
    p.add_argument("--witness-seed", type=int, default=0)
    args = p.parse_args()
    rec = None
    if args.spans:
        spans.clock = SPEED.now
        rec = spans.Recorder()
        spans.install(rec)
    SPEED.start()
    result = MODES[args.mode](args, rec)
    SPEED.stop()
    result = resolve(result)
    result["ready"] = READY
    result["wall_factor"] = SPEED.factor()
    result["sampling_s"] = SPEED.spent
    result["registry_size"] = len(ratfun.REGISTRY)
    if rec is not None:
        result["self_s"] = rec.self_times()
        with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
            json.dump(rec.export(args.run_id), fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
