#!/usr/bin/env python3
"""arborchar benchmark: emit-ladder, emit-stream and verify-suites.

Run from the repository root; nothing needs installing:

    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --workload emit-ladder --seed 3 --seconds 15 --trace 0

Every workload is closed-loop with one caller: the benchmark starts one
child process at a time (perfbench/child.py, with PYTHONPATH=src) and
waits for it.  With --trace 0 it measures and prints the end-to-end
metrics; with --trace 1 it runs one untraced and one traced pass plus the
per-layer microbenches, and prints the per-layer metrics.  Times are
reported at a reference speed of the machine (see speed.py).  Every run
writes a results file with provenance under perfbench/out/.  The last
line of standard output is one JSON object; the exit code is 1 when an
output check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import rounds
import speed
from spans import LAYERS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
TMP = OUT / "tmp"
REFERENCE = BENCH / "reference"
SRC = ROOT / "src"


@dataclass(frozen=True)
class Knot:
    name: str
    expr: str
    limit_s: float
    link: bool = False
    # known not to finish within its limit when the benchmark was defined:
    # its timeout is recorded (fail_share, wall_s at the limit) but is not
    # counted as a failed operation in the final JSON line
    frontier: bool = False


LADDER = (
    Knot("trefoil", "D([1/1] *v [1/2])", 10),
    Knot("n-2-3", "N([2] *h [3])", 10),
    Knot("pretzel-333", "D([3] *v [3] *v [3])", 10),
    Knot("vchain-5", "D([1/3] *v [1/3] *v [1/3] *v [1/3] *v [1/3])", 10),
    Knot("worked", "D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))", 10),
    Knot("montesinos", "D([[2],[3]] *v [[3],[2]] *v [1/2])", 45),
    Knot("pretzel-33333", "D([3] *v [3] *v [3] *v [3] *v [3])", 10, frontier=True),
    Knot("link-3333", "D([3] *v [3] *v [3] *v [3])", 10, link=True),
)

# a cheap knot is emitted again, each time in a fresh process, until its
# fresh processes have taken LADDER_REPEAT_S in all or it ran LADDER_MAX_REPS
# times, spread over the pass (see rounds.py); the row reports medians,
# which steadies the millisecond-scale rows
LADDER_REPEAT_S = 2.0
LADDER_MAX_REPS = 4
LADDER_SLOW_S = 1.0

STREAM_KNOTS = tuple(k.expr for k in LADDER[:3]) + (
    "D([1/2] *v [1/3])",
    "D([3] *v [1/-2])",
    "D([1/-3] *v [1/3] *v [1/1])",
)
STREAM_EMITS = 120
STREAM_LIMIT_S = 150
VERIFY_ORACLE_SEED = 0  # the CLI default; see README.md for why it is fixed
VERIFY_LIMIT_S = 150
SETUP_PROBES = 4
PROBE_LIMIT_S = 30
MICRO_LIMIT_S = 90
RUN_BUDGET_S = 150  # no further pass starts if it could end past this
# passes a run makes even when --seconds is over sooner: a stream pass is
# one process, and a stream process's time spreads by 5 % even at the
# reference speed, so each emit position takes the median of four
MIN_PASSES = {"emit-ladder": 1, "emit-stream": 4, "verify-suites": 1}

WORKLOADS = ("emit-ladder", "emit-stream", "verify-suites")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_geomean_s": "s",
}

MICRO = {
    "tangle.parse_us": "us",
    "tangle.components_us": "us",
    "ratfun.mul_ms": "ms",
    "ratfun.divexact_ms": "ms",
    "ratfun.subs_ms": "ms",
    "ratfun.norm_ms": "ms",
    "ratfun.clear_denominators_ms": "ms",
    "invariants.run_ms": "ms",
    "invariants.closure_ms": "ms",
    "invariants.compose_calls": "count",
    "invariants.record_terms": "count",
    "invariants.exclusions": "count",
    "links.pretzel3333_ms": "ms",
    "mat2.matmul_us": "us",
    "mat2.chebyshev_us": "us",
    "mat2.decompose_pair_us": "us",
    "oracle.build_tangle_rep_ms": "ms",
    "oracle.conditioned_pair_us": "us",
    "witness.family_ms": "ms",
    "cli.json_ms": "ms",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "ratfun.registry_size": "count",
    **MICRO,
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildRun:
    pid: int
    rc: int | None  # exit code; None when killed at the limit
    timed_out: bool
    wall_s: float  # at the reference speed when the child reported, else as measured
    raw_wall_s: float
    rss_mb: float
    setup_s: float | None
    data: dict | None
    log_tail: str


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(tag: str, argv: list[str], limit_s: float, spans: bool = False,
          setup: bool = True) -> ChildRun:
    """Run child.py once; kill its process group at limit_s and reap it.

    With ``setup`` its start-up time is measured, scaled by a reference
    process started right before it (speed.reference_start)."""
    result = TMP / f"{tag}.result.json"
    log = TMP / f"{tag}.log"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), *argv, "--result", str(result)]
    if spans:
        cmd += ["--spans", str(TMP / f"{tag}.spans.json.gz"), "--run-id", tag]
    status: dict = {}
    ref_start_s = speed.reference_start(child_env(), PROBE_LIMIT_S) if setup else None
    t0 = time.monotonic()
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=child_env(), start_new_session=True)
    reaped = threading.Event()

    def reap() -> None:
        status["w"] = os.wait4(proc.pid, 0)
        reaped.set()

    # an Event, not Thread.join: a join interrupted by a signal can leave the
    # thread marked as stopped, and the child would then never be killed
    threading.Thread(target=reap, daemon=True).start()
    try:
        reaped.wait(limit_s)
    finally:
        timed_out = not reaped.is_set()
        if timed_out:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            reaped.wait()
    raw_wall = time.monotonic() - t0
    _, wstatus, usage = status["w"]
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    data = None
    if not timed_out and proc.returncode == 0 and result.exists():
        data = json.loads(result.read_text(encoding="utf-8"))
    tail = "" if data is not None else "\n".join(log.read_text(errors="replace").splitlines()[-5:])
    return ChildRun(
        pid=proc.pid,
        rc=None if timed_out else proc.returncode,
        timed_out=timed_out,
        wall_s=(raw_wall - data["sampling_s"]) * data["wall_factor"] if data else raw_wall,
        raw_wall_s=raw_wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=(data["ready"] - t0) * speed.REF_START_S / ref_start_s if data and setup else None,
        data=data,
        log_tail=tail,
    )


# ---------------------------------------------------------------------------
# workload passes
# ---------------------------------------------------------------------------


def geomean(xs: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def new_pass() -> dict:
    # parts: the samples of each additive part of the pass's wall time;
    # ops: the samples of each operation's time (see medians())
    return {"wall_s": 0.0, "op_s": [], "parts": {}, "ops": {}, "setup_s": [], "rss_mb": [],
            "attempted": 0, "failed": 0, "failed_or_timeout": 0, "problems": [],
            "self_s": {}, "registry_size": 0, "span_files": []}


def absorb(p: dict, r: ChildRun, tag: str, traced: bool) -> None:
    p["rss_mb"].append(r.rss_mb)
    if r.setup_s is not None:
        p["setup_s"].append(r.setup_s)
    if r.data is not None:
        p["registry_size"] = max(p["registry_size"], r.data["registry_size"])
        for layer, s in r.data.get("self_s", {}).items():
            p["self_s"][layer] = p["self_s"].get(layer, 0.0) + s
        if traced:
            p["span_files"].append(f"{tag}.spans.json.gz")


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def emit_once(k: Knot, tag: str, traced: bool, verdicts: dict,
              setup: bool) -> tuple[dict, ChildRun]:
    """One fresh-process emit of a knot; each distinct output is checked once."""
    out = TMP / f"{tag}.emit.json"
    out.unlink(missing_ok=True)
    argv = ["emit", "--expr", k.expr, "--out", str(out)] + (["--link"] if k.link else [])
    r = spawn(tag, argv, k.limit_s, spans=traced, setup=setup)
    rep = {"exit_code": r.rc, "rss_mb": r.rss_mb, "setup_s": r.setup_s}
    if r.timed_out:
        rep.update(status="timeout", wall_s=k.limit_s, emit_s=k.limit_s)
    elif r.data is None or r.data["rc"] != 0:
        code = r.rc if r.data is None else r.data["rc"]
        rep.update(status=f"exit {code}", exit_code=code, wall_s=r.wall_s, emit_s=r.wall_s,
                   log_tail=r.log_tail)
    else:
        rep.update(wall_s=r.wall_s, emit_s=r.data["emit"]["s"][0], raw_wall_s=r.raw_wall_s,
                   raw_emit_s=r.data["emit"]["raw_s"][0])
        digest = file_digest(out)
        if digest not in verdicts:
            verdicts[digest] = check_output(REFERENCE / f"{k.name}.json.xz", out)
        verdict = verdicts[digest]
        rep.update(terms=verdict["terms"], max_degree=verdict["max_degree"])
        rep["status"] = "ok" if not verdict["problems"] else "check failed"
        if verdict["problems"]:
            rep["problems"] = verdict["problems"]
    if traced and r.data is not None:
        rep["self_s"] = r.data["self_s"]
    out.unlink(missing_ok=True)
    return rep, r


def ladder_pass(seed: int, tag: str, traced: bool, knots: tuple[Knot, ...] = LADDER) -> dict:
    """Each knot in fresh processes, cheap ones repeated; medians per knot."""
    order = list(knots)
    random.Random(seed).shuffle(order)
    by_name = {k.name: k for k in order}
    reps: dict = {k.name: [] for k in order}
    p = new_pass()
    p["rows"] = []
    verdicts: dict = {}

    def run_once(name: str) -> tuple[float, bool]:
        ktag = f"{tag}-{name}-r{len(reps[name])}"
        # a knot's first process gives a start-up sample, its repetitions none
        rep, r = emit_once(by_name[name], ktag, traced, verdicts, setup=not reps[name])
        absorb(p, r, ktag, traced)
        reps[name].append(rep)
        return rep["wall_s"], rep["status"] == "ok"

    rounds.spread(list(by_name), run_once, LADDER_REPEAT_S, 1 if traced else LADDER_MAX_REPS,
                  LADDER_SLOW_S)
    for k in order:
        rs = reps[k.name]
        last = rs[-1]
        row = {"knot": k.name, "expr": k.expr, "limit_s": k.limit_s, "status": last["status"],
               "exit_code": last["exit_code"],
               "wall_s": statistics.median(x["wall_s"] for x in rs),
               "emit_s": statistics.median(x["emit_s"] for x in rs),
               "rss_mb": max(x["rss_mb"] for x in rs),
               "terms": last.get("terms"), "max_degree": last.get("max_degree"), "reps": rs}
        p["rows"].append(row)
        p["parts"][k.name] = [x["wall_s"] for x in rs]
        p["ops"][k.name] = [x["emit_s"] for x in rs]
        p["wall_s"] += row["wall_s"]
        p["op_s"].append(row["emit_s"])
        p["attempted"] += 1
        if row["status"] != "ok":
            p["failed_or_timeout"] += 1
            if not (k.frontier and row["status"] == "timeout"):
                p["failed"] += 1
                p["problems"].append(f"{k.name}: {row['status']} {last.get('problems', '')}")
    done = [row for row in p["rows"] if row["status"] == "ok"]
    p["extra"] = {
        "emit.geomean_s": geomean(p["op_s"]),
        "emit.terms": sum(row["terms"] for row in done),
        "emit.max_degree": max((row["max_degree"] for row in done), default=0),
    }
    return p


def tail_percentile(xs: list[float]) -> tuple[int, float]:
    """The highest of p50/p90/p95/p99 with at least 10 samples above it."""
    ordered = sorted(xs)
    n = len(ordered)
    best = (50, statistics.median(ordered))
    for pct in (90, 95, 99):
        idx = math.ceil(pct / 100 * n) - 1
        if n - 1 - idx >= 10:
            best = (pct, ordered[idx])
    return best


def stream_mismatches(cycle: list[str], digests: list, fresh: dict) -> list[int]:
    """Indices of stream emits whose output differs from the fresh-process one."""
    return [i for i, d in enumerate(digests) if d is None or d != fresh[cycle[i % len(cycle)]]]


# each stream knot's fresh-process output digest, made once per run
FRESH_DIGESTS: dict = {}


def stream_pass(seed: int, tag: str, traced: bool) -> dict:
    """One stream process; every emit position is a part and an operation."""
    cycle = list(STREAM_KNOTS)
    random.Random(seed).shuffle(cycle)
    p = new_pass()
    fresh = FRESH_DIGESTS
    for i, expr in enumerate(cycle):
        if expr in fresh:
            continue
        r = spawn(f"{tag}-fresh{i}", ["stream", "--knots", json.dumps([expr]), "--count", "1"],
                  PROBE_LIMIT_S)
        absorb(p, r, f"{tag}-fresh{i}", False)
        fresh[expr] = r.data["digests"][0] if r.data and not r.data["errors"] else None
        if fresh[expr] is None:
            p["problems"].append(f"fresh-process emit of {expr} failed: {r.log_tail}")
    r = spawn(f"{tag}-stream", ["stream", "--knots", json.dumps(cycle), "--count", str(STREAM_EMITS)],
              STREAM_LIMIT_S, spans=traced)
    absorb(p, r, f"{tag}-stream", traced)
    p["wall_s"] = STREAM_LIMIT_S if r.timed_out else r.wall_s
    p["attempted"] = STREAM_EMITS
    if r.data is None:
        p["failed"] = p["failed_or_timeout"] = STREAM_EMITS
        p["problems"].append(f"stream process ended with {r.rc}: {r.log_tail}")
        p["op_s"] = [STREAM_LIMIT_S]
        p["parts"] = {"stream": [p["wall_s"]]}
        p["ops"] = {"stream": [STREAM_LIMIT_S]}
        p["extra"] = {}
        return p
    lat, digests = r.data["latencies"]["s"], r.data["digests"]
    # the process's start-up and exit, then each emit position
    rest = r.raw_wall_s - r.data["sampling_s"] - sum(r.data["latencies"]["raw_s"])
    p["parts"] = {"process": [rest * r.data["wall_factor"]],
                  **{f"e{i}": [x] for i, x in enumerate(lat)}}
    p["ops"] = {f"e{i}": [x] for i, x in enumerate(lat)}
    p["raw"] = {"wall_s": r.raw_wall_s, "latencies": r.data["latencies"]["raw_s"]}
    mismatched = stream_mismatches(cycle, digests, fresh)
    p["failed"] = p["failed_or_timeout"] = len(mismatched)
    if mismatched:
        p["problems"].append(f"{len(mismatched)} stream emits differ from the fresh-process output "
                             f"(first at emit {mismatched[0]}); errors: {r.data['errors'][:3]}")
    p["op_s"] = lat
    tenth = max(1, len(lat) // 10)
    pct, tail = tail_percentile(lat)
    p["extra"] = {
        "stream.emits_per_s": (len(lat) - len(mismatched)) / sum(lat),
        "stream.latency_p50_ms": 1e3 * statistics.median(lat),
        "stream.latency_tail_ms": 1e3 * tail,
        "stream.latency_tail_pct": pct,
        "stream.samples": len(lat),
        "stream.slowdown": statistics.fmean(lat[-tenth:]) / statistics.fmean(lat[:tenth]),
        "ratfun.registry_size": r.data["registry_size"],
        "stream.cycle": cycle,
    }
    return p


def verify_problems(ops: list[dict]) -> list[str]:
    """Suites or witness calls that failed or exited non-zero."""
    return [f"{op['op']}: exit {op['rc']}, {op['failures']} failed samples"
            for op in ops if op["rc"] != 0 or not op["passed"]]


def verify_pass(seed: int, tag: str, traced: bool) -> dict:
    p = new_pass()
    for i in range(SETUP_PROBES):
        r = spawn(f"{tag}-probe{i}", ["probe"], PROBE_LIMIT_S)
        absorb(p, r, f"{tag}-probe{i}", False)
    outdir = TMP / f"{tag}-verify"
    outdir.mkdir(parents=True, exist_ok=True)
    argv = ["verify", "--outdir", str(outdir), "--oracle-seed", str(VERIFY_ORACLE_SEED),
            "--witness-seed", str(seed)]
    r = spawn(f"{tag}-verify", argv, VERIFY_LIMIT_S, spans=traced)
    absorb(p, r, f"{tag}-verify", traced)
    p["wall_s"] = VERIFY_LIMIT_S
    if r.data is None:
        p["attempted"] = p["failed"] = p["failed_or_timeout"] = 1
        p["problems"].append(f"verify process ended with {r.rc}: {r.log_tail}")
        p["op_s"] = [VERIFY_LIMIT_S]
        p["parts"] = {"verify": [VERIFY_LIMIT_S]}
        p["ops"] = {"verify": [VERIFY_LIMIT_S]}
        p["extra"] = {}
        return p
    ops = r.data["ops"]
    for op in ops:
        op["raw_times"] = op["times"]["raw_s"]
        op["times"] = op["times"]["s"]
        op["s"] = statistics.median(op["times"])
    p["calls"] = ops
    p["op_s"] = [op["s"] for op in ops]
    # one pass: start-up plus each call's median time, as for the ladder's knots
    p["wall_s"] = r.setup_s + sum(p["op_s"])
    p["parts"] = {"start": [r.setup_s], **{op["op"]: op["times"] for op in ops}}
    p["ops"] = {op["op"]: op["times"] for op in ops}
    p["attempted"] = sum(op["samples"] for op in ops)
    bad = verify_problems(ops)
    p["problems"] += bad
    p["failed"] = p["failed_or_timeout"] = max(sum(op["failures"] for op in ops), int(bool(bad)))
    p["extra"] = {}
    for op in ops:
        if op["op"] == "witness":
            p["extra"]["witness.family_s"] = op["s"]
            continue
        tries = op["samples"] + op["rejected"]
        p["extra"][f"oracle.{op['op']}.samples_per_s"] = op["samples"] / op["s"]
        p["extra"][f"oracle.{op['op']}.accept_ratio"] = op["samples"] / tries
    return p


PASSES = {"emit-ladder": ladder_pass, "emit-stream": stream_pass, "verify-suites": verify_pass}


def check_output(ref: Path, out: Path) -> dict:
    """Run check.py on one emitted payload in its own process."""
    res = subprocess.run([sys.executable, str(BENCH / "check.py"), str(ref), str(out)],
                         capture_output=True, text=True, cwd=ROOT)
    if res.returncode != 0:
        return {"problems": [f"check crashed: {res.stderr.strip()[-300:]}"],
                "terms": 0, "max_degree": 0}
    return json.loads(res.stdout)


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------


def provenance(args, workload: str) -> dict:
    digest = hashlib.sha256()
    for f in sorted((SRC / "arborchar").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    if shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env)
        commit = res.stdout.strip() if res.returncode == 0 else None
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy missing or not installed as a distribution
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limits_s": {k.name: k.limit_s for k in LADDER} | {
            "stream": STREAM_LIMIT_S, "verify": VERIFY_LIMIT_S},
        "stream_emits": STREAM_EMITS,
        "speed": {"ref_s": speed.REF_S, "loops": speed.LOOPS, "period_s": speed.PERIOD_S},
        "verify_oracle_seed": VERIFY_ORACLE_SEED,
        "started_unix": time.time(),
    }


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def medians(passes: list[dict], field: str) -> dict:
    """Each key's median sample over all passes of a run."""
    samples: dict = {}
    for p in passes:
        for key, xs in p[field].items():
            samples.setdefault(key, []).extend(xs)
    return {key: statistics.median(xs) for key, xs in samples.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run = PASSES[workload]
    start = time.monotonic()
    spawn(f"{workload}-warmup", ["probe"], PROBE_LIMIT_S, setup=False)  # writes bytecode caches
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(run(seed, f"{workload}-s{seed}-p{len(passes)}", False))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if (trace or elapsed >= seconds and len(passes) >= MIN_PASSES[workload]
                or elapsed + took > RUN_BUDGET_S):
            break
    result: dict = {"passes": passes}
    setup = [s for p in passes for s in p["setup_s"]]
    result["metrics"] = {
        "setup_s": statistics.median(setup) if setup else float(PROBE_LIMIT_S),
        "wall_s": sum(medians(passes, "parts").values()),
        "peak_rss_mb": max(m for p in passes for m in p["rss_mb"]),
        "op_geomean_s": geomean(list(medians(passes, "ops").values())),
    }
    extra = passes[len(passes) // 2]["extra"]
    attempted = sum(p["attempted"] for p in passes)
    result["extra"] = {**extra, "fail_share": sum(p["failed_or_timeout"] for p in passes) / attempted}
    result["attempted"] = attempted
    result["failed"] = sum(p["failed"] for p in passes)
    result["problems"] = [q for p in passes for q in p["problems"]]
    if trace:
        traced = run(seed, f"{workload}-s{seed}-traced", True)
        result["traced_pass"] = traced
        result["problems"] += traced["problems"]
        micro = spawn(f"{workload}-micro", ["micro"], MICRO_LIMIT_S, setup=False)
        if micro.data is None:
            result["problems"].append(f"microbenches ended with {micro.rc}: {micro.log_tail}")
            micro_metrics = {name: None for name in MICRO}
        else:
            micro_metrics = micro.data["metrics"]
            result["micro_sizes"] = micro.data["sizes"]
        result["per_layer"] = {
            **{f"{layer}.self_s": traced["self_s"].get(layer, 0.0) for layer in LAYERS},
            "trace.overhead_s": traced["wall_s"] - passes[0]["wall_s"],
            "ratfun.registry_size": traced["registry_size"],
            **micro_metrics,
        }
        result["span_files"] = traced["span_files"]
    result["correct"] = not result["problems"]
    return result


def extra_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_pct", "%"),
                         ("_ratio", "ratio"), ("_share", "ratio"), ("slowdown", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(workload: str, res: dict, trace: int) -> None:
    print(f"== {workload}")
    for name, unit in END_TO_END.items():
        print(f"  {name:34s} {res['metrics'][name]:.6g} {unit}")
    for name, value in res["extra"].items():
        if isinstance(value, (int, float)):
            print(f"  {name:34s} {value:.6g} {extra_unit(name)}")
    if trace:
        for name, unit in PER_LAYER.items():
            value = res["per_layer"][name]
            print(f"  {name:34s} {'n/a' if value is None else format(value, '.6g')} {unit}")
    for q in res["problems"]:
        print(f"  CHECK FAILED: {q}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "arborchar" / "cli.py").is_file():
        print(f"error: {SRC / 'arborchar'} not found; run from an arborchar checkout",
              file=sys.stderr)
        return 2
    TMP.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, args.trace)
        res["provenance"] = provenance(args, w)
        path = OUT / f"{w}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1, default=str), encoding="utf-8")
        report(w, res, args.trace)
        print(f"  results: {path.relative_to(ROOT)}")
        results[w] = res
    units = PER_LAYER if args.trace else END_TO_END
    key = "per_layer" if args.trace else "metrics"
    if len(workloads) == 1:
        metrics = metric_block(results[workloads[0]][key], units)
    else:
        metrics = {f"{w}/{name}": block for w in workloads
                   for name, block in metric_block(results[w][key], units).items()}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
