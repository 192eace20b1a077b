"""Command-line front end: emit presentations, verify with the matrix
oracle, generate witness families, and count closure components.

`main` parses a well-formed command line itself (`_parse_plain`): exact
flags, in the `--opt value` and `--opt=value` forms, and at most one
positional expression.  It reads each command's arguments from the same
`add_argument` calls that `build_parser` makes, recorded by a `_Spec`, so
every flag is declared once.  Any other argv (help, `--version`, `--`, an
abbreviation, a bad value, a missing option) goes to argparse's full
command tree, which gives its help texts, usage lines, error messages and
exit codes; a well-formed call never builds that tree, nor loads the
`locale` module that argparse's message lookups import; argparse itself
is imported only where it is used.  Importing this
module loads `tangle`, `ratfun`, `invariants` and `chebyshev`, all that
`emit` and `components` use; `links` (`emit --link`), `oracle` and `mat2`
(`verify`, `witness`) and `witness` are imported on the first call of the
function that needs them.  JSON output is written by `_json_text`, which
gives the bytes of `json.dumps(obj, indent=2)` without the standard
encoder's pure-Python indenting path.  `emit --format json` hands it the
presentation's fields with the polynomials unconverted, and each
`MultiPoly` writes its own text straight from its sorted terms.

Exit codes: 0 success, 2 input/validation error, 3 unsupported scope,
4 verification failure.
"""

from __future__ import annotations

import json
import math
import sys
import time
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import RESIDUAL_TOL, SUITE_NAMES, __version__
from .errors import (
    ArborError,
    GenericityError,
    TangleParseError,
    UnsupportedShapeError,
)
from .invariants import Presentation, closure_equations
from .ratfun import MultiPoly
from .tangle import ClosureExpr, component_count, parse

if TYPE_CHECKING:
    import argparse


def _deferred(module: str, name: str):
    """A stand-in for `arborchar.<module>.<name>` that imports the module
    when it is first called."""

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# module attributes, so that callers (and tracing) can rebind them
link_presentation = _deferred("links", "link_presentation")
run_suite = _deferred("oracle", "run_suite")
sample_in_Gt = _deferred("oracle", "sample_in_Gt")
pairwise_gaps = _deferred("witness", "pairwise_gaps")
witness_family = _deferred("witness", "witness_family")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY = 4


def _tolerance(raw: str) -> float:
    """A residual tolerance: a finite number > 0."""
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        import argparse
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number > 0, not {raw!r}")
    return tol


def _count(raw: str) -> int:
    """A sample count: an integer >= 1."""
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"count must be an integer >= 1, not {raw!r}")
    return n


def _read_expression(args: argparse.Namespace) -> str:
    if args.file is not None:
        if args.expr is not None:
            _fail(EXIT_INPUT, "give an expression or --file, not both")
        try:
            with open(args.file, encoding="utf-8") as fh:
                return fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            _fail(EXIT_INPUT, f"cannot read {args.file}: {exc}")
    if args.expr is None:
        _fail(EXIT_INPUT, "an expression (or --file) is required")
    return args.expr


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _write_file(path: str, text: str) -> None:
    """Write `text` and a final newline, as `print` would, without joining
    them into a second copy of the text."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot write {path}: {exc}")


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        _write_file(out, text)


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte.

    Dicts with str keys, lists, tuples, strs and ints are written here, a
    list of plain ints in one join, and a `MultiPoly` writes itself as its
    `to_json()` dict (`MultiPoly._json_text`), so that emit never builds
    the per-term dicts; every other value (float, bool, None) goes to
    `json.dumps`.  A bool is never written as an int.
    """
    parts: list[str] = []
    _write_json(obj, "\n", parts.append)
    return "".join(parts)


def _write_json(obj, nl: str, out) -> None:
    if isinstance(obj, str):
        out(_encode_str(obj))
    elif type(obj) is int:
        out(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        if all(type(v) is int for v in obj):
            out("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        sep = "[" + inner
        for value in obj:
            out(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out(nl + "]")
    elif isinstance(obj, dict) and obj:
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out(sep + _encode_str(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out(nl + "}")
    elif type(obj) is MultiPoly:
        out(obj._json_text(nl))
    else:
        out(json.dumps(obj))


def _provenance(expr: str | None = None, seed: int | None = None) -> dict:
    prov: dict = {"tool": "arborchar", "version": __version__}
    if expr is not None:
        prov["expression"] = expr
    if seed is not None:
        prov["seed"] = seed
    return prov


def _parse_closure(text: str) -> ClosureExpr:
    try:
        node = parse(text)
    except TangleParseError as exc:
        _fail(EXIT_INPUT, str(exc))
    if not isinstance(node, ClosureExpr):
        _fail(EXIT_INPUT, "a closure D(...) or N(...) is required")
    return node


def cmd_emit(args: argparse.Namespace) -> int:
    text = _read_expression(args)
    closure = _parse_closure(text)
    try:
        if args.link:
            pres: Presentation = link_presentation(closure)
        else:
            pres = closure_equations(closure)
    except UnsupportedShapeError as exc:
        _fail(EXIT_UNSUPPORTED, str(exc))
    except ZeroDivisionError as exc:
        # a gluing degenerate at every point (a pinned shared coordinate)
        _fail(EXIT_UNSUPPORTED, f"the generic gluing does not cover this input: {exc}")
    if args.format == "json":
        payload = pres._json_fields(lambda p: p)
        payload["provenance"] = _provenance(expr=text)
        _write_output(_json_text(payload), args.out)
    else:
        _write_output(pres.render_text(), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = []
    ok = True
    for name in names:
        start = time.perf_counter()
        rep = run_suite(name, samples=args.samples, seed=args.seed, tol=args.tol)
        elapsed = time.perf_counter() - start
        reports.append(rep)
        ok = ok and rep.passed
        status = "pass" if rep.passed else "FAIL"
        print(
            f"{name}: {status} samples={rep.samples} "
            f"max_residual={rep.max_residual:.3e} rejected={rep.rejected} "
            f"time={elapsed:.3f}s"
        )
    if args.out is not None:
        payload = {
            "provenance": _provenance(seed=args.seed),
            "reports": [r.to_json() for r in reports],
        }
        _write_file(args.out, _json_text(payload))
    return EXIT_OK if ok else EXIT_VERIFY


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _complex_arg(raw: str) -> complex:
    """A finite complex number; anything else ends with exit code 2."""
    try:
        z = complex(raw.replace(" ", ""))
    except ValueError:
        _fail(EXIT_INPUT, f"not a complex number: {raw!r}")
    if not _finite(z):
        _fail(EXIT_INPUT, f"not a finite number: {raw!r}")
    return z


def _load_pair(path: str) -> tuple[Mat2, Mat2]:
    from .mat2 import Mat2

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        mats = []
        for key in ("a1", "a2"):
            entries = [complex(re, im) for re, im in data[key]]
            if not all(map(_finite, entries)):
                raise ValueError(f"{key} has a non-finite entry")
            mats.append(Mat2(*entries))
        return mats[0], mats[1]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _fail(EXIT_INPUT, f"cannot load pair file {path}: {exc}")


def cmd_witness(args: argparse.Namespace) -> int:
    import random

    tol = args.tol
    t = _complex_arg(args.t)
    t23 = _complex_arg(args.t23)
    t34 = _complex_arg(args.t34)
    t14 = _complex_arg(args.t14)
    rng = random.Random(args.seed)
    if args.t13 is not None:
        t13_values = [_complex_arg(v) for v in args.t13.split(",")]
    else:
        t13_values = []
        while len(t13_values) < args.t13_count:
            cand = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(cand - t23) > 0.2 and abs(cand - (t * t - t23)) > 0.2:
                t13_values.append(cand)
    if args.pair_file is not None:
        a1, a2 = _load_pair(args.pair_file)
    else:
        while True:
            a1 = sample_in_Gt(t, rng)
            a2 = sample_in_Gt(t, rng)
            if (a1 @ a2 - a2 @ a1).norm() > 1e-3:
                break
    try:
        samples = witness_family(a1, a2, t, t23, t34, t14, t13_values)
    except GenericityError as exc:
        _fail(EXIT_INPUT, str(exc))
    except ArborError as exc:
        _fail(EXIT_VERIFY, str(exc))
    ok = True
    for s in samples:
        table = s.trace_table()
        trace_err = max(
            abs(table["t13"] - s.t13),
            abs(table["t23"] - t23),
            abs(table["t34"] - t34),
            abs(table["t14"] - t14),
        )
        if abs(s.gram_det4) > 1e-8 or trace_err > tol:
            ok = False
    gaps = pairwise_gaps(samples)
    payload = {
        "provenance": _provenance(seed=args.seed),
        "t": [t.real, t.imag],
        "samples": [s.to_json() for s in samples],
        "min_pairwise_gap": min(gaps) if gaps else None,
        "passed": ok,
    }
    _write_output(_json_text(payload), args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_components(args: argparse.Namespace) -> int:
    text = _read_expression(args)
    closure = _parse_closure(text)
    print(component_count(closure))
    return EXIT_OK


def _expr_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("expr", nargs="?", help="tangle closure expression")
    p.add_argument("--file", help="read the expression from a file")


def _emit_args(p: argparse.ArgumentParser) -> None:
    _expr_args(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument(
        "--link",
        action="store_true",
        help="use the two-trace engine for supported two-component shapes",
    )


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--samples", type=_count, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=RESIDUAL_TOL)
    p.add_argument("--out", help="write the JSON report to a file")


def _witness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", required=True, help="meridian trace")
    p.add_argument("--t23", required=True)
    p.add_argument("--t34", required=True)
    p.add_argument("--t14", required=True)
    p.add_argument("--t13", help="comma-separated t13 values")
    p.add_argument("--t13-count", type=_count, default=5)
    p.add_argument("--pair-file", help="JSON file with entries a1, a2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=RESIDUAL_TOL)
    p.add_argument("--out", help="write the JSON report to a file")


# name -> (help text, argument adder, handler), in the order `-h` lists them
_COMMANDS = {
    "emit": ("emit the defining equations", _emit_args, cmd_emit),
    "verify": ("run oracle suites", _verify_args, cmd_verify),
    "witness": ("generate a witness family", _witness_args, cmd_witness),
    "components": ("print the component count", _expr_args, cmd_components),
}


def build_parser() -> argparse.ArgumentParser:
    """The full argparse command tree, for the argvs `_parse_plain`
    declines."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="arborchar",
        description=(
            "Exact defining equations of excellent character varieties of "
            "arborescent knots, with a numeric matrix oracle"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


class _Spec:
    """A command's arguments as its adder declares them: it takes the same
    `add_argument` calls as an argparse parser, in the forms the adders
    use (long flags, `store_true`, one positional with `nargs="?"`)."""

    def __init__(self, add_args) -> None:
        self.defaults: dict = {}
        self.flags: dict = {}  # "--name" -> (dest, store_true?, type, choices)
        self.required: set[str] = set()
        self.positional: str | None = None
        add_args(self)

    def add_argument(self, name: str, *, nargs=None, action=None, type=None, choices=None,
                     default=None, required=False, help=None) -> None:
        if not name.startswith("--"):
            if nargs != "?" or self.positional is not None:
                raise ValueError(f"only one optional positional is supported, not {name!r}")
            self.positional = name
            self.defaults[name] = default
            return
        if nargs is not None or action not in (None, "store_true"):
            raise ValueError(f"unsupported form of {name}")
        dest = name[2:].replace("-", "_")
        switch = action == "store_true"
        self.defaults[dest] = False if switch else default
        self.flags[name] = (dest, switch, type, choices)
        if required:
            self.required.add(dest)


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse's full tree gives a well-formed `argv`, or
    None for an argv left to argparse: no known command, a token starting
    with "-" that is not an exact flag of the command (`-h`, `--`, an
    abbreviation, a negative number), a separate value starting with "-"
    or missing, a value its converter or choices refuse, `--flag=` on a
    switch, a second positional, or a missing required option.  The
    namespace is a `SimpleNamespace` whose `vars()` are argparse's."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _help, add_args, handler = _COMMANDS[argv[0]]
    spec = _Spec(add_args)
    values = spec.defaults
    missing = set(spec.required)
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if spec.positional is None or values[spec.positional] is not None:
                return None
            values[spec.positional] = token
            continue
        flag, eq, raw = token.partition("=")
        if flag not in spec.flags:
            return None
        dest, switch, convert, choices = spec.flags[flag]
        if switch:
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            raw = next(tokens, None)
            if raw is None or raw.startswith("-"):
                return None
        value = raw
        if convert is not None:
            try:
                value = convert(raw)
            except Exception:
                # ArgumentTypeError among them; argparse calls the
                # converter again and reports or raises what it raises
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        missing.discard(dest)
    if missing:
        return None
    return SimpleNamespace(command=argv[0], **values, func=handler)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ArborError as exc:
        _fail(EXIT_INPUT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
