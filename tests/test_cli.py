"""Command-line interface: exit codes, output formats, tolerance flags."""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import arborchar
from arborchar import cli, oracle, ratfun, witness
from arborchar.cli import EXIT_INPUT, EXIT_OK, EXIT_UNSUPPORTED, build_parser, main
from arborchar.tangle import MAX_DEPTH, MAX_TWIST


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestEmit:
    def test_text_output(self, capsys):
        assert _run(["emit", "D([1/1] *v [1/2])"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t" in out and "r1" in out

    def test_json_output_has_provenance(self, capsys):
        assert _run(["emit", "--format", "json", "D([1/1] *v [1/2])"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        prov = payload["provenance"]
        assert prov["tool"] == "arborchar"
        assert prov["expression"] == "D([1/1] *v [1/2])"
        assert "version" in prov

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "pres.json"
        assert (
            _run(["emit", "--format", "json", "--out", str(dest), "D([1/2] *v [1/3])"])
            == EXIT_OK
        )
        payload = json.loads(dest.read_text())
        assert "equations" in payload or "eqs" in payload or payload

    def test_expression_from_file(self, tmp_path, capsys):
        src = tmp_path / "expr.txt"
        src.write_text("D([1/1] *v [1/2])\n")
        assert _run(["emit", "--file", str(src)]) == EXIT_OK

    def test_parse_error(self, capsys):
        assert _run(["emit", "D([0])"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_open_tangle_rejected(self, capsys):
        assert _run(["emit", "[2] *v [3]"]) == EXIT_INPUT

    def test_two_component_rejected_by_knot_engine(self, capsys):
        assert _run(["emit", "D([1/2])"]) == EXIT_INPUT

    def test_unsupported_link_shape(self, capsys):
        assert _run(["emit", "--link", "N([2])"]) == EXIT_UNSUPPORTED

    def test_supported_link_shape(self, capsys):
        assert _run(["emit", "--link", "D([3] *v [3] *v [3] *v [3])"]) == EXIT_OK

    def test_link_shape_through_one_entry_rational_tangle(self, capsys):
        # [[3]] is the twist [3], so the link payload differs only in the
        # expression it records
        payloads = []
        for expr in ("D([[3]] *v [3] *v [3] *v [3])", "D([3] *v [3] *v [3] *v [3])"):
            assert _run(["emit", "--format", "json", "--link", expr]) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            assert payload["provenance"].pop("expression") == expr
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize(
        "argv, position",
        [(["emit", "D([²] *v [1/2])"], 3), (["components", "D([[1],[²]] *v [1/2])"], 8)],
        ids=["emit", "components"],
    )
    def test_non_ascii_digit_is_an_input_error(self, argv, position, capsys):
        assert _run(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: expected an integer (at position {position})")

    def test_huge_twist_vector_is_an_input_error(self, capsys):
        expr = "D([[" + "],[".join(["1"] * 100_000) + "]] *v [1/2])"
        start = time.perf_counter()
        assert _run(["emit", expr]) == EXIT_INPUT
        assert time.perf_counter() - start < 1.0
        assert f"deeper than {MAX_DEPTH}" in capsys.readouterr().err

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.json"
        argv = ["emit", "--format", "json", "--out", str(dest), "D([1/1] *v [1/2])"]
        assert _run(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: cannot write {dest}")

    def test_undecodable_file_is_an_input_error(self, tmp_path, capsys):
        src = tmp_path / "expr.txt"
        src.write_bytes(b"D([1/1] *v [1/2])\xff\xfe\n")
        assert _run(["emit", "--file", str(src)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: cannot read {src}")

    def test_degenerate_gluing_is_unsupported(self, capsys):
        # the closure's gluing pins the shared coordinate, so the generic
        # substitution has an identically zero denominator
        assert _run(["emit", "N(([-1] *v [1/1]) *h ([1] *h [-2]))"]) == EXIT_UNSUPPORTED
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    # a twist region longer than MAX_TWIST is an input error, raised before
    # the engine's Chebyshev recursion runs
    @pytest.mark.parametrize("k", ["99999999999999999999", str(-(MAX_TWIST + 1))])
    def test_huge_twist_count_is_an_input_error(self, k, capsys):
        start = time.perf_counter()
        assert _run(["emit", f"D([{k}] *v [1/2])"]) == EXIT_INPUT
        assert time.perf_counter() - start < 1.0
        assert f"more than {MAX_TWIST} crossings" in capsys.readouterr().err

    def test_twist_count_at_the_bound_emits(self, capsys):
        assert _run(["emit", "--format", "json", f"D([{MAX_TWIST}] *v [1/3])"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["variables"] == ["t", "r1"] and payload["equations"]


def _module_level_imports(module) -> list[str]:
    """Modules a module imports when it is loaded (function bodies skipped)."""
    pending = list(ast.parse(inspect.getsource(module)).body)
    names = []
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        pending.extend(ast.iter_child_nodes(node))
    return names


def _perfbench_constant(filename: str, name: str):
    """The literal assigned to ``name`` at the top level of
    perfbench/FILENAME, read without importing the benchmark."""
    path = Path(arborchar.__file__).resolve().parents[2] / "perfbench" / filename
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {filename}")


def _perfbench_package_names(filename: str) -> set[tuple[str, str]]:
    """(module, name) for every package name perfbench/FILENAME imports,
    and for every attribute it reads off an imported package module."""
    path = Path(arborchar.__file__).resolve().parents[2] / "perfbench" / filename
    tree = ast.parse(path.read_text())
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("arborchar"):
            for alias in node.names:
                if node.module == "arborchar":  # a submodule
                    modules[alias.asname or alias.name] = f"arborchar.{alias.name}"
                else:
                    names.add((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("arborchar.") and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def _bench_witness_args() -> list[str]:
    """The benchmark's witness arguments, ``WITNESS_ARGS`` in perfbench/child.py."""
    return _perfbench_constant("child.py", "WITNESS_ARGS")


class TestEmitWithoutNumpy:
    """emit is exact arithmetic and witness closed-form algebra: loading
    the CLI and running either never loads numpy, which no package module
    uses (test_oracle.TestStdlibOnly checks the oracle)."""

    @pytest.mark.parametrize("module", [oracle, witness], ids=["oracle", "witness"])
    def test_no_module_level_numpy_import(self, module):
        imported = _module_level_imports(module)
        assert "cmath" in imported
        assert [m for m in imported if m.split(".")[0] == "numpy"] == []

    def test_witness_imports_no_numpy(self):
        tree = ast.parse(inspect.getsource(witness))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert "cmath" in imported
        assert [m for m in imported if m.split(".")[0] == "numpy"] == []

    def test_fresh_emit_leaves_numpy_unloaded(self, tmp_path):
        out = str(tmp_path / "out.json")
        assert "numpy" not in _modules_after(
            [["emit", "--format", "json", "--out", out, *argv]
             for argv in (["D([1/1] *v [1/2])"], ["--link", "D([3] *v [3] *v [3] *v [3])"])]
        )

    def test_fresh_witness_leaves_numpy_unloaded(self, tmp_path):
        out = str(tmp_path / "out.json")
        assert "numpy" not in _modules_after([["witness", *_bench_witness_args(), "--out", out]])


# what importing the CLI loads, and all that emit and components run
CLI_MODULES = {"arborchar", "arborchar.errors", "arborchar.tangle", "arborchar.ratfun",
               "arborchar.invariants", "arborchar.chebyshev", "arborchar.cli"}


# standard modules that cost a fresh process milliseconds to import and
# that emit does not need
SLOW_STDLIB = {"argparse", "dataclasses", "inspect", "locale"}


def _arborchar_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "arborchar"}


class TestImportGraph:
    """A subcommand loads only the modules it runs; links, the oracle,
    mat2 and witness load on first use."""

    def test_import_and_emit(self, tmp_path):
        out = str(tmp_path / "out.json")
        assert _arborchar_modules(_modules_after([])) == CLI_MODULES
        loaded = _modules_after([["emit", "--format", "json", "--out", out, "D([1/1] *v [1/2])"]])
        assert _arborchar_modules(loaded) == CLI_MODULES

    def test_emit_link_adds_links(self, tmp_path):
        out = str(tmp_path / "out.json")
        loaded = _modules_after(
            [["emit", "--format", "json", "--out", out, "--link", "D([3] *v [3] *v [3] *v [3])"]]
        )
        assert _arborchar_modules(loaded) == CLI_MODULES | {"arborchar.links"}

    def test_components_loads_no_more_than_emit(self):
        loaded = _modules_after([["components", "D([1/1] *v [1/2])"]])
        assert _arborchar_modules(loaded) == CLI_MODULES

    def test_emit_and_components_load_no_dataclasses(self, tmp_path):
        out = str(tmp_path / "out.json")
        loaded = _modules_after([
            ["emit", "--format", "json", "--out", out, "D([1/1] *v [1/2])"],
            ["components", "D([1/1] *v [1/2])"],
        ])
        assert not loaded & SLOW_STDLIB

    def test_emit_link_loads_no_dataclasses(self, tmp_path):
        out = str(tmp_path / "out.json")
        loaded = _modules_after(
            [["emit", "--format", "json", "--out", out, "--link", "D([3] *v [3] *v [3] *v [3])"]]
        )
        assert not loaded & SLOW_STDLIB

    def test_cli_modules_do_not_import_dataclasses(self):
        for name in sorted(CLI_MODULES):
            tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text())
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names}
            imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
            assert "dataclasses" not in imported, name

    def test_verify_loads_oracle_and_mat2(self):
        loaded = _modules_after([["verify", "--suite", "identities", "--samples", "2"]])
        assert {"arborchar.oracle", "arborchar.mat2"} <= loaded
        assert "arborchar.witness" not in loaded

    def test_witness_loads_witness(self, tmp_path):
        out = str(tmp_path / "out.json")
        loaded = _modules_after([["witness", *_bench_witness_args(), "--out", out]])
        assert {"arborchar.witness", "arborchar.oracle", "arborchar.mat2"} <= loaded

    def test_well_formed_calls_load_no_locale(self, tmp_path):
        """argparse's message lookups import locale; a call that parses
        without argparse never builds its parser, so locale stays out."""
        out = str(tmp_path / "out.json")
        loaded = _modules_after(_well_formed_argvs(out))
        assert "locale" not in loaded

    def test_traced_names_resolve(self):
        """Every (module, attribute) the benchmark's tracer rebinds, every
        kernel method it wraps and every package name the benchmark's
        microbenches and child use exists."""
        functions = _perfbench_constant("spans.py", "_FUNCTIONS")
        assert ("cli", "run_suite", "oracle") in functions
        for module, attr, _layer in functions:
            assert callable(getattr(importlib.import_module(f"arborchar.{module}"), attr))
        methods = dict(_perfbench_constant("spans.py", "_METHODS"))
        assert {"subs_poly", "eval"} <= set(methods["MultiPoly"])
        assert "eval_numeric" in methods["RatFun"]
        for cls_name, names in methods.items():
            cls = getattr(ratfun, cls_name)
            for name in names:
                assert callable(getattr(cls, name)), (cls_name, name)
        used = _perfbench_package_names("micro.py") | _perfbench_package_names("child.py")
        assert {("arborchar.ratfun", "REGISTRY"), ("arborchar.oracle", "build_tangle_rep"),
                ("arborchar.mat2", "special"), ("arborchar.cli", "main")} <= used
        for module, name in used:
            assert hasattr(importlib.import_module(module), name), (module, name)
        # micro.py reads the registry's size and a variable's position
        assert len(ratfun.REGISTRY) >= 1 and ratfun.REGISTRY.index("t") >= 0

    def test_traced_run_records_spans(self, tmp_path):
        """With the benchmark's tracer installed, a traced emit and a traced
        verify exit 0 and record spans in every layer they run."""
        perfbench = Path(arborchar.__file__).resolve().parents[2] / "perfbench"
        out = tmp_path / "montesinos.json"
        done = _python_fresh("-c", f"""
import json, sys
sys.path.insert(0, {str(perfbench)!r})
import spans
from arborchar import cli
rec = spans.Recorder()
spans.install(rec)
expr = "D([[2],[3]] *v [[3],[2]] *v [1/2])"
assert cli.main(["emit", "--format", "json", "--out", {str(out)!r}, expr]) == 0
assert cli.main(["verify", "--suite", "presentation", "--samples", "1"]) == 0
print(json.dumps(sorted({{name for name, *_ in rec.spans}})))
""")
        assert done.returncode == 0, done.stderr
        names = set(json.loads(done.stdout.splitlines()[-1]))
        assert {"tangle.parse", "invariants.closure_equations", "invariants.run",
                "oracle.run_suite", "ratfun.MultiPoly.__mul__"} <= names
        assert json.loads(out.read_text())["variables"][0] == "t"

    def test_suite_names_match_the_oracle(self):
        assert tuple(oracle._SUITES) == arborchar.SUITE_NAMES
        assert oracle.SUITE_NAMES is arborchar.SUITE_NAMES


def _well_formed_argvs(out: str) -> list[list[str]]:
    """One well-formed call of every command, writing to OUT."""
    return [
        ["emit", "--format", "json", "--out", out, "D([1/1] *v [1/2])"],
        ["emit", "--format", "json", "--out", out, "--link", "D([3] *v [3] *v [3] *v [3])"],
        ["components", "D([1/1] *v [1/2])"],
        ["verify", "--suite", "identities", "--samples", "2"],
        ["witness", *_bench_witness_args(), "--out", out],
    ]


def _python_fresh(*args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that finds the package,
    killed after 60 s."""
    env = dict(os.environ)
    src = str(Path(arborchar.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _run_fresh(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m arborchar ARGV`` in a fresh interpreter, killed after 60 s."""
    return _python_fresh("-m", "arborchar", *argv)


def _modules_after(argvs: list[list[str]]) -> set[str]:
    """The modules a fresh interpreter has loaded after importing the CLI
    and running each argv through cli.main, every one of which must
    succeed."""
    done = _python_fresh("-c", f"""
import json, sys
from arborchar import cli
for argv in {argvs!r}:
    code = cli.main(argv)
    assert code == cli.EXIT_OK, code
print(json.dumps(sorted(sys.modules)))
""")
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestComponents:
    def test_counts(self, capsys):
        assert _run(["components", "D([1/2])"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"
        assert _run(["components", "D([1/1] *v [1/2])"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"
        # counts come from parity, so no twist bound applies
        assert _run(["components", "D([99999999999999999999] *v [1/2])"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize(
        "expr",
        [
            "D(" + "(" * 2000 + "[1/3]" + ")" * 2000 + ")",
            "D(" + " *v ".join(["[1/3]"] * 3000) + ")",
            "D([[" + "],[".join(["1"] * 3000) + "]])",
        ],
        ids=["deep-parentheses", "long-chain", "long-rational"],
    )
    def test_too_deep_is_an_input_error(self, expr, capsys):
        assert _run(["components", expr]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and f"deeper than {MAX_DEPTH}" in err

    def test_deepest_accepted_chain(self, capsys):
        expr = "D(" + " *v ".join(["[1/3]"] * MAX_DEPTH) + ")"
        assert _run(["components", expr]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"


class TestVerify:
    def test_single_suite(self, capsys):
        code = _run(["verify", "--suite", "identities", "--samples", "3"])
        assert code == EXIT_OK
        assert "identities: pass" in capsys.readouterr().out

    def test_report_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code = _run(
            ["verify", "--suite", "key", "--samples", "2", "--out", str(dest)]
        )
        assert code == EXIT_OK
        text = dest.read_text()
        assert text.endswith("}\n")  # as the emit and witness files end
        payload = json.loads(text)
        assert payload["reports"][0]["suite"] == "key"
        assert payload["reports"][0]["passed"] is True

    def test_seed0_report_is_the_golden_file(self, tmp_path, capsys):
        # byte for byte, so key order and the merge order of each suite's
        # rejected_by_reason are pinned too; the suite times printed on
        # stdout stay out of the file
        dest = tmp_path / "report.json"
        assert _run(["verify", "--suite", "all", "--seed", "0", "--out", str(dest)]) == EXIT_OK
        golden = Path(__file__).parent / "golden" / "verify-seed0.json"
        assert dest.read_bytes() == golden.read_bytes()
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(arborchar.SUITE_NAMES)
        assert all(re.search(r" time=\d+\.\d{3}s$", line) for line in lines), lines

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "v.json"
        code = _run(["verify", "--suite", "identities", "--samples", "2", "--out", str(dest)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: cannot write {dest}")

    def test_presentation_seed3_passes(self, capsys):
        # seed 3 reaches end matrices of norm up to 73, whose products round
        # past 1e-9 in absolute terms
        assert _run(["verify", "--suite", "presentation", "--seed", "3"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("presentation: pass")

    def test_tolerance_flag(self, capsys):
        # an absurdly tight tolerance forces failures, a loose one passes
        args = ["verify", "--suite", "identities", "--samples", "2", "--tol"]
        assert _run(args + ["1e-300"]) == 4
        assert _run(args + ["1e-6"]) == EXIT_OK

    @pytest.mark.parametrize(
        "flags",
        [["--samples", "0"], ["--samples", "-3"], ["--tol", "nan"], ["--tol", "-1"],
         ["--tol", "0"], ["--tol", "inf"]],
        ids=["samples-0", "samples-negative", "tol-nan", "tol-negative", "tol-0", "tol-inf"],
    )
    def test_bad_flag_is_an_input_error(self, flags, capsys):
        assert _run(["verify", "--suite", "identities", *flags]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


class TestWitness:
    ARGS = [
        "witness",
        "--t", "2.6+0.3j",
        "--t23", "0.7+0.9j",
        "--t34=-0.8+0.4j",
        "--t14=-0.7+0.5j",
    ]

    def test_random_family(self, capsys):
        code = _run(self.ARGS + ["--t13-count", "3", "--seed", "4"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["samples"]) == 3
        assert payload["min_pairwise_gap"] > 1e-3

    def test_explicit_t13_list(self, capsys):
        code = _run(self.ARGS + ["--t13", "1.1+0.2j,0.6-0.5j"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["samples"]) == 2

    @pytest.mark.parametrize(
        "flags", [["--t13-count", "-2"], ["--t13-count", "0"], ["--tol", "nan"]],
        ids=["t13-count-negative", "t13-count-0", "tol-nan"],
    )
    def test_bad_flag_is_an_input_error(self, flags, capsys):
        assert _run(self.ARGS + flags) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "w.json"
        assert _run(self.ARGS + ["--t13-count", "2", "--out", str(dest)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: cannot write {dest}")

    def test_bad_complex(self, capsys):
        code = _run(["witness", "--t", "nope", "--t23", "1", "--t34", "1", "--t14", "1"])
        assert code == EXIT_INPUT

    def test_trace_without_moderate_matrices_ends(self, capsys):
        # no trace-5 matrix has entries of modulus <= 2.2, so the random
        # pair cannot be drawn: a message and the input exit code
        code = _run(
            ["witness", "--t", "5", "--t23", "0.7+0.9j", "--t34=-0.8+0.4j",
             "--t14=-0.7+0.5j", "--t13-count", "3"]
        )
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_side_condition_rejected(self, capsys):
        code = _run(
            ["witness", "--t", "2.6+0.3j", "--t23", "2", "--t34", "1", "--t14", "1",
             "--t13", "1.0"]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("t", ["2", "-2"])
    def test_parabolic_t_is_a_side_condition(self, t, capsys):
        assert _run(self.ARGS + [f"--t={t}", "--t13-count", "2"]) == EXIT_INPUT
        assert "t must avoid +-2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--t", "nan"], ["--t23", "inf"], ["--t13", "nan"]],
        ids=["t-nan", "t23-inf", "t13-nan"],
    )
    def test_non_finite_number_is_an_input_error(self, flags):
        # in a fresh process with a timeout: a NaN trace used to keep the
        # random t13 draw from ever ending
        done = _run_fresh(self.ARGS + ["--t13-count", "2"] + flags)
        assert done.returncode == EXIT_INPUT
        assert "error: not a finite number" in done.stderr

    def test_non_finite_pair_file_is_an_input_error(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        pair.write_text('{"a1": [[NaN, 0], [1, 0], [0, 0], [1, 0]], '
                        '"a2": [[1, 0], [0, 0], [1, 0], [1, 0]]}')
        assert _run(self.ARGS + ["--t13-count", "2", "--pair-file", str(pair)]) == EXIT_INPUT
        assert "non-finite entry" in capsys.readouterr().err

    def test_pair_off_trace_t_is_an_input_error(self, tmp_path, capsys):
        # trace 2 against --t 2.6+0.3j: refused before any construction
        pair = tmp_path / "pair.json"
        pair.write_text('{"a1": [[1, 0], [1, 0], [0, 0], [1, 0]], '
                        '"a2": [[1, 0], [0, 0], [1, 0], [1, 0]]}')
        assert _run(self.ARGS + ["--t13-count", "2", "--pair-file", str(pair)]) == EXIT_INPUT
        assert "a1 must have trace t and determinant 1" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["equal", "inverse"])
    def test_commuting_pair_is_an_input_error(self, which, tmp_path, capsys):
        # a1 = [[t, -1], [1, 0]] lies in G(t); a2 is a1 or its inverse, so
        # the pair commutes: a side condition, not a verification failure
        t = complex(self.ARGS[2])
        a1 = [[t.real, t.imag], [-1, 0], [1, 0], [0, 0]]
        a2 = a1 if which == "equal" else [[0, 0], [1, 0], [-1, 0], [t.real, t.imag]]
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"a1": a1, "a2": a2}))
        assert _run(self.ARGS + ["--t13-count", "2", "--pair-file", str(pair)]) == EXIT_INPUT
        assert "a1 and a2 must not commute" in capsys.readouterr().err

    @pytest.mark.parametrize("t13", ["1+1j,1+1j", "1.1+0.2j,0.6-0.5j,1.1+0.2j"])
    def test_repeated_t13_is_an_input_error(self, t13, capsys):
        # a repeated value would list the same quadruple twice with a zero gap
        assert _run(self.ARGS + ["--t13", t13]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "t13 values must differ pairwise" in captured.err

    def test_readme_call_matches_golden(self, capsys):
        """The README's witness call prints ``tests/golden/witness-seed1.json``
        byte for byte."""
        golden = Path(__file__).parent / "golden" / "witness-seed1.json"
        code = _run(self.ARGS + ["--t13-count", "5", "--seed", "1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == golden.read_text()


class TestOutFile:
    """An ``--out`` file holds the bytes the call prints without it."""

    @pytest.mark.parametrize("argv", [
        ["emit", "--format", "json", "D([1/1] *v [1/2])"],
        ["emit", "--format", "text", "D([[2],[-2]] *v [2] *v ([1/3] *h [1/2]))"],
        [*TestWitness.ARGS, "--t13-count", "5", "--seed", "1"],
    ], ids=["emit-json", "emit-text", "witness"])
    def test_file_holds_the_printed_bytes(self, argv, tmp_path, capsys):
        assert _run(argv) == EXIT_OK
        printed = capsys.readouterr().out.encode()
        dest = tmp_path / "out"
        assert _run([*argv, "--out", str(dest)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert dest.read_bytes() == printed


class TestTopLevel:
    def test_version(self, capsys):
        assert _run(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_missing_command(self):
        assert _run([]) == 2

    def test_python_dash_m(self):
        done = _run_fresh(["components", "D([1/1] *v [1/2])"])
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.strip() == "1"

    def test_fresh_process_reads_sys_argv(self):
        """With no argv, main parses ``sys.argv[1:]``; a leftover argument
        is reported with the usage line of the full command tree."""
        done = _run_fresh(["emit", "--bogus", "D([1/1] *v [1/2])"])
        assert done.returncode == EXIT_INPUT
        assert done.stdout == ""
        assert done.stderr.startswith(
            "usage: arborchar [-h] [--version] {emit,verify,witness,components} ...\n")
        assert "unrecognized arguments: --bogus" in done.stderr
        done = _run_fresh(["emit", "-h"])
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("usage: arborchar emit [-h]")


def _choices(parser: argparse.ArgumentParser) -> list[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def _argv_corpus(rng: random.Random, count: int) -> list[list[str]]:
    """COUNT argvs mixing each command's flags in both value forms with
    abbreviations, help and version flags, ``--``, negative numbers, NaN,
    empty strings, repeats, extra positionals and missing options."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    values = ["json", "text", "xml", "all", "identities", "base", "3", "0", "-3", "07", " 4",
              "1_000", "1e-6", "nan", "inf", "-1", "", "x", "1+1j", "-0.8+0.4j",
              "D([1/1] *v [1/2])", "--link", "-h"]
    noise = ["-h", "--help", "--version", "--", "-1", "-", "--bogus", "nan", "", "x",
             "D([1/1] *v [1/2])", "N([2] *h [3])"]
    corpus = []
    for _ in range(count):
        command = rng.choice([*sub.choices, *sub.choices, *sub.choices, "emti", "", None])
        if command not in sub.choices:
            corpus.append([] if command is None else [command, *rng.sample(noise, 2)])
            continue
        actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
        items = []
        for action in actions:
            if action.required and rng.random() < 0.9:
                items.append(action)
        items += rng.choices(actions, k=rng.randint(0, 4))
        rng.shuffle(items)
        argv = [command]
        for action in items:
            if not action.option_strings:
                argv.append(rng.choice(noise[-4:]))
                continue
            flag = action.option_strings[0]
            if rng.random() < 0.1:
                flag = flag[:rng.randint(3, len(flag) - 1)] if len(flag) > 3 else flag + "x"
            if action.nargs == 0:
                argv.append(flag if rng.random() < 0.9 else flag + "=" + rng.choice(["", "1"]))
                continue
            choices = list(action.choices or [])
            value = rng.choice(choices) if choices and rng.random() < 0.7 else rng.choice(values)
            if rng.random() < 0.5:
                argv.append(f"{flag}={value}")
            else:
                argv += [flag, value] if rng.random() < 0.95 else [flag]
        if rng.random() < 0.15:
            argv.insert(rng.randint(1, len(argv)), rng.choice(noise))
        corpus.append(argv)
    return corpus


class TestParser:
    """main parses a well-formed argv without argparse (``cli._parse_plain``)
    into the namespace the full tree gives, and leaves every other argv to
    the full tree."""

    COMMANDS = ["emit", "verify", "witness", "components"]

    @pytest.mark.parametrize("command", [None, "emti", "-h", ""])
    def test_full_tree_lists_every_command_in_order(self, command, capsys):
        assert _choices(build_parser()) == self.COMMANDS
        # an argv with no known command is answered by the full tree
        with pytest.raises(SystemExit):
            main([] if command is None else [command])
        captured = capsys.readouterr()
        assert "{emit,verify,witness,components}" in captured.out + captured.err

    @pytest.mark.parametrize("argv", [
        ["emit", "D([1/1] *v [1/2])"],
        ["emit", "--format", "json", "--out", "x.json", "--link", "D([3] *v [3])"],
        ["emit", "--file", "expr.txt"],
        ["emit", "--", "D([1/1] *v [1/2])"],
        ["verify"],
        ["verify", "--suite", "base", "--samples", "3", "--seed", "7", "--tol", "1e-6",
         "--out", "r.json"],
        TestWitness.ARGS,
        [*TestWitness.ARGS, "--t13", "1+1j,0.5j", "--t13-count", "2",
         "--pair-file", "p.json", "--seed", "3", "--tol", "1e-7", "--out", "w.json"],
        ["components", "N([2] *h [3])"],
        ["components", "--file", "expr.txt"],
    ])
    def test_one_command_parses_as_the_full_tree(self, argv):
        got = cli._parse_plain(argv)
        if "--" in argv:
            assert got is None  # left to argparse
        else:
            assert vars(got) == vars(build_parser().parse_args(argv))

    def test_well_formed_calls_build_no_parser(self, monkeypatch, tmp_path, capsys):
        def refuse():
            raise AssertionError("build_parser called")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv in _well_formed_argvs(str(tmp_path / "out.json")):
            assert main(argv) == EXIT_OK, argv

    def test_random_argvs_parse_as_the_full_tree(self):
        """On a seeded corpus the plain parser either declines or gives the
        full tree's namespace; it never accepts what argparse refuses."""
        parser = build_parser()
        corpus = _argv_corpus(random.Random(0), 2500)
        accepted = 0
        for argv in corpus:
            got = cli._parse_plain(argv)
            if got is None:
                continue
            accepted += 1
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    want = vars(parser.parse_args(argv))
            except SystemExit:
                want = None
            assert vars(got) == want, argv
        assert 500 < accepted < len(corpus) - 500

    @pytest.mark.parametrize("argv", [
        ["-h"],
        ["emit", "-h"],
        ["verify", "-h"],
        ["witness", "-h"],
        ["components", "-h"],
        ["--version"],
        [],
        ["emti", "x"],
        ["emit", "--bogus", "D([1/1] *v [1/2])"],
        ["emit", "--version"],
        ["emit", "x", "y"],
        ["verify", "--suite", "base", "extra"],
        ["emit", "--format", "xml", "x"],
        ["verify", "--tol", "-1"],
        ["witness", "--t", "1"],
        ["components", "x", "y"],
    ])
    def test_main_answers_as_the_full_tree(self, argv, capsys):
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert capsys.readouterr() == want
        assert got.value.code == full.value.code
