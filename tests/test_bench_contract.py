"""The names the benchmark in perfbench/ reaches into curvact by.

perfbench/tracer.py wraps library functions at the module attribute their
callers look them up by, and perfbench/bench.py calls library functions,
some of them outside the public API, by module attribute and keyword.  A
refactor that moves or renames one of them, or one of their keywords,
breaks the benchmark without failing any other test; these checks catch
that.  perfbench/ is only read here: the calls are found in bench.py's
syntax tree, not by running it.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import curvact
from curvact import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER = _PERFBENCH / "tracer.py"
_BENCH = _PERFBENCH / "bench.py"

# bench.py imports these modules by name, and the CLI as curvact.cli.
_MODULES = {name: importlib.import_module(f"curvact.{name}")
            for name in ("activations", "attacks", "data", "hessian", "network", "training")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_reads(tree):
    """(node, module, attribute) for every attribute bench.py's syntax tree
    reads from a curvact module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in _MODULES:
            yield node, _MODULES[owner.id], node.attr
        elif ast.unparse(owner) == "curvact.cli":
            yield node, cli, node.attr


def test_every_traced_call_site_resolves():
    rows = _load_tracer().wrap_table(curvact)
    assert rows
    missing = [f"{mod.__name__}.{attr}" for mod, attr, *_ in rows
               if not callable(getattr(mod, attr, None))]
    assert not missing, f"call sites the tracer wraps are gone: {missing}"


def test_functions_the_benchmark_calls_exist():
    reads = list(_library_reads(ast.parse(_BENCH.read_text(encoding="utf-8"))))
    assert {mod for _, mod, _ in reads} == {*_MODULES.values(), cli}
    missing = sorted({f"{mod.__name__}.{attr}" for _, mod, attr in reads
                      if not hasattr(mod, attr)})
    assert not missing, f"names perfbench/bench.py reads are gone: {missing}"


def test_every_benchmark_call_binds():
    """Each library call in bench.py binds to the function's signature with
    its positional count and keyword names, so a renamed or removed
    keyword (say run_sweep's results_path) fails here."""
    tree = ast.parse(_BENCH.read_text(encoding="utf-8"))
    funcs = {node: getattr(mod, attr) for node, mod, attr in _library_reads(tree)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and node.func in funcs]
    assert calls
    unbound = []
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
        assert all(k.arg is not None for k in call.keywords), ast.unparse(call)
        try:
            inspect.signature(funcs[call.func]).bind(*call.args, **{k.arg: k.value
                                                                     for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {ast.unparse(call.func)}: {exc}")
    assert not unbound, f"perfbench/bench.py calls that no longer bind: {unbound}"
