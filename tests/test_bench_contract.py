"""The names the benchmark in perfbench/ reaches into curvact by.

perfbench/tracer.py wraps library functions at the module attribute their
callers look them up by, and perfbench/bench.py calls a few functions that
are not part of the public API.  A refactor that moves or renames one of
them breaks the benchmark without failing any other test; these checks
catch that.  perfbench/ is only read here.
"""

import importlib.util
from pathlib import Path

import curvact
from curvact import cli, hessian

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    rows = _load_tracer().wrap_table(curvact)
    assert rows
    missing = [f"{mod.__name__}.{attr}" for mod, attr, *_ in rows
               if not callable(getattr(mod, attr, None))]
    assert not missing, f"call sites the tracer wraps are gone: {missing}"


def test_functions_the_benchmark_calls_exist():
    for mod, attr in ((hessian, "hessian_diag_fd"), (hessian, "hessian_diag_fd_grad"),
                      (hessian, "dataset_diag_norm"), (hessian, "hessian_diag_exact"),
                      (cli, "_random_check_net"), (cli, "main")):
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} is gone"
