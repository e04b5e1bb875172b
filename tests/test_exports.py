"""The package's export list: every name in curvact.__all__ exists, none
is listed twice, and a star import succeeds.  Also the package's settable
values, the count ROADMAP aim 2 tracks, what a fresh import loads and
which imported names each module reads."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import curvact

# Defaulted arguments of public functions, as module.function(argument),
# and defaulted init fields of public dataclasses, as module.Class.field.
SETTABLE_VALUES = [
    "activations.ActivationSpec.alpha",
    "activations.ActivationSpec.beta",
    "activations.ActivationSpec.slope",
    "attacks.pgd_batch(on_step)",
    "attacks.robust_accuracy(on_step)",
    "cli.main(argv)",
    "data.GeneratorSpec.noise",
    "data.GeneratorSpec.ratio",
    "data.GeneratorSpec.separation",
    "hessian.hessian_diag_fd_grad(h)",
    "network.forward_batch(order)",
    "network.init_network(scheme)",
    "svg.ChartSpec.log_x",
    "training.TrainConfig.attack",
    "training.TrainConfig.momentum",
    "training.run_sweep(jobs)",
    "training.run_sweep(progress)",
    "training.run_sweep(resume)",
]


# Names a module imports without reading them: the package's exports, and
# the two hessian names the benchmark's tracer wraps.
IMPORTED_UNREAD = {"__init__": set(curvact.__all__),
                   "hessian": {"forward", "backprop_deltas"}}


def _settable_values():
    """Every public name defined in each curvact module: its defaulted
    arguments if it is a function, its defaulted init fields if it is a
    dataclass."""
    found = []
    for info in pkgutil.iter_modules(curvact.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"curvact.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                found += [f"{info.name}.{name}.{f.name}" for f in dataclasses.fields(obj)
                          if f.init and (f.default is not dataclasses.MISSING
                                         or f.default_factory is not dataclasses.MISSING)]
            elif inspect.isfunction(obj):
                found += [f"{info.name}.{name}({p.name})"
                          for p in inspect.signature(obj).parameters.values()
                          if p.default is not inspect.Parameter.empty]
    return found


def test_every_exported_name_exists_once():
    missing = [name for name in curvact.__all__ if not hasattr(curvact, name)]
    assert missing == []
    assert len(set(curvact.__all__)) == len(curvact.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from curvact import *", namespace)
    assert set(curvact.__all__) <= set(namespace)


def test_import_leaves_scipy_optimize_unloaded():
    """A fresh `import curvact` must not pull in scipy.optimize: it adds
    about 0.2 s to every process start, which the benchmark's setup_s
    times.  max_abs_d2 imports it for mish alone."""
    src = str(Path(curvact.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, curvact; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_settable_values_are_the_listed_ones():
    found = _settable_values()
    added = sorted(set(found) - set(SETTABLE_VALUES))
    removed = sorted(set(SETTABLE_VALUES) - set(found))
    assert not added and not removed, (
        f"settable values changed (added {added}, removed {removed}): update "
        f"SETTABLE_VALUES and ROADMAP aim 2's count, now {len(found)}")
    assert len(found) == len(SETTABLE_VALUES) == 18


def test_every_imported_name_is_read():
    unread = {}
    for path in sorted(Path(curvact.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        extra = imported - read - IMPORTED_UNREAD.get(path.stem, set())
        if extra:
            unread[path.stem] = sorted(extra)
    assert unread == {}
