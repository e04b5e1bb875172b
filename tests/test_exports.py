"""The package's export list: every name in curvact.__all__ exists, none
is listed twice, and a star import succeeds.  Also the package's settable
values, the count ROADMAP aim 2 tracks."""

import dataclasses
import importlib
import inspect
import pkgutil

import curvact

# Defaulted arguments of public functions, as module.function(argument),
# and defaulted init fields of public dataclasses, as module.Class.field.
SETTABLE_VALUES = [
    "activations.ActivationSpec.alpha",
    "activations.ActivationSpec.beta",
    "activations.ActivationSpec.slope",
    "activations.leaky_relu(slope)",
    "attacks.pgd_batch(on_step)",
    "attacks.robust_accuracy(on_step)",
    "cli.main(argv)",
    "data.GeneratorSpec.noise",
    "data.GeneratorSpec.ratio",
    "data.GeneratorSpec.separation",
    "data.circles(noise)",
    "data.circles(ratio)",
    "data.gaussian_blobs(separation)",
    "data.two_moons(noise)",
    "hessian.hessian_diag_fd_grad(h)",
    "network.forward_batch(order)",
    "network.init_network(scheme)",
    "svg.ChartSpec.log_x",
    "training.TrainConfig.attack",
    "training.TrainConfig.momentum",
    "training.run_sweep(jobs)",
    "training.run_sweep(progress)",
    "training.run_sweep(results_path)",
    "training.run_sweep(resume)",
]


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


def test_settable_values_are_the_listed_ones():
    found = _settable_values()
    added = sorted(set(found) - set(SETTABLE_VALUES))
    removed = sorted(set(SETTABLE_VALUES) - set(found))
    assert not added and not removed, (
        f"settable values changed (added {added}, removed {removed}): update "
        f"SETTABLE_VALUES and ROADMAP aim 2's count, now {len(found)}")
    assert len(found) == len(SETTABLE_VALUES) == 24
