"""Self-tests: each benchmark gate fires on a deliberately wrong output and
stays quiet on the right one.

    python3 -m pytest perfbench -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import gates  # noqa: E402
import tracer as tracing  # noqa: E402
from curvact import activations, attacks, cli, hessian, network  # noqa: E402
from curvact.training import DEFAULT_EVAL_ATTACK  # noqa: E402

CACHE = HERE.parent / "tests" / "_sweep_cache" / "default_sweep.csv"


@pytest.fixture(scope="module")
def cache():
    return gates.read_sweep_csv(CACHE)


def _rows(cache, n=3):
    return {k: dict(v) for k, v in list(cache.items())[:n]}


def test_sweep_gate_accepts_cached_rows(cache):
    errors, identical = gates.check_sweep_rows(_rows(cache), cache)
    assert errors == [] and identical == 3


@pytest.mark.parametrize("field", gates.EXACT_SWEEP_FIELDS)
def test_sweep_gate_fires_on_perturbed_field(cache, field):
    rows = _rows(cache)
    key = next(iter(rows))
    if field == "status":
        rows[key][field] = "diverged"
    else:
        rows[key][field] = repr(float(np.nextafter(float(rows[key][field]), np.inf)))
    errors, identical = gates.check_sweep_rows(rows, cache)
    assert len(errors) == 1 and field in errors[0] and identical == 2


def test_sweep_gate_diag_norm_tolerance(cache):
    rows = _rows(cache)
    key = next(iter(rows))
    ref = float(rows[key]["diag_norm"])
    rows[key]["diag_norm"] = repr(ref * (1 + 4 * float(np.finfo(float).eps)))
    errors, identical = gates.check_sweep_rows(rows, cache)
    assert errors == [] and identical == 2
    rows[key]["diag_norm"] = repr(ref * (1 + 1e-12))
    errors, _ = gates.check_sweep_rows(rows, cache)
    assert len(errors) == 1 and "diag_norm" in errors[0]


def test_sweep_gate_fires_on_unknown_cell(cache):
    rows = _rows(cache, 1)
    row = dict(next(iter(rows.values())), seed="99")
    errors, _ = gates.check_sweep_rows({gates.sweep_key(row): row}, cache)
    assert errors and "missing" in errors[0]


def test_ball_gate_passes_real_pgd_iterates():
    net = network.init_network((2, 8, 1), activations.rct_af(8.0, 2), seed=0)
    X = np.random.default_rng(0).normal(size=(64, 2))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    errors = []
    attacks.pgd_batch(net, X, y, DEFAULT_EVAL_ATTACK, rng_seed=1,
                      on_step=lambda _s, cur: errors.extend(gates.check_ball(X, cur, 0.25)))
    assert errors == []


def test_ball_gate_fires_one_ulp_past_epsilon():
    eps = 0.25
    X = np.array([[0.3, -1.1], [1e-3, 7.0]])
    edge = X + eps
    edge = np.where(edge - X > eps, np.nextafter(edge, -np.inf), edge)
    assert gates.check_ball(X, edge, eps) == []
    pushed = edge.copy()
    pushed[1, 0] = np.nextafter(pushed[1, 0], np.inf)
    assert pushed[1, 0] - X[1, 0] > eps
    assert len(gates.check_ball(X, pushed, eps)) == 1


def test_robust_vs_clean_and_determinism_gates():
    assert gates.check_robust_vs_clean("n", 0.5, 0.5) == []
    assert len(gates.check_robust_vs_clean("n", 0.5 + 2**-12, 0.5)) == 1
    assert gates.check_same("n", 0.25, 0.25) == []
    assert len(gates.check_same("n", 0.25, 0.25 + 2**-12)) == 1


def test_shallow_diag_gate_fires_on_1e_3_error():
    net = network.init_network((2, 6, 6, 1), activations.rct_af(4.0, 1), seed=3)
    x, y = np.array([0.4, -0.9]), 1.0
    exact = hessian.hessian_diag_exact(net, x, y).diag
    ref = bench.diag_oracle(net, x, y)
    assert gates.check_shallow_diag("net", exact, ref) == []
    wrong = exact.copy()
    wrong[int(np.argmin(np.abs(ref)))] += 1e-3
    assert len(gates.check_shallow_diag("net", wrong, ref)) == 1


def test_fail_verdict_gate_excuses_only_the_oracle_defect():
    # hessian-check --seed 0 answers FAIL at the 1e-4 allowance because of
    # the loss second difference, not the exact diagonal.
    assert cli.main(["hessian-check", "--seed", "0", "--trials", str(bench.Hessian.CHECK_TRIALS),
                     "--tolerance", repr(gates.HESSIAN_CHECK_TOL)]) == 2
    trials = bench.Hessian(0).replay_check(0)
    assert gates.check_fail_verdict("seed 0", trials) == []
    # An exact diagonal off by 1e-3 is not excused.
    exact, fd, oracle = trials[0]
    wrong = exact.copy()
    wrong[0] += 1e-3
    errors = gates.check_fail_verdict("seed 0", [(wrong, fd, oracle)] + trials[1:])
    assert errors and "gradient-difference oracle" in errors[0]
    # Nor is a FAIL that the replay does not reproduce.
    passing = [(e, e.copy(), g) for e, _, g in trials]
    errors = gates.check_fail_verdict("seed 0", passing)
    assert len(errors) == 1 and "within the allowance" in errors[0]
    # Nor a second difference one percent off, beyond the known defect.
    broken = [(e, 1.01 * f, g) for e, f, g in trials]
    errors = gates.check_fail_verdict("seed 0", broken)
    assert len(errors) == 1 and "known defect" in errors[0]


def test_relative_deviation():
    ref = np.array([3.0, 4.0])
    assert gates.relative_deviation(ref, ref) == 0.0
    assert gates.relative_deviation(ref + np.array([0.0, 0.5]), ref) == pytest.approx(0.1)


def _toy_module():
    mod = types.SimpleNamespace()

    def leaf(n):
        return sum(range(n))

    def mid(n):
        return mod.leaf(n) + mod.leaf(n)

    def top(n):
        return mod.mid(n) + mod.leaf(n)

    mod.leaf, mod.mid, mod.top = leaf, mid, top
    return mod


def test_tracer_self_times_sum_to_wall_and_gate():
    mod = _toy_module()
    tr = tracing.Tracer([(mod, "top", "training.top", None, None),
                         (mod, "mid", "network.mid", None, None),
                         (mod, "leaf", "activations.leaf", None, None)])
    tr.install()
    try:
        for _ in range(3):
            mod.top(20000)
    finally:
        tr.uninstall()
    assert mod.top.__name__ == "top" and not hasattr(mod.top, "__wrapped__")
    cols = tr.spans()
    assert len(cols["dur"]) == 3 * 5
    roots = cols["parent"] < 0
    wall = float(cols["dur"][roots].sum())
    assert cols["self"].sum() == pytest.approx(wall, rel=1e-9)
    assert (cols["self"] >= 0).all()
    assert gates.check_self_times(float(cols["self"].sum()), wall, wall / 1.1) == []
    # Self times that miss half the wall time must fire the gate.
    assert len(gates.check_self_times(0.5 * wall, wall, wall / 1.1)) == 1
    # So must self times that exceed the traced wall time.
    assert len(gates.check_self_times(1.2 * wall, wall, wall / 1.1)) == 1


def test_tracer_marks_failed_calls():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tr = tracing.Tracer([(mod, "boom", "cli.boom", None, None)])
    tr.install()
    try:
        with pytest.raises(ZeroDivisionError):
            mod.boom()
    finally:
        tr.uninstall()
    assert tr.spans()["failed"].tolist() == [True]


def test_span_nesting_and_layer_time_gates():
    mod = _toy_module()
    tr = tracing.Tracer([(mod, "top", "training.top", None, None),
                         (mod, "mid", "network.mid", None, None),
                         (mod, "leaf", "activations.leaf", None, None)])
    tr.install()
    try:
        mod.top(20000)
    finally:
        tr.uninstall()
    cols = tr.spans()
    assert gates.check_span_nesting(cols["self"]) == []
    # A child that outlasts its parent gives the parent negative self time.
    dur = cols["dur"].copy()
    dur[1] = 2.0 * dur[0]
    assert len(gates.check_span_nesting(tracing.self_times(dur, cols["parent"]))) == 1
    assert gates.check_layer_times("network", 2.0, 2.0) == []
    assert len(gates.check_layer_times("network", 2.0, 2.5)) == 1


def test_driver_self_time_gate_fires_on_an_untraced_call():
    mod = types.SimpleNamespace()
    mod.work = lambda: sum(range(200000))
    mod.run_sweep = lambda: [mod.work() for _ in range(5)]
    table = [(mod, "run_sweep", "training.run_sweep", None, None),
             (mod, "work", "network.work", None, None)]

    def driver_share(rows):
        tr = tracing.Tracer(rows)
        tr.install()
        try:
            mod.run_sweep()
        finally:
            tr.uninstall()
        cols = tr.spans()
        root = cols["parent"] < 0
        return float(cols["self"][root].sum()), float(cols["dur"][root].sum())

    assert gates.check_driver_self_time(*driver_share(table)) == []
    assert len(gates.check_driver_self_time(*driver_share(table[:1]))) == 1


def test_self_times_from_known_tree():
    dur = np.array([10.0, 4.0, 3.0, 1.0])
    parent = np.array([-1, 0, 0, 1])
    assert tracing.self_times(dur, parent).tolist() == [3.0, 3.0, 3.0, 1.0]
