"""Acceptance suite: every release gate in one file, one verdict line each.

Run with -s (or -rA) to see the per-criterion PASS/FAIL lines; each line
carries the measured numbers next to the required ones.

Each failure message carries the analysis a reader needs to tell a
program fault from a changed number: where a pinned value comes from,
and what the sampled cases cover.  The clean-accuracy floor at low
curvature (09) fails at this problem scale; its message says why, and
check 12 measures the same expressivity limit through the fit to the
training data.

The sweep-based criteria share one desk-scale sweep (under a minute of
single-threaded compute, 150 cells).  Its rows are cached in
tests/_sweep_cache/ through the resume mechanism, so repeat runs reuse
them; delete that directory to force a fresh sweep.
"""

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from curvact.activations import ActivationSpec, d1, d2, max_abs_d2, rct_af, value
from curvact.attacks import (
    AttackConfig,
    clean_accuracy,
    fgsm,
    pgd_batch,
    robust_accuracy,
)
from curvact.data import GeneratorSpec, make_dataset
from curvact.hessian import hessian_diag_exact
from curvact.network import forward, init_network
from curvact.training import (
    DEFAULT_EVAL_ATTACK,
    TrainConfig,
    _mix,
    default_sweep_config,
    run_cell,
    run_cells,
    run_sweep,
    train_network,
)

from helpers import fd_first, fd_loss_diag, hessian_diag_full

_CACHE_DIR = Path(__file__).resolve().parent / "_sweep_cache"


def _verdict(num: int, title: str, ok: bool, detail: str) -> str:
    print(f"[acceptance] {num:02d} {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    return f"{title}: {detail}"


# ----- computations for items 1-6, reused by the determinism check -----

_MAXIMA_ALPHAS = (1.0, 5.0, 10.0, 15.0, 20.0, 28.0, 50.0)
_TABLE_ROWS = (
    ("gelu", ActivationSpec("gelu"), 0.798, 0.005),
    ("swish", ActivationSpec("swish"), 0.5, 1e-6),
    # x * tanh(softplus(x)) peaks in |second derivative| at 0.6442046372...
    # near x = -0.0879344: a 50-digit mpmath differentiation agrees, and
    # tests/test_activations.py pins the same value to 1e-9.
    ("mish", ActivationSpec("mish"), 0.644, 0.005),
    ("elu", ActivationSpec("elu"), 1.0, 1e-3),
)


def _curvature_maxima():
    xs = np.linspace(-8.0, 8.0, 3201)  # step 0.005, hits 0.0 exactly
    rows = []
    for alpha in _MAXIMA_ALPHAS:
        for beta in (0, 1, 2):
            spec = rct_af(alpha, beta)
            prof = max_abs_d2(spec)
            grid_peak = float(np.max(np.abs(d2(spec, xs))))
            rows.append((alpha, beta, prof.argmax_x, prof.max_abs_d2, grid_peak))
    return rows


def _baseline_table():
    bounded = {name: max_abs_d2(spec).max_abs_d2 for name, spec, _, _ in _TABLE_ROWS}
    unbounded = {name: max_abs_d2(ActivationSpec(name)).max_abs_d2
                 for name in ("relu", "leaky_relu")}
    return bounded, unbounded


def _derivative_grids():
    xs = np.linspace(-10.0, 10.0, 401)
    specs = [(f"rct_af({a:g},{b})", rct_af(a, b))
             for a in (1.0, 5.0, 10.0, 20.0) for b in (0, 1, 2)]
    specs += [(kind, ActivationSpec(kind))
              for kind in ("gelu", "swish", "mish", "softplus", "elu")]
    cases = []
    for label, spec in specs:
        got1 = d1(spec, xs)
        got2 = d2(spec, xs)
        ref1 = fd_first(lambda z: value(spec, z), xs)
        ref2 = fd_first(lambda z: d1(spec, z), xs)
        keep2 = np.ones(xs.size, dtype=bool)
        if label == "elu":
            # elu's second derivative jumps at the origin; a central
            # difference straddling the jump measures the average of the
            # two one-sided limits, not either of them.
            keep2 = xs != 0.0
        cases.append((label, got1, got2, ref1, ref2, keep2))
    return cases


def _hessian_trials():
    rng = np.random.default_rng(987654321)
    alphas = (1.0, 4.0, 14.0, 28.0)
    trials = []
    i = 0
    for depth in (2, 3, 4):
        for _ in range(8):
            if depth == 4:
                hidden = tuple(int(rng.integers(2, 5)) for _ in range(3))
            else:
                hidden = tuple(int(rng.integers(2, 9)) for _ in range(depth - 1))
            widths = (int(rng.integers(2, 5)),) + hidden + (1,)
            net = init_network(widths, rct_af(alphas[i % 4], i % 3),
                               seed=int(rng.integers(2**31)))
            x = rng.normal(size=widths[0])
            y = float(rng.choice((-1.0, 1.0)))
            exact = hessian_diag_exact(net, x, y).diag
            ref = fd_loss_diag(net, x, y)
            trials.append({"depth": depth, "exact": exact, "fd": ref,
                           "full": hessian_diag_full(net, x, y)})
            i += 1
    return trials


def _closed_form_pairs():
    rng = np.random.default_rng(24680)
    pairs = []
    for trial in range(8):
        n0 = int(rng.integers(1, 6))
        n1 = int(rng.integers(1, 9))
        net = init_network((n0, n1, 1), rct_af(float(rng.uniform(1.0, 20.0)), trial % 3),
                           seed=int(rng.integers(2**31)))
        x = rng.normal(size=n0)
        y = float(rng.choice((-1.0, 1.0)))
        report = hessian_diag_exact(net, x, y)
        trace = forward(net, x)
        z = trace.z[0][0]
        w_out = net.weights[1][0]
        resid = trace.f[0] - y
        s1 = d1(net.activation, z)
        s2 = d2(net.activation, z)
        w_block = np.outer(w_out * s1, x) ** 2 + resid * np.outer(w_out * s2, x**2)
        b_block = (w_out * s1) ** 2 + resid * (w_out * s2)
        pairs.append((n0, n1, report, w_block, b_block, trace.h[1][0]))
    return pairs


def _gauss_newton_cases():
    rng = np.random.default_rng(1357)
    reports = []
    for trial in range(6):
        widths = (2, 5, 1) if trial % 2 == 0 else (3, 4, 4, 1)
        net = init_network(widths, rct_af(4.0 + trial, trial % 3),
                           seed=int(rng.integers(2**31)))
        x = rng.normal(size=widths[0])
        y = forward(net, x).f[0]
        reports.append(hessian_diag_exact(net, x, y))
    return reports


def _digest_items_one_to_six() -> str:
    """A single hash over every array items 1-6 produce."""
    blob = hashlib.sha256()
    for row in _curvature_maxima():
        blob.update(repr(row).encode())
    bounded, unbounded = _baseline_table()
    blob.update(repr(sorted(bounded.items())).encode())
    blob.update(repr(sorted(unbounded.items())).encode())
    for label, got1, got2, ref1, ref2, keep2 in _derivative_grids():
        blob.update(label.encode())
        for arr in (got1, got2, ref1, ref2, keep2):
            blob.update(arr.tobytes())
    for trial in _hessian_trials():
        blob.update(trial["exact"].tobytes())
        blob.update(trial["fd"].tobytes())
        blob.update(trial["full"].tobytes())
    for n0, n1, report, w_block, b_block, h1 in _closed_form_pairs():
        for arr in (report.diag, w_block, b_block, h1):
            blob.update(np.asarray(arr).tobytes())
    for report in _gauss_newton_cases():
        blob.update(report.diag.tobytes())
        blob.update(report.gauss_newton_part.tobytes())
        blob.update(repr(report.residual).encode())
    return blob.hexdigest()


# ----- the shared desk-scale sweep -----


@pytest.fixture(scope="module")
def default_sweep_rows():
    _CACHE_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()
    rows = run_sweep(default_sweep_config(),
                     results_path=_CACHE_DIR / "default_sweep.csv",
                     jobs=1, resume=True)
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] default sweep ready: {len(rows)} cells, "
          f"{elapsed:.0f} s this run (rows cached in tests/_sweep_cache/)")
    return rows


def _mean(rows, beta, curvature, field):
    vals = [getattr(r, field) for r in rows
            if r.beta == beta and r.curvature == curvature and r.status == "ok"]
    if not vals:
        raise ValueError(f"no finished cells at beta={beta} curvature={curvature}")
    return sum(vals) / len(vals)


# ----- the criteria -----


def test_01_tunable_curvature_maxima():
    start = time.perf_counter()
    rows = _curvature_maxima()
    worst_formula = worst_grid = 0.0
    bad = []
    for alpha, beta, argmax_x, peak, grid_peak in rows:
        expected = alpha * (0.25, 0.5, 1.0)[beta]
        rel_formula = abs(peak - expected) / expected
        rel_grid = abs(peak - grid_peak) / peak
        worst_formula = max(worst_formula, rel_formula)
        worst_grid = max(worst_grid, rel_grid)
        if argmax_x != 0.0 or rel_formula > 1e-6 or rel_grid > 1e-6:
            bad.append((alpha, beta))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    msg = _verdict(1, "tunable curvature maxima", ok,
                   f"21 alpha/beta combinations, worst formula gap "
                   f"{worst_formula:.1e}, worst grid gap {worst_grid:.1e}, "
                   f"{elapsed:.1f} s")
    assert ok, msg + (f"; failing combinations {bad}" if bad else "")


def test_02_baseline_curvature_table():
    start = time.perf_counter()
    bounded, unbounded = _baseline_table()
    misses = []
    for name, _, target, tol in _TABLE_ROWS:
        got = bounded[name]
        if abs(got - target) > tol:
            misses.append(f"{name}: computed {got:.6f}, pinned {target} +/- {tol:g}")
    for name, got in unbounded.items():
        if not np.isinf(got):
            misses.append(f"{name}: expected an unbounded report, got {got!r}")
    elapsed = time.perf_counter() - start
    ok = not misses and elapsed < 5.0
    msg = _verdict(2, "baseline curvature table", ok,
                   "; ".join(misses) if misses else
                   f"gelu/swish/mish/elu within tolerance, kinks report inf, "
                   f"{elapsed:.1f} s")
    assert ok, msg + (
        ". The mish second derivative peaks at 0.6442046372369724 near "
        "x = -0.087934 (dense grid, golden-section refinement and a 50-digit "
        "evaluation all agree); a different computed value is a fault in "
        "the mish derivatives or in the peak search."
        if any(m.startswith("mish") for m in misses) else "")


def test_03_derivatives_vs_central_differences():
    start = time.perf_counter()
    worst = 0.0
    bad = []
    for label, got1, got2, ref1, ref2, keep2 in _derivative_grids():
        for got, ref, keep in ((got1, ref1, np.ones(got1.size, dtype=bool)),
                               (got2, ref2, keep2)):
            err = np.abs(got - ref)[keep]
            allowed = np.maximum(1e-5 * np.abs(ref)[keep], 1e-8)
            worst = max(worst, float(np.max(err / allowed)))
            if np.any(err > allowed):
                bad.append(label)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    msg = _verdict(3, "derivatives vs central differences", ok,
                   f"17 activations on a 401-point grid, worst error at "
                   f"{worst:.2f} of allowance, {elapsed:.1f} s")
    assert ok, msg + (f"; failing activations {sorted(set(bad))}" if bad else "")


def test_04_hessian_diagonal_vs_oracles():
    start = time.perf_counter()
    trials = _hessian_trials()
    fd_excess = {2: 0.0, 3: 0.0, 4: 0.0}
    fd_bad_depths = set()
    full_worst = 0.0
    full_ok = True
    for trial in trials:
        exact, ref = trial["exact"], trial["fd"]
        err = np.abs(exact - ref)
        allowed = np.maximum(1e-4 * np.abs(ref), 1e-6)
        fd_excess[trial["depth"]] = max(
            fd_excess[trial["depth"]], float(np.max(err / allowed)))
        if np.any(err > allowed):
            fd_bad_depths.add(trial["depth"])
        ferr = np.abs(exact - trial["full"])
        full_worst = max(full_worst, float(np.max(
            ferr / np.maximum(np.abs(exact), 1e-300))))
        if np.any(ferr > 1e-10 * np.abs(exact)):
            full_ok = False
    elapsed = time.perf_counter() - start
    ok = not fd_bad_depths and full_ok and elapsed < 60.0
    msg = _verdict(4, "hessian diagonal vs oracles", ok,
                   f"{len(trials)} nets; worst error vs finite differences as "
                   f"a multiple of max(1e-4 rel, 1e-6 abs): depth 2 -> "
                   f"{fd_excess[2]:.1e}, depth 3 -> {fd_excess[3]:.1e}, "
                   f"depth 4 -> {fd_excess[4]:.1e}; recursion vs full-matrix "
                   f"propagation {full_worst:.1e} rel over {len(trials)} "
                   f"nets, {elapsed:.1f} s")
    assert ok, msg + (
        ". The finite-difference oracle agrees with an independent "
        "full-matrix curvature propagation at every depth (see the deep "
        "sibling-coupling tests).  A failure confined to depth 4 points at the "
        "sibling-coupling term of the recursion, which only nets with three "
        "or more hidden layers exercise; a recursion-vs-full-matrix gap points "
        "at one of the two closed forms." if fd_bad_depths or not full_ok
        else "")


def test_05_single_hidden_layer_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    exact_blocks_ok = True
    for n0, n1, report, w_block, b_block, h1 in _closed_form_pairs():
        closed = np.concatenate([w_block.ravel(), b_block])
        got = report.diag[:n1 * n0 + n1]
        gap = np.abs(got - closed) / np.maximum(1.0, np.abs(closed))
        worst = max(worst, float(np.max(gap)))
        out_w = report.diag[n1 * n0 + n1:n1 * n0 + 2 * n1]
        if not (np.array_equal(out_w, h1 * h1) and report.diag[-1] == 1.0):
            exact_blocks_ok = False
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and exact_blocks_ok and elapsed < 5.0
    msg = _verdict(5, "single-hidden-layer closed forms", ok,
                   f"8 nets, worst closed-form gap {worst:.1e} (allowed 1e-12), "
                   f"output-layer entries exact: {exact_blocks_ok}, "
                   f"{elapsed:.1f} s")
    assert ok, msg


def test_06_gauss_newton_collapse_at_zero_residual():
    start = time.perf_counter()
    ok = True
    for report in _gauss_newton_cases():
        if report.residual != 0.0:
            ok = False
        if not np.array_equal(report.diag, report.gauss_newton_part):
            ok = False
        if np.any(report.residual_part != 0.0):
            ok = False
    elapsed = time.perf_counter() - start
    msg = _verdict(6, "gauss-newton collapse at zero residual", ok,
                   f"6 nets with the label set to the network output, "
                   f"diag == gauss-newton part elementwise, {elapsed:.1f} s")
    assert ok, msg


def test_07_sharpness_u_shape_over_curvature(default_sweep_rows):
    rows = default_sweep_rows
    parts = []
    ok = True
    for beta in (0, 1, 2):
        left = _mean(rows, beta, 0.5, "diag_norm")
        right = _mean(rows, beta, 50.0, "diag_norm")
        floor = min(_mean(rows, beta, c, "diag_norm") for c in (4.0, 7.0, 10.0))
        ok &= left > floor and right > floor
        parts.append(f"beta={beta}: {left:.3f} / {floor:.3f} / {right:.3f}")
    # The cached wall_time_s times whichever run wrote the cache, so the
    # compute bound times a group of the grid's corner cells run here and
    # scales its per-cell time to the whole grid.
    config = default_sweep_config()
    dataset = make_dataset(config.dataset, config.dataset_n, config.dataset_seed)
    group = run_cells(config, dataset, ((0, 0.5), (2, 50.0)), 0)
    compute = sum(r.wall_time_s for r in group) * len(rows) / len(group)
    ok &= compute < 1800.0
    msg = _verdict(7, "sharpness u-shape over curvature", ok,
                   "standard twins, mean sharpness at 0.5 / min(4,7,10) / 50: "
                   + "; ".join(parts) + f"; sweep compute {compute:.0f} s "
                   f"({len(rows)} cells at the per-cell time of a {len(group)}-cell group)")
    assert ok, msg


def test_08_robustness_peak_at_intermediate_curvature(default_sweep_rows, tmp_path):
    def failing_betas(rows):
        out = []
        for beta in (0, 1, 2):
            mid = _mean(rows, beta, 7.0, "robust_acc")
            if not (mid > _mean(rows, beta, 0.5, "robust_acc")
                    and mid > _mean(rows, beta, 50.0, "robust_acc")):
                out.append(beta)
        return out

    def summary(rows):
        return "; ".join(
            f"beta={b}: " + " / ".join(
                f"{_mean(rows, b, c, 'robust_acc'):.3f}" for c in (0.5, 7.0, 50.0))
            for b in (0, 1, 2))

    first = failing_betas(default_sweep_rows)
    if len(first) <= 1 and first:
        # The declared stochastic escape hatch: one failing curve triggers
        # a rerun of the three compared curvatures with ten seeds.  It runs
        # fresh every time, so no row of an older program version can mix
        # into the verdict.
        config = dataclasses.replace(default_sweep_config(),
                                     curvature_targets=(0.5, 7.0, 50.0),
                                     seeds=tuple(range(10)))
        rerun = run_sweep(config, results_path=tmp_path / "rerun_ten_seeds.csv", jobs=1)
        second = failing_betas(rerun)
        ok = not second
        detail = (f"beta={first[0]} flat at 5 seeds; 10-seed rerun means at "
                  f"0.5 / 7 / 50: {summary(rerun)}"
                  + ("" if ok else f"; still failing for betas {second}"))
    else:
        ok = not first
        detail = ("adversarial training, mean robust accuracy at 0.5 / 7 / 50: "
                  + summary(default_sweep_rows)
                  + ("" if ok else f"; failing betas {first} (only one may fail)"))
    msg = _verdict(8, "robustness peak at intermediate curvature", ok, detail)
    assert ok, msg


def test_09_clean_accuracy_floor_at_low_curvature(default_sweep_rows):
    low = _mean(default_sweep_rows, 1, 0.5, "std_clean_acc")
    mid = _mean(default_sweep_rows, 1, 7.0, "std_clean_acc")
    gap = mid - low
    ok = gap >= 0.02
    msg = _verdict(9, "clean-accuracy floor at low curvature", ok,
                   f"standard training, beta=1: clean accuracy {low:.3f} at "
                   f"curvature 0.5 vs {mid:.3f} at 7, gap {gap * 100:+.1f} "
                   f"points, required >= 2.0")
    assert ok, msg + (
        ". The paper states the expressivity limit of low curvature without "
        "a size, so no project document sources the 2-point target, and "
        "none shows it wrong.  At this problem scale it is not reached: "
        "across calibrations of dataset noise, sample count, width, epochs, "
        "batch size, learning rate, initialization and dataset seed, "
        "low-curvature nets train slower but close most of the clean "
        "test-accuracy deficit by convergence, and one missed row of the "
        "48-row test split costs about 2 points per seed.  Settings that "
        "hold a 2-point gap sacrifice the robustness peak.  The limit does "
        "show in the fit to the training data (check 12).")


def test_10_attack_budget_and_fgsm_equivalence():
    dataset = make_dataset(GeneratorSpec("two_moons", noise=0.04), 240, 7)
    base = init_network((2, 16, 16, 1), rct_af(7.0, 1), seed=1, scheme="xavier")
    trained, _ = train_network(base, dataset, TrainConfig(
        epochs=10, batch_size=16, learning_rate=0.08, momentum=0.9), 0)
    X, y = dataset.x_test, dataset.y_test
    attack = DEFAULT_EVAL_ATTACK
    seen_steps = []
    deviations = []

    def on_step(step, cur):
        seen_steps.append(step)
        deviations.append(float(np.max(np.abs(cur - X))))

    acc = robust_accuracy(trained, X, y, attack, rng_seed=0, on_step=on_step)
    worst = max(deviations)
    ball_ok = (seen_steps == list(range(attack.steps)) and worst <= attack.epsilon)

    one_step = AttackConfig(epsilon=attack.epsilon, step_size=attack.epsilon,
                            steps=1, random_start=False)
    batch_equal = np.array_equal(
        pgd_batch(trained, X, y, one_step, rng_seed=123),
        fgsm(trained, X, y, attack.epsilon))
    single_equal = np.array_equal(
        pgd_batch(trained, X[:1], y[:1], one_step, rng_seed=5)[0],
        fgsm(trained, X[:1], y[:1], attack.epsilon)[0])
    ok = ball_ok and batch_equal and single_equal
    msg = _verdict(10, "attack budget and fgsm equivalence", ok,
                   f"max |perturbation| over {attack.steps} steps x "
                   f"{X.shape[0]} samples = {worst!r} (budget "
                   f"{attack.epsilon}), robust accuracy {acc:.3f}; one-step "
                   f"no-restart PGD == FGSM bitwise: batch {batch_equal}, "
                   f"single {single_equal}")
    assert ok, msg


def test_11_bit_for_bit_determinism(default_sweep_rows):
    start = time.perf_counter()
    digest_a = _digest_items_one_to_six()
    digest_b = _digest_items_one_to_six()
    items_same = digest_a == digest_b

    config = default_sweep_config()
    dataset = make_dataset(config.dataset, config.dataset_n, config.dataset_seed)
    cell_a = run_cell(config, dataset, 1, 7.0, 0)
    cell_b = run_cell(config, dataset, 1, 7.0, 0)
    strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
    cell_same = strip(cell_a) == strip(cell_b) and cell_a.status == "ok"

    cached = next(r for r in default_sweep_rows
                  if (r.beta, r.curvature, r.seed) == (1, 7.0, 0))
    cache_same = strip(cached) == strip(cell_a)
    elapsed = time.perf_counter() - start
    ok = items_same and cell_same and cache_same
    msg = _verdict(11, "bit-for-bit determinism", ok,
                   f"items 1-6 digest {digest_a[:12]} reproduced: {items_same}; "
                   f"sweep cell (beta=1, curvature=7, seed=0) reproduced: "
                   f"{cell_same}; matches the cached sweep row: {cache_same}; "
                   f"{elapsed:.1f} s")
    assert ok, msg + (
        "" if cache_same else
        ". A fresh cell run no longer matches tests/_sweep_cache/; the cache "
        "predates a code change, delete that directory and rerun.")


def test_sweep_grid_corners_reproduce_the_cache(default_sweep_rows):
    # Check 11 replays one mid-grid cell; these are the grid's corners.
    # Every field is compared exactly, diag_norm included, as check 11
    # compares its cell.  Fresh runs once differed from the cache in
    # diag_norm by a few ulps: the cache was stale, not the rounding
    # unstable, and a fresh sweep reproduces itself bit for bit.
    config = default_sweep_config()
    dataset = make_dataset(config.dataset, config.dataset_n, config.dataset_seed)
    strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
    for beta, curvature in ((0, 0.5), (2, 50.0)):
        fresh = run_cell(config, dataset, beta, curvature, 0)
        cached = next(r for r in default_sweep_rows
                      if (r.beta, r.curvature, r.seed) == (beta, curvature, 0))
        assert strip(fresh) == strip(cached), (
            f"cell (beta={beta}, curvature={curvature}, seed=0): fresh {fresh} "
            f"vs cached {cached}")


def test_12_training_fit_limit_at_low_curvature(default_sweep_rows):
    # Insufficient curvature limits expressivity; at this problem scale it
    # shows in how closely the standard twins fit the training data.  The
    # twins are rebuilt the way run_cell builds them; each twin's clean test
    # accuracy must reproduce the cached row to prove it.
    start = time.perf_counter()
    config = default_sweep_config()
    dataset = make_dataset(config.dataset, config.dataset_n, config.dataset_seed)

    def final_train_losses(beta, curvature):
        losses = []
        for r in default_sweep_rows:
            if (r.beta, r.curvature, r.status) != (beta, curvature, "ok"):
                continue
            base = init_network(config.widths, rct_af(r.alpha, beta),
                                seed=_mix(r.seed, beta), scheme="xavier")
            std_cfg = dataclasses.replace(config.train, attack=None)
            net, history = train_network(base, dataset, std_cfg, r.seed)
            assert clean_accuracy(net, dataset.x_test, dataset.y_test) \
                == r.std_clean_acc, f"rebuilt twin differs from cached row {r}"
            losses.append(history.train_loss[-1])
        return losses

    parts = []
    ok = True
    for beta in (0, 1, 2):
        loss_low = final_train_losses(beta, 0.5)
        loss_mid = final_train_losses(beta, 7.0)
        # Exact one-sided rank test over the seeds, at the 1% level.
        p = mannwhitneyu(loss_low, loss_mid, alternative="greater",
                         method="exact").pvalue
        ok &= p < 0.01
        parts.append(f"beta={beta}: mean {np.mean(loss_low):.4f} vs "
                     f"{np.mean(loss_mid):.4f}, one-sided rank test "
                     f"p={p:.4f}")
    elapsed = time.perf_counter() - start
    msg = _verdict(12, "training-fit limit at low curvature", ok,
                   "standard twins' final clean training loss at curvature "
                   "0.5 vs 7: " + "; ".join(parts)
                   + f", required p < 0.01 for every beta; {elapsed:.1f} s")
    assert ok, msg
