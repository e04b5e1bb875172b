"""One curvact benchmark workload, run in this process.

Started by ``run.py``, which pins the BLAS thread count before numpy loads.
Prints a human-readable report and, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (each a closed loop with one caller):

* ``sweep``: ``run_sweep(jobs=1)`` into a fresh CSV, each round on a
  seed-chosen slice of the default grid: all three betas, one curvature from
  each half of the curvature range, one grid seed.  Batch-16 training, where
  per-call interpreter overhead dominates.
* ``robust_eval``: ``robust_accuracy`` with the default 40-step eval attack
  on a 4096-row held-out set, over untrained nets for the three betas at the
  lowest and highest grid curvature.  Same attack and network code as
  ``sweep`` at a batch size where numpy kernels dominate.
* ``hessian``: ``dataset_diag_norm`` over 512 samples on nets with 1 to 4
  hidden layers, plus in-process ``curvact hessian-check`` calls, timed
  apart.  No training or attacks.

End-to-end metrics share names across workloads; what each measures is
listed in ``ALIASES``.  ``round(k)`` runs the k-th round's inputs, so the
untraced and traced halves of a trace pair see the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CACHE = ROOT / "tests" / "_sweep_cache" / "default_sweep.csv"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import curvact  # noqa: E402
import curvact.cli  # noqa: E402
from curvact import activations, attacks, data, hessian, network, training  # noqa: E402

import envinfo  # noqa: E402
import gates  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 7
LAYERS = ("activations", "network", "attacks", "training", "hessian", "data", "cli")

# Workload-specific meaning of the shared end-to-end metric names.
ALIASES = {
    "sweep": {"wall_s": "sweep.wall_s", "op_s_p50": "sweep.cell_s_p50",
              "work_per_s": "sweep.cells_per_s"},
    "robust_eval": {"wall_s": "robust_eval.round_s", "op_s_p50": "robust_eval.call_s_p50",
                    "work_per_s": "robust_eval.rows_per_s"},
    "hessian": {"wall_s": "hessian.diag_round_s", "op_s_p50": "hessian.check_s",
                "work_per_s": "hessian.diag_per_s"},
}


def _grid_pick(rng, values, half):
    """One value from the low (half=0) or high (half=1) end of a sorted grid."""
    mid = len(values) // 2
    part = values[:mid] if half == 0 else values[mid:]
    return part[int(rng.integers(len(part)))]


# Step of the Hessian-diagonal oracle.  hessian_diag_fd_grad alone has
# truncation error above hessian-check's allowance on small entries at
# curvature 28 (1.06 allowances seen); extrapolating over steps h and h/2
# cancels the h^2 term and keeps the oracle within 4e-4 allowances of the
# exact diagonal over 24000 hessian-check trials.
ORACLE_STEP = 1e-5


def diag_oracle(net, x, y: float) -> np.ndarray:
    """Richardson extrapolation of hessian_diag_fd_grad over steps h and h/2."""
    coarse = hessian.hessian_diag_fd_grad(net, x, y, ORACLE_STEP)
    fine = hessian.hessian_diag_fd_grad(net, x, y, ORACLE_STEP / 2)
    return (4.0 * fine - coarse) / 3.0


class Workload:
    """Common bookkeeping: operations attempted and failed, gate errors."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_s: list[float] = []  # times of the operation op_s_p50 reports

    def _fail(self, what: str):
        self.failed += 1
        self.errors.append(f"{what} raised:\n{traceback.format_exc()}")


class Sweep(Workload):
    name = "sweep"

    def setup(self):
        base = training.default_sweep_config()
        self.base = base
        self.cache = gates.read_sweep_csv(CACHE)
        self.path = OUT / f"sweep-s{self.seed}.csv"
        # Warm-up: one PGD batch and one SGD gradient on the sweep's net shape.
        ds = data.make_dataset(base.dataset, base.dataset_n, base.dataset_seed)
        net = network.init_network(base.widths, activations.rct_af(2.0, 1), seed=0,
                                   scheme="xavier")
        xb, yb = ds.x_train[:base.train.batch_size], ds.y_train[:base.train.batch_size]
        attacks.pgd_batch(net, xb, yb, base.train.attack, rng_seed=0)
        network.grad_params_batch(net, xb, yb)
        self.cells = 0
        self.bit_identical = 0
        self.diverged = 0

    def slice_config(self, k: int):
        """Round k's slice: every beta, a low and a high curvature, one seed."""
        base = self.base
        rng = np.random.default_rng([self.seed, k])
        curvs = (_grid_pick(rng, base.curvature_targets, 0),
                 _grid_pick(rng, base.curvature_targets, 1))
        grid_seed = base.seeds[int(rng.integers(len(base.seeds)))]
        return replace(base, curvature_targets=curvs, seeds=(grid_seed,))

    def round(self, k: int) -> float:
        config = self.slice_config(k)
        marks: list[float] = []

        def progress(event, _payload):
            if event == "done":
                marks.append(time.perf_counter())

        n_cells = len(config.betas) * len(config.curvature_targets)
        self.attempted += n_cells
        t0 = time.perf_counter()
        try:
            training.run_sweep(config, results_path=self.path, jobs=1,
                               resume=False, progress=progress)
        except Exception:
            self.failed += n_cells - 1
            self._fail("run_sweep")
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        self.op_s += np.diff([t0] + marks).tolist()
        rows = gates.read_sweep_csv(self.path)
        if len(rows) != n_cells:
            self.errors.append(f"sweep wrote {len(rows)} rows, expected {n_cells}")
        errors, identical = gates.check_sweep_rows(rows, self.cache)
        self.errors += errors
        self.cells += len(rows)
        self.bit_identical += identical
        self.diverged += sum(r["status"] != "ok" for r in rows.values())
        return wall

    def gates(self):
        """Rows are checked against the cache after every round."""

    def end_to_end(self, walls):
        return {"wall_s": (statistics.median(walls), "s", len(walls)),
                "work_per_s": (self.cells / sum(walls), "1/s", self.cells)}

    def layer_counts(self, n_rounds):
        return {"training.cells_diverged": self.diverged / n_rounds,
                "training.rows_bit_identical": self.bit_identical / n_rounds}


class RobustEval(Workload):
    name = "robust_eval"
    ROWS = 4096

    def setup(self):
        base = training.default_sweep_config()
        rng = np.random.default_rng(self.seed)
        # make_dataset holds out a fifth of its rows.
        ds = data.make_dataset(base.dataset, 5 * self.ROWS, int(rng.integers(2**31)))
        self.X, self.y = ds.x_test, ds.y_test
        self.attack = training.DEFAULT_EVAL_ATTACK
        self.nets = []
        for beta in base.betas:
            for curv in (base.curvature_targets[0], base.curvature_targets[-1]):
                spec = activations.rct_af(activations.alpha_for_curvature(beta, curv), beta)
                net = network.init_network(base.widths, spec, seed=int(rng.integers(2**31)),
                                           scheme="xavier")
                self.nets.append((f"beta={beta} curvature={curv:g}", net,
                                  int(rng.integers(2**62))))
        attacks.robust_accuracy(self.nets[0][1], self.X[:64], self.y[:64], self.attack,
                                rng_seed=0)
        self.results: list[list[float]] = [[] for _ in self.nets]

    def round(self, k: int) -> float:
        t0 = time.perf_counter()
        for i, (label, net, eval_seed) in enumerate(self.nets):
            self.attempted += 1
            t = time.perf_counter()
            try:
                acc = attacks.robust_accuracy(net, self.X, self.y, self.attack,
                                              rng_seed=eval_seed)
            except Exception:
                self._fail(f"robust_accuracy on {label}")
                continue
            self.op_s.append(time.perf_counter() - t)
            self.results[i].append(acc)
        return time.perf_counter() - t0

    def gates(self):
        eps = self.attack.epsilon
        for (label, net, eval_seed), accs in zip(self.nets, self.results):
            ball: list[str] = []

            def on_step(_step, cur):
                if not ball:
                    ball.extend(gates.check_ball(self.X, cur, eps))

            again = attacks.robust_accuracy(net, self.X, self.y, self.attack,
                                            rng_seed=eval_seed, on_step=on_step)
            clean = attacks.clean_accuracy(net, self.X, self.y)
            self.errors += [f"{label}: {e}" for e in ball]
            for acc in accs:
                self.errors += gates.check_same(label, acc, again)
            self.errors += gates.check_robust_vs_clean(label, again, clean)

    def end_to_end(self, walls):
        rows = self.ROWS * len(self.op_s)
        return {"wall_s": (statistics.median(walls), "s", len(walls)),
                "work_per_s": (rows / sum(self.op_s), "1/s", rows)}

    def layer_counts(self, n_rounds):
        return {}


class Hessian(Workload):
    name = "hessian"
    SAMPLES = 512
    CHECKS_PER_ROUND = 4
    CHECK_TRIALS = 20
    GATE_SAMPLES = 2

    def setup(self):
        base = training.default_sweep_config()
        rng = np.random.default_rng(self.seed)
        ds = data.make_dataset(base.dataset, self.SAMPLES * 5 // 4, int(rng.integers(2**31)))
        self.X, self.y = ds.x_train, ds.y_train
        self.nets = []
        for hidden in (1, 2, 3, 4):
            for beta in base.betas:
                curv = _grid_pick(rng, base.curvature_targets, int(rng.integers(2)))
                spec = activations.rct_af(activations.alpha_for_curvature(beta, curv), beta)
                net = network.init_network((2,) + (16,) * hidden + (1,), spec,
                                           seed=int(rng.integers(2**31)))
                self.nets.append((f"hidden={hidden} beta={beta} curvature={curv:g}", net))
        hessian.dataset_diag_norm(self.nets[0][1], self.X[:8], self.y[:8])
        self.diag_s: list[list[float]] = [[] for _ in self.nets]
        self.values: list[list[float]] = [[] for _ in self.nets]
        self.fail_seeds: list[int] = []
        self.checks = 0

    def round(self, k: int) -> float:
        check_rng = np.random.default_rng([self.seed, 0xC4EC, k])
        t0 = time.perf_counter()
        for i, (label, net) in enumerate(self.nets):
            self.attempted += 1
            t = time.perf_counter()
            try:
                value = hessian.dataset_diag_norm(net, self.X, self.y)
            except Exception:
                self._fail(f"dataset_diag_norm on {label}")
                continue
            self.diag_s[i].append(time.perf_counter() - t)
            self.values[i].append(value)
        for _ in range(self.CHECKS_PER_ROUND):
            seed = int(check_rng.integers(2**31))
            argv = ["hessian-check", "--seed", str(seed), "--trials", str(self.CHECK_TRIALS),
                    "--tolerance", repr(gates.HESSIAN_CHECK_TOL)]
            self.attempted += 1
            out = io.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = curvact.cli.main(argv)
            except Exception:
                self._fail(" ".join(argv))
                continue
            self.op_s.append(time.perf_counter() - t)
            self.checks += 1
            verdict = out.getvalue().strip().splitlines()[-1:]
            if code == 2 and verdict == ["result: FAIL"]:
                self.fail_seeds.append(seed)  # judged by gates()
            elif code != 0 or verdict != ["result: PASS"]:
                self.failed += 1
                self.errors.append(f"{' '.join(argv)} exited {code}: {out.getvalue()!r}")
        return time.perf_counter() - t0

    def replay_check(self, seed: int) -> list[tuple]:
        """hessian-check's trials for one seed, drawn in the order
        cmd_hessian_check draws them: (exact, loss second difference,
        diag_oracle) per trial."""
        rng = np.random.default_rng(seed)
        trials = []
        for trial in range(self.CHECK_TRIALS):
            net = curvact.cli._random_check_net(rng, trial)
            x = rng.normal(size=net.widths[0])
            y = float(rng.choice((-1.0, 1.0)))
            trials.append((hessian.hessian_diag_exact(net, x, y).diag,
                           hessian.hessian_diag_fd(net, x, y),
                           diag_oracle(net, x, y)))
        return trials

    def gates(self):
        for (label, net), values in zip(self.nets, self.values):
            if values and not (np.isfinite(values[0]) and values[0] > 0):
                self.errors.append(f"{label}: diag norm {values[0]!r} is not finite and positive")
            for v in values[1:]:
                self.errors += gates.check_same(label, values[0], v)
            if net.depth - 1 > 2:
                continue
            for i in range(self.GATE_SAMPLES):
                x, y = self.X[i], float(self.y[i])
                exact = hessian.hessian_diag_exact(net, x, y).diag
                ref = diag_oracle(net, x, y)
                self.errors += gates.check_shallow_diag(f"{label} sample {i}", exact, ref)
        # A FAIL verdict fails the call unless its replay shows only the
        # known defect of the loss second-difference oracle.
        for seed in sorted(set(self.fail_seeds)):
            errors = gates.check_fail_verdict(f"hessian-check --seed {seed}",
                                              self.replay_check(seed))
            if errors:
                self.failed += self.fail_seeds.count(seed)
                self.errors += errors

    def end_to_end(self, walls):
        # Per-net medians over rounds; the hessian-check calls are timed
        # apart, as op_s_p50.
        diag_s = sum(statistics.median(t) for t in self.diag_s)
        samples = len(self.X) * len(self.nets)
        return {"wall_s": (diag_s, "s", min(map(len, self.diag_s))),
                "work_per_s": (samples / diag_s, "1/s", samples * min(map(len, self.diag_s)))}

    def layer_counts(self, n_rounds):
        return {"cli.hessian_check.fail_verdicts": len(self.fail_seeds) / n_rounds}


WORKLOADS = {cls.name: cls for cls in (Sweep, RobustEval, Hessian)}


# Nets with three and four hidden layers, where the element-wise recursion
# drops sibling couplings: (hidden layers, beta).
DEEP_PANEL = tuple((hidden, beta) for hidden in (3, 4) for beta in (0, 1, 2))


def deep_fd_error() -> float:
    """Largest relative deviation of hessian_diag_exact from diag_oracle
    over DEEP_PANEL.  The panel is fixed rather than seeded, so the value is
    a property of the code.  The oracle differences the gradient because
    the loss second difference hessian_diag_fd carries error near 1e-4
    relative at these curvatures, which would set a floor under the value
    once the exact form is fixed."""
    worst = 0.0
    x, y = np.array([0.3, -1.1]), 1.0
    for hidden, beta in DEEP_PANEL:
        spec = activations.rct_af(activations.alpha_for_curvature(beta, 7.0), beta)
        net = network.init_network((2,) + (16,) * hidden + (1,), spec, seed=3 * hidden + beta)
        exact = hessian.hessian_diag_exact(net, x, y).diag
        ref = diag_oracle(net, x, y)
        worst = max(worst, gates.relative_deviation(exact, ref))
    return worst


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import curvact and set the workload up.

    No timeout here: waiting with one makes subprocess poll in sleeps of up
    to 50 ms, which would quantize the measurement.  The launcher bounds the
    whole process group instead."""
    times = []
    cmd = [sys.executable, str(HERE / "bench.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t)
    return times


def measure(wl, seconds):
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(wl.round(len(walls)))
    return walls


def measure_traced(wl, seconds, tr):
    """Alternate untraced and traced rounds on the same inputs (order flips
    each pair); returns (untraced, traced) wall pairs."""
    pairs = []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        walls = {}
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            if traced:
                tr.run_id = len(pairs)
                tr.install()
                try:
                    walls[True] = wl.round(len(pairs))
                finally:
                    tr.uninstall()
            else:
                walls[False] = wl.round(len(pairs))
        pairs.append((walls[False], walls[True]))
    return pairs


def per_layer(wl, tr, pairs) -> dict[str, tuple[float, str]]:
    cols = tr.spans()
    n = len(pairs)
    names = tr.names
    nid, dur, self_t = cols["name_id"], cols["dur"], cols["self"]
    parent, tag = cols["parent"], cols["tag"]
    in_round = cols["run"] >= 0
    layer_of = np.array([name.split(".")[0] for name in names] or [""])[nid]

    def span(name, where=in_round):
        return (nid == names.index(name)) & where if name in names else np.zeros(len(nid), bool)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m = (layer_of == layer) & in_round
        out[f"{layer}.calls"] = (int(m.sum()) / n, "count")
        out[f"{layer}.busy_s"] = (float(dur[m & cols["outer"]].sum()) / n, "s")
        out[f"{layer}.self_s"] = (float(self_t[m].sum()) / n, "s")
        out[f"{layer}.failed_calls"] = (int((m & cols["failed"]).sum()) / n, "count")
    for key, unit in (("activations.elements", "count"), ("network.forward_batch.rows", "count"),
                      ("network.gemm_flops_computed", "flop"), ("attacks.pgd_batch.rows", "count"),
                      ("attacks.pgd_batch.steps", "count")):
        out[key] = (tr.counts.get(key, 0.0) / n, unit)
    for name in ("network.forward_batch", "network.grad_input_batch",
                 "network.grad_params_batch", "attacks.pgd_batch",
                 "hessian.hessian_diag_exact"):
        out[f"{name}.calls"] = (int(span(name).sum()) / n, "count")
    for name in ("network.forward_batch", "network.batch_deltas", "attacks.pgd_batch"):
        out[f"{name}.self_s"] = (float(self_t[span(name)].sum()) / n, "s")
    for name in ("network.grad_input_batch", "network.grad_params_batch",
                 "attacks.robust_accuracy", "training.run_cell", "hessian.hessian_diag_exact",
                 "hessian.dataset_diag_norm", "hessian.hessian_diag_fd", "data.make_dataset",
                 "cli.main"):
        out[f"{name}.s"] = (float(dur[span(name)].sum()) / n, "s")

    train = span("training.train_network")
    out["training.train_network.adv_s"] = (float(dur[train & (tag == tracing.TRAIN_ADV)].sum()) / n, "s")
    out["training.train_network.std_s"] = (float(dur[train & (tag == tracing.TRAIN_STD)].sum()) / n, "s")
    train_ids = np.flatnonzero(train)
    under_train = np.isin(parent, train_ids)
    evals = (span("attacks.robust_accuracy") | span("attacks.clean_accuracy")
             | span("network.mean_loss")) & under_train
    eval_s = float(dur[evals].sum())
    out["training.epoch_eval_s"] = (eval_s / n, "s")
    # run_cell keeps only the trained nets, so every epoch's eval history
    # computed by a train_network called from run_cell is discarded.
    from_cell = train & np.isin(parent, np.flatnonzero(span("training.run_cell")))
    discarded = float(dur[evals & np.isin(parent, np.flatnonzero(from_cell))].sum())
    train_s = float(dur[train].sum())
    out["training.epoch_eval_discarded_frac"] = (discarded / train_s if train_s else 0.0, "ratio")

    exact = span("hessian.hessian_diag_exact")
    out["data.make_dataset.setup_s"] = (float(dur[span("data.make_dataset", ~in_round)].sum()), "s")
    for depth in (1, 2, 3, 4):
        m = exact & (tag == depth)
        out[f"hessian.diag_exact_us.depth{depth}"] = (
            float(dur[m].mean()) * 1e6 if m.any() else 0.0, "us")
    counts = {"training.cells_diverged": 0.0, "training.rows_bit_identical": 0.0,
              "cli.hessian_check.fail_verdicts": 0.0}
    counts.update(wl.layer_counts(2 * n))  # both halves of every pair ran the workload
    for key, value in counts.items():
        out[key] = (value, "count")

    untraced = sum(u for u, _ in pairs)
    traced = sum(t for _, t in pairs)
    out["trace_overhead_frac"] = (statistics.median(t / u - 1.0 for u, t in pairs), "ratio")
    # Top-level spans are the library calls the benchmark makes, so self
    # times summed over all spans must account for the round wall time.
    wl.errors += gates.check_self_times(float(self_t[in_round].sum()), traced, untraced)
    wl.errors += gates.check_span_nesting(self_t)
    for layer in LAYERS:
        m = (layer_of == layer) & in_round
        wl.errors += gates.check_layer_times(layer, float(dur[m & cols["outer"]].sum()),
                                             float(self_t[m].sum()))
    sweeps = span("training.run_sweep")
    if sweeps.any():
        drivers = sweeps | span("training.run_cell")
        wl.errors += gates.check_driver_self_time(float(self_t[drivers].sum()),
                                                  float(dur[sweeps].sum()))
    return out


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, set the workload up and exit (times setup_s)")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        wl.setup()
        return 0
    declared = declared_metrics(bool(args.trace))
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    if args.trace:
        tr = tracing.Tracer(tracing.wrap_table(curvact))
        tr.run_id = -1  # set-up spans, kept apart from the measured rounds
        tr.install()
        try:
            wl.setup()
        finally:
            tr.uninstall()
        tr.counts.clear()  # work counters cover the measured rounds only
        pairs = measure_traced(wl, args.seconds, tr)
        metrics.update(per_layer(wl, tr, pairs))
        tr.save(OUT / f"spans-{wl.name}-s{args.seed}.npz")
        samples["rounds"] = len(pairs)
    else:
        wl.setup()
        walls = measure(wl, args.seconds)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        for key, (value, unit, n) in wl.end_to_end(walls).items():
            metrics[key] = (value, unit)
            samples[key] = n
        metrics["op_s_p50"] = (statistics.median(wl.op_s), "s")
        samples["op_s_p50"] = len(wl.op_s)
        setup = measure_setup(wl.name, args.seed)
        metrics["setup_s"] = (statistics.median(setup), "s")
        samples["setup_s"] = len(setup)
        metrics["fd_rel_err_deep"] = (deep_fd_error(), "ratio")
        samples["fd_rel_err_deep"] = len(DEEP_PANEL)
    wl.gates()

    wrong = [m["name"] for m in declared
             if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
    if wrong:
        print(f"error: metrics declared in BENCHMARK.json but not computed with that unit: "
              f"{wrong}", file=sys.stderr)
        return 2
    env = envinfo.environment(ROOT)
    correct = not wl.errors
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct, "attempted": wl.attempted,
        "failed": wl.failed, "ops_failed_frac": wl.failed / max(wl.attempted, 1),
        "errors": wl.errors, "samples": samples, "op_s": wl.op_s, "aliases": ALIASES[wl.name],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"curvact benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in metrics.items():
        label = ALIASES[wl.name].get(key, key)
        count = f"  (n={samples[key]})" if key in samples else ""
        print(f"  {label:<44} {value:.6g} {unit}{count}")
    print(f"  {'ops_failed_frac':<44} {wl.failed / max(wl.attempted, 1):.6g} ratio"
          f"  ({wl.failed}/{wl.attempted})")
    if wl.name == "hessian":
        print(f"  hessian-check FAIL verdicts (each replayed and judged by the gates): "
              f"{len(wl.fail_seeds)}/{wl.checks}")
    for err in wl.errors:
        print(f"GATE FAILED: {err}")
    print(json.dumps({
        "correct": correct, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
