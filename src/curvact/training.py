"""Minibatch SGD training with optional PGD adversarial batches, and the
curvature sweep harness built on top of it.

A sweep cell is one (beta, curvature target, seed) triple.  Each cell
trains one network with PGD adversarial batches (reporting clean and
robust test accuracy) and one standard twin from the same initialization
(reporting its clean test accuracy and the normalized Hessian-diagonal
norm over the training split at the end of training).  Results stream to
CSV as cells finish, keyed by (beta, curvature, seed) so an interrupted
sweep resumes without recomputing finished cells.  A cell whose training
produces non-finite values is recorded with status "diverged" rather than
aborting the sweep.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace

import numpy as np

from .activations import alpha_for_curvature, rct_af
from .attacks import AttackConfig, clean_accuracy, pgd_batch, robust_accuracy
from .data import Dataset, GeneratorSpec, make_dataset, two_moons
from .errors import ResultsFormatError, TrainingDivergedError
from .hessian import dataset_diag_norm
from .network import Network, grad_params_batch, init_network, mean_loss
from .record import Record

TRAIN_MODES = ("standard", "pgd_adversarial")

SWEEP_COLUMNS = (
    "beta", "curvature", "alpha", "seed", "clean_acc", "robust_acc",
    "diag_norm", "wall_time_s", "status", "std_clean_acc",
)

# std_clean_acc trails the row so files missing it still parse.
REQUIRED_SWEEP_COLUMNS = SWEEP_COLUMNS[:-1]

DEFAULT_EVAL_ATTACK = AttackConfig(epsilon=0.25, step_size=0.015625, steps=40, random_start=True)

_MASK64 = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """Deterministic 63-bit hash of integer parts (splitmix64 finalizer)."""
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = (acc ^ (int(p) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & _MASK64
        acc ^= acc >> 31
    return acc & ((1 << 63) - 1)


@dataclass(frozen=True)
class TrainConfig(Record):
    """SGD-with-momentum settings; mode selects clean or PGD batches."""

    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float = 0.9
    mode: str = "standard"
    seed: int = 0
    attack: AttackConfig | None = None

    def __post_init__(self):
        if not isinstance(self.epochs, int) or self.epochs < 1:
            raise ValueError("epochs must be a positive integer")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and non-negative")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.mode == "pgd_adversarial" and self.attack is None:
            raise ValueError("pgd_adversarial mode requires an attack config")
        if self.mode == "standard" and self.attack is not None:
            raise ValueError("standard mode takes no attack config")


@dataclass
class TrainingHistory:
    """Per-epoch clean train loss, plus clean and robust test accuracy when
    training was given an eval attack (else both stay empty)."""

    train_loss: list[float]
    clean_test_acc: list[float]
    robust_test_acc: list[float]


# Parameters past this magnitude overflow float64 within a step or two;
# treat reaching it as divergence so forward passes stay finite.
_PARAM_CEILING = 1e100


def _params_wild(net: Network) -> bool:
    for arr in (*net.weights, *net.biases):
        # False for NaN as well, so one reduction catches NaN, inf and
        # magnitudes past the ceiling.
        if not (np.abs(arr).max() <= _PARAM_CEILING):
            return True
    return False


def train_network(
    net: Network,
    dataset: Dataset,
    cfg: TrainConfig,
    eval_attack: AttackConfig | None = None,
) -> tuple[Network, TrainingHistory]:
    """Train a copy of net; the input network is never mutated.

    In pgd_adversarial mode every batch is replaced by PGD perturbations
    generated against the current parameters before the gradient step.
    Divergence is detected by value checks (non-finite parameters after a
    step, or non-finite epoch loss) and raised as TrainingDivergedError
    carrying the epoch; overflow warnings in the diverging batch itself
    are suppressed so the error is the single signal.

    The history records the clean train loss after every epoch.  The test
    split is evaluated only when eval_attack is given: clean accuracy and
    robust accuracy against eval_attack, once per epoch.  Evaluation draws
    no training randomness, so it never changes the trained weights.
    """
    x_tr, y_tr = dataset.x_train, dataset.y_train
    x_te, y_te = dataset.x_test, dataset.y_test
    if net.widths[0] != x_tr.shape[1]:
        raise ValueError("network input width does not match the dataset")
    work = net.copy()
    vel = [(np.zeros_like(W), np.zeros_like(b))
           for W, b in zip(work.weights, work.biases)]
    rng = np.random.default_rng(cfg.seed)
    n = x_tr.shape[0]
    history = TrainingHistory([], [], [])
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            xb, yb = x_tr[idx], y_tr[idx]
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    if cfg.mode == "pgd_adversarial":
                        xb = pgd_batch(work, xb, yb, cfg.attack,
                                       rng_seed=_mix(cfg.seed, epoch, bi))
                    grads = grad_params_batch(work, xb, yb)
                    for l, (g_w, g_b) in enumerate(grads):
                        v_w, v_b = vel[l]
                        v_w *= cfg.momentum
                        v_w += g_w
                        v_b *= cfg.momentum
                        v_b += g_b
                        work.weights[l] -= cfg.learning_rate * v_w
                        work.biases[l] -= cfg.learning_rate * v_b
            except ValueError:
                # Exploding weights can overflow a forward pass before any
                # parameter itself turns non-finite; tell the two apart.
                if _params_wild(work):
                    raise TrainingDivergedError(epoch) from None
                raise
            if _params_wild(work):
                raise TrainingDivergedError(epoch)
        with np.errstate(over="ignore", invalid="ignore"):
            epoch_loss = mean_loss(work, x_tr, y_tr)
            if not math.isfinite(epoch_loss):
                raise TrainingDivergedError(epoch)
            history.train_loss.append(epoch_loss)
            if eval_attack is not None:
                history.clean_test_acc.append(clean_accuracy(work, x_te, y_te))
                history.robust_test_acc.append(
                    robust_accuracy(work, x_te, y_te, eval_attack,
                                    rng_seed=_mix(cfg.seed, 0xE7A1, epoch))
                )
    return work, history


@dataclass(frozen=True)
class SweepConfig(Record):
    """Grid over curvature targets, family indices beta and seeds.

    The train field is the template for the adversarial half of each cell;
    the standard twin reuses it with mode forced to standard.  One dataset,
    generated once from (dataset, dataset_n, dataset_seed), is shared by
    every cell.
    """

    curvature_targets: tuple[float, ...]
    betas: tuple[int, ...]
    seeds: tuple[int, ...]
    widths: tuple[int, ...]
    dataset: GeneratorSpec
    dataset_n: int
    dataset_seed: int
    train: TrainConfig
    eval_attack: AttackConfig

    def __post_init__(self):
        object.__setattr__(self, "curvature_targets",
                           tuple(float(c) for c in self.curvature_targets))
        object.__setattr__(self, "betas", tuple(int(b) for b in self.betas))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.curvature_targets:
            raise ValueError("curvature_targets must be nonempty")
        if any(c <= 0 for c in self.curvature_targets):
            raise ValueError("curvature targets must be positive")
        if list(self.curvature_targets) != sorted(set(self.curvature_targets)):
            raise ValueError("curvature targets must be strictly increasing")
        if not self.betas or any(b not in (0, 1, 2) for b in self.betas):
            raise ValueError("betas must be a nonempty subset of {0, 1, 2}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.train.mode != "pgd_adversarial":
            raise ValueError("sweep train template must use pgd_adversarial mode")


def default_sweep_config() -> SweepConfig:
    """Desk-scale defaults: two moons, a 2-16-16-1 net, 5 seeds per cell."""
    return SweepConfig(
        curvature_targets=(0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 15.0, 20.0, 30.0, 50.0),
        betas=(0, 1, 2),
        seeds=(0, 1, 2, 3, 4),
        widths=(2, 16, 16, 1),
        dataset=two_moons(noise=0.04),
        dataset_n=240,
        dataset_seed=7,
        train=TrainConfig(
            epochs=40,
            batch_size=16,
            learning_rate=0.08,
            momentum=0.9,
            mode="pgd_adversarial",
            attack=AttackConfig(epsilon=0.25, step_size=0.0625, steps=10, random_start=True),
        ),
        eval_attack=DEFAULT_EVAL_ATTACK,
    )


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell: adversarial-run accuracies plus the standard twin's
    diagonal norm and clean accuracy.  Metrics are NaN when status is not ok."""

    beta: int
    curvature: float
    alpha: float
    seed: int
    clean_acc: float
    robust_acc: float
    diag_norm: float
    wall_time_s: float
    status: str
    std_clean_acc: float


def _cell_key(beta: int, curvature: float, seed: int) -> tuple[int, float, int]:
    return (int(beta), float(curvature), int(seed))


def run_cell(config: SweepConfig, dataset: Dataset, beta: int, curvature: float,
             seed: int) -> SweepResult:
    """Train the adversarial network and its standard twin for one cell.

    Cells initialize with the xavier scheme: its smaller first-layer gains
    keep low-curvature activations in their gentle central region at the
    start of training, which is where the capacity penalty of a small
    second-derivative bound actually shows up at this problem scale.
    """
    alpha = alpha_for_curvature(beta, curvature)
    start = time.perf_counter()
    base = init_network(config.widths, rct_af(alpha, beta), seed=_mix(seed, beta),
                        scheme="xavier")
    clean_acc = robust_acc = diag_norm = std_clean = float("nan")
    status = "ok"
    try:
        adv_cfg = replace(config.train, mode="pgd_adversarial",
                          attack=config.train.attack, seed=seed)
        net_adv, _ = train_network(base, dataset, adv_cfg)
        clean_acc = clean_accuracy(net_adv, dataset.x_test, dataset.y_test)
        robust_acc = robust_accuracy(net_adv, dataset.x_test, dataset.y_test,
                                     config.eval_attack, rng_seed=seed)
        std_cfg = replace(config.train, mode="standard", attack=None, seed=seed)
        net_std, _ = train_network(base, dataset, std_cfg)
        std_clean = clean_accuracy(net_std, dataset.x_test, dataset.y_test)
        diag_norm = dataset_diag_norm(net_std, dataset.x_train, dataset.y_train)
    except TrainingDivergedError:
        status = "diverged"
    wall = time.perf_counter() - start
    return SweepResult(beta, float(curvature), alpha, seed, clean_acc, robust_acc,
                       diag_norm, wall, status, std_clean)


def _format_cell(v: float) -> str:
    return "" if isinstance(v, float) and math.isnan(v) else repr(v)


def _result_row(r: SweepResult) -> list[str]:
    return [
        str(r.beta), repr(r.curvature), repr(r.alpha), str(r.seed),
        _format_cell(r.clean_acc), _format_cell(r.robust_acc),
        _format_cell(r.diag_norm), repr(r.wall_time_s), r.status,
        _format_cell(r.std_clean_acc),
    ]


def _parse_cell(text: str) -> float:
    return float("nan") if text == "" else float(text)


def _complete_lines(path) -> str:
    """The file's text up to its last newline.  A final line without one is
    a row whose write was interrupted; it counts as not yet written."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        text = fh.read()
    return text[:text.rfind("\n") + 1]


def read_sweep_results(path) -> list[SweepResult]:
    """Parse a sweep CSV, skipping an incomplete final line; raises
    ResultsFormatError on missing columns or a malformed row."""
    reader = csv.DictReader(_complete_lines(path).splitlines(keepends=True))
    header = reader.fieldnames or []
    for col in REQUIRED_SWEEP_COLUMNS:
        if col not in header:
            raise ResultsFormatError(f"results file is missing column {col!r}")
    out = []
    for row in reader:
        try:
            if None in row or None in row.values():
                raise ValueError(f"expected {len(header)} fields")
            out.append(SweepResult(
                beta=int(row["beta"]),
                curvature=float(row["curvature"]),
                alpha=float(row["alpha"]),
                seed=int(row["seed"]),
                clean_acc=_parse_cell(row["clean_acc"]),
                robust_acc=_parse_cell(row["robust_acc"]),
                diag_norm=_parse_cell(row["diag_norm"]),
                wall_time_s=float(row["wall_time_s"]),
                status=row["status"],
                std_clean_acc=_parse_cell(row.get("std_clean_acc", "")),
            ))
        except ValueError as exc:
            raise ResultsFormatError(
                f"results file line {reader.line_num} is malformed: {exc}") from None
    return out


def _run_cell_star(args):
    return run_cell(*args)


def run_sweep(
    config: SweepConfig,
    results_path=None,
    jobs: int = 1,
    resume: bool = True,
    progress=None,
) -> list[SweepResult]:
    """Run every (beta, curvature, seed) cell exactly once.

    With results_path set, rows are appended (and flushed) as cells finish;
    existing rows are honoured when resume is true, so a partial file picks
    up where it left off.  jobs > 1 fans cells out to worker processes; the
    returned list is always in canonical grid order.
    """
    dataset = make_dataset(config.dataset, config.dataset_n, config.dataset_seed)
    cells = [(b, c, s) for b in config.betas for c in config.curvature_targets
             for s in config.seeds]
    done: dict[tuple, SweepResult] = {}
    fh = None
    if results_path is not None:
        exists = os.path.exists(results_path) and os.path.getsize(results_path) > 0
        if resume and exists:
            for r in read_sweep_results(results_path):
                done[_cell_key(r.beta, r.curvature, r.seed)] = r
            size = len(_complete_lines(results_path).encode("utf-8"))
            if size < os.path.getsize(results_path):
                # Cut an interrupted final row so new rows start on a line of their own.
                os.truncate(results_path, size)
            fh = open(results_path, "a", newline="", encoding="utf-8")
        else:
            fh = open(results_path, "w", newline="", encoding="utf-8")
            fh.write(",".join(SWEEP_COLUMNS) + "\n")
            fh.flush()
    writer = csv.writer(fh) if fh is not None else None

    def record(result: SweepResult):
        done[_cell_key(result.beta, result.curvature, result.seed)] = result
        if writer is not None:
            writer.writerow(_result_row(result))
            fh.flush()
        if progress is not None:
            progress("done", result)

    todo = [c for c in cells if _cell_key(*c) not in done]
    for key in done:
        if progress is not None:
            progress("skipped", key)
    try:
        if jobs <= 1 or len(todo) <= 1:
            for b, c, s in todo:
                record(run_cell(config, dataset, b, c, s))
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_run_cell_star, (config, dataset, b, c, s))
                           for b, c, s in todo]
                for fut in as_completed(futures):
                    record(fut.result())
    finally:
        if fh is not None:
            fh.close()
    return [done[_cell_key(*c)] for c in cells]
