"""Minibatch SGD training with optional PGD adversarial batches, and the
curvature sweep harness built on top of it.

A sweep cell is one (beta, curvature target, seed) triple.  Each cell
trains one network with PGD adversarial batches (reporting clean and
robust test accuracy) and one standard twin from the same initialization
(reporting its clean test accuracy and the normalized Hessian-diagonal
norm over the training split at the end of training).

The cells that share a seed differ only in their initial weights and
their activation (alpha and beta), so the sweep runs each seed's cells as
one NetworkStack: one minibatch order, one set of PGD starts and ball
bounds, and every matrix product run per member, so each row is bit for
bit the row of its cell run alone.  Results stream to CSV as groups
finish, keyed by (beta, curvature, seed) so an interrupted sweep resumes
without recomputing finished cells.  A cell whose training produces
non-finite values is recorded with status "diverged", and its group
trains on without it, rather than aborting the sweep.
"""

from __future__ import annotations

import csv
import math
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields, replace

import numpy as np

from .activations import alpha_for_curvature, rct_af
from .attacks import AttackConfig, clean_accuracy, pgd_batch, robust_accuracy
from .data import Dataset, GeneratorSpec, make_dataset
from .errors import NonFiniteError, ResultsFormatError, TrainingDivergedError
from .hessian import dataset_diag_norm
from .network import (
    Network,
    NetworkStack,
    flat_params,
    grad_params_batch,
    init_network,
    mean_loss,
    stack_networks,
    stack_params,
)
from .record import Record, _decode, _hints

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
    """SGD-with-momentum settings.  With an attack set, every batch is
    replaced by its PGD perturbations; without one, training is standard.
    The seed is an argument of train_network, not a setting."""

    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    attack: AttackConfig | None = None

    def __post_init__(self):
        if type(self.epochs) is not int or self.epochs < 1:
            raise ValueError("epochs must be a positive integer")
        if type(self.batch_size) is not int or self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and non-negative")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")

    @property
    def mode(self) -> str:
        """Follows the attack: "pgd_adversarial" when set, else "standard"."""
        return "standard" if self.attack is None else "pgd_adversarial"


@dataclass
class TrainingHistory:
    """Clean train loss after every epoch.

    For a network stack each entry is an array with one value per member
    of the stack passed in, not finite from the epoch the member diverged
    in, and diverged maps each dropped member to that epoch.  The list
    stops early if every member diverges.
    """

    train_loss: list
    diverged: dict[int, int]


# Parameters past this magnitude overflow float64 within a step or two;
# treat reaching it as divergence so forward passes stay finite.
_PARAM_CEILING = 1e100


def _params_wild(net: NetworkStack) -> np.ndarray:
    """Per member: True once a parameter is NaN, infinite or past the ceiling."""
    tame = True
    for arr in (*net.weights, *net.biases):
        # False for NaN as well, so one comparison catches NaN, inf and
        # magnitudes past the ceiling.
        tame = tame & (np.abs(arr).max(axis=(-2, -1)) <= _PARAM_CEILING)
    return ~tame


def train_network(
    net: Network | NetworkStack,
    dataset: Dataset,
    cfg: TrainConfig,
    seed: int,
) -> tuple[Network | NetworkStack, TrainingHistory]:
    """Train a copy of net, a network or a stack; the input is never mutated.

    A network trains as its one-member stack, so both run the one loop
    below.  seed draws the minibatch order and, mixed with the epoch and
    batch index, each batch's PGD start.  With cfg.attack set every batch
    is replaced by PGD perturbations generated against the current
    parameters before the gradient step.
    The training split is checked for finiteness once, here (ValueError);
    after that, non-finite values mean divergence: a hidden pre-activation
    that is not finite, parameters that are NaN, infinite or past
    _PARAM_CEILING after a step, or a non-finite epoch loss.  A stack
    drops the diverged members, records them in history.diverged and
    trains the rest on, bit for bit as each would train alone, stopping
    once none is left; it returns the surviving members in their original
    order.  A network that diverges raises TrainingDivergedError carrying
    the epoch.  Overflow warnings in a diverging batch are suppressed so
    the value checks are the single signal.

    The history records the clean train loss after every epoch, one float
    per epoch for a network; the test split is not read.
    """
    x_tr, y_tr = dataset.x_train, dataset.y_train
    if net.widths[0] != x_tr.shape[1]:
        raise ValueError("network input width does not match the dataset")
    if not (np.isfinite(x_tr).all() and np.isfinite(y_tr).all()):
        raise ValueError("training data must be finite")
    stack = net if isinstance(net, NetworkStack) else stack_params(net, flat_params(net)[None])
    alive = np.arange(len(stack))  # positions of the members still training
    work = stack.copy()
    vel = [(np.zeros_like(W), np.zeros_like(b))
           for W, b in zip(work.weights, work.biases)]
    rng = np.random.default_rng(seed)
    n = x_tr.shape[0]
    history = TrainingHistory([], {})

    def drop(bad, epoch):
        nonlocal work, vel, alive
        if not bad.any():
            return
        history.diverged.update((int(k), epoch) for k in alive[bad])
        keep = ~bad
        work = work.take(keep)
        vel = [(v_w[keep], v_b[keep]) for v_w, v_b in vel]
        alive = alive[keep]

    def attempt(epoch, fn):
        """fn(work), dropping the members whose forward pass goes non-finite."""
        while True:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return fn(work)
            except NonFiniteError as exc:
                drop(exc.members, epoch)

    def per_member(values):
        out = np.full(len(stack), np.nan)
        out[alive] = values
        return out

    def batch_grads(w, xb, yb, pgd_seed):
        if cfg.mode == "pgd_adversarial":
            xb = pgd_batch(w, xb, yb, cfg.attack, rng_seed=pgd_seed)
        return grad_params_batch(w, xb, yb)

    for epoch in range(cfg.epochs):
        if not len(alive):
            break
        perm = rng.permutation(n)
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            if not len(alive):  # the epoch's remaining batches would train no one
                break
            idx = perm[start:start + cfg.batch_size]
            xb, yb, pgd_seed = x_tr[idx], y_tr[idx], _mix(seed, epoch, bi)
            grads = attempt(epoch, lambda w: batch_grads(w, xb, yb, pgd_seed))
            with np.errstate(over="ignore", invalid="ignore"):
                for l, (g_w, g_b) in enumerate(grads):
                    v_w, v_b = vel[l]
                    v_w *= cfg.momentum
                    v_w += g_w
                    v_b *= cfg.momentum
                    v_b += g_b
                    work.weights[l] -= cfg.learning_rate * v_w
                    work.biases[l] -= cfg.learning_rate * v_b
            drop(_params_wild(work), epoch)
        epoch_loss = attempt(epoch, lambda w: mean_loss(w, x_tr, y_tr))
        history.train_loss.append(per_member(epoch_loss))
        drop(~np.isfinite(epoch_loss), epoch)
    if isinstance(net, NetworkStack):
        return work, history
    if history.diverged:
        raise TrainingDivergedError(history.diverged[0])
    return work.member(0), TrainingHistory([float(v[0]) for v in history.train_loss], {})


@dataclass(frozen=True)
class SweepConfig(Record):
    """Grid over curvature targets, family indices beta and seeds.

    The train field, which must set an attack, trains the adversarial half
    of each cell; the standard twin reuses it without the attack.  Each
    cell trains with its grid seed.  One dataset, generated once from
    (dataset, dataset_n, dataset_seed), is shared by every cell.
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
        for name in ("curvature_targets", "betas", "seeds", "widths", "dataset_n", "dataset_seed"):
            value = getattr(self, name)  # JSON's rules, on a tuple or a list alike
            value = list(value) if isinstance(value, tuple) else value
            object.__setattr__(self, name, _decode(value, _hints(SweepConfig)[name],
                                                   f"SweepConfig.{name}"))
        if not self.curvature_targets:
            raise ValueError("curvature_targets must be nonempty")
        if not all(math.isfinite(c) and c > 0 for c in self.curvature_targets):
            raise ValueError("curvature_targets must be finite and positive")
        if list(self.curvature_targets) != sorted(set(self.curvature_targets)):
            raise ValueError("curvature targets must be strictly increasing")
        if not self.betas or any(b not in (0, 1, 2) for b in self.betas):
            raise ValueError("betas must be a nonempty subset of {0, 1, 2}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if min(self.seeds) < 0:  # refused before the results file is opened
            raise ValueError("seeds must be non-negative")
        if self.dataset_seed < 0:
            raise ValueError("dataset_seed must be non-negative")
        for name in ("betas", "seeds"):  # a repeat would run and write its cells twice
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} must not repeat")
        if len(self.widths) < 2 or min(self.widths) < 1 or self.widths[-1] != 1:
            raise ValueError("widths must list at least two positive sizes, the last of them 1")
        if self.train.attack is None:
            raise ValueError("sweep train template must set train.attack")


def default_sweep_config() -> SweepConfig:
    """Desk-scale defaults: 240 points of GeneratorSpec("two_moons",
    noise=0.04), a 2-16-16-1 net, 10 curvature targets for each of the
    3 betas, and 5 seeds per cell."""
    return SweepConfig(
        curvature_targets=(0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 15.0, 20.0, 30.0, 50.0),
        betas=(0, 1, 2),
        seeds=(0, 1, 2, 3, 4),
        widths=(2, 16, 16, 1),
        dataset=GeneratorSpec("two_moons", noise=0.04),
        dataset_n=240,
        dataset_seed=7,
        train=TrainConfig(
            epochs=40,
            batch_size=16,
            learning_rate=0.08,
            momentum=0.9,
            attack=AttackConfig(epsilon=0.25, step_size=0.0625, steps=10, random_start=True),
        ),
        eval_attack=DEFAULT_EVAL_ATTACK,
    )


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell: adversarial-run accuracies plus the standard twin's
    diagonal norm and clean accuracy.  Metrics are NaN when status is not
    ok, whichever twin diverged.  wall_time_s is the wall time of the
    cell's group (its seed's cells, or under jobs > 1 possibly one beta of
    them) divided by the cells the group ran, so the column still sums to
    the sweep's compute time.  The fields, in order, are the columns of a
    results CSV, where a NaN metric is an empty field."""

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


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepResult))
# The measured columns: NaN when the cell diverged, an empty field in CSV.
_METRICS = ("clean_acc", "robust_acc", "diag_norm", "std_clean_acc")

# Column name -> int, float or str, the type a CSV field parses to.
_COLUMN_TYPES = typing.get_type_hints(SweepResult)


def run_cells(config: SweepConfig, dataset: Dataset, cells,
              seed: int) -> list[SweepResult]:
    """Train the adversarial network and its standard twin for the cells
    (beta, c, seed), (beta, c) in cells, as one network stack; one row per
    cell.

    The cells of a seed group differ only in their initial weights (drawn
    from seed and beta) and their activation.  They share the minibatch
    order, the PGD start rows and the ball bounds, so they train side by
    side, and every row equals the row of its cell run on its own in every
    field but wall_time_s, which is the group's wall time divided by the
    number of cells.  Listing the cells of one beta next to each other, as
    run_sweep does, lets each beta's members share activation calls.  A
    cell whose adversarial network or standard twin diverges gets status
    "diverged" and NaN metrics; the other cells of its group train on
    unchanged.

    Cells initialize with the xavier scheme: its smaller first-layer gains
    keep low-curvature activations in their gentle central region at the
    start of training, which is where the capacity penalty of a small
    second-derivative bound actually shows up at this problem scale.
    """
    start = time.perf_counter()
    alphas = [alpha_for_curvature(beta, c) for beta, c in cells]
    stack = stack_networks(init_network(config.widths, rct_af(a, beta),
                                        seed=_mix(seed, beta), scheme="xavier")
                           for a, (beta, _) in zip(alphas, cells))
    x_te, y_te = dataset.x_test, dataset.y_test
    n = len(cells)
    table = {name: np.full(n, np.nan) for name in _METRICS}
    net_adv, hist_adv = train_network(stack, dataset, config.train, seed)
    adv = np.delete(np.arange(n), list(hist_adv.diverged))
    table["clean_acc"][adv] = clean_accuracy(net_adv, x_te, y_te)
    table["robust_acc"][adv] = robust_accuracy(net_adv, x_te, y_te, config.eval_attack,
                                               rng_seed=seed)
    std_cfg = replace(config.train, attack=None)
    net_std, hist_std = train_network(stack.take(adv), dataset, std_cfg, seed)
    both = np.delete(adv, list(hist_std.diverged))
    table["std_clean_acc"][both] = clean_accuracy(net_std, x_te, y_te)
    table["diag_norm"][both] = [dataset_diag_norm(net_std.member(i), dataset.x_train,
                                                  dataset.y_train) for i in range(len(both))]
    ok = np.isin(np.arange(n), both)
    for column in table.values():
        column[~ok] = np.nan  # a diverged twin voids its cell's every metric
    wall = (time.perf_counter() - start) / n
    return [SweepResult(beta=beta, curvature=float(curvature), alpha=alpha, seed=seed,
                        wall_time_s=wall, status="ok" if ok[k] else "diverged",
                        **{name: float(table[name][k]) for name in _METRICS})
            for k, ((beta, curvature), alpha) in enumerate(zip(cells, alphas))]


def run_cell(config: SweepConfig, dataset: Dataset, beta: int, curvature: float,
             seed: int) -> SweepResult:
    """One sweep cell: the one-member view of run_cells."""
    return run_cells(config, dataset, ((beta, curvature),), seed)[0]


def _result_row(r: SweepResult) -> list[str]:
    # A float's str is its repr: the shortest text that reads back to the
    # same bits.  Only NaN differs from itself.
    row = []
    for name in SWEEP_COLUMNS:
        value = getattr(r, name)
        if value != value and name in _METRICS:
            row.append("")
        else:
            row.append(str(value))
    return row


def _complete_lines(path) -> str:
    """The file's text up to its last newline.  A final line without one is
    a row whose write was interrupted; it counts as not yet written."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        text = fh.read()
    return text[:text.rfind("\n") + 1]


def read_sweep_results(path) -> list[SweepResult]:
    """Parse a sweep CSV, skipping an incomplete final line.  The header
    must be SWEEP_COLUMNS, in order; any other header raises
    ResultsFormatError naming the path and the missing and extra columns.
    Each row is parsed by position, and a row with another field count, a
    field that does not parse, a curvature or alpha that is not finite, a
    beta outside {0, 1, 2}, a status other than ok or diverged, or an
    empty field outside the metrics is a ResultsFormatError naming its
    line."""
    reader = csv.reader(_complete_lines(path).splitlines(keepends=True))
    header = next(reader, [])
    if tuple(header) != SWEEP_COLUMNS:
        missing = [c for c in SWEEP_COLUMNS if c not in header]
        extra = [c for c in header if c not in SWEEP_COLUMNS]
        raise ResultsFormatError(
            f"results file {path} does not have the columns {','.join(SWEEP_COLUMNS)} "
            f"in that order (missing {missing}, extra {extra})")
    out = []
    for row in reader:
        try:
            if len(row) != len(SWEEP_COLUMNS):
                raise ValueError(f"expected {len(SWEEP_COLUMNS)} fields, got {len(row)}")
            cell = SweepResult(*(
                math.nan if text == "" and name in _METRICS else _COLUMN_TYPES[name](text)
                for name, text in zip(SWEEP_COLUMNS, row)))
            if not (math.isfinite(cell.curvature) and math.isfinite(cell.alpha)):
                raise ValueError("curvature and alpha must be finite")
            if cell.beta not in (0, 1, 2):
                raise ValueError(f"beta {cell.beta} is not 0, 1 or 2")
            if cell.status not in ("ok", "diverged"):
                raise ValueError(f"status {cell.status!r} is not ok or diverged")
            out.append(cell)
        except ValueError as exc:
            raise ResultsFormatError(
                f"results file {path} line {reader.line_num} is malformed: {exc}") from None
    return out


def run_sweep(
    config: SweepConfig,
    results_path,
    jobs: int = 1,
    resume: bool = False,
    progress=None,
) -> list[SweepResult]:
    """Run every (beta, curvature, seed) cell exactly once, one row per
    cell in the CSV at results_path.

    The cells still to run are grouped by seed and each group runs as one
    stack (run_cells), its cells in grid order; rows are appended (and
    flushed) as groups finish.  By default the file starts afresh.  With
    resume true, as `curvact sweep --resume`, the rows already in the
    file are honoured, so a partial file picks up where it left off and
    an interrupted group recomputes only its unfinished cells; only the
    header is compared, so the file must come from the same config.  The
    existing rows are read by read_sweep_results, and a file it refuses
    is not resumed but left as it is (its ResultsFormatError), as is any
    file when jobs is below 1 or widths[0] is not the dataset's input
    dimension (ValueError).  jobs > 1 fans groups out to min(jobs, groups)
    worker processes; when the last wave has fewer groups than workers,
    each of its groups runs as one group per beta, so the workers share
    it.  Rows do not depend on the grouping, and the returned list is
    always in canonical grid order, whatever the order of rows in the
    file.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    dataset = make_dataset(config.dataset, config.dataset_n, config.dataset_seed)
    if config.widths[0] != dataset.inputs.shape[1]:
        raise ValueError(f"widths[0] = {config.widths[0]} does not match the dataset's "
                         f"input dimension {dataset.inputs.shape[1]}")
    cells = [(b, c, s) for b in config.betas for c in config.curvature_targets
             for s in config.seeds]
    done: dict[tuple, SweepResult] = {}
    appending = resume and os.path.exists(results_path) and os.path.getsize(results_path) > 0
    if appending:
        for r in read_sweep_results(results_path):
            done[r.beta, r.curvature, r.seed] = r
        size = len(_complete_lines(results_path).encode("utf-8"))
        if size < os.path.getsize(results_path):
            # Cut an interrupted final row so new rows start on a line of their own.
            os.truncate(results_path, size)

    by_seed: dict[int, list[tuple[int, float]]] = {}
    for b, c, s in cells:
        if (b, c, s) not in done:
            by_seed.setdefault(s, []).append((b, c))
    groups = list(by_seed.items())
    if jobs > 1:
        # A last wave of fewer groups than workers splits into beta groups.
        full = len(groups) - len(groups) % jobs
        groups[full:] = [(s, [cell for cell in group if cell[0] == b])
                         for s, group in groups[full:]
                         for b in dict.fromkeys(b for b, _ in group)]
    for key in done:
        if progress is not None:
            progress("skipped", key)
    with open(results_path, "a" if appending else "w", newline="", encoding="utf-8") as fh:
        if not appending:
            fh.write(",".join(SWEEP_COLUMNS) + "\n")
            fh.flush()
        writer = csv.writer(fh)

        def record(result: SweepResult):
            done[result.beta, result.curvature, result.seed] = result
            writer.writerow(_result_row(result))
            fh.flush()
            if progress is not None:
                progress("done", result)

        if jobs == 1 or len(groups) <= 1:
            for s, group in groups:
                for result in run_cells(config, dataset, group, s):
                    record(result)
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
                futures = [pool.submit(run_cells, config, dataset, group, s)
                           for s, group in groups]
                for fut in as_completed(futures):
                    for result in fut.result():
                        record(result)
    return [done[c] for c in cells]
