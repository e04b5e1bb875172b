"""FGSM and PGD attacks in the l-infinity ball, plus robust accuracy.

Labels are +/-1 and the readout is the sign of the network output; a
sample counts as correctly classified only when sign(f) equals its label,
so an exact zero output is always wrong.  fgsm and pgd_batch take a batch
of rows, shape (n, d), and one label per row; one sample is the batch
X[:1], y[:1].

Perturbations never leave the epsilon-ball around the clean input: the
projection clips to per-element bounds that are pre-corrected for
rounding, so the recomputed offset x' - x never exceeds epsilon, not even
by one ulp.  All randomness is driven by an explicit non-negative integer
seed: one call draws every row's random start from
np.random.default_rng(seed).uniform(-epsilon, epsilon, (n, d)), row i
taking draws i*d to i*d + d - 1.  A row's start therefore depends only on
the seed and its row index, not on how many rows follow it.  Its input
gradient may differ in the last bit with the batch shape, but an attack
reads only its sign; the tests check that the first k rows of a batch are
attacked as a k-row batch is.  The members of a network stack attacked
together share one (n, d) random start, whether they share the clean
rows or each has its own: each member's iterate, shape (S, n, d) once
the first step is taken, is bit for bit the one a solo attack on that
member and its rows computes.

A row whose projected step leaves its iterate unchanged bit for bit is at
a fixed point: attacked every step, its next gradient comes from the same
input at the same batch position, so it takes the same signs and the
same clip on every later step.  One rule decides which batches drop rows:
only a single Network attacking more than one gradient block (512 rows)
drops such rows from its remaining steps, which is exact for them.  The
rows still moving are evaluated together at fewer rows, so they keep the
sign-only caveat above about batch shape.  A smaller batch, where a step
costs per-call overhead rather than rows, and a network stack of any size
step every row every step.

robust_accuracy counts a row only when it is classified correctly clean,
so where rows are dropped its attack also takes no step on a row the
network misclassifies clean: that row keeps its clipped random start.
Everywhere else every row takes every step.  Its on_step sees each
step's iterate over all rows, in pgd_batch's shape.  pgd_batch,
clean_accuracy and robust_accuracy take a stack wherever they take a
Network; the accuracies then come back one per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import _GRAD_BLOCK_ROWS, Network, NetworkStack, forward_batch, grad_input_batch
from .network import _check_batch
from .network import _check_labels as _check_label_shape
from .record import Record


@dataclass(frozen=True)
class AttackConfig(Record):
    """PGD budget: ball radius, step size, step count, random start."""

    epsilon: float
    step_size: float
    steps: int
    random_start: bool

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError("epsilon must be finite and non-negative")
        if not math.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError("step_size must be finite and positive")
        if type(self.steps) is not int or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if self.steps > 1 and self.epsilon > 0 and self.step_size > 2.0 * self.epsilon:
            raise ValueError("step_size above 2 * epsilon makes iteration pointless")


def _ball_bounds(X: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-element clip bounds whose recomputed offset never exceeds epsilon.

    X + epsilon can round upward, in which case clipping to it leaves an
    iterate whose measured distance (hi - X) is one ulp above the budget.
    Walking such entries back by one float keeps the l-infinity contract
    exact under recomputation.  One step is enough: hi exceeds X + epsilon
    only when it was rounded up, so its predecessor is at most X + epsilon
    and its offset rounds to at most epsilon.  lo is the mirror case.
    """
    hi = X + epsilon
    over = (hi - X) > epsilon
    hi[over] = np.nextafter(hi[over], -np.inf)
    lo = X - epsilon
    under = (X - lo) > epsilon
    lo[under] = np.nextafter(lo[under], np.inf)
    return lo, hi


def _check_finite(X: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(X)):
        raise ValueError("attack inputs must be finite")
    return X


def _check_labels(X: np.ndarray, y) -> np.ndarray:
    y = _check_label_shape(X, y)
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    return y


def fgsm(net: Network, X, y, epsilon: float) -> np.ndarray:
    """One signed-gradient step of size epsilon on the rows of X, shape
    (n, d), one label per row (one sample is X[:1], y[:1]); sign(0) moves
    nothing.  It shares its gradient path with pgd_batch, so a one-step
    PGD without random start reproduces it bit for bit."""
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError("epsilon must be finite and non-negative")
    X = _check_finite(np.asarray(X, dtype=np.float64))
    g = grad_input_batch(net, X, y)
    lo, hi = _ball_bounds(X, epsilon)
    return np.minimum(np.maximum(X + epsilon * np.sign(g), lo), hi)


def pgd_batch(
    net: Network | NetworkStack, X, y, cfg: AttackConfig, rng_seed: int, on_step=None
) -> np.ndarray:
    """PGD over a batch of rows from one seeded random start.

    The start is np.random.default_rng(rng_seed).uniform(-epsilon, epsilon,
    (n, d)), clipped to the ball, so row i's start does not depend on the
    rows after it; a negative rng_seed raises ValueError.  On a stack, X
    holds rows shared by every member, shape (n, d), or one batch per
    member, shape (S, n, d); either way every member takes the same
    start, the bounds and the start are computed once, and the returned
    iterate has shape (S, n, d).  A single Network past 512 rows stops
    stepping rows at a fixed point (module docstring); on_step still sees
    every step's iterate as a fresh array.
    """
    X = _check_batch(net, _check_finite(np.asarray(X, dtype=np.float64)))
    y = _check_label_shape(X, y)
    return _pgd_rows(net, X, y, cfg, rng_seed, np.ones(X.shape[-2], dtype=bool), on_step)


def _pgd_rows(net, X, y, cfg, rng_seed, attack, on_step):
    """pgd_batch's attack on checked rows X and labels y.  A single
    Network past one gradient block steps only the rows where the boolean
    mask attack is set, until each reaches a fixed point, and every other
    row keeps its clipped start.  A smaller batch, or a stack, steps every
    row every step and ignores attack."""
    lo, hi = _ball_bounds(X, cfg.epsilon)
    cur = X.copy()
    if cfg.random_start and cfg.epsilon > 0:
        start = np.random.default_rng(rng_seed).uniform(-cfg.epsilon, cfg.epsilon, X.shape[-2:])
        # np.clip's bits on finite input, without its Python wrappers.
        cur = np.minimum(np.maximum(cur + start, lo), hi)
    compact = isinstance(net, Network) and X.shape[0] > _GRAD_BLOCK_ROWS
    rows = np.flatnonzero(attack) if compact else None
    for step in range(cfg.steps):
        if not compact:
            g = grad_input_batch(net, cur, y)
            cur = np.minimum(np.maximum(cur + cfg.step_size * np.sign(g), lo), hi)
        elif rows.size:
            part = cur.take(rows, axis=0)
            g = grad_input_batch(net, part, y.take(rows))
            new = np.minimum(np.maximum(part + cfg.step_size * np.sign(g),
                                        lo.take(rows, axis=0)), hi.take(rows, axis=0))
            cur = cur.copy()
            cur[rows] = new
            rows = rows[(new.view(np.int64) != part.view(np.int64)).any(axis=1)]
        elif on_step is not None:
            cur = cur.copy()
        if on_step is not None:
            on_step(step, cur)
    return cur


def _rate(ok: np.ndarray):
    """Share of True over the rows: a float, or one per stack member.  No
    rows is a ValueError; a stack of no members with rows gives an empty
    array."""
    if ok.shape[-1] == 0:
        raise ValueError("accuracy needs at least one sample")
    out = np.mean(ok, axis=-1)
    return float(out) if out.ndim == 0 else out


def clean_accuracy(net: Network | NetworkStack, X, y):
    X = np.asarray(X, dtype=np.float64)
    y = _check_labels(X, y)
    f = forward_batch(net, X).f
    return _rate(np.sign(f) == y)


def robust_accuracy(net: Network | NetworkStack, X, y, cfg: AttackConfig, rng_seed: int,
                    on_step=None):
    """Share of rows classified correctly both clean and after pgd_batch's
    attack, sign(f(x)) == y and sign(f(x_adv)) == y, as in Madry et al.
    (ICLR 2018).  So it never exceeds clean accuracy, and with epsilon = 0
    it equals clean accuracy.

    A single Network past 512 rows attacks only the rows it classifies
    correctly clean (module docstring); on_step still sees the iterate
    over all rows, in pgd_batch's shape.
    """
    X = _check_batch(net, _check_finite(np.asarray(X, dtype=np.float64)))
    y = _check_labels(X, y)
    clean = np.sign(forward_batch(net, X).f) == y
    adv = _pgd_rows(net, X, y, cfg, rng_seed, clean, on_step)
    return _rate(clean & (np.sign(forward_batch(net, adv).f) == y))
