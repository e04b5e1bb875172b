"""FGSM and PGD attacks in the l-infinity ball, plus robust accuracy.

Labels are +/-1 and the readout is the sign of the network output; a
sample counts as correctly classified only when sign(f) equals its label,
so an exact zero output is always wrong.

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
attacked as a k-row batch is, and pgd on one sample is row 0 of
pgd_batch.  The members of a network stack attacked together share one
(n, d) random start, whether they share the clean rows or each has its
own: each member's iterate, shape (S, n, d) once the first step is
taken, is bit for bit the one a solo attack on that member and its rows
computes.

A row whose projected step leaves its iterate unchanged bit for bit is at
a fixed point: attacked every step, its next gradient comes from the same
input at the same batch position, so it takes the same signs and the
same clip on every later step.  A batch of more than one gradient block
(512 rows) therefore drops such rows from its remaining steps, which is
exact for them; below that a step costs per-call overhead, not rows, and
every row takes every step.  The rows still moving are evaluated
together at fewer rows, so they keep the sign-only caveat above about
batch shape.  In a stack a row stays in while any member still moves
it, and a member whose copy of the row has stopped keeps its iterate.
pgd_batch, clean_accuracy and robust_accuracy take a stack wherever they
take a Network; the accuracies then come back one per member.
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
        if not isinstance(self.steps, int) or self.steps < 1:
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


def fgsm(net: Network, x, y, epsilon: float) -> np.ndarray:
    """Single signed-gradient step of size epsilon; sign(0) moves nothing.

    Accepts one sample (1-D x, scalar y) or a batch (2-D x, label vector);
    the batch form shares its gradient path with pgd_batch so a one-step
    PGD without random start reproduces it bit for bit.
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError("epsilon must be finite and non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return fgsm(net, x[None, :], np.array([float(y)]), epsilon)[0]
    x = _check_finite(x)
    y = np.asarray(y, dtype=np.float64)
    g = grad_input_batch(net, x, y)
    lo, hi = _ball_bounds(x, epsilon)
    return np.minimum(np.maximum(x + epsilon * np.sign(g), lo), hi)


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
    iterate has shape (S, n, d).  Past 512 rows, rows at a fixed point
    take no further steps (module docstring); on_step still sees every
    step's iterate as a fresh array.
    """
    X = _check_batch(net, _check_finite(np.asarray(X, dtype=np.float64)))
    y = _check_label_shape(X, y)
    lo, hi = _ball_bounds(X, cfg.epsilon)
    cur = X.copy()
    if cfg.random_start and cfg.epsilon > 0:
        start = np.random.default_rng(rng_seed).uniform(-cfg.epsilon, cfg.epsilon, X.shape[-2:])
        # np.clip's bits on finite input, without its Python wrappers.
        cur = np.minimum(np.maximum(cur + start, lo), hi)
    # Past one gradient block: the rows still moving and, per member,
    # whether each one moved in the last step.
    rows = moved = None
    if X.shape[-2] > _GRAD_BLOCK_ROWS:
        rows, moved = np.arange(X.shape[-2]), np.ones(X.shape[-2], dtype=bool)
    for step in range(cfg.steps):
        if rows is None:
            g = grad_input_batch(net, cur, y)
            cur = np.minimum(np.maximum(cur + cfg.step_size * np.sign(g), lo), hi)
        elif rows.size:
            part = cur.take(rows, axis=-2)
            g = grad_input_batch(net, part, y.take(rows))
            new = np.minimum(np.maximum(part + cfg.step_size * np.sign(g),
                                        lo.take(rows, axis=-2)), hi.take(rows, axis=-2))
            if not moved.all():
                new = np.where(moved[..., None], new, part)
            moved = (new.view(np.int64) != part.view(np.int64)).any(axis=-1)
            cur = np.broadcast_to(cur, new.shape[:-2] + cur.shape[-2:]).copy()
            cur[..., rows, :] = new
            keep = moved.reshape(-1, rows.size).any(axis=0)
            rows, moved = rows[keep], moved[..., keep]
        elif on_step is not None:
            cur = cur.copy()
        if on_step is not None:
            on_step(step, cur)
    return cur


def pgd(net: Network, x, y: float, cfg: AttackConfig, rng_seed: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return pgd_batch(net, x[None, :], np.array([float(y)]), cfg, rng_seed)[0]


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
    """
    X = np.asarray(X, dtype=np.float64)
    y = _check_labels(X, y)
    adv = pgd_batch(net, X, y, cfg, rng_seed, on_step)
    ok = (np.sign(forward_batch(net, X).f) == y) & (np.sign(forward_batch(net, adv).f) == y)
    return _rate(ok)
