"""FGSM and PGD attacks in the l-infinity ball, plus robust accuracy.

Labels are +/-1 and the readout is the sign of the network output; a
sample counts as correctly classified only when sign(f) equals its label,
so an exact zero output is always wrong.

Perturbations never leave the epsilon-ball around the clean input: the
projection clips to per-element bounds that are pre-corrected for
rounding, so the recomputed offset x' - x never exceeds epsilon, not even
by one ulp.  Optional global input bounds are clamped after the ball
projection and take precedence; if a clean input already lies outside
them, the clamp can move its adversarial view farther than epsilon.  All
randomness is driven by an explicit integer seed; batch evaluations
derive per-sample seeds as seed XOR sample_index so results do not depend
on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network, forward_batch, grad_input_batch


@dataclass(frozen=True)
class AttackConfig:
    """PGD budget: ball radius, step size, step count, random start."""

    epsilon: float
    step_size: float
    steps: int
    random_start: bool
    input_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError("epsilon must be finite and non-negative")
        if not math.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError("step_size must be finite and positive")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if self.steps > 1 and self.epsilon > 0 and self.step_size > 2.0 * self.epsilon:
            raise ValueError("step_size above 2 * epsilon makes iteration pointless")
        if self.input_bounds is not None:
            lo, hi = self.input_bounds
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("input_bounds must be a finite (low, high) pair")
            object.__setattr__(self, "input_bounds", (float(lo), float(hi)))

    def to_dict(self) -> dict:
        out = {
            "epsilon": float(self.epsilon),
            "step_size": float(self.step_size),
            "steps": int(self.steps),
            "random_start": bool(self.random_start),
        }
        if self.input_bounds is not None:
            out["input_bounds"] = list(self.input_bounds)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "AttackConfig":
        missing = {"epsilon", "step_size", "steps", "random_start"} - set(data)
        if missing:
            raise ValueError(f"attack JSON missing fields: {sorted(missing)}")
        bounds = data.get("input_bounds")
        return cls(
            epsilon=float(data["epsilon"]),
            step_size=float(data["step_size"]),
            steps=int(data["steps"]),
            random_start=bool(data["random_start"]),
            input_bounds=tuple(bounds) if bounds is not None else None,
        )


def _clamp_bounds(X: np.ndarray, bounds: tuple[float, float] | None) -> np.ndarray:
    if bounds is None:
        return X
    return np.clip(X, bounds[0], bounds[1])


def _ball_bounds(X: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-element clip bounds whose recomputed offset never exceeds epsilon.

    X + epsilon can round upward, in which case clipping to it leaves an
    iterate whose measured distance (hi - X) is one ulp above the budget.
    Walking such entries back by one float keeps the l-infinity contract
    exact under recomputation.
    """
    hi = X + epsilon
    over = (hi - X) > epsilon
    while np.any(over):
        hi[over] = np.nextafter(hi[over], -np.inf)
        over = (hi - X) > epsilon
    lo = X - epsilon
    under = (X - lo) > epsilon
    while np.any(under):
        lo[under] = np.nextafter(lo[under], np.inf)
        under = (X - lo) > epsilon
    return lo, hi


def _check_finite(X: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(X)):
        raise ValueError("attack inputs must be finite")
    return X


def _check_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    return y


def fgsm(net: Network, x, y, epsilon: float, input_bounds=None) -> np.ndarray:
    """Single signed-gradient step of size epsilon; sign(0) moves nothing.

    Accepts one sample (1-D x, scalar y) or a batch (2-D x, label vector);
    the batch form shares its gradient path with pgd_batch so a one-step
    PGD without random start reproduces it bit for bit.
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError("epsilon must be finite and non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return fgsm(net, x[None, :], np.array([float(y)]), epsilon, input_bounds)[0]
    x = _check_finite(x)
    y = np.asarray(y, dtype=np.float64)
    g = grad_input_batch(net, x, y)
    lo, hi = _ball_bounds(x, epsilon)
    out = np.clip(x + epsilon * np.sign(g), lo, hi)
    return _clamp_bounds(out, input_bounds)


def pgd_batch(
    net: Network, X, y, cfg: AttackConfig, rng_seed: int, on_step=None
) -> np.ndarray:
    """PGD over a batch of rows; row i uses seed rng_seed XOR i for its start."""
    X = _check_finite(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    lo, hi = _ball_bounds(X, cfg.epsilon)
    cur = X.copy()
    if cfg.random_start and cfg.epsilon > 0:
        for i in range(X.shape[0]):
            rng = np.random.default_rng(int(rng_seed) ^ i)
            cur[i] += rng.uniform(-cfg.epsilon, cfg.epsilon, size=X.shape[1])
        cur = _clamp_bounds(np.clip(cur, lo, hi), cfg.input_bounds)
    for step in range(cfg.steps):
        g = grad_input_batch(net, cur, y)
        cur = np.clip(cur + cfg.step_size * np.sign(g), lo, hi)
        cur = _clamp_bounds(cur, cfg.input_bounds)
        if on_step is not None:
            on_step(step, cur)
    return cur


def pgd(net: Network, x, y: float, cfg: AttackConfig, rng_seed: int, on_step=None) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = pgd_batch(net, x[None, :], np.array([float(y)]), cfg, rng_seed,
                    None if on_step is None else lambda s, c: on_step(s, c[0]))
    return out[0]


def clean_accuracy(net: Network, X, y) -> float:
    y = _check_labels(y)
    f = forward_batch(net, X).f
    return float(np.mean(np.sign(f) == y))


def robust_accuracy(net: Network, X, y, cfg: AttackConfig, rng_seed: int,
                    on_step=None) -> float:
    """Accuracy against the worse (by loss) of each sample's clean and
    attacked views.

    Falling back to the clean view when the attack fails to raise the loss
    removes attack-failure noise; requiring the clean view to be correct as
    well keeps robust accuracy <= clean accuracy exactly, even when a
    higher-loss candidate happens to overshoot onto the correct side.  With
    epsilon = 0 the two views coincide and this equals clean accuracy.
    """
    X = np.asarray(X, dtype=np.float64)
    y = _check_labels(y)
    if X.shape[0] == 0:
        raise ValueError("robust_accuracy needs at least one sample")
    adv = pgd_batch(net, X, y, cfg, rng_seed, on_step)
    f_clean = forward_batch(net, X).f
    f_adv = forward_batch(net, adv).f
    f_worst = np.where((f_adv - y) ** 2 >= (f_clean - y) ** 2, f_adv, f_clean)
    ok = (np.sign(f_clean) == y) & (np.sign(f_worst) == y)
    return float(np.mean(ok))


def adversarial_loss(net: Network, x, y: float, cfg: AttackConfig, rng_seed: int) -> float:
    """Worst of the clean and attacked per-sample losses (never below clean)."""
    x = np.asarray(x, dtype=np.float64)
    adv = pgd(net, x, y, cfg, rng_seed)
    f_clean = forward_batch(net, x[None, :]).f[0]
    f_adv = forward_batch(net, adv[None, :]).f[0]
    y = float(y)
    return max(0.5 * (f_clean - y) ** 2, 0.5 * (f_adv - y) ** 2)
