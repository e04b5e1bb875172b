"""Curvature-tunable activations and their first two derivatives.

The tunable family is built from a scaled softplus base by repeatedly
applying the map sigma -> sigma' * x:

    beta = 0:   softplus(alpha*x) / alpha      peak |sigma''| = alpha / 4
    beta = 1:   x * logistic(alpha*x)          peak |sigma''| = alpha / 2
    beta = 2:   x * d/dx[beta=1 member]        peak |sigma''| = alpha

All three peaks sit at x = 0 and sigma'' is even, so alpha dials the
maximum curvature of the activation directly.  Baselines (ReLU, LeakyReLU,
ELU, GELU, Swish, Mish, Softplus) come with matching derivatives where
they exist.

Derivatives for beta = 1, 2 are closed forms in s = logistic(alpha*x),
g = s * (1 - s) and m = 1 - 2s:

    beta = 1:  sigma'  = s + t*g                          (t = alpha*x)
               sigma'' = alpha * g * (2 + t*m)
    beta = 2:  sigma'  = s + 3*t*g + t^2*g*m
               sigma'' = alpha * g * (4 + 5*t*m + t^2*(m^2 - 2*g))

Numerical notes: g is computed as logistic(t) * logistic(-t) and m as
logistic(-t) - logistic(t), which keeps both exact mirror images of
themselves in floating point, so sigma''(x) == sigma''(-x) bitwise and
nothing overflows for alpha = 50, |x| <= 100.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit

from .errors import UnsupportedActivationError
from .record import Record

KINDS = ("rct_af", "relu", "leaky_relu", "elu", "gelu", "swish", "mish", "softplus")

# Activations with a continuous second derivative on all of R.  ELU is
# excluded: its second derivative jumps from 1 to 0 at x = 0 (we report the
# left limit there so the supremum is attained on a grid).
C2_KINDS = ("rct_af", "gelu", "swish", "mish", "softplus")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class SubgradientWarning(UserWarning):
    """Emitted when d1 is evaluated exactly at a kink of a piecewise activation."""


@dataclass(frozen=True)
class ActivationSpec(Record):
    """Tagged description of one activation function.

    kind "rct_af" requires alpha > 0 and beta in {0, 1, 2}; "leaky_relu"
    takes a negative-side slope (default 0.01); the remaining kinds are
    parameter-free.
    """

    kind: str
    alpha: float | None = None
    beta: int | None = None
    slope: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "rct_af":
            if self.alpha is None or not math.isfinite(self.alpha) or self.alpha <= 0:
                raise ValueError("rct_af requires finite alpha > 0")
            if self.beta not in (0, 1, 2):
                raise ValueError("rct_af requires beta in {0, 1, 2}")
        else:
            if self.alpha is not None or self.beta is not None:
                raise ValueError(f"{self.kind} takes no alpha/beta parameters")
        if self.kind == "leaky_relu":
            if self.slope is None:
                object.__setattr__(self, "slope", 0.01)
            elif not math.isfinite(self.slope) or self.slope <= 0:
                raise ValueError("leaky_relu slope must be finite and positive")
        elif self.slope is not None:
            raise ValueError(f"{self.kind} takes no slope parameter")

    @property
    def twice_differentiable(self) -> bool:
        return self.kind not in ("relu", "leaky_relu")


def rct_af(alpha: float, beta: int) -> ActivationSpec:
    return ActivationSpec("rct_af", alpha=float(alpha), beta=int(beta))


def relu() -> ActivationSpec:
    return ActivationSpec("relu")


def leaky_relu(slope: float = 0.01) -> ActivationSpec:
    return ActivationSpec("leaky_relu", slope=float(slope))


def elu() -> ActivationSpec:
    return ActivationSpec("elu")


def gelu() -> ActivationSpec:
    return ActivationSpec("gelu")


def swish() -> ActivationSpec:
    return ActivationSpec("swish")


def mish() -> ActivationSpec:
    return ActivationSpec("mish")


def softplus() -> ActivationSpec:
    return ActivationSpec("softplus")


def _check_input(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activation input must be finite")
    return arr


def _ret(arr_in: np.ndarray, out: np.ndarray):
    return float(out) if arr_in.ndim == 0 else out


def _sgm(t: np.ndarray):
    """logistic s, symmetric product g = s*(1-s) and difference m = 1 - 2s."""
    sp = expit(t)
    sn = expit(-t)
    return sp, sp * sn, sn - sp


def value(spec: ActivationSpec, x):
    """Evaluate sigma(x).  Accepts a scalar or an ndarray."""
    arr = _check_input(x)
    return _ret(arr, _value(spec, arr))


def d1(spec: ActivationSpec, x):
    """First derivative sigma'(x).

    ReLU and LeakyReLU return the right-hand derivative at their kink and
    emit a SubgradientWarning there.
    """
    arr = _check_input(x)
    return _ret(arr, _d1(spec, arr))


# The kernels below take a float64 array the caller has already checked for
# finiteness; the network checks each pre-activation once, where it is made.


def _shares_logistic(spec: ActivationSpec) -> bool:
    return spec.kind == "swish" or (spec.kind == "rct_af" and spec.beta > 0)


def _value_d1(spec: ActivationSpec, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma and sigma' together, from one logistic evaluation where both use
    it; bit for bit the same as _value and _d1."""
    if not _shares_logistic(spec):
        return _value(spec, arr), _d1(spec, arr)
    t = arr if spec.kind == "swish" else spec.alpha * arr
    s, g, m = _sgm(t)
    if spec.kind == "rct_af" and spec.beta == 2:
        return (s + t * g) * arr, s + 3.0 * t * g + t * t * g * m
    return arr * s, s + t * g


def _value(spec: ActivationSpec, arr: np.ndarray) -> np.ndarray:
    k = spec.kind
    if k == "rct_af":
        t = spec.alpha * arr
        if spec.beta == 0:
            out = np.logaddexp(0.0, t) / spec.alpha
        elif spec.beta == 1:
            out = arr * expit(t)
        else:
            s, g, _ = _sgm(t)
            out = (s + t * g) * arr
    elif k == "relu":
        out = np.maximum(arr, 0.0)
    elif k == "leaky_relu":
        out = np.where(arr > 0, arr, spec.slope * arr)
    elif k == "elu":
        out = np.where(arr > 0, arr, np.expm1(np.minimum(arr, 0.0)))
    elif k == "gelu":
        out = arr * 0.5 * (1.0 + erf(arr / _SQRT2))
    elif k == "swish":
        out = arr * expit(arr)
    elif k == "mish":
        out = arr * np.tanh(np.logaddexp(0.0, arr))
    else:  # softplus
        out = np.logaddexp(0.0, arr)
    return out


def _d1(spec: ActivationSpec, arr: np.ndarray) -> np.ndarray:
    k = spec.kind
    if _shares_logistic(spec):
        out = _value_d1(spec, arr)[1]
    elif k == "rct_af":  # beta = 0
        out = expit(spec.alpha * arr)
    elif k in ("relu", "leaky_relu"):
        if np.any(arr == 0.0):
            warnings.warn(
                f"{k} is not differentiable at x = 0; returning the "
                "right-hand derivative",
                SubgradientWarning,
                stacklevel=3,
            )
        neg = 0.0 if k == "relu" else spec.slope
        out = np.where(arr >= 0, 1.0, neg)
    elif k == "elu":
        out = np.where(arr > 0, 1.0, np.exp(np.minimum(arr, 0.0)))
    elif k == "gelu":
        phi = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
        out = 0.5 * (1.0 + erf(arr / _SQRT2)) + arr * phi
    elif k == "mish":
        sp = np.logaddexp(0.0, arr)
        th = np.tanh(sp)
        out = th + arr * (1.0 - th * th) * expit(arr)
    else:  # softplus
        out = expit(arr)
    return out


def d2(spec: ActivationSpec, x):
    """Second derivative sigma''(x).

    Raises UnsupportedActivationError for ReLU and LeakyReLU, whose second
    derivative is a point mass at the kink.  ELU returns the left limit 1.0
    at x = 0 so that sup |sigma''| = 1 is attained.
    """
    if not spec.twice_differentiable:
        raise UnsupportedActivationError(f"{spec.kind} has no pointwise second derivative")
    arr = _check_input(x)
    k = spec.kind
    if k == "rct_af":
        t = spec.alpha * arr
        _, g, m = _sgm(t)
        if spec.beta == 0:
            out = spec.alpha * g
        elif spec.beta == 1:
            out = spec.alpha * g * (2.0 + t * m)
        else:
            out = spec.alpha * g * (4.0 + 5.0 * t * m + t * t * (m * m - 2.0 * g))
    elif k == "elu":
        out = np.where(arr > 0, 0.0, np.exp(np.minimum(arr, 0.0)))
    elif k == "gelu":
        phi = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
        out = phi * (2.0 - arr * arr)
    elif k == "swish":
        _, g, m = _sgm(arr)
        out = g * (2.0 + arr * m)
    elif k == "mish":
        sp = np.logaddexp(0.0, arr)
        th = np.tanh(sp)
        s = expit(arr)
        out = (1.0 - th * th) * s * (2.0 + arr * ((1.0 - s) - 2.0 * th * s))
    else:  # softplus
        _, g, _ = _sgm(arr)
        out = g
    return _ret(arr, out)


@dataclass(frozen=True)
class CurvatureProfile:
    """Location and size of the largest |sigma''|; max_abs_d2 = inf for kinks."""

    spec: ActivationSpec
    argmax_x: float
    max_abs_d2: float

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.max_abs_d2)


def _symmetric_grid(half_width: float, n: int) -> np.ndarray:
    # Built so that exactly 0.0 is a grid point: peaks at the origin are hit.
    half_n = n // 2
    step = half_width / half_n
    return (np.arange(2 * half_n + 1) - half_n) * step


def _golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of fn on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(120):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        if b - a <= 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    x = (a + b) / 2.0
    return x, fn(x)


def max_abs_d2(spec: ActivationSpec, grid_points: int = 4001) -> CurvatureProfile:
    """Grid-plus-refinement search for the maximum of |sigma''|.

    For the tunable family the analytic peak (alpha/4, alpha/2 or alpha at
    x = 0) is returned after verifying no grid point beats it.  ReLU-style
    kinks report +inf at the kink location.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    if spec.kind in ("relu", "leaky_relu"):
        return CurvatureProfile(spec, 0.0, math.inf)

    def score(x: float) -> float:
        return abs(d2(spec, x))

    if spec.kind == "rct_af":
        analytic = spec.alpha / (4.0, 2.0, 1.0)[spec.beta]
        xs = _symmetric_grid(20.0 / spec.alpha, max(grid_points, 4001))
    else:
        analytic = None
        xs = _symmetric_grid(20.0, max(grid_points, 4001))

    vals = np.abs(d2(spec, xs))
    k = int(np.argmax(vals))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    x_ref, v_ref = _golden_max(score, float(lo), float(hi))
    if v_ref >= vals[k]:
        best_x, best_v = x_ref, v_ref
    else:
        best_x, best_v = float(xs[k]), float(vals[k])

    if analytic is not None:
        if best_v > analytic * (1.0 + 1e-9):
            raise ArithmeticError(
                f"grid search found |sigma''| = {best_v!r} above the analytic "
                f"peak {analytic!r} for {spec}"
            )
        return CurvatureProfile(spec, 0.0, float(analytic))
    return CurvatureProfile(spec, best_x, best_v)


def alpha_for_curvature(beta: int, target: float) -> float:
    """Alpha whose family member has max |sigma''| equal to target."""
    if beta not in (0, 1, 2):
        raise ValueError("beta must be in {0, 1, 2}")
    if not math.isfinite(target) or target <= 0:
        raise ValueError("curvature target must be finite and positive")
    return (4.0, 2.0, 1.0)[beta] * target
