"""Curvature-tunable activations and their first two derivatives.

The tunable family is built from a scaled softplus base by repeatedly
applying the map sigma -> sigma' * x:

    beta = 0:   softplus(alpha*x) / alpha      peak |sigma''| = alpha / 4
    beta = 1:   x * logistic(alpha*x)          peak |sigma''| = alpha / 2
    beta = 2:   x * d/dx[beta=1 member]        peak |sigma''| = alpha

All three peaks sit at x = 0 and sigma'' is even, so alpha dials the
maximum curvature of the activation directly.  The baselines are the
other kinds of ActivationSpec (relu, leaky_relu, elu, gelu, swish, mish,
softplus), with matching derivatives where they exist.  Softplus and
Swish are the family members with alpha = 1 and beta = 0, 1, bit for bit
(multiplying by alpha = 1.0 is exact).
max_abs_d2 gives every kind's peak of |sigma''| in closed form (ELU and
GELU peak at x = 0 too) but Mish's, which takes a bounded scalar search.

One kernel per kind, _kernel(spec, x, order), returns sigma up to its
order-th derivative; value, d1 and d2 are that kernel behind a finiteness
check, and the network asks it for the order its caller needs.  The
family's closed forms exist once, in _family, which also takes alpha as
an array so a network stack evaluates each run of members that share a
beta in one call.

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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, expit

from .errors import UnsupportedActivationError
from .record import Record

KINDS = ("rct_af", "relu", "leaky_relu", "elu", "gelu", "swish", "mish", "softplus")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# The family's peak |sigma''| is alpha / _PEAK_DIVISORS[beta], at x = 0.
_PEAK_DIVISORS = (4.0, 2.0, 1.0)


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
            # An integral float such as 1.0 passes the test above; beta indexes tuples.
            object.__setattr__(self, "beta", int(self.beta))
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


def rct_af(alpha: float, beta: int) -> ActivationSpec:
    return ActivationSpec("rct_af", alpha=float(alpha), beta=beta)


@dataclass(frozen=True, eq=False)
class FamilyStack:
    """The hidden activations of a network stack: family members side by
    side, alpha an (S, 1, 1) array and beta an (S,) int array with one
    entry per member.

    runs lists (beta, start, stop) for each run of consecutive members
    that share a beta, worked out once here; an empty stack is one empty
    run.
    """

    alpha: np.ndarray
    beta: np.ndarray
    runs: tuple[tuple[int, int, int], ...] = field(init=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.int64)
        cuts = [0, *(np.flatnonzero(np.diff(beta)) + 1).tolist(), len(beta)]
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "runs", tuple(
            (int(beta[lo]) if lo < hi else 0, lo, hi) for lo, hi in zip(cuts, cuts[1:])))


def _check_input(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activation input must be finite")
    return arr


def _ret(arr_in: np.ndarray, out: np.ndarray):
    return float(out) if arr_in.ndim == 0 else out


def _sgm(t: np.ndarray, with_m: bool):
    """logistic s, symmetric product g = s*(1-s) and, when with_m is set,
    difference m = 1 - 2s (else None)."""
    sp = expit(t)
    sn = expit(-t)
    return sp, sp * sn, (sn - sp if with_m else None)


def value(spec: ActivationSpec, x):
    """Evaluate sigma(x).  Accepts a scalar or an ndarray."""
    arr = _check_input(x)
    return _ret(arr, _kernel(spec, arr, 0)[0])


def d1(spec: ActivationSpec, x):
    """First derivative sigma'(x).

    ReLU and LeakyReLU return the right-hand derivative at their kink and
    emit a SubgradientWarning there.
    """
    arr = _check_input(x)
    return _ret(arr, _kernel(spec, arr, 1)[1])


def d2(spec: ActivationSpec, x):
    """Second derivative sigma''(x).

    Raises UnsupportedActivationError for ReLU and LeakyReLU, whose second
    derivative is a point mass at the kink.  ELU returns the left limit 1.0
    at x = 0 so that sup |sigma''| = 1 is attained.
    """
    arr = _check_input(x)
    return _ret(arr, _kernel(spec, arr, 2)[2])


# softplus and swish run as the family members with alpha = 1 and beta = 0, 1.
_AS_FAMILY = {"softplus": rct_af(1.0, 0), "swish": rct_af(1.0, 1)}


def _family(a, b: int, x: np.ndarray, order: int) -> list[np.ndarray]:
    """[sigma, sigma', sigma''][:order + 1] of the family member (a, b) at x.

    a is a float, or an array that broadcasts against x to evaluate
    members of one beta side by side (alpha of shape (S, 1, 1) against an
    (S, n, width) input); each element gets the bits its own float alpha
    would give.
    """
    t = a * x
    if b == 0:
        out = [np.logaddexp(0.0, t) / a]
        if order:
            s = expit(t)
            out.append(s)
            if order == 2:
                out.append(a * (s * expit(-t)))
    elif b == 1 and order == 0:
        out = [x * expit(t)]
    else:
        # m enters sigma'' of beta = 1 and sigma' of beta = 2.
        s, g, m = _sgm(t, with_m=order == 2 or (b == 2 and order == 1))
        if b == 1:
            out = [x * s, s + t * g]
            if order == 2:
                out.append(a * g * (2.0 + t * m))
        else:
            out = [(s + t * g) * x]
            if order:
                out.append(s + 3.0 * t * g + t * t * g * m)
                if order == 2:
                    out.append(a * g * (4.0 + 5.0 * t * m + t * t * (m * m - 2.0 * g)))
    return out


def _kernel(spec: ActivationSpec, x: np.ndarray, order: int) -> list[np.ndarray]:
    """[sigma, sigma', sigma''][:order + 1] at x, a float64 array already
    checked for finiteness.  Each kind computes its shared terms once, and
    no order evaluates a term above its own.
    """
    if isinstance(spec, FamilyStack):
        # x has a leading member axis; each run evaluates on a view of it.
        parts = [_family(spec.alpha[lo:hi], b, x[lo:hi], order) for b, lo, hi in spec.runs]
        return parts[0] if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)]
    spec = _AS_FAMILY.get(spec.kind, spec)
    k = spec.kind
    if k == "rct_af":
        return _family(spec.alpha, spec.beta, x, order)
    if k in ("relu", "leaky_relu"):
        if order == 2:
            raise UnsupportedActivationError(f"{k} has no pointwise second derivative")
        out = [np.maximum(x, 0.0) if k == "relu" else np.where(x > 0, x, spec.slope * x)]
        if order:
            if np.any(x == 0.0):
                warnings.warn(f"{k} is not differentiable at x = 0; returning the "
                              "right-hand derivative", SubgradientWarning, stacklevel=3)
            out.append(np.where(x >= 0, 1.0, 0.0 if k == "relu" else spec.slope))
    elif k == "elu":
        pos = x > 0
        neg = np.minimum(x, 0.0)
        out = [np.where(pos, x, np.expm1(neg))]
        if order:
            e = np.exp(neg)
            out.append(np.where(pos, 1.0, e))
            if order == 2:
                out.append(np.where(pos, 0.0, e))
    elif k == "gelu":
        cdf2 = 1.0 + erf(x / _SQRT2)  # twice the normal cdf
        out = [x * 0.5 * cdf2]
        if order:
            phi = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
            out.append(0.5 * cdf2 + x * phi)
            if order == 2:
                out.append(phi * (2.0 - x * x))
    else:  # mish
        th = np.tanh(np.logaddexp(0.0, x))
        out = [x * th]
        if order:
            s = expit(x)
            sech2 = 1.0 - th * th
            out.append(th + x * sech2 * s)
            if order == 2:
                out.append(sech2 * s * (2.0 + x * ((1.0 - s) - 2.0 * th * s)))
    return out


@dataclass(frozen=True)
class CurvatureProfile:
    """Location and size of the largest |sigma''|; max_abs_d2 = inf for kinks."""

    spec: ActivationSpec
    argmax_x: float
    max_abs_d2: float

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.max_abs_d2)


# Kinds outside the family whose |sigma''| peaks at x = 0.  relu and
# leaky_relu: sigma'' is a point mass at the kink, so the peak is +inf.
# elu: sigma'' is e^x for x < 0 and 0 for x > 0, so its supremum is the
# left limit 1 at 0 (d2 returns it there).  gelu: sigma'' = phi(x) *
# (2 - x^2), whose derivative -x * phi(x) * (4 - x^2) vanishes at 0 and
# +-2, where |sigma''| is 2*phi(0) = 2/sqrt(2*pi) and 2*phi(2) ~ 0.108.
_PEAKS_AT_ORIGIN = {"relu": math.inf, "leaky_relu": math.inf,
                    "elu": 1.0, "gelu": 2.0 * _INV_SQRT_2PI}


def max_abs_d2(spec: ActivationSpec) -> CurvatureProfile:
    """Location and size of the maximum of |sigma''|.

    Every kind but mish peaks in closed form: the tunable family, softplus
    and swish among it, at x = 0 with alpha/4, alpha/2 or alpha for beta 0,
    1 or 2; elu at x = 0 with 1; gelu at x = 0 with 2/sqrt(2*pi).
    ReLU-style kinks report +inf at the kink location.  mish alone takes
    a bounded scalar search on [-1, 1].
    """
    if spec.kind in _PEAKS_AT_ORIGIN:
        return CurvatureProfile(spec, 0.0, _PEAKS_AT_ORIGIN[spec.kind])
    member = _AS_FAMILY.get(spec.kind, spec)
    if member.kind == "rct_af":
        return CurvatureProfile(spec, 0.0, float(member.alpha / _PEAK_DIVISORS[member.beta]))
    # mish: |sigma''| is unimodal on [-1, 1] and holds its global peak there
    # (0.644 near x = -0.088; the other local maxima are 0.042 near -3.27 and
    # 0.059 near 2.11).  The default xatol of 1e-5 leaves the argmax 1.4e-6
    # off; 1e-10 runs to float64's resolution of a flat peak.  scipy.optimize
    # is imported here, not at module top, because it adds about 0.2 s to
    # every fresh `import curvact`.
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda x: -abs(d2(spec, x)), bounds=(-1.0, 1.0),
                          method="bounded", options={"xatol": 1e-10})
    return CurvatureProfile(spec, float(res.x), float(-res.fun))


def alpha_for_curvature(beta: int, target: float) -> float:
    """Alpha whose family member has max |sigma''| equal to target."""
    if beta not in (0, 1, 2):
        raise ValueError("beta must be in {0, 1, 2}")
    if not math.isfinite(target) or target <= 0:
        raise ValueError("curvature target must be finite and positive")
    return _PEAK_DIVISORS[int(beta)] * target
