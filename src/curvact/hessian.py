"""Exact diagonal of the squared-loss Hessian for scalar-output networks.

For a parameter theta_k in layer l feeding neuron i, the loss-Hessian
diagonal splits into a Gauss-Newton square and a residual-weighted
curvature term:

    H_kk = (delta_i^(l) * c_k)^2 + (f - y) * c_k^2 * D_i^(l)

where c_k is the incoming activation h_j^(l-1) for a weight and 1 for a
bias.  D_i^(l) is the total second derivative of f with respect to z_i^(l)
and obeys a backward recursion seeded with D^(L) = 0:

    D_i^(l) = sigma''(z_i^(l)) * S_i^(l)
              + sigma'(z_i^(l))^2 * (sum_t D_t^(l+1) * (W_ti^(l+1))^2
                                     + [W^(l+1)^T Off^(l+1) W^(l+1)]_ii)
    S_i^(l) = sum_t delta_t^(l+1) * W_ti^(l+1)

S is always accumulated as the direct weighted sum above, never as
delta/sigma', so saturated units cannot produce 0/0.

Exactness range: D^(l) is the diagonal of the full matrix of second
derivatives of f with respect to z^(l), and Off^(l) is that matrix's
off-diagonal part, which couples sibling neurons of one hidden layer
through shared downstream units:

    Off^(l) = offdiag(sigma'^(l) sigma'^(l)^T
                      * W^(l+1)^T (diag(D^(l+1)) + Off^(l+1)) W^(l+1))

(the full-matrix curvature backpropagation of Martens, Sutskever &
Swersky, ICML 2012, split into its diagonal and the rest).  Off is
structurally zero at the top hidden layer, because the output is linear,
and nothing consumes it at the first hidden layer, so it is formed only
in between: nets with at most two hidden layers run the per-neuron
recursion alone, and deeper nets add the coupling term.  The recursion is
exact at any depth; the tests cross-check it against the dense
full-matrix propagation and against finite differences.

The recursion and the assembly of the diagonal run over a batch of input
rows at once (Off is then an (N, n, n) array).  hessian_diag_exact is the
batch-of-one view, and dataset_diag_norm walks a dataset in fixed blocks
of rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import activations as act
from .errors import UnsupportedActivationError
# forward and backprop_deltas are not used here; they stay importable from
# this module because the benchmark's span tracer wraps them at this name.
from .network import (  # noqa: F401
    BatchTrace,
    Network,
    _as_row,
    backprop_deltas,
    batch_deltas,
    flat_params,
    forward,
    forward_batch,
    grad_params,
    loss,
    param_layout,
    replace_params,
)

# Rows per block in dataset_diag_norm: enough to amortize the per-call
# overhead while the (rows, parameters) working arrays stay small.
_BLOCK_ROWS = 32


def _require_twice_differentiable(net: Network) -> None:
    if not net.activation.twice_differentiable:
        raise UnsupportedActivationError(
            f"{net.activation.kind} lacks the second derivative needed here"
        )


def _curvature_rows(net: Network, trace: BatchTrace,
                    delta: list[np.ndarray]) -> list[np.ndarray]:
    """D^(l) per layer over the rows of trace; D^(L) is all zeros."""
    L = net.depth
    d = [None] * L
    d[L - 1] = np.zeros((trace.f.shape[0], 1))
    off = None  # Off^(l+1), (rows, n, n); None where it is zero or unused
    for l in range(L - 2, -1, -1):
        W_next = net.weights[l + 1]
        s = delta[l + 1] @ W_next
        sig1 = trace.d1[l]
        sig2 = act.d2(net.activation, trace.z[l])
        back = d[l + 1] @ (W_next * W_next)
        if off is not None:
            off_w = off @ W_next
            back = back + (W_next * off_w).sum(axis=1)
        d[l] = sig2 * s + sig1 * sig1 * back
        if 0 < l < L - 2:
            h_w = d[l + 1][:, :, None] * W_next  # (diag(D) + Off) @ W
            if off is not None:
                h_w += off_w
            off = (W_next.T @ h_w) * (sig1[:, :, None] * sig1[:, None, :])
            idx = np.arange(sig1.shape[1])
            off[:, idx, idx] = 0.0
    return d


def _diag_rows(net: Network, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Hessian diagonal of every row's loss: (diag, gauss-newton part,
    residual part), each (rows, p), and the residuals f - y."""
    _require_twice_differentiable(net)
    trace = forward_batch(net, X, with_d1=True)
    delta = batch_deltas(net, trace)
    D = _curvature_rows(net, trace, delta)
    residual = trace.f - y
    n = residual.shape[0]
    gn_parts, res_parts = [], []
    for l in range(net.depth):
        dl_sq = delta[l] * delta[l]
        h_prev_sq = trace.h[l] * trace.h[l]
        gn_parts += [(dl_sq[:, :, None] * h_prev_sq[:, None, :]).reshape(n, -1), dl_sq]
        D_h = (D[l][:, :, None] * h_prev_sq[:, None, :]).reshape(n, -1)
        res_parts += [residual[:, None] * D_h, residual[:, None] * D[l]]
    gn = np.concatenate(gn_parts, axis=1)
    res = np.concatenate(res_parts, axis=1)
    return gn + res, gn, res, residual


@dataclass
class HessianDiagReport:
    """Exact Hessian diagonal split into its two parts.

    diag = gauss_newton_part + residual_part elementwise; residual is the
    signed f - y; normalized_norm is sqrt(mean(diag^2)).
    """

    diag: np.ndarray
    gauss_newton_part: np.ndarray
    residual_part: np.ndarray
    residual: float
    normalized_norm: float

    def to_dict(self) -> dict:
        return {
            "diag": self.diag.tolist(),
            "gauss_newton_part": self.gauss_newton_part.tolist(),
            "residual_part": self.residual_part.tolist(),
            "residual": self.residual,
            "normalized_norm": self.normalized_norm,
        }


def write_report_csv(report: HessianDiagReport, net: Network, path) -> None:
    """One row per parameter: index, layer, kind and the diagonal split."""
    layout = param_layout(net)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter_index", "layer", "kind", "diag", "gn", "residual_part"])
        for k, (layer, kind) in enumerate(layout):
            writer.writerow(
                [k, layer, kind, repr(float(report.diag[k])),
                 repr(float(report.gauss_newton_part[k])),
                 repr(float(report.residual_part[k]))]
            )


def hessian_diag_exact(net: Network, x, y: float) -> HessianDiagReport:
    """Loss-Hessian diagonal for one sample via the backward D-recursion,
    exact at any depth; see the module notes for the sibling-coupling term."""
    diag, gn, res, residual = _diag_rows(net, _as_row(x), np.array([float(y)]))
    return HessianDiagReport(diag[0], gn[0], res[0], float(residual[0]),
                             normalized_diag_norm(diag[0], net.param_count))


def hessian_diag_fd(net: Network, x, y: float, h: float = 1e-4) -> np.ndarray:
    """Second central difference of the loss along each parameter axis."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    theta = flat_params(net)
    base = loss(net, x, y)
    out = np.empty(theta.shape[0])
    for k in range(theta.shape[0]):
        bumped = theta.copy()
        bumped[k] = theta[k] + h
        up = loss(replace_params(net, bumped), x, y)
        bumped[k] = theta[k] - h
        down = loss(replace_params(net, bumped), x, y)
        out[k] = (up - 2.0 * base + down) / (h * h)
    return out


def hessian_diag_fd_grad(net: Network, x, y: float, h: float = 1e-5) -> np.ndarray:
    """First central difference of the analytic gradient; second oracle."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    theta = flat_params(net)
    out = np.empty(theta.shape[0])
    for k in range(theta.shape[0]):
        bumped = theta.copy()
        bumped[k] = theta[k] + h
        up = grad_params(replace_params(net, bumped), x, y)[k]
        bumped[k] = theta[k] - h
        down = grad_params(replace_params(net, bumped), x, y)[k]
        out[k] = (up - down) / (2.0 * h)
    return out


def normalized_diag_norm(diag, p: int) -> float:
    """Root mean square of the diagonal entries: sqrt(sum(diag^2) / p)."""
    diag = np.asarray(diag, dtype=np.float64)
    if p < 1:
        raise ValueError("parameter count must be positive")
    if diag.shape != (p,):
        raise ValueError(f"expected a diagonal of length {p}")
    return float(np.sqrt(np.mean(diag * diag)))


def dataset_diag_norm(
    net: Network, X, y, reduction: str = "mean_diag_then_norm"
) -> float:
    """Aggregate diagonal norm over a dataset.

    mean_diag_then_norm averages the per-sample diagonal vectors and takes
    the norm of the mean; mean_of_norms averages per-sample norms.  Samples
    are evaluated in blocks of rows and summed in sample order.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValueError("expected matching, nonempty inputs and labels")
    if reduction not in ("mean_diag_then_norm", "mean_of_norms"):
        raise ValueError(f"unknown reduction {reduction!r}")
    p = net.param_count
    acc = np.zeros(p)
    total = 0.0
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        diag = _diag_rows(net, X[rows], y[rows])[0]
        if reduction == "mean_diag_then_norm":
            for row in diag:
                acc += row
        else:
            for norm in np.sqrt(np.mean(diag * diag, axis=1)):
                total += float(norm)
    if reduction == "mean_diag_then_norm":
        return normalized_diag_norm(acc / X.shape[0], p)
    return total / X.shape[0]
