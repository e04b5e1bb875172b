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

sigma' and sigma'' come from the forward pass, run at derivative order 2,
so each hidden layer's activation is evaluated once.

The recursion and the assembly of the diagonal run over a batch of input
rows at once (Off is then an (N, n, n) array).  hessian_diag_exact is the
batch-of-one view, and dataset_diag_norm walks a dataset in fixed blocks
of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# forward and backprop_deltas are not used here; they stay importable from
# this module because the benchmark's span tracer wraps them at this name.
from .network import (  # noqa: F401
    BatchTrace,
    Network,
    NetworkStack,
    _as_row,
    batch_deltas,
    batch_deltas as backprop_deltas,
    flat_params,
    forward,
    forward_batch,
    grad_params_batch,
    loss,
    mean_loss,
    stack_params,
)

FD_STEP = 1e-4  # step of hessian_diag_fd, hessian-check's loss oracle

# Rows per block in dataset_diag_norm: enough to amortize the per-call
# overhead while the (rows, parameters) working arrays stay small.
_BLOCK_ROWS = 32

# Bumped networks per block in the finite-difference oracles: one pass
# over a block costs a handful of numpy calls, and its (members,
# parameters) arrays keep memory O(block * p) for a net of any size.
_FD_BLOCK = 256


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
        sig2 = trace.d2[l]
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
    residual part), each (rows, p), and the residuals f - y.  The order-2
    forward pass raises UnsupportedActivationError for ReLU and LeakyReLU."""
    trace = forward_batch(net, X, order=2)
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


def hessian_diag_exact(net: Network, x, y: float) -> HessianDiagReport:
    """Loss-Hessian diagonal for one sample via the backward D-recursion,
    exact at any depth; see the module notes for the sibling-coupling term."""
    diag, gn, res, residual = _diag_rows(net, _as_row(x), np.array([float(y)]))
    return HessianDiagReport(diag[0], gn[0], res[0], float(residual[0]),
                             normalized_diag_norm(diag[0]))


def _fd_pairs(net: Network, h: float, evaluate) -> tuple[np.ndarray, np.ndarray]:
    """evaluate at theta[k] + h and at theta[k] - h for every parameter k:
    two length-p arrays.

    The 2p bumped parameter vectors are the rows of one (2p, p) array, rows
    2k and 2k + 1 holding theta[k] + h and theta[k] - h.  Each block of
    _FD_BLOCK rows is one network stack sharing net's activation;
    evaluate(stack, k) returns one value per member, where k is the index
    each member bumps.  A member's value equals the same call on that
    network alone bit for bit.
    """
    theta = flat_params(net)
    rows = np.arange(2 * theta.size)
    k = rows // 2
    bumped = np.where(rows % 2 == 0, theta[k] + h, theta[k] - h)
    vals = np.empty(rows.size)
    for lo in range(0, rows.size, _FD_BLOCK):
        blk = rows[lo:lo + _FD_BLOCK]
        params = np.tile(theta, (blk.size, 1))
        params[np.arange(blk.size), k[blk]] = bumped[blk]
        vals[blk] = evaluate(stack_params(net, params), k[blk])
    return vals[0::2], vals[1::2]


def hessian_diag_fd(net: Network, x, y: float) -> np.ndarray:
    """Second central difference of the loss along each axis, step FD_STEP."""
    h = FD_STEP
    X, Y = _as_row(x), np.array([float(y)])
    up, down = _fd_pairs(net, h, lambda stack, k: mean_loss(stack, X, Y))
    return (up - 2.0 * loss(net, x, y) + down) / (h * h)


def _own_grad_entry(stack: NetworkStack, X, Y, k: np.ndarray) -> np.ndarray:
    """Entry k[s] of member s's flat loss gradient, for every member s."""
    S = len(stack)
    flat = np.concatenate([part.reshape(S, -1) for layer in grad_params_batch(stack, X, Y)
                           for part in layer], axis=1)
    return flat[np.arange(S), k]


def hessian_diag_fd_grad(net: Network, x, y: float, h: float = 1e-5) -> np.ndarray:
    """First central difference of the analytic gradient; second oracle."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step must be positive and finite, got {h!r}")
    X, Y = _as_row(x), np.array([float(y)])
    up, down = _fd_pairs(net, h, lambda stack, k: _own_grad_entry(stack, X, Y, k))
    return (up - down) / (2.0 * h)


def normalized_diag_norm(diag) -> float:
    """Root mean square of the p diagonal entries: sqrt(sum(diag^2) / p)."""
    diag = np.asarray(diag, dtype=np.float64)
    if diag.ndim != 1 or diag.size == 0:
        raise ValueError("expected a nonempty 1-D diagonal")
    return float(np.sqrt(np.mean(diag * diag)))


def dataset_diag_norm(net: Network, X, y) -> float:
    """Normalized norm of the dataset's mean Hessian diagonal: the
    per-sample diagonals are averaged first, then normalized_diag_norm is
    taken of the mean.  Samples are evaluated in blocks of rows and summed
    in sample order.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or y.shape != X.shape[:1]:
        raise ValueError("expected matching, nonempty inputs and labels")
    acc = np.zeros(net.param_count)
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        for row in _diag_rows(net, X[rows], y[rows])[0]:
            acc += row
    return normalized_diag_norm(acc / X.shape[0])
