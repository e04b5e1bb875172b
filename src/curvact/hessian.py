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
delta/sigma', so saturated units cannot produce 0/0.  An equivalent
path-expansion form (used as a cross-check on small networks) sums one
term per site above the start neuron, and there the division form
delta/sigma' is intentional; it raises SingularityError when sigma'
underflows.

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
recursion alone, and deeper nets add the coupling term.  Both closed
forms are exact at any depth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import activations as act
from .errors import CapacityError, SingularityError, UnsupportedActivationError
from .network import (
    Deltas,
    ForwardTrace,
    Network,
    backprop_deltas,
    flat_params,
    forward,
    grad_params,
    loss,
    param_layout,
    replace_params,
)

MAX_PATH_NEURONS = 12
MAX_PATH_DEPTH = 4
_SIGMA_PRIME_FLOOR = 1e-300


@dataclass
class DTable:
    """Second-derivative accumulators D^(l) per layer; d[L-1] is all zeros."""

    d: list[np.ndarray]


def _require_twice_differentiable(net: Network) -> None:
    if not net.activation.twice_differentiable:
        raise UnsupportedActivationError(
            f"{net.activation.kind} lacks the second derivative needed here"
        )


def d_table(net: Network, trace: ForwardTrace, deltas: Deltas) -> DTable:
    """Backward D-recursion over all layers, exact at any depth."""
    _require_twice_differentiable(net)
    L = net.depth
    d = [None] * L
    d[L - 1] = np.zeros(1)
    off = None  # Off^(l+1); None where it is zero or unused
    for l in range(L - 2, -1, -1):
        W_next = net.weights[l + 1]
        s = W_next.T @ deltas.delta[l + 1]
        sig1 = trace.d1[l]
        sig2 = act.d2(net.activation, trace.z[l])
        back = (W_next * W_next).T @ d[l + 1]
        if off is not None:
            off_w = off @ W_next
            back = back + (W_next * off_w).sum(axis=0)
        d[l] = sig2 * s + sig1 * sig1 * back
        if 0 < l < L - 2:
            h_w = d[l + 1][:, None] * W_next  # (diag(D) + Off) @ W
            if off is not None:
                h_w += off_w
            off = (W_next.T @ h_w) * np.outer(sig1, sig1)
            np.fill_diagonal(off, 0.0)
    return DTable(d)


def d_table_paths(
    net: Network,
    trace: ForwardTrace,
    deltas: Deltas,
    d2_scale: dict[tuple[int, int], float] | None = None,
) -> DTable:
    """Path-expansion form of the D table.

    For each start neuron (l, i), enumerates every neuron path forward and
    sums the signed products of sigma' * W along the paths that end at a
    site (r, j) into the Jacobian entry dz_j^(r)/dz_i^(l); the r = l site
    is the start neuron itself with an empty product.  Then

        D_i^(l) = sum_(r,j) sigma''(z_j^(r)) * (delta_j^(r) / sigma'(z_j^(r)))
                            * (dz_j^(r)/dz_i^(l))^2

    Squaring the summed entry, not each path product, keeps the couplings
    between sibling paths, so the form is exact at any depth.
    Restricted to at most MAX_PATH_NEURONS hidden neurons and depth
    MAX_PATH_DEPTH.  d2_scale optionally multiplies sigma'' at single
    (layer, neuron) sites, which is how the linear appearance of sigma''
    is exercised in tests.
    """
    _require_twice_differentiable(net)
    L = net.depth
    hidden = sum(net.widths[1:-1])
    if hidden > MAX_PATH_NEURONS:
        raise CapacityError(
            f"path expansion supports at most {MAX_PATH_NEURONS} hidden neurons, got {hidden}"
        )
    if L > MAX_PATH_DEPTH:
        raise CapacityError(f"path expansion supports depth <= {MAX_PATH_DEPTH}, got {L}")
    scale = d2_scale or {}
    sig1 = [act.d1(net.activation, z) for z in trace.z]
    sig2 = [act.d2(net.activation, z) for z in trace.z]

    def site_term(r: int, j: int) -> float:
        sp = sig1[r][j]
        if abs(sp) < _SIGMA_PRIME_FLOOR:
            raise SingularityError(
                f"sigma' vanished at layer {r + 1}, neuron {j}; division form unusable"
            )
        factor = scale.get((r + 1, j), 1.0)
        return factor * sig2[r][j] * deltas.delta[r][j] / sp

    def walk(r: int, j: int, prod: float, jac: dict) -> None:
        jac[(r, j)] = jac.get((r, j), 0.0) + prod
        if r + 1 <= L - 2:
            w_next = net.weights[r + 1]
            hop = prod * sig1[r][j]
            for t in range(net.widths[r + 2]):
                walk(r + 1, t, hop * w_next[t, j], jac)

    def curvature(l: int, i: int) -> float:
        jac: dict[tuple[int, int], float] = {}
        walk(l, i, 1.0, jac)
        return sum(site_term(r, j) * g * g for (r, j), g in jac.items())

    d = [None] * L
    d[L - 1] = np.zeros(1)
    for l in range(L - 1):
        d[l] = np.array([curvature(l, i) for i in range(net.widths[l + 1])])
    return DTable(d)


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


def _assemble(net: Network, trace: ForwardTrace, deltas: Deltas, table: DTable,
              y: float) -> HessianDiagReport:
    residual = trace.f - float(y)
    gn_parts, res_parts = [], []
    for l in range(net.depth):
        dl = deltas.delta[l]
        Dl = table.d[l]
        h_prev_sq = trace.h[l] * trace.h[l]
        gn_parts.append(np.outer(dl * dl, h_prev_sq).ravel())
        gn_parts.append(dl * dl)
        res_parts.append(residual * np.outer(Dl, h_prev_sq).ravel())
        res_parts.append(residual * Dl)
    gn = np.concatenate(gn_parts)
    res = np.concatenate(res_parts)
    diag = gn + res
    return HessianDiagReport(
        diag, gn, res, residual, normalized_diag_norm(diag, net.param_count)
    )


def hessian_diag_exact(net: Network, x, y: float) -> HessianDiagReport:
    """Loss-Hessian diagonal via the backward D-recursion, exact at any
    depth; see the module notes for the sibling-coupling term."""
    trace = forward(net, x)
    deltas = backprop_deltas(net, trace)
    return _assemble(net, trace, deltas, d_table(net, trace, deltas), y)


def hessian_diag_paths(
    net: Network, x, y: float, d2_scale: dict[tuple[int, int], float] | None = None
) -> HessianDiagReport:
    """Same diagonal through the path-expansion D table (small nets only)."""
    trace = forward(net, x)
    deltas = backprop_deltas(net, trace)
    return _assemble(net, trace, deltas, d_table_paths(net, trace, deltas, d2_scale), y)


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
    the norm of the mean; mean_of_norms averages per-sample norms.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValueError("expected matching, nonempty inputs and labels")
    if reduction not in ("mean_diag_then_norm", "mean_of_norms"):
        raise ValueError(f"unknown reduction {reduction!r}")
    p = net.param_count
    if reduction == "mean_diag_then_norm":
        acc = np.zeros(p)
        for i in range(X.shape[0]):
            acc += hessian_diag_exact(net, X[i], float(y[i])).diag
        return normalized_diag_norm(acc / X.shape[0], p)
    total = 0.0
    for i in range(X.shape[0]):
        total += hessian_diag_exact(net, X[i], float(y[i])).normalized_norm
    return total / X.shape[0]
