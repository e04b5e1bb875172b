"""Shared test utilities: independent finite-difference oracles and small
builders.  These deliberately avoid the library's own finite-difference
code so the comparisons stay two-sided."""

import numpy as np

from curvact import activations as act
from curvact.activations import rct_af
from curvact.attacks import _ball_bounds
from curvact.network import (
    batch_deltas,
    flat_params,
    forward,
    grad_input_batch,
    grad_params_batch,
    init_network,
    loss,
    stack_params,
)


def grad_params(net, x, y):
    """Flat gradient of the per-sample loss, in canonical parameter order."""
    x = np.asarray(x, dtype=np.float64)
    per_layer = grad_params_batch(net, x[None, :], np.array([float(y)]))
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in per_layer])


def replace_params(net, vec):
    """The network with net's widths and activation and the flat parameters
    vec (canonical order); stack_params refuses a vector of another length."""
    return stack_params(net, np.asarray(vec, dtype=np.float64)[None, :]).member(0)


def fd_first(fn, x, h=1e-5):
    """Central first difference of a scalar or vectorized function."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def fd_second(fn, x, h=1e-5):
    """Central second difference of a scalar or vectorized function."""
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def fd_loss_diag(net, x, y, h=1e-4):
    """Second central difference of the loss along each parameter axis."""
    theta = flat_params(net)
    base = loss(net, x, y)
    out = np.empty(theta.size)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += h
        down = theta.copy()
        down[k] -= h
        out[k] = (
            loss(replace_params(net, up), x, y)
            - 2.0 * base
            + loss(replace_params(net, down), x, y)
        ) / (h * h)
    return out


def fd_grad_diag(net, x, y, h=1e-5):
    """First central difference of the analytic gradient along each
    parameter axis, one parameter at a time."""
    theta = flat_params(net)
    out = np.empty(theta.size)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += h
        down = theta.copy()
        down[k] -= h
        out[k] = (
            grad_params(replace_params(net, up), x, y)[k]
            - grad_params(replace_params(net, down), x, y)[k]
        ) / (2.0 * h)
    return out


def hessian_diag_full(net, x, y):
    """Hessian diagonal via full-matrix curvature backpropagation.

    Carries the complete matrix of output second derivatives with respect
    to each layer's pre-activations instead of only its diagonal, so
    interactions between sibling neurons in the same hidden layer survive.
    Exact at any depth.  The library's recursion splits the same matrix
    into its diagonal and off-diagonal parts, so this dense form is an
    independent check of that split, which first matters at three hidden
    layers.
    """
    trace = forward(net, x)
    delta = [d[0] for d in batch_deltas(net, trace)]
    z = [zl[0] for zl in trace.z]
    h = [hl[0] for hl in trace.h]
    L = net.depth
    curv = [None] * L
    curv[L - 1] = np.zeros(1)
    H = np.zeros((1, 1))
    for l in range(L - 2, -1, -1):
        W_next = net.weights[l + 1]
        s = W_next.T @ delta[l + 1]
        sig1 = act.d1(net.activation, z[l])
        sig2 = act.d2(net.activation, z[l])
        H = np.diag(sig2 * s) + np.outer(sig1, sig1) * (W_next.T @ H @ W_next)
        curv[l] = np.diag(H).copy()
    residual = trace.f[0] - float(y)
    parts = []
    for l in range(L):
        dl = delta[l]
        h_prev_sq = h[l] * h[l]
        parts.append(np.outer(dl * dl + residual * curv[l], h_prev_sq).ravel())
        parts.append(dl * dl + residual * curv[l])
    return np.concatenate(parts)


def pgd_reference(net, X, y, cfg, rng_seed, on_step=None):
    """PGD in which every row takes every step: the step loop pgd_batch ran
    before rows at a fixed point left it, kept verbatim as its reference."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lo, hi = _ball_bounds(X, cfg.epsilon)
    cur = X.copy()
    if cfg.random_start and cfg.epsilon > 0:
        start = np.random.default_rng(rng_seed).uniform(-cfg.epsilon, cfg.epsilon, X.shape)
        cur = np.clip(cur + start, lo, hi)
    for step in range(cfg.steps):
        g = grad_input_batch(net, cur, y)
        cur = np.clip(cur + cfg.step_size * np.sign(g), lo, hi)
        if on_step is not None:
            on_step(step, cur)
    return cur


def small_net(widths=(2, 3, 1), alpha=4.0, beta=1, seed=0):
    """A compact randomly initialized network for structural tests."""
    return init_network(tuple(widths), rct_af(alpha, beta), seed=seed)


def random_sample(rng, net):
    """One (input, label) pair sized for the given network."""
    x = rng.normal(size=net.widths[0])
    y = float(rng.choice((-1.0, 1.0)))
    return x, y
