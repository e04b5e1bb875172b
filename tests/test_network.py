"""Tests for the network core: forward traces, backpropagated deltas,
parameter and input gradients, serialization and batching."""

import json
import warnings

import numpy as np
import pytest

from curvact import activations as act
from curvact.activations import SubgradientWarning, d1, rct_af, value
from curvact.attacks import AttackConfig, clean_accuracy, fgsm, pgd_batch
from curvact.hessian import dataset_diag_norm, hessian_diag_exact, hessian_diag_fd
from curvact.network import (
    Network,
    backprop_deltas,
    flat_params,
    forward,
    forward_batch,
    grad_input,
    grad_input_batch,
    grad_params,
    grad_params_batch,
    init_network,
    load_network,
    loss,
    mean_loss,
    param_layout,
    replace_params,
    save_network,
)

from helpers import random_sample


def hand_forward(net, x):
    """Straight-line reimplementation of the forward pass used as oracle."""
    h = np.asarray(x, dtype=np.float64)
    for l in range(net.depth):
        z = net.weights[l] @ h + net.biases[l]
        h = value(net.activation, z) if l < net.depth - 1 else z
    return float(h[0])


def fd_delta(net, x, layer, h=1e-6):
    """FD derivative of the output with respect to each pre-activation."""
    trace = forward(net, x)
    n = trace.z[layer].size
    out = np.empty(n)
    for i in range(n):
        out[i] = (_f_from_z(net, trace, layer, i, h) - _f_from_z(net, trace, layer, i, -h)) / (2 * h)
    return out


def _f_from_z(net, trace, layer, i, bump):
    """Recompute f after nudging one pre-activation and replaying forward."""
    z = trace.z[layer].copy()
    z[i] += bump
    h = value(net.activation, z) if layer < net.depth - 1 else z
    for l in range(layer + 1, net.depth):
        z = net.weights[l] @ h + net.biases[l]
        h = value(net.activation, z) if l < net.depth - 1 else z
    return float(h[0])


def test_init_shapes_and_counts():
    net = init_network((2, 3, 1), rct_af(1.0, 0), seed=0)
    assert net.depth == 2
    assert net.param_count == 13
    assert net.weights[0].shape == (3, 2)
    assert net.biases[0].shape == (3,)
    assert np.all(net.biases[0] == 0.0)


def test_init_determinism_and_seed_separation():
    a = init_network((2, 4, 4, 1), rct_af(4.0, 1), seed=7)
    b = init_network((2, 4, 4, 1), rct_af(4.0, 1), seed=7)
    c = init_network((2, 4, 4, 1), rct_af(4.0, 1), seed=8)
    for l in range(a.depth):
        np.testing.assert_array_equal(a.weights[l], b.weights[l])
    assert any(np.any(a.weights[l] != c.weights[l]) for l in range(a.depth))


def test_init_validation():
    with pytest.raises(ValueError):
        init_network((2,), rct_af(1.0, 0), seed=0)
    with pytest.raises(ValueError):
        init_network((2, 3, 2), rct_af(1.0, 0), seed=0)
    with pytest.raises(ValueError):
        init_network((2, 3, 1), rct_af(1.0, 0), seed=0, scheme="lecun")


def test_xavier_scheme_bounds():
    net = init_network((6, 5, 1), rct_af(1.0, 0), seed=3, scheme="xavier")
    limit = np.sqrt(6.0 / (6 + 5))
    assert np.all(np.abs(net.weights[0]) <= limit)


def test_forward_zero_network():
    widths = (3, 4, 1)
    zero = Network(widths,
                   [np.zeros((4, 3)), np.zeros((1, 4))],
                   [np.zeros(4), np.zeros(1)],
                   rct_af(2.0, 1))
    trace = forward(zero, np.array([0.5, -1.0, 2.0]))
    assert trace.f == 0.0
    assert np.all(trace.z[0] == 0.0)


def test_forward_single_neuron_composition():
    """Identity wiring turns the net into the bare activation."""
    net = Network((1, 1, 1),
                  [np.array([[1.0]]), np.array([[1.0]])],
                  [np.zeros(1), np.zeros(1)],
                  rct_af(1.0, 0))
    trace = forward(net, np.array([0.0]))
    assert trace.f == pytest.approx(np.log(2.0), rel=1e-15)


def test_forward_matches_hand_rollout():
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = init_network((3, 5, 4, 1), rct_af(4.0, 2), seed=int(rng.integers(1 << 31)))
        x = rng.normal(size=3)
        assert forward(net, x).f == pytest.approx(hand_forward(net, x), rel=1e-12)


def test_forward_shape_errors():
    net = init_network((2, 3, 1), rct_af(1.0, 0), seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros(3))
    with pytest.raises(ValueError):
        forward_batch(net, np.zeros((4, 3)))


def test_batch_forward_consistency():
    """Batched rows match per-sample calls; batch-of-one matches exactly.

    A row of a larger batch may differ in the final bit because matmul
    accumulation order depends on the operand shapes.
    """
    net = init_network((2, 6, 5, 1), rct_af(14.0, 1), seed=2)
    X = np.random.default_rng(0).normal(size=(9, 2))
    bt = forward_batch(net, X)
    for i in range(X.shape[0]):
        single = forward(net, X[i]).f
        assert bt.f[i] == pytest.approx(single, rel=1e-13)
    assert forward_batch(net, X[:1]).f[0] == forward(net, X[0]).f


def test_delta_terminal_and_single_hidden():
    net = Network((1, 1, 1),
                  [np.array([[1.3]]), np.array([[-0.7]])],
                  [np.array([0.2]), np.array([0.1])],
                  rct_af(2.0, 0))
    trace = forward(net, np.array([0.4]))
    deltas = backprop_deltas(net, trace)
    assert deltas.delta[-1][0] == 1.0
    expected = -0.7 * d1(net.activation, trace.z[0][0])
    assert deltas.delta[0][0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("widths", [(2, 3, 1), (3, 4, 4, 1), (2, 5, 3, 2, 1)])
def test_deltas_match_fd(widths):
    """delta equals the FD derivative of f w.r.t. each pre-activation."""
    rng = np.random.default_rng(13)
    net = init_network(widths, rct_af(4.0, 1), seed=21)
    x = rng.normal(size=widths[0])
    trace = forward(net, x)
    deltas = backprop_deltas(net, trace)
    for layer in range(net.depth):
        fd = fd_delta(net, x, layer)
        np.testing.assert_allclose(deltas.delta[layer], fd, rtol=1e-6, atol=1e-9)


def test_loss_values():
    net = init_network((2, 3, 1), rct_af(1.0, 0), seed=0)
    x = np.array([0.1, 0.2])
    f = forward(net, x).f
    assert loss(net, x, f) == 0.0
    lin = Network((2, 1), [np.array([[1.0, 0.0]])], [np.zeros(1)], rct_af(1.0, 0))
    assert loss(lin, np.array([3.0, 0.0]), 1.0) == 2.0


def test_mean_loss_is_mean_of_losses():
    net = init_network((2, 4, 1), rct_af(4.0, 2), seed=9)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(7, 2))
    y = rng.choice((-1.0, 1.0), size=7)
    per = [loss(net, X[i], float(y[i])) for i in range(7)]
    assert mean_loss(net, X, y) == pytest.approx(np.mean(per), rel=1e-15)


def test_grad_params_zero_at_fit():
    """Residual zero means every parameter gradient is zero."""
    net = init_network((2, 3, 1), rct_af(4.0, 1), seed=1)
    x = np.array([0.4, -0.2])
    y = forward(net, x).f
    np.testing.assert_array_equal(grad_params(net, x, y), np.zeros(net.param_count))


def test_grad_params_output_layer_structure():
    """Output-layer weight gradients are (f - y) times hidden activations."""
    net = init_network((2, 4, 1), rct_af(4.0, 0), seed=3)
    x = np.array([0.3, 0.9])
    y = -1.0
    trace = forward(net, x)
    grad = grad_params(net, x, y)
    layout = param_layout(net)
    out_w = [k for k, (layer, kind) in enumerate(layout) if layer == 2 and kind == "weight"]
    np.testing.assert_allclose(grad[out_w], (trace.f - y) * trace.h[1], rtol=1e-13)


def test_grad_input_linear_net():
    w = np.array([[1.5, -2.0]])
    lin = Network((2, 1), [w], [np.array([0.25])], rct_af(1.0, 0))
    x = np.array([1.0, 1.0])
    y = 0.5
    f = forward(lin, x).f
    np.testing.assert_allclose(grad_input(lin, x, y), (f - y) * w[0], rtol=1e-14)


def test_gradient_check_random_nets():
    """FD validation of both gradient operations over 24 random nets."""
    rng = np.random.default_rng(42)
    h = 1e-5
    count = 0
    for trial in range(24):
        depth = int(rng.integers(2, 5))
        widths = tuple(int(rng.integers(2, 9)) for _ in range(depth)) + (1,)
        alpha = (1.0, 4.0, 14.0)[trial % 3]
        beta = trial % 3
        net = init_network(widths, rct_af(alpha, beta), seed=trial)
        x, y = random_sample(rng, net)
        grad = grad_params(net, x, y)
        theta = flat_params(net)
        for k in range(theta.size):
            up = theta.copy()
            up[k] += h
            down = theta.copy()
            down[k] -= h
            fd = (loss(replace_params(net, up), x, y)
                  - loss(replace_params(net, down), x, y)) / (2 * h)
            assert abs(grad[k] - fd) <= max(1e-5 * abs(fd), 1e-8)
        gx = grad_input(net, x, y)
        for j in range(x.size):
            up = x.copy()
            up[j] += h
            down = x.copy()
            down[j] -= h
            fd = (loss(net, up, y) - loss(net, down, y)) / (2 * h)
            assert abs(gx[j] - fd) <= max(1e-5 * abs(fd), 1e-8)
        count += 1
    assert count >= 20


def test_network_json_round_trip(tmp_path):
    net = init_network((2, 3, 1), rct_af(14.0, 1), seed=6)
    path = tmp_path / "net.json"
    save_network(net, path)
    blob = json.loads(path.read_text())
    assert set(blob) == {"widths", "activation", "weights", "biases"}
    assert blob["activation"] == {"kind": "rct_af", "alpha": 14.0, "beta": 1}
    loaded = load_network(path)
    assert loaded.widths == net.widths
    for l in range(net.depth):
        np.testing.assert_array_equal(loaded.weights[l], net.weights[l])
        np.testing.assert_array_equal(loaded.biases[l], net.biases[l])


def test_flat_params_round_trip():
    net = init_network((3, 4, 2, 1), rct_af(4.0, 2), seed=11)
    vec = flat_params(net)
    assert vec.shape == (net.param_count,)
    rebuilt = replace_params(net, vec)
    for l in range(net.depth):
        np.testing.assert_array_equal(rebuilt.weights[l], net.weights[l])
    with pytest.raises(ValueError):
        replace_params(net, vec[:-1])


def test_param_layout_counts():
    net = init_network((2, 3, 1), rct_af(1.0, 0), seed=0)
    layout = param_layout(net)
    assert len(layout) == net.param_count
    assert layout[0] == (1, "weight")
    assert layout[6] == (1, "bias")
    assert layout[-1] == (2, "bias")


ALL_KIND_SPECS = [rct_af(7.0, 0), rct_af(7.0, 1), rct_af(7.0, 2), act.relu(),
                  act.leaky_relu(), act.elu(), act.gelu(), act.swish(), act.mish(),
                  act.softplus()]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("spec", ALL_KIND_SPECS,
                         ids=lambda s: f"rct_af-beta{s.beta}" if s.kind == "rct_af" else s.kind)
def test_trace_slopes_equal_d1_bitwise(spec):
    """sigma' kept by the forward pass is the public d1, bit for bit, on
    central and saturated pre-activations; sigma is the public value."""
    net = init_network((2, 6, 5, 1), spec, seed=4)
    net.weights[0] *= 3.0
    X = np.array([[0.01, -0.02], [0.3, -0.5], [40.0, -60.0], [-80.0, 25.0]])
    bt = forward_batch(net, X, with_d1=True)
    assert forward_batch(net, X).d1 is None
    for l in range(net.depth - 1):
        z = bt.z[l]
        assert np.abs(z).max() > 30.0 and np.abs(z).min() < 1.0
        np.testing.assert_array_equal(_bits(bt.d1[l]), _bits(d1(spec, z)))
        np.testing.assert_array_equal(_bits(bt.h[l + 1]), _bits(value(spec, z)))
    single = forward(net, X[2])
    for l in range(net.depth - 1):
        np.testing.assert_array_equal(_bits(single.d1[l]), _bits(d1(spec, single.z[l])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise_value_error(bad):
    net = init_network((2, 4, 3, 1), rct_af(7.0, 1), seed=1)
    X = np.array([[0.1, 0.2], [bad, 0.4]])
    y = np.array([1.0, -1.0])
    attack = AttackConfig(0.25, 0.0625, 3, True)
    calls = [
        lambda: forward(net, X[1]),
        lambda: forward_batch(net, X),
        lambda: grad_input_batch(net, X, y),
        lambda: hessian_diag_exact(net, X[1], -1.0),
        lambda: dataset_diag_norm(net, X, y),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            call()
    # The attacks reject the rows before any arithmetic on them can warn.
    for call in (lambda: pgd_batch(net, X, y, attack, rng_seed=0),
                 lambda: fgsm(net, X, y, 0.25)):
        with pytest.raises(ValueError, match="finite"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            call()


def test_overflow_in_a_deeper_hidden_layer_raises():
    """Finite inputs whose second hidden pre-activation overflows."""
    net = init_network((2, 4, 3, 1), rct_af(7.0, 1), seed=1)
    net.weights[0][:] = 1e200
    net.weights[1][:] = 1e200
    x = np.array([1.0, 1.0])
    for call in (lambda: forward(net, x), lambda: grad_params_batch(net, x[None, :], [1.0]),
                 lambda: hessian_diag_exact(net, x, 1.0)):
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            call()


@pytest.mark.parametrize("spec", [act.relu(), act.leaky_relu()], ids=["relu", "leaky_relu"])
def test_forward_only_calls_do_not_warn_at_a_kink(spec):
    """Every hidden pre-activation sits exactly on the kink; only a backward
    pass evaluates sigma' there."""
    net = init_network((2, 4, 1), spec, seed=0)
    X = np.zeros((3, 2))
    y = np.array([1.0, -1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", SubgradientWarning)
        assert np.all(forward_batch(net, X).z[0] == 0.0)
        loss(net, X[0], 1.0)
        mean_loss(net, X, y)
        clean_accuracy(net, X, y)
        hessian_diag_fd(net, X[0], 1.0)
    with pytest.warns(SubgradientWarning):
        grad_input_batch(net, X, y)
