"""Tests for the network core: forward traces, backpropagated deltas,
parameter and input gradients, serialization and batching."""

import json
import warnings

import numpy as np
import pytest

from curvact import activations as act
from curvact.activations import SubgradientWarning, d1, d2, rct_af, value
from curvact.attacks import AttackConfig, clean_accuracy, fgsm, pgd_batch
from curvact.errors import NonFiniteError, UnsupportedActivationError
from curvact.hessian import dataset_diag_norm, hessian_diag_exact, hessian_diag_fd
from curvact.network import (
    Network,
    batch_deltas,
    flat_params,
    forward,
    forward_batch,
    grad_input_batch,
    grad_params,
    grad_params_batch,
    init_network,
    load_network,
    loss,
    mean_loss,
    replace_params,
    save_network,
    stack_networks,
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
    n = trace.z[layer].shape[1]
    out = np.empty(n)
    for i in range(n):
        out[i] = (_f_from_z(net, trace, layer, i, h) - _f_from_z(net, trace, layer, i, -h)) / (2 * h)
    return out


def _f_from_z(net, trace, layer, i, bump):
    """Recompute f after nudging one pre-activation and replaying forward."""
    z = trace.z[layer][0].copy()
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
    assert trace.f[0] == 0.0
    assert np.all(trace.z[0][0] == 0.0)


def test_forward_single_neuron_composition():
    """Identity wiring turns the net into the bare activation."""
    net = Network((1, 1, 1),
                  [np.array([[1.0]]), np.array([[1.0]])],
                  [np.zeros(1), np.zeros(1)],
                  rct_af(1.0, 0))
    trace = forward(net, np.array([0.0]))
    assert trace.f[0] == pytest.approx(np.log(2.0), rel=1e-15)


def test_forward_matches_hand_rollout():
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = init_network((3, 5, 4, 1), rct_af(4.0, 2), seed=int(rng.integers(1 << 31)))
        x = rng.normal(size=3)
        assert forward(net, x).f[0] == pytest.approx(hand_forward(net, x), rel=1e-12)


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
        single = forward(net, X[i]).f[0]
        assert bt.f[i] == pytest.approx(single, rel=1e-13)
    assert forward_batch(net, X[:1]).f[0] == forward(net, X[0]).f[0]


def test_delta_terminal_and_single_hidden():
    net = Network((1, 1, 1),
                  [np.array([[1.3]]), np.array([[-0.7]])],
                  [np.array([0.2]), np.array([0.1])],
                  rct_af(2.0, 0))
    trace = forward(net, np.array([0.4]))
    delta = batch_deltas(net, trace)
    assert delta[-1][0, 0] == 1.0
    expected = -0.7 * d1(net.activation, trace.z[0][0, 0])
    assert delta[0][0, 0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("widths", [(2, 3, 1), (3, 4, 4, 1), (2, 5, 3, 2, 1)])
def test_deltas_match_fd(widths):
    """delta equals the FD derivative of f w.r.t. each pre-activation."""
    rng = np.random.default_rng(13)
    net = init_network(widths, rct_af(4.0, 1), seed=21)
    x = rng.normal(size=widths[0])
    trace = forward(net, x)
    delta = batch_deltas(net, trace)
    for layer in range(net.depth):
        fd = fd_delta(net, x, layer)
        np.testing.assert_allclose(delta[layer][0], fd, rtol=1e-6, atol=1e-9)


def test_loss_values():
    net = init_network((2, 3, 1), rct_af(1.0, 0), seed=0)
    x = np.array([0.1, 0.2])
    f = forward(net, x).f[0]
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
    for i in range(7):
        # loss is the one-row view of mean_loss, and scaling by 0.5 is
        # exact, so it keeps the bits of 0.5 * diff * diff.
        assert per[i] == mean_loss(net, X[i:i + 1], y[i:i + 1])
        diff = float(forward(net, X[i]).f[0]) - float(y[i])
        assert per[i] == 0.5 * diff * diff


def test_grad_params_zero_at_fit():
    """Residual zero means every parameter gradient is zero."""
    net = init_network((2, 3, 1), rct_af(4.0, 1), seed=1)
    x = np.array([0.4, -0.2])
    y = forward(net, x).f[0]
    np.testing.assert_array_equal(grad_params(net, x, y), np.zeros(net.param_count))


def test_grad_params_output_layer_structure():
    """Output-layer weight gradients are (f - y) times hidden activations."""
    net = init_network((2, 4, 1), rct_af(4.0, 0), seed=3)
    x = np.array([0.3, 0.9])
    y = -1.0
    trace = forward(net, x)
    grad = grad_params(net, x, y)
    # Layer 1's 4x2 weights and 4 biases come first; the output weights next.
    out_w = slice(12, 16)
    np.testing.assert_allclose(grad[out_w], (trace.f[0] - y) * trace.h[1][0], rtol=1e-13)


def test_grad_input_linear_net():
    w = np.array([[1.5, -2.0]])
    lin = Network((2, 1), [w], [np.array([0.25])], rct_af(1.0, 0))
    x = np.array([1.0, 1.0])
    y = 0.5
    f = forward(lin, x).f[0]
    np.testing.assert_allclose(grad_input_batch(lin, x[None, :], [y])[0], (f - y) * w[0],
                               rtol=1e-14)


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
        gx = grad_input_batch(net, x[None, :], [y])[0]
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


def test_network_json_in_the_older_key_order_loads(tmp_path):
    """Files written before the keys followed field order (activation
    second) load unchanged; a misspelled key is rejected by name."""
    path = tmp_path / "old.json"
    path.write_text('{"widths": [2, 1], "activation": {"kind": "gelu"}, '
                    '"weights": [[[0.5, -1.25]]], "biases": [[0.125]]}')
    net = load_network(path)
    assert net.widths == (2, 1) and net.activation == act.gelu()
    np.testing.assert_array_equal(net.weights[0], [[0.5, -1.25]])
    np.testing.assert_array_equal(net.biases[0], [0.125])
    path.write_text('{"widths": [2, 1], "activation": {"kind": "gelu"}, '
                    '"weights": [[[0.5, -1.25]]], "bias": [[0.125]]}')
    with pytest.raises(ValueError, match="bias"):
        load_network(path)


def test_flat_params_round_trip():
    net = init_network((3, 4, 2, 1), rct_af(4.0, 2), seed=11)
    vec = flat_params(net)
    assert vec.shape == (net.param_count,)
    rebuilt = replace_params(net, vec)
    for l in range(net.depth):
        np.testing.assert_array_equal(rebuilt.weights[l], net.weights[l])
    with pytest.raises(ValueError):
        replace_params(net, vec[:-1])


ALL_KIND_SPECS = [rct_af(7.0, 0), rct_af(7.0, 1), rct_af(7.0, 2), act.relu(),
                  act.leaky_relu(), act.elu(), act.gelu(), act.swish(), act.mish(),
                  act.softplus()]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("spec", ALL_KIND_SPECS,
                         ids=lambda s: f"rct_af-beta{s.beta}" if s.kind == "rct_af" else s.kind)
def test_trace_slopes_equal_d1_bitwise(spec):
    """sigma' and sigma'' kept by the forward pass are the public d1 and d2,
    bit for bit, on central and saturated pre-activations; sigma is the
    public value, and z, h and sigma' do not depend on the order asked for.
    ReLU and LeakyReLU have no order 2."""
    net = init_network((2, 6, 5, 1), spec, seed=4)
    net.weights[0] *= 3.0
    X = np.array([[0.01, -0.02], [0.3, -0.5], [40.0, -60.0], [-80.0, 25.0]])
    orders = (0, 1, 2) if spec.twice_differentiable else (0, 1)
    traces = [forward_batch(net, X, order=k) for k in orders]
    assert traces[0].d1 is None and traces[0].d2 is None and traces[1].d2 is None
    bt = traces[-1]
    for tr in traces[1:]:
        for a, b in zip(tr.z + tr.h, traces[0].z + traces[0].h):
            np.testing.assert_array_equal(_bits(a), _bits(b))
    for l in range(net.depth - 1):
        z = bt.z[l]
        assert np.abs(z).max() > 30.0 and np.abs(z).min() < 1.0
        for tr in traces[1:]:
            np.testing.assert_array_equal(_bits(tr.d1[l]), _bits(d1(spec, z)))
        np.testing.assert_array_equal(_bits(bt.h[l + 1]), _bits(value(spec, z)))
        if spec.twice_differentiable:
            np.testing.assert_array_equal(_bits(bt.d2[l]), _bits(d2(spec, z)))
    if not spec.twice_differentiable:
        with pytest.raises(UnsupportedActivationError, match=spec.kind):
            forward_batch(net, X, order=2)
    single = forward(net, X[2])
    for l in range(net.depth - 1):
        np.testing.assert_array_equal(_bits(single.d1[l][0]), _bits(d1(spec, single.z[l][0])))


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


# ----- network stacks -----

_STACK_ALPHAS = (0.5, 14.0, 100.0)
# Betas in interleaved runs: (0, 0), (1,), (2, 2), (1,).
_MIXED_BETAS = (0, 0, 1, 2, 2, 1)


def _stack_nets(widths, betas, seed=0):
    """Members with their own weights, so a member mix-up shows."""
    return [init_network(widths, rct_af(_STACK_ALPHAS[k % 3], b), seed=seed + k)
            for k, b in enumerate(betas)]


@pytest.mark.parametrize("betas", [(0,) * 3, (1,) * 3, (2,) * 3, _MIXED_BETAS],
                         ids=["0", "1", "2", "mixed"])
@pytest.mark.parametrize("widths", [(2, 1), (2, 5, 1), (2, 16, 16, 1), (3, 4, 6, 5, 1)])
@pytest.mark.parametrize("n", [1, 16, 97])
def test_stack_calls_equal_member_calls_bitwise(betas, widths, n):
    rng = np.random.default_rng([betas[0], len(widths), n])
    nets = _stack_nets(widths, betas)
    stack = stack_networks(nets)
    y = rng.choice([-1.0, 1.0], size=n)
    shared = rng.normal(size=(n, widths[0]))
    per_member = rng.normal(size=(len(nets), n, widths[0]))
    attack = AttackConfig(0.25, 0.0625, 3, True)
    adv = pgd_batch(stack, shared, y, attack, rng_seed=5)
    for X in (shared, per_member):
        traces = [forward_batch(stack, X, order=order) for order in (0, 1, 2)]
        bt = traces[2]
        deltas = batch_deltas(stack, bt)
        g_in = grad_input_batch(stack, X, y)
        g_par = grad_params_batch(stack, X, y)
        losses = mean_loss(stack, X, y)
        for k, net in enumerate(nets):
            Xk = X if X.ndim == 2 else X[k]
            for order, got in enumerate(traces):
                ref = forward_batch(net, Xk, order=order)
                layers = [([got.f], [ref.f]), (got.z, ref.z), (got.h[1:], ref.h[1:])]
                if order:
                    layers.append((got.d1, ref.d1))
                if order == 2:
                    layers.append((got.d2, ref.d2))
                for got_list, want_list in layers:
                    for g, want in zip(got_list, want_list, strict=True):
                        np.testing.assert_array_equal(_bits(g[k]), _bits(want))
            ref_deltas = batch_deltas(net, forward_batch(net, Xk, order=2))
            for l in range(net.depth):
                # The output delta is all ones and shared by the members.
                got = np.broadcast_to(deltas[l], bt.z[l].shape)[k]
                np.testing.assert_array_equal(_bits(got), _bits(ref_deltas[l]))
            np.testing.assert_array_equal(_bits(g_in[k]), _bits(grad_input_batch(net, Xk, y)))
            for (dW, db), (rW, rb) in zip(g_par, grad_params_batch(net, Xk, y)):
                np.testing.assert_array_equal(_bits(dW[k]), _bits(rW))
                np.testing.assert_array_equal(_bits(db[k, 0]), _bits(rb))
            assert losses[k] == mean_loss(net, Xk, y)
    for k, net in enumerate(nets):
        want = pgd_batch(net, shared, y, attack, rng_seed=5)
        np.testing.assert_array_equal(_bits(adv[k]), _bits(want))


def test_stack_members_round_trip():
    nets = _stack_nets((2, 5, 3, 1), (2, 2, 2))
    stack = stack_networks(nets)
    assert len(stack) == 3 and stack.depth == 3 and stack.widths == (2, 5, 3, 1)
    picked = stack.take([2, 0])
    for k, ref in ((0, nets[2]), (1, nets[0])):
        member = picked.member(k)
        assert member.activation == ref.activation
        np.testing.assert_array_equal(flat_params(member), flat_params(ref))
    copy = stack.copy()
    copy.weights[0][0] += 1.0
    np.testing.assert_array_equal(flat_params(stack.member(0)), flat_params(nets[0]))


def test_stack_networks_rejects_what_cannot_share_one_pass():
    with pytest.raises(ValueError, match="at least one"):
        stack_networks([])
    with pytest.raises(ValueError, match="widths"):
        stack_networks([init_network((2, 4, 1), rct_af(1.0, 1), seed=0),
                        init_network((2, 5, 1), rct_af(1.0, 1), seed=0)])
    with pytest.raises(ValueError, match="rct_af"):
        stack_networks([init_network((2, 4, 1), act.gelu(), seed=0)])


def test_mixed_beta_take_crosses_runs_and_reaches_zero_members():
    nets = _stack_nets((2, 4, 3, 1), _MIXED_BETAS)
    stack = stack_networks(nets)
    X = np.random.default_rng(0).normal(size=(5, 2))
    # Members 1 and 2 straddle the boundary between the beta 0 and beta 1
    # runs; 4 and 0 come back in reverse order.
    for keep in ([1, 2], [4, 0], np.array([True, False, True, True, False, True])):
        picked = stack.take(keep)
        chosen = np.arange(len(nets))[keep]
        assert [b for b, lo, hi in picked.activation.runs for _ in range(lo, hi)] == \
            [nets[i].activation.beta for i in chosen]
        f = forward_batch(picked, X, order=2).f
        for k, i in enumerate(chosen):
            assert picked.member(k).activation == nets[i].activation
            np.testing.assert_array_equal(flat_params(picked.member(k)), flat_params(nets[i]))
            np.testing.assert_array_equal(_bits(f[k]), _bits(forward_batch(nets[i], X).f))
    for keep in ([], np.zeros(len(nets), dtype=bool)):
        empty = stack.take(keep)
        assert len(empty) == 0 and len(empty.take([])) == 0
        bt = forward_batch(empty, X, order=2)
        assert bt.f.shape == (0, 5) and bt.d2[1].shape == (0, 5, 3)
        assert grad_input_batch(empty, X, np.ones(5)).shape == (0, 5, 2)


def test_non_finite_forward_names_the_stack_members():
    nets = [init_network((2, 4, 3, 1), rct_af(7.0, 1), seed=k) for k in range(3)]
    nets[1].weights[0][:] = 1e200
    nets[1].weights[1][:] = 1e200
    stack = stack_networks(nets)
    X = np.ones((2, 2))
    with pytest.raises(NonFiniteError, match="finite") as exc, np.errstate(over="ignore"):
        forward_batch(stack, X)
    assert exc.value.members.tolist() == [False, True, False]
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        forward_batch(nets[1], X)
    forward_batch(stack.take([0, 2]), X)
