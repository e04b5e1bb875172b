"""Tests for the exact loss-Hessian diagonal and its aggregations.

The recursion is checked against three independent references:
finite-difference oracles (the loss second difference in the test helpers
and the library's gradient difference), a full-matrix curvature
backpropagation in the helpers, and the closed form for a single hidden
layer coded directly here.

From three hidden layers on, the recursion also carries the off-diagonal
curvature that couples sibling neurons in the same hidden layer;
TestExactSiblingCoupling checks that those entries match the
full-matrix oracle and finite differences.  dataset_diag_norm evaluates
samples in blocks of rows; TestDatasetDiagNorm compares it with
per-sample sums across a block boundary.
"""

import math

import numpy as np
import pytest

import curvact.hessian as hess
from curvact import activations as act
from curvact import cli
from curvact.activations import ActivationSpec, rct_af
from curvact.errors import UnsupportedActivationError
from curvact.hessian import (
    dataset_diag_norm,
    hessian_diag_exact,
    hessian_diag_fd,
    hessian_diag_fd_grad,
    normalized_diag_norm,
)
from curvact.network import (
    ActivationSpec,
    forward,
    init_network,
)

from helpers import (
    fd_grad_diag,
    fd_loss_diag,
    grad_params,
    hessian_diag_full,
    random_sample,
    small_net,
)


def _random_net(rng, beta, alpha, depth_choices=(2, 3), max_width=8):
    # Default depths keep at most two hidden layers, where the recursion
    # needs no sibling-coupling term; nets with three and four hidden
    # layers are covered by TestExactSiblingCoupling and
    # TestRecursionClosedForm.
    depth = int(rng.choice(depth_choices))
    widths = (2, *(int(rng.integers(2, max_width + 1)) for _ in range(depth - 1)), 1)
    return init_network(widths, rct_af(alpha, beta), seed=int(rng.integers(1 << 30)))


class TestAgainstFiniteDifferences:
    def test_matches_fd_loss_oracle(self):
        rng = np.random.default_rng(42)
        alphas = (1.0, 4.0, 14.0, 28.0)
        for trial in range(12):
            net = _random_net(rng, trial % 3, alphas[trial % 4])
            x, y = random_sample(rng, net)
            exact = hessian_diag_exact(net, x, y).diag
            ref = fd_loss_diag(net, x, y)
            allowed = np.maximum(1e-4 * np.abs(ref), 1e-6)
            assert np.all(np.abs(exact - ref) <= allowed)

    def test_matches_gradient_difference_oracle(self):
        # Differencing the analytic gradient gives a tighter second oracle
        # than twice-differencing the loss.
        rng = np.random.default_rng(7)
        for trial in range(6):
            net = _random_net(rng, trial % 3, 6.0)
            x, y = random_sample(rng, net)
            exact = hessian_diag_exact(net, x, y).diag
            ref = hessian_diag_fd_grad(net, x, y)
            np.testing.assert_allclose(exact, ref, rtol=1e-5, atol=1e-8)

    def test_library_fd_rejects_bad_step(self):
        net = small_net()
        for h in (-1e-5, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                hessian_diag_fd_grad(net, np.zeros(2), 1.0, h=h)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestStackedOraclesEqualTheLoops:
    """hessian_diag_fd and hessian_diag_fd_grad evaluate their 2p bumped
    networks as network stacks; every entry equals the per-parameter loops
    in the helpers bit for bit."""

    def test_hessian_check_draws(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for trial in range(20):
                net = cli._random_check_net(rng, trial)
                x = rng.normal(size=net.widths[0])
                y = float(rng.choice((-1.0, 1.0)))
                _same_bits(hessian_diag_fd(net, x, y), fd_loss_diag(net, x, y))
                _same_bits(hessian_diag_fd_grad(net, x, y), fd_grad_diag(net, x, y))

    @pytest.mark.parametrize("hidden", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", [rct_af(7.0, 0), rct_af(7.0, 1), rct_af(28.0, 2),
                                      ActivationSpec("relu"), ActivationSpec("leaky_relu"),
                                      ActivationSpec("elu"), ActivationSpec("gelu"),
                                      ActivationSpec("swish"), ActivationSpec("mish"),
                                      ActivationSpec("softplus")],
                             ids=lambda spec: spec.kind + ("" if spec.beta is None else str(spec.beta)))
    def test_every_kind_and_depth(self, spec, hidden):
        rng = np.random.default_rng(hidden)
        net = init_network((3,) + tuple(int(w) for w in rng.integers(2, 6, hidden)) + (1,),
                           spec, seed=hidden)
        x, y = random_sample(rng, net)
        _same_bits(hessian_diag_fd(net, x, y), fd_loss_diag(net, x, y))
        _same_bits(hessian_diag_fd_grad(net, x, y, 2.5e-6), fd_grad_diag(net, x, y, 2.5e-6))

    def test_more_bumped_networks_than_one_block(self):
        net = init_network((2, 16, 16, 1), rct_af(6.0, 2), seed=3)
        assert 2 * net.param_count > hess._FD_BLOCK
        x, y = np.array([0.3, -1.1]), 1.0
        _same_bits(hessian_diag_fd(net, x, y), fd_loss_diag(net, x, y))
        _same_bits(hessian_diag_fd_grad(net, x, y), fd_grad_diag(net, x, y))


class TestRecursionClosedForm:
    """The recursion against the dense full-matrix curvature propagation
    in the helpers, a second exact closed form, and its behaviour where
    sigma' vanishes."""

    def test_matches_full_matrix_propagation(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            widths_pool = ((2, 3, 1), (2, 4, 3, 1), (3, 2, 2, 2, 1), (2, 6, 1))
            widths = widths_pool[trial % len(widths_pool)]
            net = init_network(widths, rct_af(2.0 + trial, trial % 3), seed=trial)
            x, y = random_sample(rng, net)
            a = hessian_diag_exact(net, x, y).diag
            b = hessian_diag_full(net, x, y)
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_saturated_unit_stays_finite(self):
        # A pushed-down bias drives sigmoid-gated sigma' to an exact zero;
        # the direct-sum form never divides by it, so the diagonal stays
        # finite.
        net = small_net(widths=(2, 3, 1), alpha=20.0, beta=0, seed=1)
        net.biases[0][0] = -1000.0
        x = np.zeros(2)
        assert forward(net, x).d1[0][0, 0] == 0.0
        assert np.all(np.isfinite(hessian_diag_exact(net, x, 1.0).diag))


class TestExactSiblingCoupling:
    """Sibling-neuron couplings are kept at every depth.

    The off-diagonal second derivatives coupling sibling neurons in the
    same hidden layer first reach a parameter when it sits three or more
    layers below the output.  One curvature number per neuron would drop
    them there; the recursion carries them down as a matrix, so its
    diagonal must match the full-matrix oracle in the helpers, which
    agrees with finite differences at every depth.
    """

    def test_full_matrix_oracle_agrees_up_to_two_hidden_layers(self):
        rng = np.random.default_rng(29)
        for trial in range(8):
            net = _random_net(rng, trial % 3, 3.0 + 2.0 * trial)
            x, y = random_sample(rng, net)
            exact = hessian_diag_exact(net, x, y).diag
            full = hessian_diag_full(net, x, y)
            np.testing.assert_allclose(exact, full, rtol=1e-12, atol=1e-14)

    def test_deep_nets_match_full_matrix_oracle(self):
        rng = np.random.default_rng(5)
        # Three hidden layers bring in the sibling coupling; four also
        # carry it down through a layer that already receives it.
        nets = (init_network((2, 4, 3, 2, 1), rct_af(14.0, 0), seed=77),
                init_network((2, 3, 3, 3, 3, 1), rct_af(6.0, 2), seed=41),
                init_network((2, 4, 3, 2, 1), rct_af(9.0, 1), seed=13))
        for net in nets:
            x, y = random_sample(rng, net)
            full = hessian_diag_full(net, x, y)
            fd_ref = hessian_diag_fd_grad(net, x, y)
            np.testing.assert_allclose(full, fd_ref, rtol=1e-5, atol=1e-8)
            exact = hessian_diag_exact(net, x, y).diag
            np.testing.assert_allclose(exact, full, rtol=1e-12, atol=1e-14)


class TestSingleHiddenLayerClosedForm:
    def _closed_form(self, net, x, y):
        spec = net.activation
        z1 = net.weights[0] @ x + net.biases[0]
        h1 = act.value(spec, z1)
        s1 = act.d1(spec, z1)
        s2 = act.d2(spec, z1)
        w_out = net.weights[1][0]
        f = float(w_out @ h1 + net.biases[1][0])
        resid = f - y
        w1 = (np.outer(w_out * s1, x)) ** 2 + resid * np.outer(w_out * s2, x * x)
        b1 = (w_out * s1) ** 2 + resid * w_out * s2
        return np.concatenate([w1.ravel(), b1, h1 * h1, np.ones(1)])

    def test_matches_exact(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            net = small_net(widths=(2, 5, 1), alpha=1.0 + 3.0 * trial,
                            beta=trial % 3, seed=trial)
            x, y = random_sample(rng, net)
            report = hessian_diag_exact(net, x, y)
            np.testing.assert_allclose(
                report.diag, self._closed_form(net, x, y), rtol=1e-12, atol=1e-13
            )

    def test_output_layer_entries_exact(self):
        rng = np.random.default_rng(4)
        net = small_net(widths=(3, 4, 1), alpha=7.0, beta=1, seed=9)
        x, y = random_sample(rng, net)
        report = hessian_diag_exact(net, x, y)
        h1 = forward(net, x).h[1][0]
        np.testing.assert_array_equal(report.diag[-5:-1], h1 * h1)
        assert report.diag[-1] == 1.0


class TestDecomposition:
    def test_parts_sum_to_diag(self):
        rng = np.random.default_rng(21)
        net = small_net(widths=(2, 4, 3, 1), alpha=5.0, beta=2, seed=2)
        x, y = random_sample(rng, net)
        report = hessian_diag_exact(net, x, y)
        np.testing.assert_array_equal(
            report.diag, report.gauss_newton_part + report.residual_part
        )
        assert report.normalized_norm == normalized_diag_norm(report.diag)

    def test_gauss_newton_part_is_squared_output_gradient(self):
        # With the label shifted so f - y = 1, grad_params returns the raw
        # output gradient, whose square must equal the Gauss-Newton part.
        rng = np.random.default_rng(22)
        net = small_net(widths=(2, 3, 2, 1), alpha=4.0, beta=0, seed=3)
        x, _ = random_sample(rng, net)
        f = forward(net, x).f[0]
        report = hessian_diag_exact(net, x, f - 1.0)
        g = grad_params(net, x, f - 1.0)
        np.testing.assert_allclose(report.gauss_newton_part, g * g, rtol=1e-12)

    def test_zero_residual_collapses_to_gauss_newton(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            net = small_net(widths=(2, 4, 1), alpha=2.0 + trial, beta=trial % 3,
                            seed=trial)
            x, _ = random_sample(rng, net)
            y = forward(net, x).f[0]
            report = hessian_diag_exact(net, x, y)
            assert report.residual == 0.0
            np.testing.assert_array_equal(report.residual_part,
                                          np.zeros(net.param_count))
            np.testing.assert_array_equal(report.diag, report.gauss_newton_part)

    def test_zero_second_derivative_collapses_to_gauss_newton(self):
        # ELU is the identity on the positive half-line, where sigma'' is
        # exactly 0.  Non-negative weights, zero biases and a positive input
        # keep every hidden pre-activation there, so the network is
        # curvature-free in z: the D table and the residual part vanish.
        net = init_network((2, 3, 3, 1), ActivationSpec("elu"), seed=6)
        net.weights = [np.abs(W) for W in net.weights]
        x = np.array([0.7, 1.3])
        assert all(np.all(z > 0.0) for z in forward(net, x).z[:-1])
        report = hessian_diag_exact(net, x, -1.0)
        assert report.residual != 0.0
        np.testing.assert_array_equal(report.residual_part, np.zeros(net.param_count))
        np.testing.assert_array_equal(report.diag, report.gauss_newton_part)

    def test_deterministic(self):
        net = small_net(seed=8)
        x = np.array([0.3, -1.1])
        a = hessian_diag_exact(net, x, 1.0)
        b = hessian_diag_exact(net, x, 1.0)
        np.testing.assert_array_equal(a.diag, b.diag)
        assert a.normalized_norm == b.normalized_norm


class TestActivationRequirements:
    def test_relu_rejected(self):
        net = init_network((2, 3, 1), ActivationSpec(kind="relu"), seed=0)
        with pytest.raises(UnsupportedActivationError, match="relu"):
            hessian_diag_exact(net, np.ones(2), 0.0)

    def test_leaky_relu_rejected(self):
        net = init_network((2, 3, 1), ActivationSpec(kind="leaky_relu", slope=0.1),
                           seed=0)
        with pytest.raises(UnsupportedActivationError, match="leaky_relu"):
            hessian_diag_exact(net, np.ones(2), 0.0)

    def test_elu_supported(self):
        net = init_network((2, 3, 1), ActivationSpec(kind="elu"), seed=0)
        report = hessian_diag_exact(net, np.array([0.5, -0.5]), 1.0)
        ref = fd_loss_diag(net, np.array([0.5, -0.5]), 1.0)
        allowed = np.maximum(1e-4 * np.abs(ref), 1e-6)
        assert np.all(np.abs(report.diag - ref) <= allowed)


class TestNormalizedNorm:
    def test_hand_value(self):
        assert normalized_diag_norm([3.0, 4.0]) == pytest.approx(
            np.sqrt(12.5), rel=1e-15
        )

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="nonempty"):
            normalized_diag_norm([])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="1-D"):
            normalized_diag_norm([[1.0, 2.0], [3.0, 4.0]])


class TestDatasetDiagNorm:
    def test_single_sample_reductions_agree(self):
        """On one sample the dataset norm equals the per-sample report's."""
        net = small_net(seed=12)
        x = np.array([[0.2, 0.9]])
        y = np.array([1.0])
        expected = hessian_diag_exact(net, x[0], 1.0).normalized_norm
        assert dataset_diag_norm(net, x, y) == pytest.approx(expected, rel=1e-15)

    def test_mean_diag_then_norm_matches_manual_average(self):
        # Rows of a block may differ from per-sample results in the last
        # bits (matrix-product accumulation order depends on the batch
        # shape), hence the allowance on the deep nets; the single hidden
        # layer case agrees to the last bit.
        rng = np.random.default_rng(31)
        cases = [(small_net(widths=(2, 4, 1), seed=13), 5, 1e-15),
                 (small_net(widths=(2, 4, 3, 2, 1), alpha=9.0, beta=0, seed=17), 70, 1e-14),
                 (small_net(widths=(2, 3, 3, 3, 3, 1), alpha=6.0, beta=2, seed=19), 70, 1e-14)]
        for net, n, rel in cases:
            X = rng.normal(size=(n, 2))
            y = rng.choice((-1.0, 1.0), size=n)
            acc = np.zeros(net.param_count)
            for i in range(n):
                acc += hessian_diag_exact(net, X[i], float(y[i])).diag
            expected = normalized_diag_norm(acc / n)
            assert dataset_diag_norm(net, X, y) == pytest.approx(expected, rel=rel)

    def test_opposite_diags_distinguish_reductions(self, monkeypatch):
        # Canned rows whose diagonals are exactly opposite for opposite
        # labels: the norm of their mean is zero although each row's norm
        # is not, so the dataset norm averages the vectors, not the norms.
        net = small_net(widths=(2, 2, 1), seed=14)
        vec = np.linspace(1.0, 2.0, net.param_count)
        monkeypatch.setattr(hess, "_diag_rows", lambda _n, _X, y: (y[:, None] * vec,))
        X = np.zeros((2, 2))
        y = np.array([1.0, -1.0])
        assert normalized_diag_norm(vec) > 0.0
        assert dataset_diag_norm(net, X, y) == 0.0

    def test_rejects_empty_or_mismatched(self):
        net = small_net()
        with pytest.raises(ValueError, match="nonempty"):
            dataset_diag_norm(net, np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="matching"):
            dataset_diag_norm(net, np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="matching"):  # a column of labels
            dataset_diag_norm(net, np.zeros((5, 2)), np.zeros((5, 1)))
