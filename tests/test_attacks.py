"""Tests for the l-infinity attacks and robust-accuracy evaluation.

Single-weight-layer networks are linear in their input, which makes FGSM
outcomes predictable by hand; those serve as the ground truth here, with
trained two-moons networks covering the empirical PGD properties.
"""

import numpy as np
import pytest

import curvact.attacks as atk
from curvact.activations import alpha_for_curvature, rct_af
from curvact.attacks import (
    AttackConfig,
    clean_accuracy,
    fgsm,
    pgd_batch,
    robust_accuracy,
)
from curvact.data import GeneratorSpec, make_dataset
from curvact.network import (
    forward_batch,
    grad_input_batch,
    init_network,
    loss,
    stack_networks,
)
from curvact.training import DEFAULT_EVAL_ATTACK, TrainConfig, default_sweep_config, train_network
from helpers import pgd_reference


def _linear_net(w, b=0.0):
    """Single weight layer, so f(x) = w . x + b with no activation."""
    w = np.asarray(w, dtype=np.float64)
    net = init_network((w.size, 1), rct_af(4.0, 1), seed=0)
    net.weights[0][:] = w[None, :]
    net.biases[0][:] = b
    return net


def _moon_batch(n=40, seed=3):
    ds = make_dataset(GeneratorSpec("two_moons", noise=0.1), n=n, seed=seed)
    return ds.inputs, ds.labels


class TestAttackConfig:
    def test_round_trips_through_dict(self):
        cfg = AttackConfig(epsilon=0.3, step_size=0.03, steps=20, random_start=True)
        assert cfg.to_dict() == {"epsilon": 0.3, "step_size": 0.03, "steps": 20,
                                 "random_start": True}
        assert AttackConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            AttackConfig(-0.1, 0.05, 5, False)
        with pytest.raises(ValueError, match="epsilon"):
            AttackConfig(float("nan"), 0.05, 5, False)

    def test_rejects_bad_step_size(self):
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(ValueError, match="step_size"):
                AttackConfig(0.3, bad, 5, False)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            AttackConfig(0.3, 0.03, 0, False)
        with pytest.raises(ValueError, match="steps"):
            AttackConfig(0.3, 0.03, 2.0, False)
        with pytest.raises(ValueError, match="steps"):
            AttackConfig(0.3, 0.03, True, False)

    def test_rejects_a_random_start_that_is_not_a_bool(self):
        # A truthy string would otherwise switch the random start on.
        for bad in ("no", "false", 0, 1, None, np.True_):
            with pytest.raises(ValueError, match="random_start"):
                AttackConfig(0.3, 0.03, 5, bad)
        assert AttackConfig(0.3, 0.03, 5, False).random_start is False

    def test_step_size_sanity_bound(self):
        with pytest.raises(ValueError, match="step_size"):
            AttackConfig(0.1, 0.21, 2, False)
        AttackConfig(0.1, 0.2, 2, False)
        AttackConfig(0.1, 5.0, 1, False)
        AttackConfig(0.0, 5.0, 3, False)

    def test_from_dict_names_missing_fields(self):
        with pytest.raises(ValueError, match="steps"):
            AttackConfig.from_dict({"epsilon": 0.1, "step_size": 0.05,
                                    "random_start": True})


class TestFgsm:
    def test_zero_epsilon_returns_input(self):
        net = _linear_net([1.0, -2.0])
        X = np.array([[0.4, -0.7]])
        np.testing.assert_array_equal(fgsm(net, X, [0.0], epsilon=0.0), X)

    def test_takes_a_batch_only(self):
        net = _linear_net([1.0, -2.0])
        with pytest.raises(ValueError, match="batch"):
            fgsm(net, np.array([0.4, -0.7]), 1.0, epsilon=0.1)

    def test_linear_net_moves_along_signed_gradient(self):
        net = _linear_net([1.0, -2.0])
        X = np.array([[0.3, 0.7]])
        y = forward_batch(net, X).f - 1.0
        out = fgsm(net, X, y, epsilon=0.25)
        np.testing.assert_allclose(out, X + 0.25 * np.array([1.0, -1.0]),
                                   rtol=0, atol=1e-15)

    def test_zero_gradient_coordinate_stays_put(self):
        net = _linear_net([0.0, 1.0])
        x = np.array([0.5, 0.5])
        out = fgsm(net, x[None, :], forward_batch(net, x[None, :]).f + 1.0, epsilon=0.3)[0]
        assert out[0] == x[0]
        assert out[1] == x[1] - 0.3

    def test_loss_never_decreases_on_linear_nets(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            net = _linear_net(rng.normal(size=3), b=float(rng.normal()))
            x = rng.normal(size=3)
            y = float(rng.choice((-1.0, 1.0)))
            out = fgsm(net, x[None, :], [y], epsilon=0.4)[0]
            assert loss(net, out, y) >= loss(net, x, y)

    def test_budget_and_bounds_hold(self):
        # 0.95 + 0.3 rounds upward, so the ball's upper bound for that
        # coordinate is walked back one float; 0.2 + 0.3 is exact.
        net = _linear_net([1.0, 1.0])
        x = np.array([0.95, 0.2])
        out = fgsm(net, x[None, :], [-2.0], epsilon=0.3)[0]
        assert np.max(np.abs(out - x)) <= 0.3
        assert out[0] == np.nextafter(0.95 + 0.3, 0.0)
        assert out[1] == 0.2 + 0.3

    def test_ball_bounds_hold_the_budget_at_every_magnitude(self):
        # A rounded X + epsilon is walked back by at most one float, and
        # that float already holds the budget, from subnormals to the
        # largest finite float.
        rng = np.random.default_rng(3)
        X = rng.choice((-1.0, 1.0), 20000) * 10.0 ** rng.uniform(-300, 300, 20000)
        X[:4] = (np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324)
        for eps in (0.3, 1.0 / 3.0, 1e-7, 2.5e5):
            lo, hi = atk._ball_bounds(X, eps)
            assert np.all(hi - X <= eps) and np.all(X - lo <= eps)
            with np.errstate(over="ignore"):  # stepping past the largest float
                assert np.all((hi == X + eps) | (hi == np.nextafter(X + eps, -np.inf)))
                assert np.all((lo == X - eps) | (lo == np.nextafter(X - eps, np.inf)))

    def test_rejects_negative_epsilon(self):
        net = _linear_net([1.0])
        with pytest.raises(ValueError, match="epsilon"):
            fgsm(net, np.zeros((1, 1)), [1.0], epsilon=-0.1)

    def test_batch_rows_match_single_calls(self):
        net = init_network((2, 6, 1), rct_af(7.0, 1), seed=5)
        X, y = _moon_batch(n=12, seed=9)
        batch = fgsm(net, X, y, epsilon=0.2)
        for i in range(X.shape[0]):
            np.testing.assert_array_equal(batch[i],
                                          fgsm(net, X[i:i + 1], y[i:i + 1], epsilon=0.2)[0])


class TestPgd:
    CFG = AttackConfig(epsilon=0.3, step_size=0.075, steps=10, random_start=True)

    def test_every_iterate_stays_in_ball(self):
        net = init_network((2, 8, 1), rct_af(10.0, 2), seed=1)
        X, y = _moon_batch()
        seen = []

        def check(step, cur):
            seen.append(step)
            assert np.max(np.abs(cur - X)) <= self.CFG.epsilon

        pgd_batch(net, X, y, self.CFG, rng_seed=17, on_step=check)
        assert seen == list(range(self.CFG.steps))

    def test_every_iterate_of_a_multi_block_batch_stays_in_ball(self):
        # 1100 rows span three gradient blocks; the iterate is still one array.
        net = init_network((2, 16, 16, 1), rct_af(10.0, 1), seed=1)
        X, y = _moon_batch(n=1100)
        seen = []

        def check(step, cur):
            seen.append(step)
            assert cur.shape == X.shape
            assert np.max(np.abs(cur - X)) <= self.CFG.epsilon

        pgd_batch(net, X, y, self.CFG, rng_seed=17, on_step=check)
        assert seen == list(range(self.CFG.steps))

    def test_result_within_ball_and_bounds(self):
        # The ball's per-element bounds clip a good share of the iterates,
        # which then sit exactly on them.
        cfg = AttackConfig(0.3, 0.075, 10, True)
        net = init_network((2, 8, 1), rct_af(10.0, 1), seed=2)
        X, y = _moon_batch()
        out = pgd_batch(net, X, y, cfg, rng_seed=4)
        lo, hi = atk._ball_bounds(X, cfg.epsilon)
        assert np.max(np.abs(out - X)) <= cfg.epsilon
        assert np.all((lo <= out) & (out <= hi))
        assert np.any((out == lo) | (out == hi))

    def test_single_step_without_random_start_is_fgsm(self):
        cfg = AttackConfig(epsilon=0.3, step_size=0.3, steps=1, random_start=False)
        net = init_network((2, 8, 1), rct_af(7.0, 0), seed=3)
        X, y = _moon_batch()
        np.testing.assert_array_equal(pgd_batch(net, X, y, cfg, rng_seed=0),
                                      fgsm(net, X, y, epsilon=0.3))
        np.testing.assert_array_equal(pgd_batch(net, X[:1], y[:1], cfg, rng_seed=0)[0],
                                      fgsm(net, X[:1], y[:1], epsilon=0.3)[0])

    def test_zero_epsilon_is_identity(self):
        cfg = AttackConfig(epsilon=0.0, step_size=0.1, steps=5, random_start=True)
        net = init_network((2, 8, 1), rct_af(7.0, 1), seed=3)
        X, y = _moon_batch()
        np.testing.assert_array_equal(pgd_batch(net, X, y, cfg, rng_seed=11), X)

    def test_deterministic_for_fixed_seed(self):
        net = init_network((2, 8, 1), rct_af(10.0, 1), seed=6)
        X, y = _moon_batch()
        a = pgd_batch(net, X, y, self.CFG, rng_seed=23)
        b = pgd_batch(net, X, y, self.CFG, rng_seed=23)
        np.testing.assert_array_equal(a, b)
        c = pgd_batch(net, X, y, self.CFG, rng_seed=24)
        assert np.any(a != c)

    def test_batch_prefixes_are_attacked_as_their_own_batches(self):
        """Row i's start and steps do not depend on the rows after it."""
        net = init_network((2, 8, 1), rct_af(10.0, 1), seed=6)
        X, y = _moon_batch(n=8, seed=21)
        batch = pgd_batch(net, X, y, self.CFG, rng_seed=40)
        for k in range(1, X.shape[0] + 1):
            np.testing.assert_array_equal(
                pgd_batch(net, X[:k], y[:k], self.CFG, rng_seed=40), batch[:k])

    def test_negative_seed_is_rejected_when_the_start_is_random(self):
        net = init_network((2, 8, 1), rct_af(10.0, 1), seed=6)
        X, y = _moon_batch(n=4)
        with pytest.raises(ValueError, match="non-negative"):
            pgd_batch(net, X, y, self.CFG, rng_seed=-1)
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        fixed = AttackConfig(0.3, 0.075, 2, random_start=False)
        assert pgd_batch(net, X, y, fixed, rng_seed=-1).shape == X.shape

    def test_start_rejects_a_range_default_rng_rejects(self):
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(-1e308, 1e308, size=2)
        net = init_network((2, 8, 1), rct_af(10.0, 1), seed=6)
        X, y = _moon_batch(n=4)
        with pytest.raises(OverflowError):
            pgd_batch(net, X, y, AttackConfig(1e308, 0.1, 2, True), rng_seed=0)

    def test_pgd_dominates_fgsm_on_trained_net(self):
        ds = make_dataset(GeneratorSpec("two_moons", noise=0.1), n=200, seed=5)
        net = init_network((2, 8, 1), rct_af(7.0, 1), seed=0)
        cfg = TrainConfig(epochs=30, batch_size=16, learning_rate=0.1, momentum=0.9)
        trained, _ = train_network(net, ds, cfg, 0)
        pgd_cfg = AttackConfig(epsilon=0.3, step_size=0.03, steps=20,
                               random_start=False)
        X, y = ds.x_test, ds.y_test
        adv_pgd = pgd_batch(trained, X, y, pgd_cfg, rng_seed=0)
        adv_fgsm = fgsm(trained, X, y, epsilon=0.3)
        f_pgd = forward_batch(trained, adv_pgd).f
        f_fgsm = forward_batch(trained, adv_fgsm).f
        loss_pgd = 0.5 * (f_pgd - y) ** 2
        loss_fgsm = 0.5 * (f_fgsm - y) ** 2
        assert np.mean(loss_pgd >= loss_fgsm - 1e-12) >= 0.9


class TestRobustAccuracy:
    def test_rejects_bad_labels(self):
        net = _linear_net([1.0, 0.0])
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            robust_accuracy(net, np.zeros((2, 2)), np.array([1.0, 0.0]),
                            TestPgd.CFG, rng_seed=0)

    def test_rejects_empty_dataset(self):
        """No rows is an error for both accuracies, on a network and on a
        stack; a stack of no members over some rows gives no accuracies."""
        net = _linear_net([1.0, 0.0])
        stack = stack_networks([net, _linear_net([0.0, 1.0])])
        for model in (net, stack):
            with pytest.raises(ValueError, match="at least one"):
                clean_accuracy(model, np.zeros((0, 2)), np.zeros(0))
            with pytest.raises(ValueError, match="at least one"):
                robust_accuracy(model, np.zeros((0, 2)), np.zeros(0), TestPgd.CFG,
                                rng_seed=0)
        X, y = _moon_batch(n=6)
        empty = stack.take(np.zeros(2, dtype=bool))
        assert clean_accuracy(empty, X, y).shape == (0,)
        assert robust_accuracy(empty, X, y, TestPgd.CFG, rng_seed=0).shape == (0,)

    def test_zero_epsilon_equals_clean_accuracy(self):
        cfg = AttackConfig(epsilon=0.0, step_size=0.1, steps=3, random_start=True)
        net = init_network((2, 8, 1), rct_af(7.0, 1), seed=8)
        X, y = _moon_batch()
        assert robust_accuracy(net, X, y, cfg, rng_seed=1) == clean_accuracy(net, X, y)

    def test_constant_classifier_scores_positive_fraction(self):
        net = _linear_net([0.0, 0.0], b=1.0)
        X, y = _moon_batch(n=30, seed=2)
        expected = float(np.mean(y == 1.0))
        assert robust_accuracy(net, X, y, TestPgd.CFG, rng_seed=0) == expected

    def test_never_exceeds_clean_accuracy(self):
        rng = np.random.default_rng(44)
        X, y = _moon_batch(n=60, seed=13)
        for trial in range(6):
            net = init_network((2, 6, 1), rct_af(2.0 + 3.0 * trial, trial % 3),
                               seed=trial)
            robust = robust_accuracy(net, X, y, TestPgd.CFG,
                                     rng_seed=int(rng.integers(1 << 20)))
            assert robust <= clean_accuracy(net, X, y)

    def test_overshooting_attack_does_not_rescue_a_clean_mistake(self, monkeypatch):
        # The attacked view lands on the correct side with a higher loss;
        # scoring requires the clean view to be correct as well.
        net = _linear_net([1.0])
        X = np.array([[-0.1]])
        y = np.array([1.0])
        monkeypatch.setattr(atk, "_pgd_rows", lambda *a, **k: np.array([[2.5]]))
        assert robust_accuracy(net, X, y, TestPgd.CFG, rng_seed=0) == 0.0

    def test_attack_that_leaves_the_row_correct_keeps_it_robust(self, monkeypatch):
        # Both views are on the correct side, so the row counts.
        net = _linear_net([1.0])
        X = np.array([[0.9]])
        y = np.array([1.0])
        monkeypatch.setattr(atk, "_pgd_rows", lambda *a, **k: np.array([[0.95]]))
        assert robust_accuracy(net, X, y, TestPgd.CFG, rng_seed=0) == 1.0

    def test_flipped_row_is_not_robust_behind_an_overconfident_clean_view(self, monkeypatch):
        # f = 3.5 clean and f = -0.5 attacked, inside the ball: the attacked
        # view has the lower squared loss (2.25 against 6.25), yet the
        # attack flipped the sign, so the row does not count.
        net = _linear_net([20.0])
        X = np.array([[0.175]])
        y = np.array([1.0])
        adv = np.array([[-0.025]])
        assert np.abs(adv - X).max() <= TestPgd.CFG.epsilon
        assert forward_batch(net, X).f[0] == 3.5 and forward_batch(net, adv).f[0] == -0.5
        monkeypatch.setattr(atk, "_pgd_rows", lambda *a, **k: adv)
        assert robust_accuracy(net, X, y, TestPgd.CFG, rng_seed=0) == 0.0

    def test_deterministic_for_fixed_seed(self):
        net = init_network((2, 8, 1), rct_af(10.0, 1), seed=9)
        X, y = _moon_batch()
        a = robust_accuracy(net, X, y, TestPgd.CFG, rng_seed=5)
        b = robust_accuracy(net, X, y, TestPgd.CFG, rng_seed=5)
        assert a == b


def test_stack_attacks_equal_member_attacks_bitwise():
    """One shared start and one set of ball bounds serve every member; each
    member's iterate and accuracies are those of its own attack.  The rows
    are shared, or past one gradient block each member has its own."""
    nets = [init_network((2, 8, 8, 1), rct_af(a, 2), seed=k)
            for k, a in enumerate((0.5, 14.0, 100.0))]
    stack = stack_networks(nets)
    cfg = AttackConfig(0.25, 0.0625, 5, True)
    rows, labels = _moon_batch(n=700)
    jitter = np.random.default_rng(8).normal(scale=0.05, size=(len(nets), 700, 2))
    for X, y in (_moon_batch(n=40), (rows + jitter, labels)):
        steps = []
        adv = pgd_batch(stack, X, y, cfg, rng_seed=11,
                        on_step=lambda s, cur: steps.append(cur))
        assert adv.shape == (3, len(y), 2) and len(steps) == cfg.steps
        clean = clean_accuracy(stack, X, y)
        robust = robust_accuracy(stack, X, y, cfg, rng_seed=11)
        for k, net in enumerate(nets):
            Xk = X if X.ndim == 2 else X[k]
            np.testing.assert_array_equal(adv[k], pgd_batch(net, Xk, y, cfg, rng_seed=11))
            assert clean[k] == clean_accuracy(net, Xk, y)
            assert robust[k] == robust_accuracy(net, Xk, y, cfg, rng_seed=11)


def _family_nets(cells, widths=(2, 16, 16, 1)):
    """Untrained xavier nets, one per (beta, curvature) cell, as the sweep
    initializes them."""
    return [init_network(widths, rct_af(alpha_for_curvature(beta, c), beta), seed=k,
                         scheme="xavier")
            for k, (beta, c) in enumerate(cells)]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# One seed group of the default sweep: every beta at every curvature target.
SEED_GROUP = [(beta, c) for beta in default_sweep_config().betas
              for c in default_sweep_config().curvature_targets]


@pytest.mark.parametrize("model, n", [
    (model, n) for model in ("network", "stack", "per-member") for n in (513, 700, 1100)
] + [("network", n) for n in (16, 48, 512)] + [("seed-group", 600)])
@pytest.mark.parametrize("cfg", [
    AttackConfig(0.3, 0.075, 10, True),
    AttackConfig(0.3, 0.075, 10, False),
    AttackConfig(0.0, 0.1, 5, True),
    AttackConfig(0.3, 0.3, 1, True),
], ids=["random-start", "no-random-start", "epsilon-0", "one-step"])
def test_pgd_batch_equals_the_every_row_reference(n, model, cfg, monkeypatch):
    """At any batch size, rows at a fixed point leave a single network's
    loop, and a stack steps every row every step; either way every
    step's iterate equals the one every row's stepping gives, bit for
    bit, and a stack member still equals its solo attack, on shared rows
    and on rows of its own.  The 30-member stack is laid out as one seed
    group of the default sweep."""
    X, y = _moon_batch(n=n)
    nets = _family_nets(SEED_GROUP if model == "seed-group"
                        else ((0, 0.5), (1, 7.0), (2, 50.0)))
    net = nets[0] if model == "network" else stack_networks(nets)
    if model == "per-member":
        X = X + np.random.default_rng(8).normal(scale=0.05, size=(len(nets),) + X.shape)
    want = []
    ref = pgd_reference(net, X, y, cfg, 5, on_step=lambda s, cur: want.append(cur))
    got, rows = [], []

    def spy(net, X, y):
        rows.append(X.shape[-2])
        return grad_input_batch(net, X, y)

    monkeypatch.setattr(atk, "grad_input_batch", spy)
    out = pgd_batch(net, X, y, cfg, 5, on_step=lambda s, cur: got.append(cur))
    np.testing.assert_array_equal(_bits(out), _bits(ref))
    assert len(got) == len(want) == cfg.steps
    for step, (a, b) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=f"step {step}")
        assert not any(np.shares_memory(a, c) for c in got[:step])
    if model != "network":
        assert rows == [n] * cfg.steps
    elif cfg.epsilon == 0:
        assert rows == [n]
    elif cfg.steps > 1:
        assert min(rows) < n
    monkeypatch.undo()
    if model != "network":
        for k, member in enumerate(nets):
            Xk = X if X.ndim == 2 else X[k]
            np.testing.assert_array_equal(_bits(out[k]),
                                          _bits(pgd_batch(member, Xk, y, cfg, 5)))


def test_rows_at_a_fixed_point_stay_there():
    """The property pgd_batch's skip rests on: in the every-row reference
    on a 4096-row batch, a row whose iterate does not change in one step
    does not change in any later step.  The eval attack on untrained nets
    of every beta at the grid's lowest and highest curvature (alpha up to
    200)."""
    ds = make_dataset(GeneratorSpec("two_moons", noise=0.1), n=5 * 4096, seed=7)
    X, y = ds.x_test, ds.y_test
    cells = [(beta, c) for beta in (0, 1, 2) for c in (0.5, 50.0)]
    stack = stack_networks(_family_nets(cells))
    assert max(stack.activation.alpha.ravel()) == 200.0
    steps = []
    pgd_reference(stack, X, y, DEFAULT_EVAL_ATTACK, 3, on_step=lambda s, cur: steps.append(cur))
    steps = np.array(steps)
    still = (_bits(steps[1:]) == _bits(steps[:-1])).all(axis=-1)  # (steps - 1, S, n)
    stopped = np.logical_or.accumulate(still, axis=0)
    np.testing.assert_array_equal(still, stopped)
    assert np.all(stopped[-1].sum(axis=-1) > 0)


def _clipped_start(X, cfg, rng_seed):
    lo, hi = atk._ball_bounds(X, cfg.epsilon)
    return np.clip(X + np.random.default_rng(rng_seed).uniform(-cfg.epsilon, cfg.epsilon,
                                                               X.shape[-2:]), lo, hi)


@pytest.mark.parametrize("n", [48, 512, 600, 1100])
@pytest.mark.parametrize("model", ["network", "stack", "per-member"])
def test_robust_accuracy_attacks_the_rows_it_can_count(n, model, monkeypatch):
    """Robust accuracy is the share of rows correct clean and under the
    every-row reference attack.  A single network, at any batch size,
    attacks only the rows it classifies correctly, bit for bit as the
    reference attacks them, and the others keep their clipped start; a
    stack steps every row every step.  Either way on_step sees each
    step's iterate over all rows, inside the ball."""
    cfg = DEFAULT_EVAL_ATTACK
    X, y = _moon_batch(n=n)
    nets = _family_nets(((0, 0.5), (1, 7.0), (2, 50.0)))
    net = nets[0] if model == "network" else stack_networks(nets)
    if model == "per-member":
        X = X + np.random.default_rng(8).normal(scale=0.05, size=(len(nets),) + X.shape)
    clean = np.sign(forward_batch(net, X).f) == y
    assert np.all((0.2 < clean.mean(axis=-1)) & (clean.mean(axis=-1) < 0.9))
    want = []
    ref = pgd_reference(net, X, y, cfg, 5, on_step=lambda s, cur: want.append(cur))
    expected = np.mean(clean & (np.sign(forward_batch(net, ref).f) == y), axis=-1)
    got, rows = [], []

    def spy(net, X, y):
        rows.append(X.shape[-2])
        return grad_input_batch(net, X, y)

    monkeypatch.setattr(atk, "grad_input_batch", spy)
    np.testing.assert_array_equal(
        robust_accuracy(net, X, y, cfg, 5, on_step=lambda s, cur: got.append(cur)), expected)
    drops = model == "network"
    attacked = clean if drops else np.ones(n, dtype=bool)
    start = np.broadcast_to(_clipped_start(X, cfg, 5), ref.shape)
    assert len(got) == cfg.steps
    for step, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.max(np.abs(a - X)) <= cfg.epsilon
        np.testing.assert_array_equal(_bits(a[..., attacked, :]), _bits(b[..., attacked, :]),
                                      err_msg=f"step {step}")
        np.testing.assert_array_equal(_bits(a[..., ~attacked, :]),
                                      _bits(start[..., ~attacked, :]), err_msg=f"step {step}")
    if drops:
        assert 0 < attacked.sum() < n and rows[0] == attacked.sum() and max(rows) < n
    else:
        assert rows == [n] * cfg.steps


def test_row_that_one_member_classifies_correctly_is_attacked():
    """Every row is correct for exactly one of two linear members, so no
    row is correct for both; the stack still attacks every row, and each
    member's accuracies are those of its solo call."""
    rng = np.random.default_rng(2)
    X = rng.uniform(-1.0, 1.0, size=(600, 2))
    y = np.ones(600)
    nets = [_linear_net([1.0, 0.0]), _linear_net([-1.0, 0.0])]
    stack = stack_networks(nets)
    clean = clean_accuracy(stack, X, y)
    robust = robust_accuracy(stack, X, y, DEFAULT_EVAL_ATTACK, rng_seed=3)
    for k, net in enumerate(nets):
        assert clean[k] == clean_accuracy(net, X, y)
        assert robust[k] == robust_accuracy(net, X, y, DEFAULT_EVAL_ATTACK, rng_seed=3)
        assert robust[k] < clean[k]


@pytest.mark.parametrize("model", ["network", "stack"])
def test_no_gradient_when_every_row_is_misclassified(model, monkeypatch):
    """A batch a single network classifies wrongly everywhere scores 0
    without one gradient; on_step still sees a fresh iterate of the full
    shape, the clipped start, at every step.  A stack steps every row
    anyway and also scores 0 for every member."""
    X = np.random.default_rng(4).uniform(-1.0, 1.0, size=(600, 2))
    y = -np.sign(X[:, 0])
    nets = [_linear_net([1.0, 0.0]), _linear_net([2.0, 0.0])]
    net = nets[0] if model == "network" else stack_networks(nets)
    calls, got = [], []

    def spy(net, X, y):
        calls.append(X.shape[-2])
        return grad_input_batch(net, X, y)

    monkeypatch.setattr(atk, "grad_input_batch", spy)
    acc = robust_accuracy(net, X, y, TestPgd.CFG, rng_seed=6,
                          on_step=lambda s, cur: got.append(cur))
    np.testing.assert_array_equal(acc, np.zeros(len(nets)) if model == "stack" else 0.0)
    assert len(got) == TestPgd.CFG.steps
    if model == "stack":
        assert calls == [600] * TestPgd.CFG.steps
        return
    assert calls == []
    start = _clipped_start(X, TestPgd.CFG, 6)
    for step, cur in enumerate(got):
        assert cur.shape == X.shape
        np.testing.assert_array_equal(_bits(cur), _bits(start))
        assert not any(np.shares_memory(cur, c) for c in got[:step])
