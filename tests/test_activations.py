"""Tests for the activation family: closed-form values, derivative
consistency against finite differences, curvature maxima and the JSON
round trip.

Reference values were frozen from 50-digit arbitrary-precision
evaluations of the defining formulas.
"""

import json

import numpy as np
import pytest

from curvact import activations as act
from curvact.activations import (
    ActivationSpec,
    SubgradientWarning,
    alpha_for_curvature,
    d1,
    d2,
    max_abs_d2,
    rct_af,
    value,
)
from curvact.errors import UnsupportedActivationError

from helpers import fd_first

SMOOTH_BASELINES = tuple(ActivationSpec(kind) for kind in ("gelu", "swish", "mish", "softplus"))

# (spec, x, value, d1, d2) frozen from high-precision evaluation.
FROZEN_POINTS = (
    (rct_af(5.0, 2), 0.3, 0.31238824628974288, 1.275590531744448, -0.39307118337916998),
    (rct_af(3.0, 1), -0.8, -0.066538157195137897, -0.099839301230523015, -0.00017639081333244719),
    (rct_af(10.0, 0), 0.25, 0.25788897342925496, 0.92414181997875645, 0.70103716545108157),
    (ActivationSpec("gelu"), 0.7,
     0.53062544344384889, 0.97661410113365987, 0.4715034393838095),
    (ActivationSpec("swish"), -1.3,
     -0.2784145220446738, -0.0046228542523369121, 0.2115222700237915),
    (ActivationSpec("mish"), 0.9,
     0.76120592895251527, 1.0279182005317524, 0.23834994801875394),
    (ActivationSpec("softplus"), -2.1,
     0.11551952317975497, 0.10909682119561294, 0.097194704800625398),
    (ActivationSpec("elu"), -0.6,
     -0.45118836390597357, 0.54881163609402643, 0.54881163609402643),
)


def test_spec_validation():
    """Constructor rejects out-of-domain parameters and unknown kinds."""
    with pytest.raises(ValueError):
        ActivationSpec(kind="rct_af", alpha=-1.0, beta=0)
    with pytest.raises(ValueError):
        ActivationSpec(kind="rct_af", alpha=1.0, beta=3)
    with pytest.raises(ValueError):
        ActivationSpec(kind="rct_af", alpha=float("inf"), beta=0)
    with pytest.raises(ValueError):
        ActivationSpec(kind="gelu", alpha=2.0)
    with pytest.raises(ValueError):
        ActivationSpec(kind="tanh")
    with pytest.raises(ValueError):
        ActivationSpec("leaky_relu", slope=0.0)
    with pytest.raises(ValueError, match="slope"):
        ActivationSpec("gelu", slope=0.1)
    with pytest.raises(ValueError, match="beta"):
        rct_af(1.0, 1.5)


def test_known_point_values():
    """Direct substitutions match the family's defining formulas."""
    assert value(rct_af(1.0, 0), 0.0) == pytest.approx(np.log(2.0), rel=1e-15)
    assert value(rct_af(9.0, 1), 0.0) == 0.0
    assert value(rct_af(10.0, 0), 5.0) == pytest.approx(5.0, abs=1e-9)
    assert value(rct_af(1.0, 1), 1.0) == pytest.approx(0.73105857863000488, rel=1e-15)
    assert d1(rct_af(3.0, 0), 0.0) == 0.5
    assert d1(ActivationSpec("relu"), -2.0) == 0.0
    assert d2(rct_af(4.0, 0), 0.0) == pytest.approx(1.0, rel=1e-14)
    assert d2(rct_af(2.0, 1), 0.0) == pytest.approx(1.0, rel=1e-14)
    assert d2(rct_af(7.0, 2), 0.0) == pytest.approx(7.0, rel=1e-14)
    assert d2(ActivationSpec("gelu"), 0.0) == pytest.approx(0.79788456080286536, rel=1e-14)


@pytest.mark.parametrize("spec,x,v_ref,d1_ref,d2_ref", FROZEN_POINTS,
                         ids=[str(i) for i in range(len(FROZEN_POINTS))])
def test_frozen_points(spec, x, v_ref, d1_ref, d2_ref):
    """Spot values agree with frozen arbitrary-precision references."""
    assert value(spec, x) == pytest.approx(v_ref, rel=1e-13, abs=1e-15)
    assert d1(spec, x) == pytest.approx(d1_ref, rel=1e-13, abs=1e-15)
    assert d2(spec, x) == pytest.approx(d2_ref, rel=1e-12, abs=1e-15)


def test_rectifying_asymptotes():
    """Family members approach x for large x and 0 for very negative x."""
    for beta in (0, 1, 2):
        for alpha in (1.0, 5.0, 28.0):
            spec = rct_af(alpha, beta)
            assert value(spec, 30.0) == pytest.approx(30.0, rel=1e-8)
            assert abs(value(spec, -30.0)) < 1e-6


def test_scalar_and_array_agreement():
    """Scalar calls return floats equal to the array path elementwise."""
    xs = np.linspace(-4.0, 4.0, 17)
    for spec in (rct_af(5.0, 2), ActivationSpec("gelu"), ActivationSpec("mish")):
        arr = value(spec, xs)
        for i, x in enumerate(xs):
            out = value(spec, float(x))
            assert isinstance(out, float)
            assert out == arr[i]


def test_nonfinite_input_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            value(rct_af(1.0, 0), bad)
        with pytest.raises(ValueError):
            d1(ActivationSpec("gelu"), np.array([0.0, bad]))


@pytest.mark.parametrize("alpha", [1.0, 5.0, 10.0, 20.0])
@pytest.mark.parametrize("beta", [0, 1, 2])
def test_d1_matches_fd_rct(alpha, beta):
    """d1 agrees with central differences of value on a dense grid."""
    spec = rct_af(alpha, beta)
    xs = np.linspace(-10.0, 10.0, 401)
    fd = fd_first(lambda z: value(spec, z), xs)
    got = d1(spec, xs)
    err = np.abs(got - fd)
    assert np.all(err <= 1e-6 * np.maximum(1.0, np.abs(got)))


@pytest.mark.parametrize("alpha", [1.0, 5.0, 10.0, 20.0])
@pytest.mark.parametrize("beta", [0, 1, 2])
def test_d2_matches_fd_rct(alpha, beta):
    """d2 agrees with central differences of d1 on a dense grid."""
    spec = rct_af(alpha, beta)
    xs = np.linspace(-10.0, 10.0, 401)
    fd = fd_first(lambda z: d1(spec, z), xs)
    got = d2(spec, xs)
    err = np.abs(got - fd)
    assert np.all(err <= 1e-5 * np.maximum(1.0, np.abs(got)))


@pytest.mark.parametrize("spec", SMOOTH_BASELINES, ids=lambda s: s.kind)
def test_derivatives_match_fd_baselines(spec):
    xs = np.linspace(-10.0, 10.0, 401)
    fd1 = fd_first(lambda z: value(spec, z), xs)
    fd2 = fd_first(lambda z: d1(spec, z), xs)
    assert np.all(np.abs(d1(spec, xs) - fd1) <= 1e-6 * np.maximum(1.0, np.abs(d1(spec, xs))))
    assert np.all(np.abs(d2(spec, xs) - fd2) <= 1e-5 * np.maximum(1.0, np.abs(d2(spec, xs))))


def test_elu_derivatives_off_kink():
    """ELU derivative checks avoid 0, where the second derivative jumps."""
    xs = np.linspace(-10.0, 10.0, 400) + 0.013
    spec = ActivationSpec("elu")
    fd1 = fd_first(lambda z: value(spec, z), xs)
    fd2 = fd_first(lambda z: d1(spec, z), xs)
    assert np.all(np.abs(d1(spec, xs) - fd1) <= 1e-6 * np.maximum(1.0, np.abs(d1(spec, xs))))
    assert np.all(np.abs(d2(spec, xs) - fd2) <= 1e-5 * np.maximum(1.0, np.abs(d2(spec, xs))))
    assert d2(spec, 0.0) == 1.0


def test_recursion_property():
    """value(beta+1) equals d1(beta) * x exactly, by construction."""
    xs = np.linspace(-12.0, 12.0, 241)
    for alpha in (1.0, 4.0, 14.0, 50.0):
        for beta in (0, 1):
            lhs = value(rct_af(alpha, beta + 1), xs)
            rhs = d1(rct_af(alpha, beta), xs) * xs
            np.testing.assert_array_equal(lhs, rhs)


def test_d2_even_symmetry():
    """The second derivative is even in x for every family member."""
    rng = np.random.default_rng(11)
    xs = np.concatenate([np.linspace(0.0, 15.0, 301), rng.uniform(0.0, 40.0, 100)])
    for alpha in (1.0, 5.0, 28.0, 50.0):
        for beta in (0, 1, 2):
            spec = rct_af(alpha, beta)
            left = d2(spec, -xs)
            right = d2(spec, xs)
            np.testing.assert_allclose(left, right, rtol=1e-12, atol=0.0)


def test_d2_critical_point_count():
    """Sign changes of the FD third derivative: 1, 3 and 5 extrema."""
    for beta, expected in ((0, 1), (1, 3), (2, 5)):
        spec = rct_af(1.0, beta)
        xs = np.linspace(-12.0, 12.0, 4001)
        third = fd_first(lambda z: d2(spec, z), xs, h=1e-4)
        # Count sign changes away from the flat tails.
        mask = np.abs(third) > 1e-9
        signs = np.sign(third[mask])
        flips = int(np.sum(signs[1:] != signs[:-1]))
        assert flips == expected


def test_extreme_argument_stability():
    """No overflow for the largest supported alpha over a huge x range."""
    spec_all = [rct_af(50.0, b) for b in (0, 1, 2)] + list(SMOOTH_BASELINES)
    xs = np.linspace(-100.0, 100.0, 2001)
    for spec in spec_all:
        assert np.all(np.isfinite(value(spec, xs)))
        assert np.all(np.isfinite(d1(spec, xs)))
        assert np.all(np.isfinite(d2(spec, xs)))


def test_relu_family_subgradient():
    """x = 0 uses the right-hand derivative and warns about the kink."""
    with pytest.warns(SubgradientWarning):
        assert d1(ActivationSpec("relu"), 0.0) == 1.0
    with pytest.warns(SubgradientWarning):
        assert d1(ActivationSpec("leaky_relu"), 0.0) == 1.0
    assert d1(ActivationSpec("leaky_relu", slope=0.2), -3.0) == 0.2
    with pytest.raises(UnsupportedActivationError):
        d2(ActivationSpec("relu"), 1.0)
    with pytest.raises(UnsupportedActivationError):
        d2(ActivationSpec("leaky_relu"), 1.0)


@pytest.mark.parametrize("alpha", [1.0, 5.0, 10.0, 15.0, 20.0, 28.0, 50.0])
def test_curvature_maxima_analytic(alpha):
    """Peak |d2| is alpha/4, alpha/2, alpha at x = 0 for beta 0, 1, 2."""
    # An integral float beta, as 1.0, is stored as the int it equals.
    for beta, scale in ((0, 0.25), (1, 0.5), (2, 1.0), (1.0, 0.5)):
        spec = ActivationSpec("rct_af", alpha=alpha, beta=beta)
        assert type(spec.beta) is int
        prof = max_abs_d2(spec)
        assert prof.argmax_x == 0.0
        assert prof.max_abs_d2 == pytest.approx(alpha * scale, rel=1e-12)
        assert not prof.unbounded


def test_curvature_maxima_against_grid_oracle():
    """An independent dense grid search never beats the reported peak.
    For mish it also checks that the global peak lies in the [-1, 1]
    that max_abs_d2 searches."""
    cases = [(rct_af(alpha, beta), np.linspace(-50.0 / alpha, 50.0 / alpha, 30001))
             for alpha in (1.0, 15.0, 50.0) for beta in (0, 1, 2)]
    cases += [(ActivationSpec(kind), np.linspace(-20.0, 20.0, 400001))
              for kind in ("elu", "gelu", "mish")]
    for spec, xs in cases:
        grid_peak = float(np.abs(d2(spec, xs)).max())
        prof = max_abs_d2(spec)
        assert grid_peak <= prof.max_abs_d2 * (1.0 + 1e-9)
        assert grid_peak == pytest.approx(prof.max_abs_d2, rel=1e-6)


def test_baseline_curvature_values():
    """Baseline peaks match frozen high-precision maximizations."""
    assert (max_abs_d2(ActivationSpec("gelu")).max_abs_d2
            == pytest.approx(0.79788456080286536, rel=1e-9))
    assert max_abs_d2(ActivationSpec("swish")).max_abs_d2 == pytest.approx(0.5, rel=1e-12)
    assert max_abs_d2(ActivationSpec("elu")).max_abs_d2 == pytest.approx(1.0, rel=1e-12)
    mish_prof = max_abs_d2(ActivationSpec("mish"))
    assert mish_prof.max_abs_d2 == pytest.approx(0.6442046372369724, rel=1e-9)
    assert mish_prof.argmax_x == pytest.approx(-0.08793443131491421, abs=1e-6)
    assert max_abs_d2(ActivationSpec("softplus")).max_abs_d2 == pytest.approx(0.25, rel=1e-9)
    # elu and gelu peak at exactly 0, where d2 gives the peak's bits.
    for spec in (ActivationSpec("elu"), ActivationSpec("gelu")):
        prof = max_abs_d2(spec)
        assert (prof.argmax_x, prof.max_abs_d2) == (0.0, d2(spec, 0.0))


@pytest.mark.parametrize("spec, beta",
                         [(ActivationSpec("softplus"), 0), (ActivationSpec("swish"), 1)])
def test_family_kinds_report_their_member_peak(spec, beta):
    """softplus and swish are the family members (1, 0) and (1, 1), so
    their peak is the member's closed form, not a searched estimate."""
    prof, member = max_abs_d2(spec), max_abs_d2(rct_af(1.0, beta))
    assert (prof.argmax_x, prof.max_abs_d2) == (member.argmax_x, member.max_abs_d2)


def test_relu_family_curvature_unbounded():
    for spec in (ActivationSpec("relu"), ActivationSpec("leaky_relu")):
        prof = max_abs_d2(spec)
        assert prof.unbounded
        assert np.isinf(prof.max_abs_d2)


def test_alpha_for_curvature_round_trip():
    for beta, expected in ((0, 28.0), (1, 14.0), (2, 7.0)):
        alpha = alpha_for_curvature(beta, 7.0)
        assert alpha == expected
        prof = max_abs_d2(rct_af(alpha, beta))
        assert prof.max_abs_d2 == pytest.approx(7.0, rel=1e-9)
    assert alpha_for_curvature(1, 0.5) == 1.0
    assert alpha_for_curvature(1.0, 7.0) == 14.0
    with pytest.raises(ValueError):
        alpha_for_curvature(3, 1.0)
    with pytest.raises(ValueError):
        alpha_for_curvature(0, -2.0)


# Central, saturated, signed-zero and subnormal inputs.
_IDENTITY_XS = np.concatenate([np.linspace(-30.0, 30.0, 1201),
                               [-745.0, 745.0, -0.0, 0.0, -5e-324, 5e-324, -1e-310, 1e-310]])


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_beta1_curvature_half_matches_swish():
    """rct_af(1, 1) is the standard swish, bit for bit: multiplying by
    alpha = 1.0 is exact."""
    for fn in (value, d1, d2):
        _assert_same_bits(fn(rct_af(1.0, 1), _IDENTITY_XS),
                          fn(ActivationSpec("swish"), _IDENTITY_XS))


def test_softplus_identity_with_beta0():
    """rct_af(1, 0) is the softplus baseline, bit for bit."""
    for fn in (value, d1, d2):
        _assert_same_bits(fn(rct_af(1.0, 0), _IDENTITY_XS),
                          fn(ActivationSpec("softplus"), _IDENTITY_XS))


@pytest.mark.parametrize("betas", [(0,) * 6, (1,) * 6, (2,) * 6, (0, 0, 1, 2, 2, 1)],
                         ids=["0", "1", "2", "interleaved"])
def test_family_evaluates_members_side_by_side(betas):
    """An (S, 1, 1) alpha gives each member the bits of its own float alpha
    and beta, as a network stack's forward pass relies on, also when the
    betas come in interleaved runs."""
    alphas = (0.5, 1.0, 14.0, 200.0, 3.0, 0.75)
    xs = np.stack([_IDENTITY_XS, -_IDENTITY_XS, 3.0 * _IDENTITY_XS, _IDENTITY_XS / 7.0,
                   _IDENTITY_XS + 0.5, 0.25 - _IDENTITY_XS])
    stacked = act.FamilyStack(np.array(alphas).reshape(-1, 1, 1), betas)
    runs = stacked.runs  # maximal runs of one beta that cover the members in order
    assert [b for b, lo, hi in runs for _ in range(lo, hi)] == list(betas)
    assert all(r[0] != q[0] for r, q in zip(runs, runs[1:]))
    for order in (0, 1, 2):
        got = act._kernel(stacked, xs[:, :, None], order)
        assert len(got) == order + 1
        for k, (a, beta) in enumerate(zip(alphas, betas)):
            for fn, g in zip((value, d1, d2), got):
                _assert_same_bits(g[k, :, 0], fn(rct_af(a, beta), xs[k]))


def test_json_round_trip():
    """Serialization uses exact field names and survives a round trip."""
    spec = rct_af(14.0, 1)
    blob = spec.to_dict()
    assert blob == {"kind": "rct_af", "alpha": 14.0, "beta": 1}
    assert ActivationSpec.from_dict(json.loads(json.dumps(blob))) == spec
    assert ActivationSpec("gelu").to_dict() == {"kind": "gelu"}
    assert (ActivationSpec.from_dict({"kind": "leaky_relu", "slope": 0.05})
            == ActivationSpec("leaky_relu", slope=0.05))
    with pytest.raises(ValueError):
        ActivationSpec.from_dict({"kind": "rct_af", "alpha": 2.0})
    with pytest.raises(ValueError):
        ActivationSpec.from_dict({"kind": "gelu", "alpha": 2.0})
    with pytest.raises(ValueError, match=r"ActivationSpec\.kind must be a string"):
        ActivationSpec.from_dict({"kind": 3})
