"""Round-trip property of the JSON codec shared by the config dataclasses.

Every valid ActivationSpec, GeneratorSpec, AttackConfig and TrainConfig
must survive to_dict -> JSON text -> from_dict unchanged, and re-encoding
the result must give the same bytes.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from curvact.activations import elu, gelu, leaky_relu, mish, rct_af, relu, softplus, swish
from curvact.attacks import AttackConfig
from curvact.data import circles, gaussian_blobs, two_moons
from curvact.training import TrainConfig

_positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
_non_negative = st.floats(min_value=0.0, max_value=1e6)

activation_specs = st.one_of(
    st.builds(rct_af, _positive, st.sampled_from((0, 1, 2))),
    st.builds(leaky_relu, _positive),
    st.sampled_from([relu(), elu(), gelu(), swish(), mish(), softplus()]),
)

generator_specs = st.one_of(
    st.builds(two_moons, _non_negative),
    st.builds(circles, _non_negative,
              st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
    st.builds(gaussian_blobs, _positive),
)


@st.composite
def attack_configs(draw):
    epsilon = draw(st.floats(min_value=0.0, max_value=10.0))
    steps = draw(st.integers(min_value=1, max_value=100))
    # Iterated attacks cap the step at twice the radius.
    top = 2.0 * epsilon if steps > 1 and epsilon > 0 else 10.0
    step_size = draw(st.floats(min_value=0.0, max_value=top, exclude_min=True))
    return AttackConfig(epsilon, step_size, steps, draw(st.booleans()))


@st.composite
def train_configs(draw):
    attack = draw(st.none() | attack_configs())
    return TrainConfig(
        epochs=draw(st.integers(min_value=1, max_value=10**6)),
        batch_size=draw(st.integers(min_value=1, max_value=10**6)),
        learning_rate=draw(_non_negative),
        momentum=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        attack=attack,
    )


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(activation_specs, generator_specs, attack_configs(), train_configs()))
def test_json_round_trip_is_exact(record):
    text = json.dumps(record.to_dict())
    back = type(record).from_dict(json.loads(text))
    assert back == record
    assert json.dumps(back.to_dict()) == text
