"""Architecture arithmetic, initialization, and parameter layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsin.siren import SirenSpec, init_params, layer_shapes, param_count, unflatten


def enumerate_count(spec: SirenSpec) -> int:
    # independent route: walk the layer dimension list
    dims = [spec.in_dim] + [spec.hidden_width] * spec.n_hidden + [spec.out_dim]
    return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


def test_param_count_hand_derived():
    assert param_count(SirenSpec(n_hidden=1, hidden_width=4, out_dim=3)) == 27
    assert param_count(SirenSpec(n_hidden=15, hidden_width=40, out_dim=220)) == 32100
    assert param_count(SirenSpec(n_hidden=1, hidden_width=1, out_dim=1)) == 5


@settings(max_examples=60, deadline=None)
@given(
    n_hidden=st.integers(1, 25),
    hidden_width=st.integers(1, 128),
    out_dim=st.integers(1, 256),
)
def test_param_count_matches_enumeration(n_hidden, hidden_width, out_dim):
    spec = SirenSpec(n_hidden=n_hidden, hidden_width=hidden_width, out_dim=out_dim)
    n = param_count(spec)
    assert n == enumerate_count(spec)
    # closed form: weights 2*w + (n-1)*w^2 + w*c, biases n*w + c
    w, nh, c = hidden_width, n_hidden, out_dim
    assert n == 2 * w + (nh - 1) * w * w + w * c + nh * w + c


def test_layer_shapes():
    spec = SirenSpec(n_hidden=3, hidden_width=5, out_dim=7)
    assert layer_shapes(spec) == [(5, 2), (5, 5), (5, 5), (7, 5)]


def test_spec_validation():
    with pytest.raises(ValueError):
        SirenSpec(n_hidden=0, hidden_width=4, out_dim=1)
    with pytest.raises(ValueError):
        SirenSpec(n_hidden=1, hidden_width=0, out_dim=1)
    # the (x, y) input width is a constant, not a field a caller can set
    assert SirenSpec(n_hidden=1, hidden_width=4, out_dim=1).in_dim == 2
    with pytest.raises(TypeError):
        SirenSpec(n_hidden=1, hidden_width=4, out_dim=1, in_dim=3)


def test_init_bounds_first_layer():
    # fan_in = 2 -> uniform in (-0.5, 0.5), open interval
    spec = SirenSpec(n_hidden=1, hidden_width=64, out_dim=4)
    (weights, biases), *_ = unflatten(spec, init_params(spec, seed=0).astype(np.float64))
    first = np.concatenate([weights.ravel(), biases])
    assert np.abs(first).max() < 0.5
    assert np.abs(first).max() > 0.4  # actually fills the interval


def test_init_bounds_later_layers():
    # fan_in = 40 -> bound sqrt(6/40)/30
    spec = SirenSpec(n_hidden=2, hidden_width=40, out_dim=3)
    bound = np.sqrt(6.0 / 40.0) / 30.0
    assert abs(bound - 0.012909944487358056) < 1e-15
    layers = unflatten(spec, init_params(spec, seed=1).astype(np.float64))
    for weights, biases in layers[1:]:
        vals = np.concatenate([weights.ravel(), biases])
        assert np.abs(vals).max() < bound
        assert np.abs(vals).max() > 0.8 * bound


def test_init_determinism():
    spec = SirenSpec(n_hidden=2, hidden_width=8, out_dim=3)
    a = init_params(spec, seed=5)
    b = init_params(spec, seed=5)
    c = init_params(spec, seed=6)
    assert a.dtype == np.float32
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_flatten_unflatten_round_trip():
    spec = SirenSpec(n_hidden=3, hidden_width=6, out_dim=2)
    params = init_params(spec, seed=3).astype(np.float64)
    layers = unflatten(spec, params)
    assert len(layers) == spec.n_hidden + 1
    assert [w.shape for w, _ in layers] == layer_shapes(spec)
    assert all(b.shape == (w.shape[0],) for w, b in layers)
    again = np.concatenate([part.ravel() for layer in layers for part in layer])
    assert np.array_equal(again, params)
    # unflatten returns views into the same buffer, not copies
    assert all(np.shares_memory(part, params) for layer in layers for part in layer)


def test_unflatten_rejects_wrong_length():
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=3)
    with pytest.raises(ValueError, match="27"):
        unflatten(spec, np.zeros(26))


def test_canonical_order_is_load_bearing():
    # permuting the flat vector must change what the layers see
    spec = SirenSpec(n_hidden=1, hidden_width=3, out_dim=2)
    params = init_params(spec, seed=7).astype(np.float64)
    rolled = np.roll(params, 1)
    a = unflatten(spec, params)[0][0]
    b = unflatten(spec, rolled)[0][0]
    assert not np.array_equal(a, b)
