"""Adam update semantics against a per-element scalar oracle."""

import numpy as np
import pytest

from hsin.adam import LR, AdamState, TrainingDiverged, adam_step, fresh_state
from conftest import scalar_adam


def test_matches_scalar_oracle_ten_steps():
    rng = np.random.default_rng(21)
    params = rng.normal(size=50)
    grads_seq = [rng.normal(size=50) for _ in range(10)]
    state = fresh_state(params)
    p = params
    for g in grads_seq:
        p, state = adam_step(state, p, g)
    expected = scalar_adam(params, grads_seq, lr=LR)
    assert np.abs(p - expected).max() < 1e-12
    assert state.step == 10


def test_first_step_magnitude_is_learning_rate():
    # with zero moments, m_hat/sqrt(v_hat) = sign(g), so each parameter
    # moves by almost exactly lr
    params = np.zeros(6)
    grads = np.array([3.0, -0.5, 10.0, -2.0, 0.1, 7.0])
    assert LR == 2e-4
    state = fresh_state(params)
    new_params, _ = adam_step(state, params, grads)
    moved = np.abs(new_params - params)
    assert np.all(moved > 0.99 * 2e-4)
    assert np.all(moved <= 2e-4)
    assert np.all(np.sign(params - new_params) == np.sign(grads))


def test_elementwise_independence():
    # updating a longer vector does not change what happens to a prefix
    rng = np.random.default_rng(22)
    params = rng.normal(size=8)
    grads = rng.normal(size=8)
    s_all = fresh_state(params)
    p_all, _ = adam_step(s_all, params, grads)
    s_head = fresh_state(params[:3])
    p_head, _ = adam_step(s_head, params[:3].copy(), grads[:3].copy())
    assert np.array_equal(p_all[:3], p_head)


def test_float32_stays_float32():
    params = np.ones(4, dtype=np.float32)
    grads = np.full(4, 0.5, dtype=np.float32)
    state = fresh_state(params)
    new_params, new_state = adam_step(state, params, grads)
    assert new_params.dtype == np.float32
    assert new_state.m.dtype == np.float32
    assert new_state.v.dtype == np.float32


def test_functional_no_mutation():
    params = np.ones(4)
    grads = np.full(4, 2.0)
    state = fresh_state(params)
    adam_step(state, params, grads)
    assert np.all(params == 1.0)
    assert np.all(state.m == 0.0) and state.step == 0


def test_non_finite_gradients_abort():
    params = np.zeros(3)
    state = fresh_state(params)
    with pytest.raises(TrainingDiverged, match="parameter 1"):
        adam_step(state, params, np.array([0.0, np.nan, 1.0]))
    with pytest.raises(TrainingDiverged):
        adam_step(state, params, np.array([np.inf, 0.0, 1.0]))


def test_shape_mismatch_rejected():
    params = np.zeros(3)
    state = fresh_state(params)
    with pytest.raises(ValueError):
        adam_step(state, params, np.zeros(4))


def test_config_validation():
    with pytest.raises(ValueError, match="step"):
        AdamState(step=-1, m=np.zeros(2), v=np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        AdamState(step=0, m=np.zeros(2), v=np.zeros(3))
