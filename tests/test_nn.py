"""Forward/backward correctness against scalar oracles and finite differences."""

import math
import tracemalloc

import numpy as np
import pytest

import hsin.nn
from hsin.nn import TILE_ROWS, Batch, mlp_forward, mlp_loss_and_grad, row_tiles
from hsin.siren import SirenSpec, init_params, param_count
from conftest import (mlp_loss, numeric_gradient, reference_loss_and_grad, rel_err,
                      scalar_forward, scalar_loss)


def random_net(rng, max_hidden=3, max_width=8, max_out=4, max_rows=16):
    spec = SirenSpec(
        n_hidden=int(rng.integers(1, max_hidden + 1)),
        hidden_width=int(rng.integers(1, max_width + 1)),
        out_dim=int(rng.integers(1, max_out + 1)),
    )
    params = init_params(spec, seed=int(rng.integers(0, 2**31))).astype(np.float64)
    n = int(rng.integers(1, max_rows + 1))
    batch = Batch(
        rng.uniform(-1.0, 1.0, (n, spec.in_dim)),
        rng.uniform(0.0, 1.0, (n, spec.out_dim)),
    )
    return spec, params, batch


def test_forward_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spec, params, batch = random_net(rng)
        fast = mlp_forward(spec, params, batch.inputs)
        slow = scalar_forward(spec, params, batch.inputs)
        assert rel_err(fast, slow) < 1e-12


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        spec, params, batch = random_net(rng)
        fast = mlp_loss(spec, params, batch)
        slow = scalar_loss(spec, params, batch.inputs, batch.targets)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(20):
        spec, params, batch = random_net(rng)
        _, analytic = mlp_loss_and_grad(spec, params, batch)
        numeric = numeric_gradient(spec, params, batch)
        assert rel_err(analytic, numeric) < 1e-4


def test_final_layer_gradient_is_exact():
    # the loss is exactly quadratic in the last layer's parameters, so
    # central differences carry no truncation error there at all
    rng = np.random.default_rng(14)
    spec, params, batch = random_net(rng)
    _, analytic = mlp_loss_and_grad(spec, params, batch)
    numeric = numeric_gradient(spec, params, batch)
    tail = spec.out_dim * spec.hidden_width + spec.out_dim
    assert rel_err(analytic[-tail:], numeric[-tail:]) < 1e-9


def test_gradient_descends():
    rng = np.random.default_rng(15)
    spec, params, batch = random_net(rng)
    loss, grad = mlp_loss_and_grad(spec, params, batch)
    stepped = mlp_loss(spec, params - 1e-3 * grad / max(1e-12, np.linalg.norm(grad)), batch)
    assert stepped < loss


def test_training_dtype_stays_float32():
    spec = SirenSpec(n_hidden=2, hidden_width=8, out_dim=3)
    params = init_params(spec, seed=0)  # float32
    batch = Batch(
        np.random.default_rng(0).uniform(-1, 1, (9, 2)).astype(np.float32),
        np.random.default_rng(1).uniform(0, 1, (9, 3)).astype(np.float32),
    )
    out = mlp_forward(spec, params, batch.inputs)
    loss, grad = mlp_loss_and_grad(spec, params, batch)
    assert out.dtype == np.float32
    assert grad.dtype == np.float32
    assert isinstance(loss, float)
    assert grad.size == param_count(spec)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_hidden", [1, 3, 4])
def test_workspace_step_is_bitwise_the_fresh_step(dtype, n_hidden):
    # the step's in-place arithmetic against the out-of-place reference,
    # bitwise, on consecutive steps whose row counts change and repeat
    spec = SirenSpec(n_hidden=n_hidden, hidden_width=24, out_dim=7)
    params = init_params(spec, seed=n_hidden).astype(dtype)
    rng = np.random.default_rng(n_hidden)
    for rows in (300, 300, 41, 1, 300, 1024, 1024):
        batch = Batch(rng.uniform(-1, 1, (rows, 2)).astype(np.float32),
                      rng.uniform(0, 1, (rows, spec.out_dim)).astype(np.float32))
        loss, grad = mlp_loss_and_grad(spec, params, batch)
        want_loss, want_grad = reference_loss_and_grad(spec, params, batch)
        assert loss == want_loss
        assert grad.dtype == want_grad.dtype == dtype
        assert np.array_equal(grad.view(np.uint8), want_grad.view(np.uint8))
        params = params - dtype(1e-2) * grad


def test_row_tiles_remainder_joins_last(monkeypatch):
    monkeypatch.setattr(hsin.nn, "TILE_ROWS", 7)
    assert row_tiles(1) == [slice(0, 1)]
    assert row_tiles(13) == [slice(0, 13)]
    assert row_tiles(14) == [slice(0, 7), slice(7, 14)]
    assert row_tiles(20) == [slice(0, 7), slice(7, 20)]


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_tiled_step_matches_untiled_reference(monkeypatch, dtype, tol):
    # 7-row tiles: 6, 7 and 13 rows are one tile (bitwise the untiled step);
    # 14, 15 and 29 rows are two, two and four tiles whose contributions
    # are summed in a different order
    monkeypatch.setattr(hsin.nn, "TILE_ROWS", 7)
    spec = SirenSpec(n_hidden=3, hidden_width=12, out_dim=5)
    params = init_params(spec, seed=4).astype(dtype)
    rng = np.random.default_rng(4)
    for rows in (6, 7, 13, 14, 15, 29, 13):
        batch = Batch(rng.uniform(-1, 1, (rows, 2)).astype(dtype),
                      rng.uniform(0, 1, (rows, spec.out_dim)).astype(dtype))
        loss, grad = mlp_loss_and_grad(spec, params, batch)
        want_loss, want_grad = reference_loss_and_grad(spec, params, batch)
        assert grad.dtype == dtype
        if rows < 14:
            assert loss == want_loss and np.array_equal(grad, want_grad)
        assert abs(loss - want_loss) <= tol * want_loss
        assert np.max(np.abs(grad - want_grad)) <= tol * np.max(np.abs(want_grad))


@pytest.mark.parametrize("tile_rows", [TILE_ROWS, 7])
def test_step_loss_matches_scalar_oracle(monkeypatch, tile_rows):
    # the loss the step returns against the scalar loop, not against the
    # step's mirror; with 7-row tiles the 14- to 29-row batches are 2-4 tiles
    monkeypatch.setattr(hsin.nn, "TILE_ROWS", tile_rows)
    rng = np.random.default_rng(17)
    for rows in (1, 6, 13, 14, 15, 29):
        spec, params, _ = random_net(rng)
        batch = Batch(rng.uniform(-1.0, 1.0, (rows, spec.in_dim)),
                      rng.uniform(0.0, 1.0, (rows, spec.out_dim)))
        loss, _ = mlp_loss_and_grad(spec, params, batch)
        want = scalar_loss(spec, params, batch.inputs, batch.targets)
        assert abs(loss - want) <= 1e-12 * want


def test_tiled_gradient_matches_finite_differences(monkeypatch):
    monkeypatch.setattr(hsin.nn, "TILE_ROWS", 7)
    rng = np.random.default_rng(16)
    spec, params, _ = random_net(rng)
    batch = Batch(rng.uniform(-1.0, 1.0, (23, spec.in_dim)),
                  rng.uniform(0.0, 1.0, (23, spec.out_dim)))
    assert len(row_tiles(23)) == 3
    _, analytic = mlp_loss_and_grad(spec, params, batch)
    assert rel_err(analytic, numeric_gradient(spec, params, batch)) < 1e-4


def test_step_peak_memory_is_one_tile():
    # 16 tiles of rows: the step's buffers hold one tile, so its peak is a
    # small multiple of one tile's activations (16 times that if untiled)
    spec = SirenSpec(n_hidden=4, hidden_width=32, out_dim=16)
    params = init_params(spec, seed=5)
    rows = 16 * TILE_ROWS
    rng = np.random.default_rng(5)
    batch = Batch(rng.uniform(-1, 1, (rows, 2)).astype(np.float32),
                  rng.uniform(0, 1, (rows, spec.out_dim)).astype(np.float32))
    # w0*z and sine per hidden layer, two backprop buffers, output and square
    tile_bytes = 4 * TILE_ROWS * (2 * spec.n_hidden * spec.hidden_width
                                  + 2 * spec.hidden_width + 2 * spec.out_dim)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mlp_loss_and_grad(spec, params, batch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * tile_bytes


def test_forward_shape_checks():
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=2)
    params = init_params(spec, seed=0).astype(np.float64)
    with pytest.raises(ValueError):
        mlp_forward(spec, params, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 2)), np.zeros((0, 2)))


def test_numeric_gradient_validates_eps():
    spec = SirenSpec(n_hidden=1, hidden_width=2, out_dim=1)
    params = init_params(spec, seed=0).astype(np.float64)
    batch = Batch(np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        numeric_gradient(spec, params, batch, eps=0.0)


def test_single_pixel_single_weight_net():
    # n_h = w_h = out = 1: y = w2*sin(w0*(w1*x1 + v1*x2 + b1)) + b2
    spec = SirenSpec(n_hidden=1, hidden_width=1, out_dim=1)
    params = np.array([0.3, -0.2, 0.1, 0.7, 0.05], dtype=np.float64)
    x = np.array([[0.4, -0.9]])
    z = 0.3 * 0.4 + (-0.2) * (-0.9) + 0.1
    expected = 0.7 * math.sin(30.0 * z) + 0.05
    got = mlp_forward(spec, params, x)
    assert abs(got[0, 0] - expected) < 1e-14
