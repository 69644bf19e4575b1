"""Coordinate grid layout and windowed sampling behavior."""

import tracemalloc

import numpy as np
import pytest

from hsin.cube import synth_cube
from hsin.nn import Batch
from hsin.sampling import SampleConfig, build_grid, gather_batch, sample_indices
from conftest import loop_sample_indices


# --------------------------------------------------------------------- grid

def test_grid_formula_and_order():
    g = build_grid(3, 2)
    # row-major: y fixed per row, x fastest; endpoints exactly +-1
    assert g.tolist() == [
        [-1.0, -1.0], [0.0, -1.0], [1.0, -1.0],
        [-1.0, 1.0], [0.0, 1.0], [1.0, 1.0],
    ]


def test_grid_single_row_and_pixel():
    assert build_grid(1, 1).tolist() == [[0.0, 0.0]]
    g = build_grid(5, 1)
    assert g[:, 1].tolist() == [0.0] * 5
    assert g[0, 0] == -1.0 and g[-1, 0] == 1.0
    assert g[2, 0] == 0.0


def test_grid_spacing_uniform():
    g = build_grid(9, 4)
    xs = g[:9, 0]
    assert np.allclose(np.diff(xs), 2.0 / 8)


def literal_axis(n: int) -> np.ndarray:
    # FORMAT.md step 3 in python floats (binary64; int / int rounds once), then float32
    return np.array([-1 + 2 * j / (n - 1) for j in range(n)]).astype(np.float32)


def test_grid_is_float32_rounded_once_from_float64():
    g = build_grid(7, 3)
    assert g.dtype == np.float32
    assert np.array_equal(g[:7, 0], literal_axis(7))
    assert np.array_equal(g[::7, 1], np.array([-1.0, 0.0, 1.0], dtype=np.float32))


@pytest.mark.parametrize("n", [99, 197])
def test_grid_is_the_stated_formula_bit_for_bit(n):
    # at these sizes j * (2/(n-1)) - 1 rounds differently: at n = 99 the
    # centre pixel (j = 49) would sit at -2**-53, not 0
    g = build_grid(n, n)
    assert g[:n, 0].tobytes() == literal_axis(n).tobytes()
    assert g[::n, 1].tobytes() == literal_axis(n).tobytes()


def test_grid_build_peak_is_12_bytes_per_pixel():
    # the (n, 2) float32 grid plus one float32 column while it is filled
    width, height = 300, 200
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_grid(width, height)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.nbytes == 8 * width * height
    assert peak <= 12 * width * height + 4096


# ----------------------------------------------------------------- sampling

def test_sample_counts_hand_derived():
    # 6x6 in 3x3 blocks: 4 blocks, k = floor(0.5*9 + 0.5) = 5 each
    idx = sample_indices(6, 6, SampleConfig(window=3, rate=0.5), 0, 0)
    assert idx.size == 20
    assert np.unique(idx).size == 20
    assert idx.min() >= 0 and idx.max() < 36


def test_sample_counts_ragged_edges():
    # 64x64 in 3x3 blocks: 441 full (k=2 at rate 0.25), 42 of 3 px (k=1),
    # 1 of 1 px (k=1) -> 925
    idx = sample_indices(64, 64, SampleConfig(window=3, rate=0.25), 0, 0)
    assert idx.size == 925
    assert np.unique(idx).size == 925


def test_every_block_represented():
    # rate low enough that k floors at 1: every block still contributes
    idx = sample_indices(8, 8, SampleConfig(window=4, rate=0.01), 3, 0)
    assert idx.size == 4
    blocks = {(int(i) % 8 // 4, int(i) // 8 // 4) for i in idx}
    assert len(blocks) == 4


def test_rate_one_returns_all_pixels():
    idx = sample_indices(7, 5, SampleConfig(window=3, rate=1.0), 0, 0)
    assert np.array_equal(idx, np.arange(35))


def test_window_larger_than_image():
    # one block covering everything
    idx = sample_indices(4, 3, SampleConfig(window=10, rate=0.5), 1, 0)
    assert idx.size == 6  # floor(0.5*12 + 0.5)
    assert np.unique(idx).size == 6


def test_determinism_and_resampling():
    cfg = SampleConfig(window=3, rate=0.5)
    a = sample_indices(12, 12, cfg, 42, 7)
    b = sample_indices(12, 12, cfg, 42, 7)
    c = sample_indices(12, 12, cfg, 42, 8)
    d = sample_indices(12, 12, cfg, 43, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_coverage_frequency_binomial():
    # selection frequency of each pixel approaches the rate; seed chosen so
    # the run is deterministic, then every pixel is checked against 3 sigma
    cfg = SampleConfig(window=2, rate=0.5)
    epochs = 400
    counts = np.zeros(64)
    for epoch in range(epochs):
        counts[sample_indices(8, 8, cfg, 2, epoch)] += 1
    freq = counts / epochs
    sigma = np.sqrt(0.5 * 0.5 / epochs)
    assert np.abs(freq - 0.5).max() <= 3 * sigma


@pytest.mark.parametrize("window", [1, 3, 4, 7])
@pytest.mark.parametrize("width, height", [(12, 12), (13, 11), (29, 17), (5, 3), (5, 17), (17, 5)],
                         ids=["even", "ragged", "ragged-wide", "window-beyond-image",
                              "short-x", "short-y"])
def test_block_grouping_matches_loop_oracle(window, width, height):
    # the block shapes must be drawn in the loop's group order, so every
    # draw from the (seed, epoch) stream lands on the same block
    for seed, epoch, rate in [(0, 0, 0.25), (7, 3, 0.5), (123, 41, 0.1), (2, 9, 1.0)]:
        cfg = SampleConfig(window=window, rate=rate)
        got = sample_indices(width, height, cfg, seed, epoch)
        want = loop_sample_indices(width, height, cfg, seed, epoch)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (seed, epoch, rate)


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(window=0, rate=0.5)
    with pytest.raises(ValueError):
        SampleConfig(window=3, rate=0.0)
    with pytest.raises(ValueError):
        SampleConfig(window=3, rate=1.5)
    with pytest.raises(ValueError, match="epoch"):
        sample_indices(4, 4, SampleConfig(window=2, rate=0.5), 0, -1)
    with pytest.raises(ValueError, match="grid dimensions"):
        build_grid(0, 3)


# ------------------------------------------------------------------- gather

def full_grid(cube, coords):
    # the pixel-major float32 batch overfit builds once per run
    return Batch(coords.astype(np.float32), cube.band_matrix().T.astype(np.float32))


def test_gather_matches_direct_lookup():
    cube = synth_cube("random", 9, 6, 4, seed=5)
    coords = build_grid(9, 6)
    rng = np.random.default_rng(6)
    idx = rng.choice(54, size=17, replace=False)
    batch = gather_batch(cube, full_grid(cube, coords), idx)
    assert batch.inputs.shape == (17, 2)
    assert batch.targets.shape == (17, 4)
    bm = cube.band_matrix()
    for row, i in enumerate(idx):
        assert np.array_equal(batch.inputs[row], coords[i].astype(np.float32))
        assert np.array_equal(batch.targets[row], bm[:, i].astype(np.float32))


def test_gather_full_grid_equals_everything():
    cube = synth_cube("smooth-gradient", 5, 4, 3)
    coords = build_grid(5, 4)
    batch = gather_batch(cube, full_grid(cube, coords), np.arange(20))
    assert np.array_equal(batch.inputs, coords.astype(np.float32))
    assert np.array_equal(batch.targets, cube.band_matrix().T.astype(np.float32))


def test_gather_single_index():
    cube = synth_cube("band-sinusoid", 4, 4, 2)
    batch = gather_batch(cube, full_grid(cube, build_grid(4, 4)), np.array([9]))
    assert batch.inputs.shape == (1, 2)
    assert np.array_equal(batch.targets[0], cube.band_matrix()[:, 9].astype(np.float32))


def test_gather_dtype_and_errors():
    cube = synth_cube("random", 4, 4, 2, seed=1)
    grid = full_grid(cube, build_grid(4, 4))
    batch = gather_batch(cube, grid, np.array([0, 1]))
    assert batch.inputs.dtype == np.float32
    assert batch.targets.dtype == np.float32
    with pytest.raises(IndexError):
        gather_batch(cube, grid, np.array([16]))
    with pytest.raises(IndexError):
        gather_batch(cube, grid, np.array([-1]))
    with pytest.raises(ValueError, match="non-empty"):
        gather_batch(cube, grid, np.array([], dtype=np.int64))
    other = synth_cube("random", 5, 4, 2, seed=1)
    with pytest.raises(ValueError):
        gather_batch(cube, full_grid(other, build_grid(5, 4)), np.array([0]))
