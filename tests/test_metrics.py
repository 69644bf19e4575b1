"""Distortion and rate metric identities and worked values."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsin import QualityReport, bpppb, mse, psnr, ssim_mean, synth_cube
from hsin.metrics import psnr_from_mse
from hsin.nn import TILE_ROWS
from conftest import make_cube


# ---------------------------------------------------------------------- mse

def test_mse_hand_values():
    assert mse(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])) == 1.0
    a = make_cube(2, 1, 1, [0.0, 0.0])
    b = make_cube(2, 1, 1, [1.0, 1.0])
    assert mse(a.band_matrix(), b.band_matrix()) == 1.0


def test_mse_counts_every_band_entry():
    # divisor is w*h*c, not the pixel count: one wrong entry out of 8
    a = make_cube(2, 2, 2, np.zeros(8))
    wrong = np.zeros(8)
    wrong[5] = 2.0
    b = make_cube(2, 2, 2, wrong)
    assert mse(a.band_matrix(), b.band_matrix()) == 4.0 / 8.0


def test_mse_dimension_mismatch():
    # same sample count, other layout (test_cli checks swapped cube dims)
    with pytest.raises(ValueError):
        mse(np.zeros((1, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        mse(np.zeros((1, 3)), np.zeros((1, 4)))


def test_mse_holds_one_tile_difference_at_a_time():
    # four column tiles of the compress report's pair (float64 bands against
    # a transposed float32 reconstruction): the peak is one tile's float64
    # difference, not two and not the whole pair's
    bands, pixels = 64, 4 * TILE_ROWS
    rng = np.random.default_rng(12)
    ref = rng.random((bands, pixels))
    recon = rng.random((pixels, bands)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mse(ref, recon.T)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * bands * TILE_ROWS


@pytest.mark.parametrize("metric, same", [(mse, 0.0), (psnr, math.inf), (ssim_mean, 1.0)])
def test_metrics_take_band_matrices_only(metric, same):
    cube = synth_cube("random", 3, 2, 2, seed=0)
    assert metric(cube.band_matrix(), cube.band_matrix()) == same
    with pytest.raises(ValueError):
        metric(cube, cube)
    with pytest.raises(ValueError):
        metric(cube.data, cube.data)
    with pytest.raises(ValueError):
        metric(cube.band_matrix(), cube.band_matrix().T)
    for shape in ((3, 0), (0, 5)):
        with pytest.raises(ValueError, match=re.escape(f"got {shape} and {shape}")):
            metric(np.zeros(shape), np.zeros(shape))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mse_symmetric_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 6))
    y = rng.normal(size=(4, 6))
    assert mse(x, y) == mse(y, x)
    assert mse(x, x) == 0.0
    if not np.array_equal(x, y):
        assert mse(x, y) > 0.0


# --------------------------------------------------------------------- psnr

def test_psnr_log_identities():
    a = np.zeros((1, 100))
    b = np.full((1, 100), 0.01)
    assert abs(psnr(a, b, peak=1.0) - 40.0) < 1e-12
    c = np.full((1, 100), 255.0)
    assert psnr(np.zeros((1, 100)), c, peak=255.0) == 0.0


def test_psnr_identical_is_infinite():
    cube = synth_cube("random", 4, 4, 3, seed=0)
    assert psnr(cube.band_matrix(), cube.band_matrix()) == math.inf


def test_psnr_monotone_in_mse():
    a = np.zeros((1, 10))
    assert psnr(a, np.full((1, 10), 0.1)) > psnr(a, np.full((1, 10), 0.2))


def test_psnr_is_psnr_from_mse():
    rng = np.random.default_rng(3)
    x, y = rng.random((1, 50)), rng.random((1, 50))
    assert psnr(x, y, peak=2.0) == psnr_from_mse(mse(x, y), 2.0)
    assert psnr_from_mse(1e-4) == pytest.approx(40.0, rel=1e-15)
    assert psnr_from_mse(0.0) == math.inf


def test_psnr_peak_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((1, 2)), np.zeros((1, 2)), peak=0.0)
    with pytest.raises(ValueError):
        psnr_from_mse(0.5, peak=-1.0)


# --------------------------------------------------------------------- ssim

def ssim_one_band(x, y, **kw) -> float:
    """ssim_mean of two single-band images, each flattened to one (1, n_pixels) row."""
    return ssim_mean(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)), **kw)


def test_ssim_identical_is_exactly_one():
    cube = synth_cube("band-sinusoid", 6, 5, 4)
    assert ssim_mean(cube.band_matrix(), cube.band_matrix()) == 1.0
    band = np.random.default_rng(1).random((5, 6))
    assert ssim_one_band(band, band) == 1.0


def test_ssim_constant_bands_worked_example():
    # x all zeros, y all ones, L=1: means 0 and 1, no variance anywhere,
    # so the score collapses to C1/(1+C1) with C1 = (0.01)^2
    x = np.zeros((4, 4))
    y = np.ones((4, 4))
    c1 = (0.01 * 1.0) ** 2
    expected = c1 / (1.0 + c1)
    got = ssim_one_band(x, y, dynamic_range=1.0)
    assert got == pytest.approx(expected, rel=1e-15)
    assert abs(got - 9.999000099990002e-05) < 1e-18
    assert got < 1e-4  # nowhere near a match


def test_ssim_symmetry_and_range():
    rng = np.random.default_rng(7)
    x = rng.random((8, 8))
    y = np.clip(x + rng.normal(0, 0.05, (8, 8)), 0, 1)
    s = ssim_one_band(x, y)
    assert ssim_one_band(y, x) == s
    assert 0.0 < s <= 1.0


def test_ssim_mean_averages_bands():
    a = make_cube(3, 3, 2, np.concatenate([np.zeros(9), np.ones(9) * 0.5]))
    b = make_cube(3, 3, 2, np.concatenate([np.zeros(9), np.full(9, 0.75)]))
    per_band = [
        ssim_one_band(a.band_matrix()[0], b.band_matrix()[0]),
        ssim_one_band(a.band_matrix()[1], b.band_matrix()[1]),
    ]
    assert ssim_mean(a.band_matrix(), b.band_matrix()) == pytest.approx(np.mean(per_band), rel=1e-15)


def test_ssim_mean_widens_one_band_at_a_time():
    # float64 bands against a transposed float32 reconstruction (the compress
    # report scores two band-major float32 matrices, the normalized cube and
    # its decode). Widening each band on its own gives the bits of a float64
    # copy of the whole reconstruction and holds a few bands at a time, not
    # the 64 bands of such a copy
    rng = np.random.default_rng(11)
    bands, pixels = 64, 4096
    ref = rng.random((bands, pixels))
    recon = (ref.T + rng.normal(0, 0.01, (pixels, bands))).astype(np.float32)
    want = ssim_mean(ref, np.array(recon.T, dtype=np.float64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = ssim_mean(ref, recon.T)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 8 * 8 * pixels


def test_ssim_dimension_mismatch():
    with pytest.raises(ValueError):
        ssim_one_band(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="dynamic_range"):
        ssim_mean(np.zeros((2, 4)), np.zeros((2, 4)), dynamic_range=0.0)


# -------------------------------------------------------------------- bpppb

def test_bpppb_hand_values():
    assert abs(bpppb(32100, 32, 145, 145, 220) - 0.2221) < 1e-4
    assert bpppb(32100, 32, 145, 145, 220) == pytest.approx(0.2220732893741217, rel=1e-12)
    assert bpppb(1000, 16, 100, 100, 224) == pytest.approx(1.0 / 140.0, rel=1e-12)


def test_bpppb_halves_with_bits():
    full = bpppb(5000, 32, 64, 64, 16)
    half = bpppb(5000, 16, 64, 64, 16)
    assert half == full / 2


def test_bpppb_validation():
    with pytest.raises(ValueError):
        bpppb(0, 32, 4, 4, 4)
    with pytest.raises(ValueError):
        bpppb(10, 32, 0, 4, 4)


# ------------------------------------------------------------------- report

def test_quality_report_text():
    rep = QualityReport(mse=1e-4, psnr=40.0, ssim_mean=0.99, bpppb=0.25)
    text = rep.to_text()
    lines = dict(line.split("=", 1) for line in text.splitlines())
    assert float(lines["mse"]) == 1e-4
    assert float(lines["psnr"]) == 40.0
    assert float(lines["ssim_mean"]) == 0.99
    assert float(lines["bpppb"]) == 0.25
    assert "compress_seconds" not in lines  # unset fields are omitted


def test_quality_report_infinite_psnr_round_trips():
    rep = QualityReport(mse=0.0, psnr=math.inf, ssim_mean=1.0)
    lines = dict(line.split("=", 1) for line in rep.to_text().splitlines())
    assert float(lines["psnr"]) == math.inf
