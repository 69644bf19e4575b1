"""Acceptance gate: one test per top-level criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible with -s or
on failure) and asserts the stated tolerance. Thresholds involving training
were frozen from reference runs on this machine before the suite was
written; the reference numbers appear in comments.
"""

import math
import os
import time

import numpy as np
import pytest

from hsin import (
    EncodedImage,
    SampleConfig,
    SirenSpec,
    TrainConfig,
    bpppb,
    deserialize,
    mse,
    normalize,
    open_cube,
    psnr,
    serialize,
    ssim_mean,
    synth_cube,
)
from hsin.cube import ScaleInfo
from hsin.encoder import overfit
from hsin.nn import Batch, mlp_loss_and_grad
from hsin.siren import init_params, param_count
from conftest import make_cube, numeric_gradient, rel_err

ALL_SNAPSHOTS = []  # every training run here feeds criterion 4


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness():
    # 100 random small nets, analytic vs central differences, < 1e-4, < 30 s
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        spec = SirenSpec(
            n_hidden=int(rng.integers(1, 4)),
            hidden_width=int(rng.integers(1, 9)),
            out_dim=int(rng.integers(1, 5)),
        )
        params = init_params(spec, seed=int(rng.integers(0, 2**31))).astype(np.float64)
        n = int(rng.integers(1, 17))
        batch = Batch(
            rng.uniform(-1.0, 1.0, (n, 2)),
            rng.uniform(0.0, 1.0, (n, spec.out_dim)),
        )
        _, analytic = mlp_loss_and_grad(spec, params, batch)
        numeric = numeric_gradient(spec, params, batch)
        worst = max(worst, rel_err(analytic, numeric))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(1, ok, f"max rel err {worst:.3e} over 100 nets in {elapsed:.1f} s")


# ------------------------------------------------------------- criterion 2

def test_criterion_2_codec_round_trip():
    # 1,000 random EncodedImages (500 per precision): bitwise round trip and
    # exact file-size law, < 10 s
    rng = np.random.default_rng(54321)
    t0 = time.perf_counter()
    checked = 0
    for quantized in (False, True):
        for _ in range(500):
            spec = SirenSpec(
                n_hidden=int(rng.integers(1, 5)),
                hidden_width=int(rng.integers(1, 13)),
                out_dim=int(rng.integers(1, 13)),
            )
            params = rng.normal(0, 1.0, param_count(spec)).astype(np.float32)
            if quantized:
                params = params.astype(np.float16)
            lo = float(np.float32(rng.uniform(-10, 10)))
            enc = EncodedImage(
                width=int(rng.integers(1, 200)),
                height=int(rng.integers(1, 200)),
                spec=spec,
                scale=ScaleInfo(lo, lo + 1.0),
                params=params,
            )
            blob = serialize(enc)
            bits = 16 if quantized else 32
            assert len(blob) == 25 + enc.params.size * (bits // 8)
            assert blob[13] == quantized  # the precision flag follows the payload's dtype
            back = deserialize(blob)
            assert back.params.tobytes() == enc.params.tobytes()
            assert back.params.dtype == enc.params.dtype
            assert (back.width, back.height, back.spec) == (enc.width, enc.height, enc.spec)
            assert back.quantized == enc.quantized and back.scale == enc.scale
            assert serialize(back) == blob
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 1000 and elapsed < 10.0
    report(2, ok, f"{checked} images round-tripped bitwise in {elapsed:.1f} s")


# ----------------------------------------------- criteria 3/4/6 shared run

CUBE_C3 = synth_cube("smooth-gradient", 32, 32, 8)
SPEC_C3 = SirenSpec(n_hidden=3, hidden_width=32, out_dim=8)


@pytest.fixture(scope="module")
def crit3_full():
    norm, _ = normalize(CUBE_C3)
    t0 = time.perf_counter()
    snap = overfit(norm, SPEC_C3, TrainConfig(iterations=5000, eval_every=100, seed=1))
    elapsed = time.perf_counter() - t0
    ALL_SNAPSHOTS.append(snap)
    return snap, elapsed


@pytest.fixture(scope="module")
def crit6_half():
    norm, _ = normalize(CUBE_C3)
    cfg = TrainConfig(iterations=5000, eval_every=100, seed=1, half=True)
    snap = overfit(norm, SPEC_C3, cfg)
    ALL_SNAPSHOTS.append(snap)
    return snap


def test_criterion_3_overfitting_capability(crit3_full):
    # reference run: 58.84 dB in ~7.4 s on a shared 2-core box (bar: 40 dB, 5 min)
    snap, elapsed = crit3_full
    ok = snap.psnr >= 40.0 and elapsed < 300.0
    report(3, ok, f"32x32x8 (3,32) reached {snap.psnr:.2f} dB in {elapsed:.1f} s / 5000 iters")


# ------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def crit5_runs():
    cube = synth_cube("smooth-gradient", 64, 64, 16)
    norm, _ = normalize(cube)
    spec = SirenSpec(n_hidden=3, hidden_width=32, out_dim=16)
    iters = 1500
    results = {}
    for label, sample in (("full", None),
                          ("sampled", SampleConfig(window=3, rate=0.25))):
        cfg = TrainConfig(iterations=iters, eval_every=iters, sample=sample)
        t0 = time.perf_counter()
        snap = overfit(norm, spec, cfg)
        per_iter = (time.perf_counter() - t0) / iters
        ALL_SNAPSHOTS.append(snap)
        results[label] = (snap, per_iter)
    return results


def test_criterion_5_sampling_speed_and_quality(crit5_runs):
    # reference run: ratio 0.34, gap -0.03 dB (bars: 0.5 and 2 dB)
    full_snap, full_time = crit5_runs["full"]
    samp_snap, samp_time = crit5_runs["sampled"]
    ratio = samp_time / full_time
    gap = full_snap.psnr - samp_snap.psnr
    ok = ratio <= 0.5 and gap <= 2.0
    report(5, ok, f"per-iter ratio {ratio:.2f} (<= 0.5), PSNR gap {gap:.2f} dB (<= 2.0)")


# ------------------------------------------------------------- criterion 6

def test_criterion_6_half_precision_close_to_full(crit3_full, crit6_half):
    # reference run: full 58.84, half 58.44 -> drop 0.40 dB (bar: 1 dB)
    full_snap, _ = crit3_full
    drop = full_snap.psnr - crit6_half.psnr
    ok = crit6_half.psnr >= full_snap.psnr - 1.0
    report(6, ok, f"half16 {crit6_half.psnr:.2f} dB vs full32 {full_snap.psnr:.2f} dB "
                  f"(drop {drop:.2f} dB <= 1.0)")


# ------------------------------------------------------------- criterion 4

def test_criterion_4_snapshot_monotonicity(crit3_full, crit6_half, crit5_runs):
    # checked across every training run this suite performed
    assert len(ALL_SNAPSHOTS) >= 4
    worst = None
    for snap in ALL_SNAPSHOTS:
        scores = [s for _, s in snap.history]
        running = np.maximum.accumulate(scores)
        assert np.all(np.diff(running) >= 0)
        assert snap.psnr == running[-1]
        assert snap.psnr >= scores[-1]
        slack = snap.psnr - scores[-1]
        worst = slack if worst is None else min(worst, slack)
    report(4, True, f"retained-best non-decreasing on {len(ALL_SNAPSHOTS)} runs; "
                    f"snapshot >= final epoch by >= {worst:.3f} dB")


# ------------------------------------------------------------- criterion 7

def test_criterion_7_metric_identities():
    rng = np.random.default_rng(777)
    ok = True
    for _ in range(5):
        dims = (int(rng.integers(2, 9)), int(rng.integers(2, 9)), int(rng.integers(1, 6)))
        vals = rng.random(dims[0] * dims[1] * dims[2])
        x = make_cube(*dims, vals).band_matrix()
        y = make_cube(*dims, rng.random(vals.size)).band_matrix()
        ok &= psnr(x, x) == math.inf
        ok &= ssim_mean(x, x) == 1.0
        ok &= mse(x, y) == mse(y, x)
        ok &= mse(x, x) == 0.0
        ok &= mse(x, y) > 0.0
    rate = bpppb(32100, 32, 145, 145, 220)
    ok &= abs(rate - 0.2221) < 1e-4
    report(7, bool(ok), f"identities hold; bpppb(32100,32,145,145,220) = {rate:.6f}")


# ------------------------------------------------------------- criterion 8

@pytest.mark.skipif(
    "HSIN_INDIAN_PINES" not in os.environ,
    reason="full-scale anchor: set HSIN_INDIAN_PINES to the cube's .raw path",
)
def test_criterion_8_full_scale_anchor():
    # hours-scale on CPU; deliberately excluded from CI
    cube = open_cube(os.environ["HSIN_INDIAN_PINES"])
    norm, _ = normalize(cube)
    spec = SirenSpec(n_hidden=15, hidden_width=40, out_dim=cube.bands)
    snap = overfit(norm, spec, TrainConfig(iterations=20000, eval_every=500))
    ALL_SNAPSHOTS.append(snap)
    ok = snap.psnr >= 36.0
    report(8, ok, f"Indian-Pines-scale run reached {snap.psnr:.2f} dB (>= 36)")
