"""Training loop, snapshotting, architecture search, and the full pipeline."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hsin.encoder
from hsin import (
    SampleConfig,
    SirenSpec,
    TrainConfig,
    TrainingDiverged,
    architecture_search,
    bpppb,
    compress,
    decompress,
    mse,
    normalize,
    psnr,
    serialize,
    ssim_mean,
    synth_cube,
)
from hsin.codec import EncodedImage
from hsin.cube import ScaleInfo
from hsin.encoder import DEFAULT_PROBE_ITERATIONS, PROBE_SAMPLE, BestSnapshot, overfit
from hsin.metrics import psnr_from_mse
from hsin.siren import param_count
from conftest import make_cube


def small_cube():
    return synth_cube("smooth-gradient", 16, 16, 4)


# ------------------------------------------------------------------ overfit

def test_constant_cube_learns_biases_fast():
    # normalize maps any constant cube to all zeros, so the net only has to
    # cancel its small initial output. Adam moves each parameter by at most
    # ~2e-4 per step, which covers that offset within 500 iterations.
    norm, _ = normalize(make_cube(4, 4, 2, np.full(32, 0.5)))
    assert not norm.data.any()
    spec = SirenSpec(n_hidden=1, hidden_width=16, out_dim=2)
    snap = overfit(norm, spec, TrainConfig(iterations=500, eval_every=50))
    assert snap.psnr >= 60.0


def test_snapshot_is_argmax_not_last():
    norm, _ = normalize(small_cube())
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=4)
    snap = overfit(norm, spec, TrainConfig(iterations=400, eval_every=25))
    scores = [s for _, s in snap.history]
    assert len(scores) == 16
    assert snap.psnr == max(scores)
    assert snap.psnr >= scores[-1]
    # running best never decreases
    running = np.maximum.accumulate(scores)
    assert np.all(np.diff(running) >= 0)


def test_history_includes_final_epoch():
    norm, _ = normalize(small_cube())
    spec = SirenSpec(n_hidden=1, hidden_width=8, out_dim=4)
    snap = overfit(norm, spec, TrainConfig(iterations=130, eval_every=50))
    assert [e for e, _ in snap.history] == [50, 100, 130]


def test_overfit_precondition_checks():
    spec = SirenSpec(n_hidden=1, hidden_width=8, out_dim=4)
    cube = make_cube(4, 4, 2, np.zeros(32))
    with pytest.raises(ValueError, match="bands"):
        overfit(cube, spec, TrainConfig(iterations=10))
    unnormalized = make_cube(4, 4, 4, np.full(64, 3.0))
    with pytest.raises(ValueError, match="normalized"):
        overfit(unnormalized, spec, TrainConfig(iterations=10))


def test_overfit_determinism():
    norm, _ = normalize(small_cube())
    spec = SirenSpec(n_hidden=1, hidden_width=8, out_dim=4)
    cfg = TrainConfig(iterations=200, eval_every=100, seed=3)
    a = overfit(norm, spec, cfg)
    b = overfit(norm, spec, cfg)
    assert np.array_equal(a.params, b.params)
    assert a.history == b.history


def test_sampled_training_runs_and_converges_reasonably():
    norm, _ = normalize(small_cube())
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=4)
    cfg = TrainConfig(
        iterations=600, eval_every=200,
        sample=SampleConfig(window=3, rate=0.5),
    )
    snap = overfit(norm, spec, cfg)
    assert snap.psnr > 25.0


def test_nan_loss_aborts_with_diagnostic(monkeypatch):
    norm, _ = normalize(small_cube())
    spec = SirenSpec(n_hidden=1, hidden_width=8, out_dim=4)

    def poisoned(spec_, params, batch):
        return math.nan, np.zeros(param_count(spec_), dtype=params.dtype)

    monkeypatch.setattr(hsin.encoder, "mlp_loss_and_grad", poisoned)
    with pytest.raises(TrainingDiverged, match="iteration 1"):
        overfit(norm, spec, TrainConfig(iterations=10))


def test_full_batch_overfit_peak_memory():
    # the training buffers hold one row tile, so keeping them through each
    # eval adds little to the eval's own peak. With a fresh array per
    # intermediate and an eval that widened a copy before subtracting, this
    # run peaked at 6,374,941 traced bytes (numpy 2.4, Python 3.11).
    norm, _ = normalize(synth_cube("band-sinusoid", 48, 48, 64))
    spec = SirenSpec(n_hidden=3, hidden_width=32, out_dim=64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        overfit(norm, spec, TrainConfig(iterations=4, eval_every=2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6_374_941


def test_compress_peak_memory_is_two_float32_copies_of_the_cube():
    # above its input: the normalized float32 cube (4 B per sample) and, in
    # training, its pixel-major float32 copy (4 B), then the report's float32
    # reconstruction in its place, plus one tile's buffers and a sampled
    # batch (here 9.2 B full batch, 10.1 sampled). A whole-cube float64
    # normalize and a whole-grid reconstruction at each eval made it 12.8
    # and 13.6
    cube = synth_cube("band-sinusoid", 130, 120, 128)
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=128)
    for cfg in (TrainConfig(iterations=2, eval_every=1),
                TrainConfig(iterations=2, eval_every=1, half=True,
                            sample=SampleConfig(window=3, rate=0.25))):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            compress(cube, spec, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * cube.data.size


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(iterations=10, eval_every=0)
    with pytest.raises(ValueError):
        TrainConfig(iterations=10, seed=-1)


# ------------------------------------------------------------------- search

def use_ladder(monkeypatch, candidates: list[tuple[int, int]]) -> None:
    """Make the search sweep `candidates` in place of DEFAULT_CANDIDATES."""
    monkeypatch.setattr(hsin.encoder, "DEFAULT_CANDIDATES", candidates)


def test_search_single_feasible_returned_without_training(monkeypatch):
    norm, _ = normalize(small_cube())
    n = param_count(SirenSpec(n_hidden=1, hidden_width=8, out_dim=4))
    tight = bpppb(n, 32, 16, 16, 4) + 1e-9
    # probe iterations huge: would take forever if it actually trained
    use_ladder(monkeypatch, [(1, 8), (3, 64)])
    spec = architecture_search(norm, tight, 10_000_000)
    assert (spec.n_hidden, spec.hidden_width) == (1, 8)


def test_search_never_returns_over_budget(monkeypatch):
    norm, _ = normalize(small_cube())
    use_ladder(monkeypatch, [(1, 4), (1, 8), (2, 16)])
    budget = bpppb(param_count(SirenSpec(n_hidden=1, hidden_width=8, out_dim=4)), 32, 16, 16, 4)
    spec = architecture_search(norm, budget, 50)
    got = bpppb(param_count(spec), 32, 16, 16, 4)
    assert got <= budget


def test_search_empty_feasible_set_raises(monkeypatch):
    norm, _ = normalize(small_cube())
    use_ladder(monkeypatch, [(5, 100)])
    with pytest.raises(ValueError, match="budget|fits"):
        architecture_search(norm, 1e-9, 10)


def test_search_rejects_unstorable_candidate_before_probing(monkeypatch):
    # the header stores hidden_width as uint8; probes this long would never end
    norm, _ = normalize(small_cube())
    use_ladder(monkeypatch, [(1, 8), (1, 256)])
    with pytest.raises(ValueError, match="hidden_width"):
        architecture_search(norm, 1e9, 10_000_000)


def test_search_wider_wins_on_smooth_cube(monkeypatch):
    # capacity trend: at a generous budget the wide net scores at least as
    # well as the narrow one after short probes, so the search picks it
    cube = synth_cube("smooth-gradient", 32, 32, 8)
    norm, _ = normalize(cube)
    probe = TrainConfig(2000, sample=PROBE_SAMPLE)  # the search's first, sampled probe
    wide = overfit(norm, SirenSpec(n_hidden=2, hidden_width=64, out_dim=8), probe)
    narrow = overfit(norm, SirenSpec(n_hidden=2, hidden_width=8, out_dim=8), probe)
    assert wide.psnr >= narrow.psnr
    use_ladder(monkeypatch, [(2, 8), (2, 64)])
    spec = architecture_search(norm, 1e9, 2000)
    assert (spec.n_hidden, spec.hidden_width) == (2, 64)


def spy_on_overfit(monkeypatch) -> list[TrainConfig]:
    """Record the TrainConfig of every overfit call, then train as usual."""
    seen = []

    def spy(cube, spec, cfg):
        seen.append(cfg)
        return overfit(cube, spec, cfg)

    monkeypatch.setattr(hsin.encoder, "overfit", spy)
    return seen


def test_search_probes_on_the_fixed_sample(monkeypatch):
    # only iterations, seed and half reach a probe; its sample is the
    # module's window-3 one and its eval cadence the default. With no margin
    # only the best sampled probe is near it, so no full-batch probe runs
    monkeypatch.setattr(hsin.encoder, "PROBE_MARGIN_DB", 0.0)
    seen = spy_on_overfit(monkeypatch)
    norm, _ = normalize(small_cube())
    use_ladder(monkeypatch, [(1, 4), (1, 8)])
    architecture_search(norm, 1e9, 7, seed=3, half=True)
    assert seen == [TrainConfig(7, seed=3, half=True, sample=PROBE_SAMPLE)] * 2


def test_search_reprobes_near_ties_full_batch(monkeypatch):
    # scripted probe scores by (width, full batch?): widths 4 and 8 lie within
    # 2 dB of the best sampled score, 16 just outside it, so only 4 and 8 are
    # probed again full batch, and there 8 wins; 16's full-batch score is never seen
    psnr = {(4, False): 50.0, (8, False): 48.5, (16, False): 47.9, (32, False): 30.0,
            (4, True): 40.0, (8, True): 45.0, (16, True): 99.0, (32, True): 99.0}
    seen = []

    def scripted(cube, spec, cfg):
        seen.append((spec.hidden_width, cfg))
        return BestSnapshot(np.zeros(0), 0.0, psnr[spec.hidden_width, cfg.sample is None])

    monkeypatch.setattr(hsin.encoder, "overfit", scripted)
    assert hsin.encoder.PROBE_MARGIN_DB == 2.0
    norm, _ = normalize(small_cube())
    use_ladder(monkeypatch, [(1, 4), (1, 8), (1, 16), (1, 32)])
    spec = architecture_search(norm, 1e9, 7, seed=2)
    assert spec.hidden_width == 8
    sampled, full = TrainConfig(7, seed=2, sample=PROBE_SAMPLE), TrainConfig(7, seed=2)
    assert seen == [(4, sampled), (8, sampled), (16, sampled), (32, sampled), (4, full), (8, full)]

    # equal full-batch scores go to fewer parameters
    psnr[4, True] = 45.0
    use_ladder(monkeypatch, [(1, 8), (1, 4)])
    assert architecture_search(norm, 1e9, 7).hidden_width == 4


def test_compress_probes_on_the_fixed_sample_whatever_its_config(monkeypatch):
    # on 16x16x4, (5,20) at 57.0 and (10,20) at 122.6 bpppb fit under 130, so
    # both are probed sampled, then (margin unbounded) full batch, before the
    # final fit, which alone takes cfg
    monkeypatch.setattr(hsin.encoder, "PROBE_MARGIN_DB", math.inf)
    seen = spy_on_overfit(monkeypatch)
    cfg = TrainConfig(20, eval_every=7, sample=SampleConfig(window=2, rate=0.5), seed=5)
    enc, _ = compress(small_cube(), 130.0, cfg)
    probe = TrainConfig(DEFAULT_PROBE_ITERATIONS, seed=5, half=False)
    assert seen == [replace(probe, sample=PROBE_SAMPLE)] * 2 + [probe] * 2 + [cfg]
    assert enc.spec.n_hidden in (5, 10)


def test_search_uses_half16_bits_for_budget(monkeypatch):
    norm, _ = normalize(small_cube())
    use_ladder(monkeypatch, [(2, 16)])
    n = param_count(SirenSpec(n_hidden=2, hidden_width=16, out_dim=4))
    # budget that only fits (2,16) at 16 bits per parameter, not at 32
    budget = bpppb(n, 16, 16, 16, 4) + 1e-9
    spec = architecture_search(norm, budget, 20, half=True)
    assert (spec.n_hidden, spec.hidden_width) == (2, 16)
    with pytest.raises(ValueError):
        architecture_search(norm, budget, 20)


# ----------------------------------------------------------------- compress

def assert_report_scores_the_decode(cube, spec, enc, report):
    # the report's scores are exactly those of the decode-side reconstruction
    # against the normalized cube, SSIM included (at L = 1, not in raw units);
    # in raw units the float32 decode's PSNR differs only by its rounding
    # (about 1e-7 dB here)
    norm = normalize(cube)[0].band_matrix()
    unit = EncodedImage(cube.width, cube.height, spec, ScaleInfo(0.0, 1.0), enc.params)
    recon = decompress(unit).band_matrix()
    assert (report.mse, report.psnr) == (mse(norm, recon), psnr(norm, recon))
    assert report.ssim_mean == ssim_mean(norm, recon)
    lo, hi = cube.value_range
    raw_psnr = psnr(cube.band_matrix(), decompress(enc).band_matrix(), peak=hi - lo)
    assert abs(raw_psnr - report.psnr) < 1e-6


def test_compress_report_is_honest():
    cube = synth_cube("smooth-gradient", 16, 16, 4)
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=4)
    enc, report = compress(cube, spec, TrainConfig(iterations=400, eval_every=100))
    assert_report_scores_the_decode(cube, spec, enc, report)
    assert report.mse > 0 and 0 < report.ssim_mean <= 1
    assert report.bpppb == bpppb(param_count(spec), 32, 16, 16, 4)
    assert report.compress_seconds > 0 and report.decompress_seconds > 0


def test_compress_report_is_honest_half16():
    cube = synth_cube("smooth-gradient", 16, 16, 4)
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=4)
    cfg = TrainConfig(iterations=400, eval_every=100, half=True)
    enc, report = compress(cube, spec, cfg)
    assert enc.quantized and enc.params.dtype == np.float16
    assert_report_scores_the_decode(cube, spec, enc, report)
    assert report.bpppb == bpppb(param_count(spec), 16, 16, 16, 4)


def test_compress_writes_the_best_snapshot_and_its_scores():
    # the snapshot is the stored payload (float16 under half), and the report
    # takes the winning eval's MSE and PSNR rather than scoring it again
    cube = synth_cube("band-sinusoid", 16, 16, 4)
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=4)
    cfg = TrainConfig(iterations=300, eval_every=100, half=True,
                      sample=SampleConfig(window=3, rate=0.5))
    snap = overfit(normalize(cube)[0], spec, cfg)
    assert snap.params.dtype == np.float16
    assert snap.psnr == psnr_from_mse(snap.mse) == max(s for _, s in snap.history)
    enc, report = compress(cube, spec, cfg)
    assert enc.params.tobytes() == snap.params.tobytes()
    assert (report.mse, report.psnr) == (snap.mse, snap.psnr)


def test_half16_halves_payload_exactly():
    cube = synth_cube("band-sinusoid", 12, 12, 3)
    spec = SirenSpec(n_hidden=2, hidden_width=12, out_dim=3)
    n = param_count(spec)
    enc_f, _ = compress(cube, spec, TrainConfig(iterations=50, eval_every=50))
    enc_h, _ = compress(cube, spec, TrainConfig(iterations=50, eval_every=50, half=True))
    full_bytes = len(serialize(enc_f))
    half_bytes = len(serialize(enc_h))
    assert full_bytes - half_bytes == 2 * n
    assert full_bytes == 25 + 4 * n
    assert half_bytes == 25 + 2 * n


def test_compress_deterministic_bitstream():
    cube = synth_cube("smooth-gradient", 12, 12, 3)
    spec = SirenSpec(n_hidden=1, hidden_width=12, out_dim=3)
    cfg = TrainConfig(iterations=150, eval_every=50, seed=11)
    enc_a, _ = compress(cube, spec, cfg)
    enc_b, _ = compress(cube, spec, cfg)
    assert serialize(enc_a) == serialize(enc_b)


def test_compress_with_budget_triggers_search():
    # on 16x16x4 only the smallest default candidate, (5,20) at 57.0 bpppb,
    # fits under 60, so the search returns it without probing
    cube = synth_cube("smooth-gradient", 16, 16, 4)
    enc, report = compress(cube, 60.0, TrainConfig(iterations=100, eval_every=100))
    assert (enc.spec.n_hidden, enc.spec.hidden_width) == (5, 20)
    assert report.bpppb == 57.0


def test_compress_rejects_bad_specs():
    cube = synth_cube("smooth-gradient", 8, 8, 4)
    cfg = TrainConfig(iterations=10)
    with pytest.raises(ValueError, match="bands"):
        compress(cube, SirenSpec(n_hidden=1, hidden_width=8, out_dim=3), cfg)


@pytest.mark.parametrize("half", [False, True])
def test_compress_report_is_best_history_score(half):
    # the report scores the decoder's view of the payload, which is the
    # snapshot overfit picked as the best of its evaluations
    cube = synth_cube("smooth-gradient", 8, 8, 2)
    spec = SirenSpec(n_hidden=1, hidden_width=8, out_dim=2)
    _, report = compress(cube, spec, TrainConfig(iterations=120, eval_every=40, half=half))
    assert [e for e, _ in report.history] == [40, 80, 120]
    assert report.psnr == max(s for _, s in report.history)


def test_decompress_compress_constant_cube():
    cube = make_cube(4, 4, 2, np.full(32, 0.5))
    spec = SirenSpec(n_hidden=1, hidden_width=8, out_dim=2)
    enc, _ = compress(cube, spec, TrainConfig(iterations=200, eval_every=50))
    recon = decompress(enc)
    d = recon.data - cube.data
    assert float(np.mean(d * d)) < 1e-6
