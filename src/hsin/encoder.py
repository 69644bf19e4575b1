"""Overfit one network per image and package the result.

Compression here IS training: the weights that best reproduce the cube are
the compressed representation. The trainer evaluates full-grid PSNR on a
cadence and keeps the best snapshot seen, so a run can never return worse
weights than it once had. Architecture search trains each candidate shape
briefly, on a pixel sample, under a rate budget; near-ties are probed again
on the full batch, and the winner is kept.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .adam import TrainingDiverged, adam_step, fresh_state
from .codec import (EncodedImage, check_format, decompress, payload_bits, quantize,
                    reconstruct_normalized)
from .cube import HyperCube, ScaleInfo, normalize
from .metrics import QualityReport, bpppb, psnr_from_mse, ssim_mean
from .nn import Batch, mlp_loss_and_grad
from .sampling import SampleConfig, build_grid, gather_batch, sample_indices
from .siren import SirenSpec, init_params, param_count

# n_h x w_h ladder the search sweeps by default
DEFAULT_CANDIDATES: list[tuple[int, int]] = [
    (n_h, w_h) for n_h in (5, 10, 15, 20, 25) for w_h in (20, 40, 60, 100)
]

DEFAULT_PROBE_ITERATIONS = 2000
PROBE_SAMPLE = SampleConfig(window=3, rate=0.25)  # every search probe trains on this sample
# shapes whose sampled probe lands this close to the best are re-probed full batch
PROBE_MARGIN_DB = 2.0


@dataclass(frozen=True)
class TrainConfig:
    """One training run's knobs; half stores (and scores) float16 weights."""

    iterations: int
    eval_every: int = 100
    sample: SampleConfig | None = None
    seed: int = 0
    half: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations!r}")
        if not isinstance(self.eval_every, int) or self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(eq=False)
class BestSnapshot:
    """A run's best eval by full-grid PSNR: the payload it scored (float16 if half) and its MSE."""

    params: np.ndarray
    mse: float
    psnr: float
    history: list[tuple[int, float]] = field(default_factory=list)


def overfit(cube: HyperCube, spec: SirenSpec, cfg: TrainConfig) -> BestSnapshot:
    """Train one network on one normalized cube, keeping the best snapshot.

    Every eval_every epochs (and at the final epoch) full-grid MSE and PSNR
    are measured tile by tile by codec.reconstruct_normalized; with cfg.half
    the weights are first quantized to float16: the score is post-decode quality.
    The returned snapshot is the argmax over those evaluations (the first
    of equal scores), never simply the last epoch.
    """
    if cube.bands != spec.out_dim:
        raise ValueError(f"cube has {cube.bands} bands but spec.out_dim = {spec.out_dim}")
    lo, hi = cube.value_range
    if lo < 0.0 or hi > 1.0:
        raise ValueError("overfit expects a normalized cube with values in [0, 1]")

    # pixel-major: the full batch, and the rows a sampled batch takes; a copy, as a
    # sampled gather from the cube's .T view took 4.3 ms, not 1.0, at 145x145x220
    grid = Batch(build_grid(cube.width, cube.height), np.ascontiguousarray(cube.band_matrix().T))

    params = init_params(spec, cfg.seed)
    state = fresh_state(params)

    best = None
    history: list[tuple[int, float]] = []

    for epoch in range(1, cfg.iterations + 1):
        if cfg.sample is None:
            batch = grid
        else:
            idx = sample_indices(cube.width, cube.height, cfg.sample, cfg.seed, epoch)
            batch = gather_batch(cube, grid, idx)
        loss, grads = mlp_loss_and_grad(spec, params, batch)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss!r} at iteration {epoch}")
        params, state = adam_step(state, params, grads)

        if epoch % cfg.eval_every == 0 or epoch == cfg.iterations:
            # kept uncopied: adam_step returns new arrays and never writes this one
            payload = quantize(params) if cfg.half else params
            m = reconstruct_normalized(spec, payload, cube)
            score = psnr_from_mse(m)
            history.append((epoch, score))
            if score > (best.psnr if best else -math.inf):
                best = BestSnapshot(payload, m, score, history)
    return best


def architecture_search(cube: HyperCube, budget_bpppb: float,
                        iterations: int = DEFAULT_PROBE_ITERATIONS, seed: int = 0,
                        half: bool = False) -> SirenSpec:
    """Pick the best (n_hidden, hidden_width) shape within a rate budget.

    DEFAULT_CANDIDATES over budget are dropped; the rest each get a sampled probe,
    TrainConfig(iterations, seed=seed, half=half, sample=PROBE_SAMPLE), on the
    (normalized) cube. Those whose full-grid PSNR is within PROBE_MARGIN_DB of
    the best are probed again full batch, TrainConfig(iterations, seed=seed,
    half=half), and the highest PSNR there wins; one that close alone wins
    without it. Ties go to fewer parameters, then fewer layers. A lone feasible
    candidate is returned untrained. A candidate the file format cannot store
    raises ValueError before any probe.
    """
    probe = TrainConfig(iterations, seed=seed, half=half)
    bits = payload_bits(half)

    feasible = []
    for n_h, w_h in DEFAULT_CANDIDATES:
        spec = SirenSpec(n_hidden=n_h, hidden_width=w_h, out_dim=cube.bands)
        check_format(cube.width, cube.height, spec)
        rate = bpppb(param_count(spec), bits, cube.width, cube.height, cube.bands)
        if rate <= budget_bpppb:
            feasible.append(spec)
    if not feasible:
        raise ValueError(f"no candidate architecture fits within {budget_bpppb} bpppb")

    # 2000-iteration sampled probes put the full-batch winner up to 1.82 dB below
    # the sampled best at 8.0 bpppb on 64x64x32 (BENCH_13.json)
    if len(feasible) > 1:
        sampled = [overfit(cube, s, replace(probe, sample=PROBE_SAMPLE)).psnr for s in feasible]
        feasible = [s for p, s in zip(sampled, feasible) if p >= max(sampled) - PROBE_MARGIN_DB]
    if len(feasible) > 1:
        return max(feasible, key=lambda s: (overfit(cube, s, probe).psnr, -param_count(s),
                                            -s.n_hidden))
    return feasible[0]


def compress(cube: HyperCube, spec_or_budget: SirenSpec | float,
             cfg: TrainConfig) -> tuple[EncodedImage, QualityReport]:
    """Full pipeline: normalize, (optionally) search, overfit, package.

    spec_or_budget is either an explicit SirenSpec or a bpppb budget that
    triggers architecture search over DEFAULT_CANDIDATES, each probed for
    DEFAULT_PROBE_ITERATIONS on PROBE_SAMPLE, near-ties again full batch (of
    cfg, only seed and half reach a probe). A scene or net the file format cannot store is rejected before
    training. The best snapshot is the payload, and its eval gives the report's
    MSE and PSNR; only SSIM is scored afresh, on the payload decoded at unit
    scale, which decompress_seconds times. report.history holds the run's evals.
    """
    t0 = time.perf_counter()
    normalized, scale = normalize(cube)

    if isinstance(spec_or_budget, SirenSpec):
        spec = spec_or_budget
        check_format(cube.width, cube.height, spec)
    else:
        spec = architecture_search(normalized, float(spec_or_budget), seed=cfg.seed, half=cfg.half)

    snap = overfit(normalized, spec, cfg)
    enc = EncodedImage(cube.width, cube.height, spec, scale, snap.params)
    compress_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    recon = decompress(replace(enc, scale=ScaleInfo(0.0, 1.0)))  # x * 1.0 + 0.0 is x
    decompress_seconds = time.perf_counter() - t1

    report = QualityReport(
        mse=snap.mse,
        psnr=snap.psnr,
        ssim_mean=ssim_mean(normalized.band_matrix(), recon.band_matrix()),
        bpppb=bpppb(param_count(spec), payload_bits(enc.quantized),
                    cube.width, cube.height, cube.bands),
        compress_seconds=compress_seconds,
        decompress_seconds=decompress_seconds,
        history=snap.history,
    )
    return enc, report
