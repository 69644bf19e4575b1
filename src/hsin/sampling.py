"""Coordinate grids on [-1, 1]^2 and windowed random pixel subsets.

Training on every pixel each iteration is wasteful for smooth images, so the
sampler tiles the image into window x window blocks (edge blocks may be
smaller) and draws a fixed-size uniform subset of pixels from every block.
Each block always contributes at least one pixel, which keeps coverage
spatially even at low rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cube import HyperCube
from .nn import Batch


@dataclass(frozen=True)
class SampleConfig:
    """Windowed sampling knobs; rate is the per-block fraction kept."""

    window: int
    rate: float

    def __post_init__(self) -> None:
        if not isinstance(self.window, int) or self.window < 1:
            raise ValueError(f"window must be a positive integer, got {self.window!r}")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must lie in (0, 1], got {self.rate!r}")


def _axis_coords(n: int) -> np.ndarray:
    # -1 + 2*j/(n-1): 2*j, / (n-1), -1 each in float64, rounded once to float32;
    # a single sample sits at 0
    if n == 1:
        return np.zeros(1, dtype=np.float32)
    return (np.arange(n, dtype=np.float64) * 2.0 / (n - 1) - 1.0).astype(np.float32)


def build_grid(width: int, height: int) -> np.ndarray:
    """(width*height, 2) float32 row-major (x, y) pairs the net reads, endpoints exactly +-1."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    xs = _axis_coords(width)
    ys = _axis_coords(height)
    coords = np.empty((height * width, 2), dtype=np.float32)
    coords[:, 0] = np.tile(xs, height)
    coords[:, 1] = np.repeat(ys, width)
    return coords


def _block_k(rate: float, npix: int) -> int:
    # round-half-up share of the block, never below one pixel
    return min(npix, max(1, int(math.floor(rate * npix + 0.5))))


def _spans(n: int, window: int) -> list[tuple[np.ndarray, int]]:
    # (block starts, block size) along one axis: the full blocks, then the
    # short edge block if window does not divide n
    full = n // window
    spans = [(np.arange(full) * window, window)] if full else []
    if n % window:
        spans.append((np.array([full * window]), n % window))
    return spans


def sample_indices(width: int, height: int, cfg: SampleConfig, seed: int, epoch: int) -> np.ndarray:
    """Sorted flat pixel indices drawn for one epoch.

    Deterministic in (seed, epoch), a fresh draw every epoch. Each block
    shape (interior, right edge, bottom edge, corner, in that order) is
    drawn in one vectorized pass, row-major: uniform keys per pixel, k
    smallest kept, which makes every k-subset of a block equally likely.
    """
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    rng = np.random.default_rng([seed, epoch])

    chunks = []
    for y_starts, bh in _spans(height, cfg.window):
        for x_starts, bw in _spans(width, cfg.window):
            npix = bw * bh
            k = _block_k(cfg.rate, npix)
            ox = np.tile(x_starts, y_starts.size)
            oy = np.repeat(y_starts, x_starts.size)
            keys = rng.random((ox.size, npix))
            sel = np.argpartition(keys, k - 1, axis=1)[:, :k]
            dy, dx = sel // bw, sel % bw
            flat = (oy[:, None] + dy) * width + (ox[:, None] + dx)
            chunks.append(flat.ravel())
    return np.sort(np.concatenate(chunks)).astype(np.int64)


def gather_batch(cube: HyperCube, grid: Batch, indices: np.ndarray) -> Batch:
    """The rows of the cube's full pixel-major batch that indices select.

    grid pairs every pixel's build_grid coordinates with its spectrum, both
    float32; the gather is a row take of each.
    """
    if grid.inputs.shape[0] != cube.n_pixels:
        raise ValueError(f"grid has {grid.inputs.shape[0]} pixels, cube has {cube.n_pixels}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("indices must be a non-empty 1-D array")
    if idx.min() < 0 or idx.max() >= cube.n_pixels:
        raise IndexError(f"pixel index out of range [0, {cube.n_pixels})")
    return Batch(grid.inputs[idx], grid.targets[idx])
