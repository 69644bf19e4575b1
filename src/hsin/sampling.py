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
    # -1 + 2*j/(n-1); a single sample sits at 0
    if n == 1:
        return np.zeros(1)
    return np.arange(n, dtype=np.float64) * (2.0 / (n - 1)) - 1.0


def build_grid(width: int, height: int) -> np.ndarray:
    """(width*height, 2) float64 row-major (x, y) pairs, endpoints exactly +-1."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    xs = _axis_coords(width)
    ys = _axis_coords(height)
    coords = np.empty((height * width, 2), dtype=np.float64)
    coords[:, 0] = np.tile(xs, height)
    coords[:, 1] = np.repeat(ys, width)
    return coords


def _block_k(rate: float, npix: int) -> int:
    # round-half-up share of the block, never below one pixel
    return min(npix, max(1, int(math.floor(rate * npix + 0.5))))


def sample_indices(width: int, height: int, cfg: SampleConfig, seed: int, epoch: int) -> np.ndarray:
    """Sorted flat pixel indices drawn for one epoch.

    Deterministic in (seed, epoch), a fresh draw every epoch. Blocks of
    equal shape are drawn in one vectorized pass: uniform keys per pixel, k
    smallest kept, which makes every k-subset of a block equally likely.
    """
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    rng = np.random.default_rng([seed, epoch])

    x_starts = np.arange(0, width, cfg.window)
    y_starts = np.arange(0, height, cfg.window)
    x_sizes = np.minimum(cfg.window, width - x_starts)
    y_sizes = np.minimum(cfg.window, height - y_starts)

    # group blocks by shape (row-major encounter order, kept stable so the
    # stream of random draws is reproducible)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for y0, bh in zip(y_starts, y_sizes):
        for x0, bw in zip(x_starts, x_sizes):
            groups.setdefault((int(bw), int(bh)), []).append((int(x0), int(y0)))

    chunks = []
    for (bw, bh), origins in groups.items():
        npix = bw * bh
        k = _block_k(cfg.rate, npix)
        ox = np.array([o[0] for o in origins])
        oy = np.array([o[1] for o in origins])
        keys = rng.random((len(origins), npix))
        sel = np.argpartition(keys, k - 1, axis=1)[:, :k]
        dy, dx = sel // bw, sel % bw
        flat = (oy[:, None] + dy) * width + (ox[:, None] + dx)
        chunks.append(flat.ravel())
    return np.sort(np.concatenate(chunks)).astype(np.int64)


def gather_batch(cube: HyperCube, coords: np.ndarray, indices: np.ndarray) -> Batch:
    """Pair selected pixel coordinates with their target spectra, as float32.

    coords is the build_grid array of the cube's pixels.
    """
    if coords.shape[0] != cube.n_pixels:
        raise ValueError(f"grid has {coords.shape[0]} pixels, cube has {cube.n_pixels}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("indices must be a non-empty 1-D array")
    if idx.min() < 0 or idx.max() >= cube.n_pixels:
        raise IndexError(f"pixel index out of range [0, {cube.n_pixels})")
    inputs = coords[idx].astype(np.float32)
    targets = cube.band_matrix()[:, idx].T.astype(np.float32)
    return Batch(inputs, np.ascontiguousarray(targets))
