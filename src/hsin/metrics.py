"""Rate and distortion metrics: MSE, PSNR, band-averaged global SSIM, bpppb.

The cube metrics take two non-empty (bands, n_pixels) arrays of one shape,
such as cube.band_matrix(), and accumulate in float64. SSIM here uses one
set of global statistics per band (means, variances, covariance over the
whole band) rather than a sliding window; the per-band scores are averaged
over the spectral axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import row_tiles


def _band_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    x, y = np.asarray(a), np.asarray(b)
    if x.ndim != 2 or x.shape != y.shape or x.size == 0:
        raise ValueError(f"expected two non-empty (bands, n_pixels) arrays of one shape, "
                         f"got {x.shape} and {y.shape}")
    return x, y


def mse(a, b) -> float:
    """Mean squared error over every sample of two (bands, n_pixels) arrays.

    The pair is scored in tiles of columns (hsin.nn.row_tiles over the
    pixel axis), each subtracted as it lies: a transposed view is read in
    place, not copied, and only one tile's difference is held at a time.
    """
    x, y = _band_pair(a, b)
    return tiled_mse(lambda c: x[:, c], y)


def tiled_mse(tile, b: np.ndarray) -> float:
    """mse(a, b), where tile(c) makes a[:, c] per row_tiles slice c: a is never held whole."""
    return sum(_sum_square_diff(tile(c), b[:, c]) for c in row_tiles(b.shape[1])) / b.size


def _sum_square_diff(x: np.ndarray, y: np.ndarray) -> float:
    # widen while subtracting (exact from float32, so the same bits as
    # float64 copies would give): the difference is the one float64 array,
    # freed on return, before the next tile's is made
    d = np.subtract(x, y, dtype=np.float64)
    d *= d
    return float(d.sum())


def psnr_from_mse(m: float, peak: float = 1.0) -> float:
    """10*log10(peak^2 / m); +inf for a zero error."""
    if not peak > 0:
        raise ValueError(f"peak must be positive, got {peak!r}")
    if m == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / m)


def psnr(a, b, peak: float = 1.0) -> float:
    """PSNR of two (bands, n_pixels) arrays; +inf when they are identical."""
    return psnr_from_mse(mse(a, b), peak)


def ssim_mean(a, b, dynamic_range: float = 1.0) -> float:
    """Structural similarity of each band pair, global statistics, averaged across bands.

    C1 = (0.01*L)^2 and C2 = (0.03*L)^2 stabilize the ratio; both variance
    and covariance are computed from shared deviation arrays so that
    ssim_mean(x, x) is exactly 1. Each band is widened to float64 on its
    own, so a float32 or transposed operand is never copied whole: the
    compress report scores a float32 reconstruction right after training
    has freed its cube-sized arrays, and a cube-sized float64 copy there
    raised the peak RSS by 37 MB at 145x145x220 whenever the allocator had
    kept those freed arrays.
    """
    xa, xb = _band_pair(a, b)
    if not dynamic_range > 0:
        raise ValueError(f"dynamic_range must be positive, got {dynamic_range!r}")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    scores = []
    for x, y in zip(xa, xb):
        xv = np.asarray(x, dtype=np.float64)
        yv = np.asarray(y, dtype=np.float64)
        mx = float(xv.mean())
        my = float(yv.mean())
        dx = xv - mx
        dy = yv - my
        var_x = float(np.mean(dx * dx))
        var_y = float(np.mean(dy * dy))
        cov = float(np.mean(dx * dy))
        num = (2.0 * mx * my + c1) * (2.0 * cov + c2)
        den = (mx * mx + my * my + c1) * (var_x + var_y + c2)
        scores.append(num / den)
    return float(np.mean(scores))


def bpppb(n_params: int, bits_per_param: int, width: int, height: int, bands: int) -> float:
    """Bits per pixel per band of a weight payload spread over the cube."""
    if n_params < 1 or bits_per_param < 1:
        raise ValueError("parameter count and bit width must be >= 1")
    if min(width, height, bands) < 1:
        raise ValueError("cube dimensions must be >= 1")
    return (n_params * bits_per_param) / (width * height * bands)


@dataclass
class QualityReport:
    """Everything one compression run reports, as plain floats."""

    mse: float
    psnr: float
    ssim_mean: float
    bpppb: float | None = None
    compress_seconds: float | None = None
    decompress_seconds: float | None = None
    history: list[tuple[int, float]] = field(default_factory=list)  # (epoch, psnr); not in to_text

    def to_text(self) -> str:
        """key=value lines, floats at full round-trip precision."""
        lines = []
        for key in ("mse", "psnr", "ssim_mean", "bpppb", "compress_seconds", "decompress_seconds"):
            value = getattr(self, key)
            if value is None:
                continue
            lines.append(f"{key}={value!r}")
        return "\n".join(lines)
