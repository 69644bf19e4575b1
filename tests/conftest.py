"""Shared test helpers: independent reference implementations, and the
environment of a child process that runs this checkout.

These oracles deliberately avoid the package's own vectorized code paths
(manual offset arithmetic, scalar loops, CPython's struct converter) so that
agreement between the two routes is meaningful. The one exception is the
gradient-check oracle (mlp_loss, numeric_gradient): it differences the
package's forward pass, which test_nn checks against scalar_forward.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

import hsin
from hsin import HyperCube, SirenSpec
from hsin.nn import Batch, mlp_forward
from hsin.siren import W0, unflatten


_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_env(threads: int | None = None) -> dict[str, str]:
    """Environment for a child process that runs this checkout's hsin.

    `src` comes first on PYTHONPATH and no thread variable is inherited, so
    the child runs at the BLAS default unless `threads` is given; then the
    BLAS reads that count from its own variables when numpy loads.
    """
    src = str(Path(hsin.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if threads is not None:
        env.update(dict.fromkeys(_BLAS_THREADS, str(threads)))
    return env


def scalar_forward(spec: SirenSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Reference forward pass: explicit loops, manual parameter slicing."""
    dims = [spec.in_dim] + [spec.hidden_width] * spec.n_hidden + [spec.out_dim]
    params = np.asarray(params, dtype=np.float64)
    outputs = []
    for row in np.asarray(inputs, dtype=np.float64):
        a = [float(v) for v in row]
        off = 0
        for li in range(len(dims) - 1):
            fan_in, fan_out = dims[li], dims[li + 1]
            z = []
            for o in range(fan_out):
                s = 0.0
                for i in range(fan_in):
                    s += float(params[off + o * fan_in + i]) * a[i]
                z.append(s)
            off += fan_out * fan_in
            for o in range(fan_out):
                z[o] += float(params[off + o])
            off += fan_out
            if li < len(dims) - 2:
                a = [math.sin(W0 * v) for v in z]
            else:
                a = z
        outputs.append(a)
    return np.array(outputs, dtype=np.float64)


def scalar_loss(spec: SirenSpec, params: np.ndarray, inputs: np.ndarray,
                targets: np.ndarray) -> float:
    pred = scalar_forward(spec, params, inputs)
    t = np.asarray(targets, dtype=np.float64)
    total = 0.0
    for r in range(pred.shape[0]):
        for c in range(pred.shape[1]):
            d = pred[r, c] - t[r, c]
            total += d * d
    return total / pred.size


def mlp_loss(spec: SirenSpec, params: np.ndarray, batch: Batch) -> float:
    """Mean squared error over every entry of the batch output."""
    pred = mlp_forward(spec, params, batch.inputs)
    targets = np.asarray(batch.targets, dtype=params.dtype)
    diff = pred - targets
    return float(np.mean(diff * diff))


def numeric_gradient(spec: SirenSpec, params: np.ndarray, batch: Batch, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time.

    Always evaluated in float64; quadratic truncation error is O(eps^2)
    with roundoff O(machine_eps / eps), so eps near 1e-4 balances both.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    p = np.asarray(params, dtype=np.float64).copy()
    batch64 = Batch(
        np.asarray(batch.inputs, dtype=np.float64),
        np.asarray(batch.targets, dtype=np.float64),
    )
    grad = np.empty_like(p)
    for i in range(p.size):
        saved = p[i]
        p[i] = saved + eps
        hi = mlp_loss(spec, p, batch64)
        p[i] = saved - eps
        lo = mlp_loss(spec, p, batch64)
        p[i] = saved
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def half_bits(value: float) -> int:
    """IEEE binary16 bit pattern via CPython's struct, not numpy."""
    return struct.unpack("<H", struct.pack("<e", float(value)))[0]


def scalar_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-element python-float Adam: the textbook update, no vectorization."""
    theta = [float(p) for p in params]
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    t = 0
    for grads in grads_seq:
        t += 1
        for i, g in enumerate(grads):
            g = float(g)
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            theta[i] -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return np.array(theta, dtype=np.float64)


def make_cube(width: int, height: int, bands: int, values) -> HyperCube:
    data = np.asarray(values, dtype=np.float64).ravel()
    return HyperCube(width, height, bands, data)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a-n| / max(1, |a|, |n|): relative error with an absolute floor.

    The floor keeps finite-difference truncation noise (~1e-6 absolute at
    eps=1e-4) from blowing up the ratio on near-zero gradient entries.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float((np.abs(a - n) / denom).max())


def loop_sample_indices(width: int, height: int, cfg, seed: int, epoch: int) -> np.ndarray:
    """The sampler with its block grouping as a Python double loop.

    Blocks are grouped by shape in row-major first-encounter order, the
    order that fixes which random draws land on which block.
    """
    rng = np.random.default_rng([seed, epoch])
    x_starts = np.arange(0, width, cfg.window)
    y_starts = np.arange(0, height, cfg.window)
    x_sizes = np.minimum(cfg.window, width - x_starts)
    y_sizes = np.minimum(cfg.window, height - y_starts)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for y0, bh in zip(y_starts, y_sizes):
        for x0, bw in zip(x_starts, x_sizes):
            groups.setdefault((int(bw), int(bh)), []).append((int(x0), int(y0)))
    chunks = []
    for (bw, bh), origins in groups.items():
        npix = bw * bh
        k = min(npix, max(1, int(math.floor(cfg.rate * npix + 0.5))))
        ox = np.array([o[0] for o in origins])
        oy = np.array([o[1] for o in origins])
        keys = rng.random((len(origins), npix))
        sel = np.argpartition(keys, k - 1, axis=1)[:, :k]
        dy, dx = sel // bw, sel % bw
        flat = (oy[:, None] + dy) * width + (ox[:, None] + dx)
        chunks.append(flat.ravel())
    return np.sort(np.concatenate(chunks)).astype(np.int64)


def reference_loss_and_grad(spec: SirenSpec, params: np.ndarray, batch) -> tuple[float, np.ndarray]:
    """The training step, untiled, with a fresh array for every intermediate.

    Each operation is the out-of-place form of what `mlp_loss_and_grad`
    does in place, so the two agree bitwise on a batch of one row tile.
    """
    layers = unflatten(spec, params)
    a = np.asarray(batch.inputs, dtype=params.dtype)
    targets = np.asarray(batch.targets, dtype=params.dtype)
    cache = []
    for weights, biases in layers[:-1]:
        z = a @ weights.T + biases
        cache.append((a, z))
        a = np.sin(W0 * z)
    weights, biases = layers[-1]
    cache.append((a, None))
    pred = a @ weights.T + biases

    diff = pred - targets
    loss = float(np.vdot(diff, diff)) / diff.size
    dy = diff * (2.0 / diff.size)

    ones = np.ones(len(dy), dtype=dy.dtype)
    grads = [np.empty(0)] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        gw = dy.T @ cache[i][0]
        gb = ones @ dy
        grads[i] = np.concatenate([gw.ravel(), gb])
        if i > 0:
            dx = dy @ layers[i][0]
            dy = dx * (W0 * np.cos(W0 * cache[i - 1][1]))
    return loss, np.concatenate(grads).astype(params.dtype, copy=False)
