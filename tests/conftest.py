"""Shared test helpers: independent reference implementations.

These oracles deliberately avoid the package's own vectorized code paths
(manual offset arithmetic, scalar loops, CPython's struct converter) so that
agreement between the two routes is meaningful.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from hsin import HyperCube, SirenSpec
from hsin.siren import W0


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
