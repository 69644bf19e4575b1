"""Forward evaluation and exact analytic gradients for the sine MLP.

The backward pass is hand-derived: for y = x @ W.T + b,
dL/dW = dy.T @ x, dL/db = ones @ dy (the column sums of dy as one GEMV),
dL/dx = dy @ W, and the sine activation contributes an elementwise
w0 * cos(w0 * z) factor. Gradients come back as one flat vector in the
same canonical order as the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .siren import W0, SirenSpec, unflatten


@dataclass(eq=False)
class Batch:
    """Paired coordinates (n, in_dim) and target spectra (n, out_dim)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"row mismatch: {self.inputs.shape[0]} inputs vs {self.targets.shape[0]} targets"
            )
        if self.inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")


# Rows per tile when a pass runs over many rows, so a layer's activations
# stay in cache. Decoding a 512x512x224 scene with a (15, 40) net on one
# BLAS thread took 1.0-1.2 s at every size from 256 to 4096, against 2.5 s
# for one call on the whole grid; the full-batch training step at
# 145x145x220 went from 157 to 142 ms (BENCH_7.json).
TILE_ROWS = 1024


def row_tiles(n: int) -> list[slice]:
    """Row slices of TILE_ROWS rows covering n rows; the remainder joins the last.

    BLAS rounds a very short matrix differently (numpy's gemv path for one
    row, OpenBLAS's small-matrix kernels for a few rows of a wide layer), so
    no tile is shorter than TILE_ROWS unless n is, and a row evaluated in a
    tile is bitwise the same row evaluated in one call on all n.
    """
    count = max(1, n // TILE_ROWS)
    return [slice(i * TILE_ROWS, n if i == count - 1 else (i + 1) * TILE_ROWS)
            for i in range(count)]


def _forward(layers, a: np.ndarray, keep: list | None = None) -> np.ndarray:
    """sin(w0 * (a @ W.T + b)) per hidden layer, then the affine output layer.

    Evaluation and training share this loop. Evaluation takes each sine in
    place of its pre-activation. Training passes a list `keep`, and each
    hidden layer appends (w0 * z, sine), which backprop reads.
    """
    for weights, biases in layers[:-1]:
        s = a @ weights.T
        s += biases
        s *= W0
        if keep is None:
            a = np.sin(s, out=s)
        else:
            a = np.sin(s)
            keep.append((s, a))
    weights, biases = layers[-1]
    out = a @ weights.T
    out += biases
    return out


def _inputs(spec: SirenSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    a = np.asarray(inputs, dtype=params.dtype)
    if a.ndim != 2 or a.shape[1] != spec.in_dim:
        raise ValueError(f"inputs must be (n, {spec.in_dim}), got {a.shape}")
    return a


def mlp_forward(spec: SirenSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on (n, in_dim) coordinates; returns (n, out_dim)."""
    return _forward(unflatten(spec, params), _inputs(spec, params, inputs))


def _tile_step(layers, inputs: np.ndarray, targets: np.ndarray, scale: float,
               grad_layers) -> float:
    """One tile's forward and backward; returns the tile's mean squared error.

    Adds the tile's contribution to each layer's (gw, gb) in grad_layers.
    The tile's arrays die with the call.
    """
    keep: list = []
    dy = _forward(layers, inputs, keep)
    dy -= targets
    loss = float(np.vdot(dy, dy)) / dy.size
    dy *= scale  # d(loss)/d(pred)
    ones = np.ones(len(dy), dtype=dy.dtype)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        x = inputs if i == 0 else keep[i - 1][1]
        gw += dy.T @ x
        gb += ones @ dy
        if i > 0:
            s = keep[i - 1][0]
            c = np.cos(s, out=s)  # w0 * z is no longer needed
            c *= W0
            dy = dy @ layers[i][0]
            dy *= c
    return loss


def mlp_loss_and_grad(spec: SirenSpec, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
    """MSE loss and its exact gradient with respect to every parameter.

    Arithmetic stays in the dtype of `params` (float32 in training,
    float64 in gradient checks); W0 is a python float so no accidental
    upcast happens. The batch runs forward and backward one row tile
    (row_tiles) at a time, each tile in arrays of its own, adding into a
    zeroed gradient, so a batch of one tile gets the untiled values (a -0.0
    turns +0.0). The gradient is a new vector.
    """
    layers = unflatten(spec, params)
    inputs = _inputs(spec, params, batch.inputs)
    targets = np.asarray(batch.targets, dtype=params.dtype)
    n = inputs.shape[0]
    # d(mean of diff^2)/d(pred); the batch's entry count normalizes the mean
    scale = 2.0 / (n * spec.out_dim)

    grads = np.zeros_like(params)
    grad_layers = unflatten(spec, grads)
    loss = 0.0
    for rows in row_tiles(n):
        tile_loss = _tile_step(layers, inputs[rows], targets[rows], scale, grad_layers)
        loss += tile_loss * ((rows.stop - rows.start) / n)
    return loss, grads
