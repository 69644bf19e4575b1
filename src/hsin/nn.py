"""Forward evaluation and exact analytic gradients for the sine MLP.

The backward pass is hand-derived: for y = x @ W.T + b,
dL/dW = dy.T @ x, dL/db = dy.sum(0), dL/dx = dy @ W, and the sine
activation contributes an elementwise w0 * cos(w0 * z) factor. Gradients
come back as one flat vector in the same canonical order as the parameters.
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


def _forward(layers, a: np.ndarray, cache: list | None = None) -> np.ndarray:
    """sin(w0 * (a @ W.T + b)) per hidden layer, then the affine output layer.

    Evaluation and training share this loop. Given a cache list, it appends
    (layer input, pre-activation) per hidden layer and (layer input, None)
    for the output layer: what backprop needs.
    """
    for weights, biases in layers[:-1]:
        z = a @ weights.T + biases
        if cache is not None:
            cache.append((a, z))
        a = np.sin(W0 * z)
    weights, biases = layers[-1]
    if cache is not None:
        cache.append((a, None))
    return a @ weights.T + biases


def _inputs(spec: SirenSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    a = np.asarray(inputs, dtype=params.dtype)
    if a.ndim != 2 or a.shape[1] != spec.in_dim:
        raise ValueError(f"inputs must be (n, {spec.in_dim}), got {a.shape}")
    return a


def mlp_forward(spec: SirenSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on (n, in_dim) coordinates; returns (n, out_dim)."""
    return _forward(unflatten(spec, params), _inputs(spec, params, inputs))


def mlp_loss(spec: SirenSpec, params: np.ndarray, batch: Batch) -> float:
    """Mean squared error over every entry of the batch output."""
    pred = mlp_forward(spec, params, batch.inputs)
    targets = np.asarray(batch.targets, dtype=params.dtype)
    diff = pred - targets
    return float(np.mean(diff * diff))


def mlp_loss_and_grad(spec: SirenSpec, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
    """MSE loss and its exact gradient with respect to every parameter.

    Arithmetic stays in the dtype of `params` (float32 in training,
    float64 in gradient checks); W0 is a python float so no accidental
    upcast happens.
    """
    layers = unflatten(spec, params)
    targets = np.asarray(batch.targets, dtype=params.dtype)
    cache: list = []
    pred = _forward(layers, _inputs(spec, params, batch.inputs), cache)

    diff = pred - targets
    loss = float(np.mean(diff * diff))

    # d(mean of diff^2)/d(pred); total entry count normalizes the mean
    dy = diff * (2.0 / diff.size)

    grads = [np.empty(0)] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        gw = dy.T @ cache[i][0]
        gb = dy.sum(axis=0)
        grads[i] = np.concatenate([gw.ravel(), gb])
        if i > 0:
            dx = dy @ layers[i][0]
            dy = dx * (W0 * np.cos(W0 * cache[i - 1][1]))
    return loss, np.concatenate(grads).astype(params.dtype, copy=False)


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
