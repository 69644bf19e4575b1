"""Network shape, initialization, and the canonical flat parameter order.

The model is a fully connected MLP from 2-D pixel coordinates to one value
per spectral band, with sin(w0 * z) activations (w0 = 30) after every layer except
the last. Weights are initialized uniform in (-1/fan_in, 1/fan_in) for the first
layer and (-sqrt(6/fan_in)/w0, +sqrt(6/fan_in)/w0) afterwards, which keeps
pre-activations in the sine's well-conditioned range at any depth.

All parameters travel as one flat vector: for each layer from input to
output, row-major weights followed by biases. Everything downstream
(optimizer, serializer, gradient layout) assumes exactly this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# the sine frequency; FORMAT.md fixes it, so no file or spec carries it
W0 = 30.0


@dataclass(frozen=True)
class SirenSpec:
    """Architecture of one network: n_hidden sine layers of hidden_width.

    The inputs are always the pixel's (x, y), so in_dim is a constant.
    """

    n_hidden: int
    hidden_width: int
    out_dim: int
    in_dim: ClassVar[int] = 2

    def __post_init__(self) -> None:
        for name in ("n_hidden", "hidden_width", "out_dim"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


def layer_shapes(spec: SirenSpec) -> list[tuple[int, int]]:
    """(fan_out, fan_in) per layer, input to output."""
    shapes = [(spec.hidden_width, spec.in_dim)]
    shapes += [(spec.hidden_width, spec.hidden_width)] * (spec.n_hidden - 1)
    shapes.append((spec.out_dim, spec.hidden_width))
    return shapes


def param_count(spec: SirenSpec) -> int:
    """Total number of scalars (weights plus biases)."""
    return sum(fo * fi + fo for fo, fi in layer_shapes(spec))


def init_params(spec: SirenSpec, seed: int) -> np.ndarray:
    """Fresh float32 flat parameter vector; same seed gives the same vector."""
    rng = np.random.default_rng(seed)
    parts = []
    for i, (fan_out, fan_in) in enumerate(layer_shapes(spec)):
        if i == 0:
            bound = 1.0 / fan_in
        else:
            bound = np.sqrt(6.0 / fan_in) / W0
        parts.append(rng.uniform(-bound, bound, fan_out * fan_in))
        parts.append(rng.uniform(-bound, bound, fan_out))
    return np.concatenate(parts).astype(np.float32)


def unflatten(spec: SirenSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into per-layer (weights, biases) views (no copies).

    Weights are (fan_out, fan_in) and biases (fan_out,), input to output.
    Everything that reads parameters layer by layer goes through here.
    """
    params = np.asarray(params)
    if params.ndim != 1:
        raise ValueError("parameter vector must be 1-D")
    expected = param_count(spec)
    if params.size != expected:
        raise ValueError(f"expected {expected} parameters for {spec}, got {params.size}")
    layers = []
    offset = 0
    for fan_out, fan_in in layer_shapes(spec):
        w = params[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
        offset += fan_out * fan_in
        b = params[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers
