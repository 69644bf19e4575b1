"""Adam updates over flat parameter vectors.

Plain functional implementation: adam_step takes and returns state, never
mutating its arguments, so a training loop can snapshot parameters at any
point without defensive copies. Scalar factors are python floats so float32
vectors stay float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


LR = 2e-4
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class TrainingDiverged(ArithmeticError):
    """Raised when a gradient or loss stops being finite."""


@dataclass(eq=False)
class AdamState:
    """First/second moment accumulators plus the step counter."""

    step: int
    m: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if self.m.shape != self.v.shape:
            raise ValueError("moment vectors must have identical shape")


def fresh_state(params: np.ndarray) -> AdamState:
    """Zeroed moments matching the parameter vector's shape and dtype."""
    return AdamState(step=0, m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, AdamState]:
    """One update: returns (new_params, new_state).

    Bias-corrected moments with eps added outside the square root:
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    if not np.all(np.isfinite(grads)):
        bad = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise TrainingDiverged(
            f"non-finite gradient at parameter {bad} on step {state.step + 1}"
        )
    t = state.step + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    v = BETA2 * state.v + (1.0 - BETA2) * (grads * grads)
    m_hat = m * (1.0 / (1.0 - BETA1**t))
    v_hat = v * (1.0 / (1.0 - BETA2**t))
    new_params = params - LR * m_hat / (np.sqrt(v_hat) + EPS)
    return new_params, AdamState(step=t, m=m, v=v)
