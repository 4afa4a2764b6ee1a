"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .errors import NonFiniteError
from .tensor import Tensor

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPSILON = 1e-8


class AdamState:
    """Per-parameter first/second moment estimates plus the shared step count."""

    def __init__(self, params: List[Tuple[str, Tensor]], learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment: Dict[str, np.ndarray] = {n: np.zeros_like(t.data) for n, t in params}
        self.second_moment: Dict[str, np.ndarray] = {n: np.zeros_like(t.data) for n, t in params}


def adam_step(params: List[Tuple[str, Tensor]], state: AdamState) -> None:
    """One bias-corrected Adam update, in place. Parameters with no gradient
    (grad is None) are skipped; non-finite gradients are an error."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params:
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)


def zero_grads(params: List[Tuple[str, Tensor]]) -> None:
    for _, p in params:
        p.grad = None
