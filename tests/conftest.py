"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import startraj.graph


@pytest.fixture
def spatial_weights(monkeypatch):
    """Spy on graph.masked_attention, the attention core of every spatial
    block: a list that receives each call's (mask, weights) as numpy arrays,
    in call order."""
    calls = []
    real = startraj.graph.masked_attention

    def spy(q, k, v, allow, d_k):
        out, weights = real(q, k, v, allow, d_k)
        calls.append((np.asarray(allow), weights.numpy()))
        return out, weights

    monkeypatch.setattr(startraj.graph, "masked_attention", spy)
    return calls
