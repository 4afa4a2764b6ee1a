"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import startraj.gradcheck
import startraj.graph
from startraj.tensor import Tensor


@pytest.fixture
def spatial_weights(monkeypatch):
    """Spy on graph.masked_attention, the attention core of every spatial
    block: a list that receives each call's (mask, weights) as numpy arrays,
    in call order."""
    calls = []
    real = startraj.graph.masked_attention

    def spy(q, k, v, allow):
        out, weights = real(q, k, v, allow)
        calls.append((np.asarray(allow), weights.numpy()))
        return out, weights

    monkeypatch.setattr(startraj.graph, "masked_attention", spy)
    return calls


@pytest.fixture
def skewed_q_gradient(monkeypatch):
    """gradcheck's masked_attention entry with its analytic q-gradient scaled
    by 1.01: q passes through an identity node whose backward is skewed, so
    the finite-difference detector must fire on that entry alone."""
    real = startraj.gradcheck.masked_attention

    def skewed(q, *args):
        q_skewed = Tensor(q.data, _parents=(q,), _backward=lambda g: q._accumulate(1.01 * g))
        return real(q_skewed, *args)

    monkeypatch.setattr(startraj.gradcheck, "masked_attention", skewed)


@pytest.fixture
def read_only_tensors(monkeypatch):
    """A switch: once called, every Tensor made until the test ends holds
    read-only data, so an op that writes into an array a tape node already
    holds raises ValueError instead of corrupting it."""
    real = Tensor.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self.data.flags.writeable = False

    return lambda: monkeypatch.setattr(Tensor, "__init__", init)
