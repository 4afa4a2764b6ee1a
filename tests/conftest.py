"""Fixtures shared by the test modules."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

import startraj.gradcheck
import startraj.graph
from startraj.attention import attention_weights
from startraj.tensor import Tensor

# Every property test draws its examples from a seed fixed per test, so two
# runs of one commit test the same examples; nothing is kept between runs,
# and no example has a deadline. Each test sets its own max_examples.
settings.register_profile("startraj", derandomize=True, database=None, deadline=None)
settings.load_profile("startraj")


@pytest.fixture
def spatial_weights(monkeypatch):
    """Spy on graph.masked_attention, the attention core of every spatial
    block: a list that receives each call's mask and its attention_weights,
    (lead..., heads, t_q, t_k), as numpy arrays, in call order."""
    calls = []
    real = startraj.graph.masked_attention

    def spy(q, k, v, allow, heads):
        calls.append((np.asarray(allow), attention_weights(q, k, allow, heads)))
        return real(q, k, v, allow, heads)

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
def read_only_tensors():
    """A switch: every Tensor made inside `with read_only_tensors():` holds
    read-only data, so an op that writes into an array a tape node already
    holds raises ValueError instead of corrupting it."""
    real = Tensor.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self.data.flags.writeable = False

    @contextmanager
    def switch():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Tensor, "__init__", init)
            yield

    return switch
