"""Scaled dot-product attention, multi-head attention, sinusoidal positional
encoding, and the per-pedestrian temporal transformer block.

All blocks are pure functions of (inputs, params); params are plain containers
of autodiff tensors so they can be shared across concurrent forward passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .errors import MaskError, ShapeMismatchError
from .tensor import Tensor, layer_norm, linear, parameter, softmax

MASK_FILL = -1e9


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Params:
    """Base of the weight containers. parameters() walks the dataclass fields
    in declaration order: a Tensor field is named by its path of field names,
    a nested Params is walked under its field's name, and anything else (None,
    ints, the config) holds no weights."""

    def parameters(self, prefix: str = "") -> List[Tuple[str, Tensor]]:
        out: List[Tuple[str, Tensor]] = []
        for f in fields(self):
            value = getattr(self, f.name)
            name = f"{prefix}.{f.name}" if prefix else f.name
            if isinstance(value, Tensor):
                out.append((name, value))
            elif isinstance(value, Params):
                out += value.parameters(name)
        return out


@dataclass
class AttentionParams(Params):
    """Projections for one multi-head attention layer (all d_model -> d_model)."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    head_count: int
    d_model: int

    @property
    def d_k(self) -> int:
        return self.d_model // self.head_count

    @classmethod
    def init(cls, d_model: int, head_count: int, rng: np.random.Generator, **extra):
        """Xavier projections and zero biases; `extra` fills the fields a
        subclass adds."""
        if d_model % head_count != 0:
            raise ShapeMismatchError(
                f"d_model {d_model} not divisible by head count {head_count}"
            )
        mk = lambda: parameter(_xavier(rng, d_model, d_model))
        zb = lambda: parameter(np.zeros(d_model))
        return cls(
            wq=mk(), bq=zb(), wk=mk(), bk=zb(), wv=mk(), bv=zb(),
            wo=mk(), bo=zb(), head_count=head_count, d_model=d_model, **extra,
        )


def masked_attention(
    q: Tensor, k: Tensor, v: Tensor, allow: np.ndarray, d_k: int
) -> Tuple[Tensor, Tensor]:
    """Attention core shared by the temporal block and TGConv.

    q, k, v: (..., t, d_k). allow: boolean, broadcastable to the logit shape
    (..., t_q, t_k); True marks usable keys. Logits are scaled by 1/sqrt(d_k)
    before the softmax; blocked entries get MASK_FILL added, which underflows
    to an exactly-zero weight after max subtraction.

    Returns (output, weights).
    """
    # scaling q by 1/sqrt(d_k) scales every logit before the softmax while
    # touching the small (t, d_k) side instead of the (t_q, t_k) logit matrix
    logits = (q * (1.0 / math.sqrt(d_k))).matmul(k.swapaxes(-1, -2))
    allow = np.asarray(allow, dtype=bool)
    dead = ~allow.any(axis=-1)
    if dead.any():
        row = np.argwhere(dead)[0]
        raise MaskError(f"attention query row {tuple(row)} has every key masked")
    fill = np.where(allow, 0.0, MASK_FILL)  # broadcasts against the logits
    weights = softmax(logits + Tensor(fill), axis=-1)
    return weights.matmul(v), weights


def head_projections(
    h: Tensor, params: AttentionParams
) -> Tuple[Tensor, Tensor, Tensor]:
    """Queries, keys and values of (..., t, d_model) inputs, split into
    heads: each (..., heads, t, d_k)."""
    lead_t = h.shape[:-1]

    def split(x: Tensor) -> Tensor:
        return x.reshape(lead_t + (params.head_count, params.d_k)).swapaxes(-3, -2)

    return (
        split(linear(h, params.wq, params.bq)),
        split(linear(h, params.wk, params.bk)),
        split(linear(h, params.wv, params.bv)),
    )


def merge_heads(out: Tensor, params: AttentionParams) -> Tensor:
    """Inverse of the head split: (..., heads, t, d_k) -> (..., t, d_model)."""
    merged = out.swapaxes(-3, -2)
    return merged.reshape(merged.shape[:-2] + (params.d_model,))


def multi_head(
    h: Tensor, params: AttentionParams, mask: Optional[np.ndarray] = None
) -> Tensor:
    """Multi-head self-attention on (..., t, d_model) inputs.

    mask broadcasts against (..., heads, t, t); typically (t, t) or
    (N, 1, t, t) for per-pedestrian key masks.
    """
    t = h.shape[-2]
    q, k, v = head_projections(h, params)
    if mask is None:
        mask = np.ones((t, t), dtype=bool)
    out, _ = masked_attention(q, k, v, mask, params.d_k)
    return linear(merge_heads(out, params), params.wo, params.bo)


def positional_encoding(t_max: int, d_model: int) -> np.ndarray:
    """Sinusoidal table (t_max, d_model): sin on even columns, cos on odd."""
    if d_model % 2 != 0:
        raise ShapeMismatchError("positional encoding needs an even d_model")
    pos = np.arange(t_max)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    table = np.zeros((t_max, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


@dataclass
class TemporalBlockParams(Params):
    """Temporal transformer block: attention, feed-forward, two layer norms."""

    attn: AttentionParams
    w_ff1: Tensor
    b_ff1: Tensor
    w_ff2: Tensor
    b_ff2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    @staticmethod
    def init(
        d_model: int, head_count: int, rng: np.random.Generator, ff_dim: Optional[int] = None
    ) -> "TemporalBlockParams":
        ff = ff_dim if ff_dim is not None else 2 * d_model
        return TemporalBlockParams(
            attn=AttentionParams.init(d_model, head_count, rng),
            w_ff1=parameter(_xavier(rng, d_model, ff)),
            b_ff1=parameter(np.zeros(ff)),
            w_ff2=parameter(_xavier(rng, ff, d_model)),
            b_ff2=parameter(np.zeros(d_model)),
            ln1_gain=parameter(np.ones(d_model)),
            ln1_bias=parameter(np.zeros(d_model)),
            ln2_gain=parameter(np.ones(d_model)),
            ln2_bias=parameter(np.zeros(d_model)),
        )


def temporal_block(
    h: Tensor,
    params: TemporalBlockParams,
    time_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Per-pedestrian temporal transformer over (N, t, d_model) sequences.

    time_mask (N, t): which steps exist per pedestrian; absent steps are
    neither attended to nor emitted (their output rows are zeroed).
    """
    n, t, d = h.shape
    if time_mask is None:
        time_mask = np.ones((n, t), dtype=bool)
    if not time_mask.any(axis=1).all():
        bad = int(np.flatnonzero(~time_mask.any(axis=1))[0])
        raise MaskError(f"pedestrian {bad} has no valid timesteps")
    x = h + Tensor(positional_encoding(t, d))
    allow = np.broadcast_to(time_mask[:, None, None, :], (n, 1, t, t))
    # queries at absent steps still need a key; their rows are zeroed below
    att = multi_head(x, params.attn, allow)
    y = layer_norm(x + att, params.ln1_gain, params.ln1_bias)
    ff = linear(linear(y, params.w_ff1, params.b_ff1).relu(), params.w_ff2, params.b_ff2)
    out = layer_norm(y + ff, params.ln2_gain, params.ln2_bias)
    return out * Tensor(time_mask[:, :, None].astype(np.float64))
