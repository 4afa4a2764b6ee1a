"""Scaled dot-product attention, multi-head projections, sinusoidal positional
encoding, and the per-pedestrian temporal transformer block.

All blocks are pure functions of (inputs, params); params are plain containers
of autodiff tensors so they can be shared across concurrent forward passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import MaskError, NonFiniteError, ShapeMismatchError
from .tensor import Tensor, layer_norm, linear, parameter


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

    def frozen(self) -> "Params":
        """A copy, walked as parameters() walks it, whose tensors wrap the same
        arrays with requires_grad False: no op on it keeps parents or a
        backward closure. The original and its gradients stay as they are."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return replace(self, **{name: Tensor(v.data) if isinstance(v, Tensor) else v.frozen()
                                for name, v in values.items() if isinstance(v, (Tensor, Params))})


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

    @classmethod
    def init(cls, d_model: int, head_count: int, rng: np.random.Generator, **extra):
        """Xavier projections and zero biases; `extra` fills the fields a
        subclass adds."""
        if d_model % head_count != 0:
            raise ShapeMismatchError(f"d_model {d_model} not divisible by head count {head_count}")
        mk = lambda: parameter(_xavier(rng, d_model, d_model))
        zb = lambda: parameter(np.zeros(d_model))
        return cls(
            wq=mk(), bq=zb(), wk=mk(), bk=zb(), wv=mk(), bv=zb(),
            wo=mk(), bo=zb(), head_count=head_count, **extra,
        )


# Logits per block of attention_weights' key-major softmax: 1 << 16 float64
# logits, a 512 KiB buffer, a quarter of the 2 MiB per-core L2 of the 2-core
# Xeon VM measured. Timed per call at the crowd and packed shapes, blocks of
# 1 << 15 to 1 << 17 ran within 5 % of each other. Smaller blocks pay numpy's
# per-call cost more often (1 << 12: the (80, 8, 19, 19) crowd logits took
# 1.75x as long); larger ones fall out of L2 between the passes (1 << 18: the
# (128, 8, 20, 20) packed logits took 1.8x as long). Only the block buffer
# lives beside the weights, so peak memory does not grow with the logits.
LOGIT_BLOCK = 1 << 16


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(lead..., t, d) -> (lead..., heads, t, d // heads), a view."""
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(lead..., heads, t, d_k) -> (lead..., t, heads * d_k), a view or a copy."""
    return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (x.shape[-2], x.shape[-3] * x.shape[-1]))


def attention_weights(q: Tensor, k: Tensor, allow: np.ndarray, heads: int) -> np.ndarray:
    """masked_attention's softmax weights (lead..., heads, t_q, t_k), on no tape.

    q (lead..., t_q, d_model) and k (lead..., t_k, d_model) share a leading
    shape of at least one axis: (N,) in the temporal block, (t, S) in
    TGConv. allow: boolean (lead..., t_q, t_k), True for a usable key, one
    mask for every head, of the logits' first axis, every other axis 1 or
    the logits'. Any other shape, heads not dividing d_model, or an empty
    axis but the keys' raises ShapeMismatchError; a query row with no usable
    key raises MaskError, a non-finite weight NonFiniteError. Logits are
    scaled by 1/sqrt(d_k), d_k = d_model / heads; blocked ones are -inf, so
    their weights are exactly zero.

    The softmax runs key-major, over blocks of at most LOGIT_BLOCK logits
    along the first axis: each block's logits go into a (t_k, ..., t_q)
    buffer as k (q / sqrt(d_k))^T, so that the -inf fill (skipped when allow
    blocks no key), the max, the subtract and the exp each run over
    contiguous rows instead of one short row per query. The exponentials
    are then copied row-major into the weights, which numpy sums along
    their last axis and divides in place, as the row-major softmax does, so
    the weights have its bits. A row's weights are finite exactly when its
    sum is (a finite row sums to at least 1), so the finiteness check reads
    the sums alone.
    """
    sq, sk = q.shape, k.shape
    if (len(sq) < 3 or 0 in sq[:-1] or sq[:-2] != sk[:-2] or sq[-1] != sk[-1]
            or heads < 1 or sq[-1] % heads):
        raise ShapeMismatchError(f"attention: q, k of {sq}, {sk} for {heads} heads")
    allow = np.asarray(allow, dtype=bool)
    shape = sq[:-1] + sk[-2:-1]  # the logits' but for the heads
    if allow.ndim != len(shape) or allow.shape[0] != shape[0] or any(
            a != 1 and a != b for a, b in zip(allow.shape[1:], shape[1:])):
        raise ShapeMismatchError(f"attention: allow of {allow.shape} for logits of {shape}")
    # one pass over allow when it blocks no key; with no key, every row is dead
    dense = shape[-1] > 0 and allow.all()
    if not dense:
        live = allow.any(axis=-1)
        if not live.all():
            row = tuple(int(i) for i in np.argwhere(~live)[0])
            raise MaskError(f"attention query row {row} has every key masked")
    # scaling q by 1/sqrt(d_k) scales every logit before normalising while
    # touching the small (t, d_k) side instead of the (t_q, t_k) logit matrix
    qt = (_split_heads(q.data, heads) * (1.0 / math.sqrt(sq[-1] // heads))).swapaxes(-1, -2)
    kd = _split_heads(k.data, heads)
    w = np.empty(qt.shape[:-2] + (sq[-2], sk[-2]))
    hide = None if dense else ~allow[..., None, :, :]  # the -inf fill, sliced per block
    rows, per_row, t_k = len(w), math.prod(w.shape[1:]), sk[-2]
    step = max(1, LOGIT_BLOCK // per_row)
    buf = np.empty(min(step, rows) * per_row)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        x = buf[:(hi - lo) * per_row].reshape(t_k, -1)  # key-major logits
        logits = x.T.reshape(w[lo:hi].shape)  # (block, ..., t_q, t_k) view
        np.matmul(kd[lo:hi], qt[lo:hi], out=logits.swapaxes(-1, -2))
        if hide is not None:
            np.copyto(logits, -np.inf, where=hide[lo:hi])
        np.subtract(x, x.max(axis=0), out=x)
        np.exp(x, out=x)
        np.copyto(w[lo:hi], logits)
        total = w[lo:hi].sum(axis=-1, keepdims=True)
        if not np.isfinite(total).all():
            raise NonFiniteError("non-finite attention weights")
        w[lo:hi] /= total
    return w


def masked_attention(q: Tensor, k: Tensor, v: Tensor, allow: np.ndarray, heads: int) -> Tensor:
    """Multi-head attention, the core of the temporal block and TGConv, as
    one tape node: (lead..., t_q, d_v) outputs with the heads merged. q, k,
    allow and heads as attention_weights takes them; v is (lead..., t_k,
    d_v); head i reads and writes the i-th d / heads columns, its w @ v
    through a head-split view of the C-ordered output. The backward pass
    keeps the expressions of the scale, QK^T, normalise and AV composite, bit
    for bit, and lays out the merged q, k and v gradients as the head split
    and merge tape nodes did."""
    # the scaled q and the block buffer die before w @ v is allocated: an
    # output allocated above a live buffer left a hole in the heap behind it,
    # which raised packed training's peak RSS by 1.6 %
    w = attention_weights(q, k, allow, heads)
    sq, sv = q.shape, v.shape
    if sv[:-1] != k.shape[:-1] or sv[-1] % heads:
        raise ShapeMismatchError(f"masked_attention: v of {sv} for k of {k.shape}, {heads} heads")
    scale = 1.0 / math.sqrt(sq[-1] // heads)
    qh, kh, vh = (_split_heads(x.data, heads) for x in (q, k, v))

    def bwd(g):
        g = _split_heads(g, heads)
        gw = np.matmul(g, np.swapaxes(vh, -1, -2))
        if v.requires_grad:
            v._accumulate(_merge_heads(np.matmul(np.swapaxes(w, -1, -2), g)))
        gw -= (gw * w).sum(axis=-1, keepdims=True)
        gl = np.multiply(gw, w, out=gw)  # the logit gradient, w * (gw - rowsum)
        if q.requires_grad:
            gq = np.matmul(gl, kh)
            gq *= scale
            q._accumulate(_merge_heads(gq))
        if k.requires_grad:
            qs = qh * scale  # recomputed, not saved: the forward's bits
            gk = np.swapaxes(np.matmul(np.swapaxes(qs, -1, -2), gl), -1, -2)  # (qs^T gl)^T
            k._accumulate(_merge_heads(gk))

    out = np.empty(sq[:-1] + sv[-1:])
    np.matmul(w, vh, out=_split_heads(out, heads))
    return Tensor(out, _parents=(q, k, v), _backward=bwd)


def head_projections(h: Tensor, params: AttentionParams) -> Tuple[Tensor, Tensor, Tensor]:
    """Queries, keys and values of (..., t, d_model) inputs, each (..., t, d_model)."""
    return (linear(h, params.wq, params.bq), linear(h, params.wk, params.bk),
            linear(h, params.wv, params.bv))


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
    time_mask: np.ndarray,
) -> Tensor:
    """Per-pedestrian temporal transformer over (N, t, d_model) sequences.

    time_mask (N, t): which steps exist per pedestrian. No step attends to an
    absent one, so whatever an absent step holds reaches no present output;
    absent steps' own outputs are left for the caller's masks to ignore. A
    pedestrian with no present step attends over all of its own steps.
    """
    n, t, d = h.shape
    x = h + Tensor(positional_encoding(t, d))
    q, k, v = head_projections(x, params.attn)
    # queries at absent steps still need a key, and a row with no present
    # step keys on all of its own steps
    keys = time_mask | ~time_mask.any(axis=1, keepdims=True)
    att = masked_attention(q, k, v, keys[:, None, :], params.attn.head_count)
    # x + att and y + ff, each as its linear's residual: float addition commutes
    att = linear(att, params.attn.wo, params.attn.bo, x)
    y = layer_norm(att, params.ln1_gain, params.ln1_bias)
    ff = linear(linear(y, params.w_ff1, params.b_ff1, relu=True), params.w_ff2, params.b_ff2, y)
    return layer_norm(ff, params.ln2_gain, params.ln2_bias)
