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

from .errors import MaskError, ShapeMismatchError
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


# Logits per block of masked_attention's key-major softmax: 1 << 16 float64
# logits, a 512 KiB buffer, a quarter of the 2 MiB per-core L2 of the 2-core
# Xeon VM measured. Timed per call at the crowd and packed shapes, blocks of
# 1 << 15 to 1 << 17 ran within 5 % of each other. Smaller blocks pay numpy's
# per-call cost more often (1 << 12: the (80, 8, 19, 19) crowd logits took
# 1.75x as long); larger ones fall out of L2 between the passes (1 << 18: the
# (128, 8, 20, 20) packed logits took 1.8x as long). Only the block buffer
# lives beside the weights, so peak memory does not grow with the logits.
LOGIT_BLOCK = 1 << 16


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order numpy's pairwise sum adds a contiguous
    last axis: a plain running sum below 8 terms; up to 128, eight running
    sums of every eighth term added as a fixed tree, then the remainder; past
    128, the two halves (the first a multiple of 8 long) summed apart. So
    _pairwise_sum(x) is the sum over the last axis of a C-contiguous copy of
    x.T, bit for bit; both add onto +0.0, so a column of -0.0 sums to +0.0."""
    n = len(x)
    if n < 8:
        return x.sum(axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])
    eights = n - n % 8
    r = x[:eights].reshape((eights // 8, 8) + x.shape[1:]).sum(axis=0)
    r = r[0::2] + r[1::2]
    res = r[0::2] + r[1::2]
    res = res[0] + res[1]
    for row in x[eights:]:
        res += row
    return res


def _key_major_softmax(qs: np.ndarray, kd: np.ndarray, allow: Optional[np.ndarray]) -> np.ndarray:
    """masked_attention's weights, row-major (..., t_q, t_k), from the scaled
    queries qs and the keys kd, with allow None when it blocks no key (see
    masked_attention for the blocks)."""
    qt = qs.swapaxes(-1, -2)
    w = np.empty(qs.shape[:-1] + kd.shape[-2:-1])
    hide = None if allow is None else ~allow  # the -inf fill, sliced per block
    rows, per_row, t_k = len(w), math.prod(w.shape[1:]), kd.shape[-2]
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
        np.divide(logits, _pairwise_sum(x).reshape(logits.shape[:-1] + (1,)), out=w[lo:hi])
    return w


def masked_attention(q: Tensor, k: Tensor, v: Tensor, allow: np.ndarray) -> Tuple[Tensor, Tensor]:
    """Attention core shared by the temporal block and TGConv, one tape node.

    q, k, v: (lead..., t, d_k), one leading shape with at least one axis:
    (N, heads) in the temporal block, (t, heads) or (t, S, heads) in TGConv.
    allow: boolean, of the logits' rank (lead..., t_q, t_k) and their
    first-axis length, every other axis 1 or the logits'; True marks usable
    keys. Any other shape, or an empty axis other than the keys', raises
    ShapeMismatchError; a query row with no usable key raises MaskError.
    Logits are scaled by 1/sqrt(d_k); blocked ones are set to -inf, so their
    weights are exactly zero. Returns (output, weights); the weights carry
    no gradient.

    The softmax runs key-major, over blocks of at most LOGIT_BLOCK logits
    along the first axis: each block's logits go into a (t_k, ..., t_q)
    buffer as k (q / sqrt(d_k))^T, so that the max, the sum and the -inf
    fill (skipped when allow blocks no key) each run over contiguous rows
    instead of one short row per query. The sum adds in numpy's pairwise
    order for a last-axis sum (_pairwise_sum), and the divide writes the
    weights back row-major, so outputs and weights have the bits of the
    row-major softmax. The output is a (lead..., t_q, d_v) view of a buffer
    laid out (lead[:-1]..., t_q, heads, d_v), which merge_heads reshapes
    without a copy. The backward pass keeps the expressions of the scale,
    QK^T, normalise and AV composite, bit for bit.
    """
    sq, sk, sv = q.shape, k.shape, v.shape
    if len(sq) < 3 or 0 in sq[:-1] or sq[:-2] != sk[:-2] or sk[:-1] != sv[:-1] or sq[-1] != sk[-1]:
        raise ShapeMismatchError(f"masked_attention: q, k, v of {sq}, {sk}, {sv}")
    allow = np.asarray(allow, dtype=bool)
    shape = sq[:-1] + sk[-2:-1]  # the logits'
    if allow.ndim != len(shape) or allow.shape[0] != shape[0] or any(
            a != 1 and a != b for a, b in zip(allow.shape[1:], shape[1:])):
        raise ShapeMismatchError(f"masked_attention: allow of {allow.shape} for logits of {shape}")
    # one pass over allow when it blocks no key; with no key, every row is dead
    dense = shape[-1] > 0 and allow.all()
    if not dense:
        live = allow.any(axis=-1)
        if not live.all():
            row = tuple(int(i) for i in np.argwhere(~live)[0])
            raise MaskError(f"attention query row {row} has every key masked")
    # scaling q by 1/sqrt(d_k) scales every logit before normalising while
    # touching the small (t, d_k) side instead of the (t_q, t_k) logit matrix
    scale = 1.0 / math.sqrt(sq[-1])
    # the scaled q and the block buffer die before w @ v is allocated: an
    # output allocated above a live buffer left a hole in the heap behind it,
    # which raised packed training's peak RSS by 1.6 %
    w = _key_major_softmax(q.data * scale, k.data, None if dense else allow)

    def bwd(g):
        gw = np.matmul(g, np.swapaxes(v.data, -1, -2))
        v._accumulate(np.matmul(np.swapaxes(w, -1, -2), g))
        gw -= (gw * w).sum(axis=-1, keepdims=True)
        gl = np.multiply(gw, w, out=gw)  # the logit gradient, w * (gw - rowsum)
        gq = np.matmul(gl, k.data)
        gq *= scale
        q._accumulate(gq)
        qs = q.data * scale  # recomputed, not saved: the forward's bits
        gk = np.swapaxes(np.matmul(np.swapaxes(qs, -1, -2), gl), -1, -2)  # (qs^T gl)^T
        k._accumulate(gk)

    out = np.empty(sq[:-3] + (sq[-2], sq[-3], sv[-1])).swapaxes(-3, -2)
    np.matmul(w, v.data, out=out)
    return Tensor(out, _parents=(q, k, v), _backward=bwd), Tensor(w)


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
    """Inverse of the head split: (..., heads, t, d_k) -> (..., t, d_model).
    On masked_attention's output, whose memory is already (..., t, heads,
    d_k), the result is a view; any other layout is copied."""
    merged = out.swapaxes(-3, -2)
    return merged.reshape(merged.shape[:-2] + (params.d_model,))


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

    time_mask (N, t): which steps exist per pedestrian; absent steps are
    neither attended to nor emitted (their output rows are zeroed). A
    pedestrian with no present step passes through as zeros.
    """
    n, t, d = h.shape
    x = h + Tensor(positional_encoding(t, d))
    q, k, v = head_projections(x, params.attn)
    # queries at absent steps still need a key, and a row with no present
    # step keys on all of its own steps; those outputs are zeroed below
    keys = time_mask | ~time_mask.any(axis=1, keepdims=True)
    att, _ = masked_attention(q, k, v, keys[:, None, None, :])
    # x + att and y + ff, each as its linear's residual: float addition commutes
    att = linear(merge_heads(att, params.attn), params.attn.wo, params.attn.bo, x)
    y = layer_norm(att, params.ln1_gain, params.ln1_bias)
    ff = linear(linear(y, params.w_ff1, params.b_ff1).relu(), params.w_ff2, params.b_ff2, y)
    out = layer_norm(ff, params.ln2_gain, params.ln2_bias)
    return out * Tensor(time_mask[:, :, None].astype(np.float64))
